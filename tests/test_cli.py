"""Command-line interface: subcommands, manifests, exit codes."""

import json
import math

import pytest

from pssmplab import cli
from pssmplab.models import model_to_dict
from pssmplab import catalog


@pytest.fixture
def brownian_file(tmp_path):
    path = tmp_path / "brownian.json"
    path.write_text(json.dumps(model_to_dict(catalog.brownian())))
    return str(path)


def test_analyze(brownian_file, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["analyze", "--model", brownian_file, "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["theta"] == pytest.approx(0.5, abs=1e-9)
    assert doc["verdicts"]["continuous"] is True
    assert doc["verdicts"]["jump_in_range"][1] == pytest.approx(0.5, abs=1e-9)
    assert len(doc["model_digest"]) == 64


def test_analyze_prints_without_out(brownian_file, capsys):
    assert cli.main(["analyze", "--model", brownian_file]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["theta"] == pytest.approx(0.5, abs=1e-9)


def test_analyze_missing_file(tmp_path):
    assert cli.main(["analyze", "--model", str(tmp_path / "nope.json")]) == 2


def test_analyze_invalid_json(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["analyze", "--model", str(bad)]) == 2


def test_analyze_bad_model_document(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"drift": 0.0}))
    assert cli.main(["analyze", "--model", str(bad)]) == 2


def test_simulate_levy_writes_lines_and_manifest(brownian_file, tmp_path):
    out = tmp_path / "paths.jsonl"
    code = cli.main(["simulate", "--model", brownian_file, "--kind", "levy",
                     "--samples", "3", "--horizon", "50", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 3
    rec = json.loads(lines[0])
    assert rec["t"][0] == 0.0 and rec["x"][0] == 0.0
    manifest = json.loads((tmp_path / "paths.jsonl.manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["outputs"] == [str(out)]
    assert len(manifest["model_digest"]) == 64
    assert manifest["finished"] >= manifest["started"]


def test_simulate_pssmp(brownian_file, tmp_path):
    out = tmp_path / "pssmp.jsonl"
    code = cli.main(["simulate", "--model", brownian_file, "--kind", "pssmp",
                     "--samples", "2", "--x0", "2.0", "--out", str(out)])
    assert code == 0
    rec = json.loads(out.read_text().strip().split("\n")[0])
    assert rec["x0"] == 2.0
    assert rec["x"][0] == pytest.approx(2.0)


def test_simulate_extension_flag_requirements(brownian_file, tmp_path):
    out = tmp_path / "ext.jsonl"
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--model", brownian_file, "--kind",
                  "extension", "--out", str(out)])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--model", brownian_file, "--kind",
                  "extension", "--epsilon", "0.05", "--mode", "jump_in",
                  "--out", str(out)])
    assert exc.value.code == 2  # jump_in without --beta
    code = cli.main(["simulate", "--model", brownian_file, "--kind",
                     "extension", "--epsilon", "0.05", "--mode", "jump_in",
                     "--beta", "0.25", "--ext-horizon", "5", "--out",
                     str(out)])
    assert code == 0
    rec = json.loads(out.read_text().strip().split("\n")[0])
    assert rec["epsilon"] == 0.05


def test_unknown_flag_is_an_error(brownian_file):
    with pytest.raises(SystemExit) as exc:
        cli.main(["analyze", "--model", brownian_file, "--frobnicate"])
    assert exc.value.code == 2


def test_verify_custom_suite(tmp_path):
    # the model by catalog name, from a model file and inline
    drift_file = tmp_path / "pure_drift.json"
    drift_file.write_text(json.dumps(model_to_dict(catalog.pure_drift())))
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"checks": [
        {"op": "recursion", "model": "pure_drift", "beta": 0.5, "n": 16},
        {"op": "renewal", "gamma": 0.75, "dx": 0.1, "t_max": 50.0,
         "rel_tol": 0.5},
        {"op": "recursion", "model_file": str(drift_file), "beta": 0.5,
         "n": 16},
        {"op": "recursion", "model": model_to_dict(catalog.pure_drift(2.0)),
         "beta": 0.25, "n": 8},
    ]}))
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--suite", str(suite), "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["passed"] == 4 and doc["failed"] == 0
    # the normalization op and the resolvent op with its default lambda and
    # f run and report their fields; their verdicts are not read here
    report = cli.run_suite({"checks": [
        {"op": "normalization", "model": "brownian", "n": 500},
        {"op": "resolvent", "model": "brownian", "n": 500},
    ]}, seed=0)
    norm, res = report["checks"]
    assert "error" not in norm and "error" not in res
    assert set(norm) == {"op", "value", "se", "grid_change", "n", "pass"}
    assert set(res) == {"op", "lhs", "rhs", "se", "z", "n", "censored",
                        "pass"}
    assert all(math.isfinite(norm[k]) for k in ("value", "se", "grid_change"))
    assert all(math.isfinite(res[k]) for k in ("lhs", "rhs", "se", "z"))


def test_verify_records_errors_and_exits_nonzero(tmp_path):
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"checks": [
        {"op": "no_such_op"},
        {"op": "recursion", "model": "brownian", "beta": 0.9, "n": 16},
        {"op": "recursion", "model": "brownian", "beta": 0.25, "n": 1},
        {"op": "resolvent", "model": "brownian", "lambda": -1.0, "n": 200},
        {"op": "entrance_law", "model": "brownian", "t": -1.0, "n": 200},
    ]}))
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--suite", str(suite), "--out", str(out)])
    assert code == 1
    doc = json.loads(out.read_text())
    assert doc["failed"] == 5
    assert "error" in doc["checks"][0]
    assert "HypothesisViolated" in doc["checks"][1]["error"]
    assert "TooFewSamples" in doc["checks"][2]["error"]
    assert doc["checks"][3]["error"] == \
        "ValueError: lambda must be finite and > 0, got -1.0"
    assert doc["checks"][4]["error"] == \
        "ValueError: t must be finite and > 0, got -1.0"


def test_suite_model_name_must_be_a_catalog_model():
    # catalog attributes that are not catalog models are unknown names
    report = cli.run_suite({"checks": [
        {"op": "recursion", "model": name, "beta": 0.25, "n": 16}
        for name in ("LevyModel", "tempered_power_killing_for_root")]},
        seed=0)
    assert report["failed"] == 2
    assert [c["error"] for c in report["checks"]] == [
        "ModelFileError: model: unknown catalog model 'LevyModel'",
        "ModelFileError: model: unknown catalog model "
        "'tempered_power_killing_for_root'"]


def test_verify_suite_file_errors(tmp_path):
    assert cli.main(["verify", "--suite", str(tmp_path / "nope.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert cli.main(["verify", "--suite", str(bad)]) == 2


def test_default_suite_passes():
    report = cli.run_suite(cli.default_suite(), seed=0, threads=3)
    assert report["failed"] == 0, report
    assert report["passed"] == len(cli.default_suite()["checks"])
