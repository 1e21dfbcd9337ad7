"""Command-line interface: subcommands, manifests, exit codes."""

import json
import math
import re
from pathlib import Path

import pytest

from pssmplab import cli
from pssmplab.errors import ModelFileError
from pssmplab.models import model_to_dict
from pssmplab import catalog


@pytest.fixture
def brownian_file(tmp_path):
    path = tmp_path / "brownian.json"
    path.write_text(json.dumps(model_to_dict(catalog.brownian())))
    return str(path)


@pytest.fixture
def pure_drift_file(tmp_path):
    """A conservative model: its paths end only at a finite horizon."""
    path = tmp_path / "pure_drift.json"
    path.write_text(json.dumps(model_to_dict(catalog.pure_drift())))
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


def test_a_bug_exits_3_with_its_traceback(brownian_file, monkeypatch,
                                         capsys):
    # not a failed check (1) nor a bad input (2)
    def broken(model_file):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(cli, "analyze", broken)
    assert cli.main(["analyze", "--model", brownian_file]) == 3
    err = capsys.readouterr().err
    assert err.startswith("Traceback (most recent call last):")
    assert "in broken" in err
    assert err.rstrip().endswith("TypeError: unsupported operand")


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


@pytest.mark.parametrize("model, kind, flags", [
    ("brownian", "levy", ["--dt", "0"]),
    ("brownian", "levy", ["--dt", "nan"]),
    ("brownian", "levy", ["--samples", "0"]),
    ("brownian", "pssmp", ["--x0", "0"]),
    ("brownian", "extension", ["--mode", "continuous", "--epsilon", "-1"]),
    ("brownian", "extension", ["--mode", "jump_in", "--epsilon", "0.05",
                               "--beta", "nan"]),
    ("pure_drift", "levy", ["--horizon", "inf"]),
    ("pure_drift", "pssmp", ["--horizon", "inf"]),
], ids=["dt_zero", "dt_nan", "no_samples", "x0_zero", "epsilon_negative",
        "beta_nan", "levy_horizon_inf_conservative",
        "pssmp_horizon_inf_conservative"])
def test_simulate_rejects_invalid_flags(brownian_file, pure_drift_file,
                                        tmp_path, capsys, model, kind, flags):
    files = {"brownian": brownian_file, "pure_drift": pure_drift_file}
    out = tmp_path / "paths.jsonl"
    with pytest.raises(SystemExit) as exc:
        cli.main(["simulate", "--model", files[model], "--kind", kind,
                  *flags, "--out", str(out)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: pssmplab simulate ")
    assert "error: " in err
    assert sorted(tmp_path.iterdir()) == sorted(
        tmp_path / f"{name}.json" for name in files)


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
    # the resolvent op with its default lambda and f runs and reports its
    # fields; its verdict is not read here
    report = cli.run_suite({"checks": [
        {"op": "resolvent", "model": "bessel", "n": 500},
    ]}, seed=0)
    (res,) = report["checks"]
    assert "error" not in res
    assert set(res) == {"op", "lhs", "rhs", "se", "z", "n", "censored",
                        "pass"}
    assert isinstance(res["censored"], int)
    assert all(math.isfinite(res[k]) for k in ("lhs", "rhs", "se", "z"))


def test_verify_entrance_law_record(tmp_path):
    # the entrance_law op records the keys of every z-gated op, with a JSON
    # boolean verdict
    suite = tmp_path / "suite.json"
    suite.write_text(json.dumps({"checks": [
        {"op": "entrance_law", "model": "brownian", "t": 1.0, "n": 500}]}))
    out = tmp_path / "report.json"
    code = cli.main(["verify", "--suite", str(suite), "--out", str(out)])
    doc = json.loads(out.read_text())
    rec = doc["checks"][0]
    assert set(rec) == {"op", "lhs", "rhs", "se", "z", "n", "censored",
                        "pass"}
    assert rec["pass"] in (True, False)
    assert code == (0 if rec["pass"] else 1)
    assert rec["rhs"] == pytest.approx(1.0 / math.gamma(0.5), rel=1e-9)
    assert rec["n"] == 500 and rec["censored"] == 0
    assert math.isfinite(rec["z"])


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
    # the traceback says where the error was raised
    tb = doc["checks"][4]["traceback"]
    assert tb.startswith("Traceback (most recent call last):")
    assert "_check_positive" in tb
    assert tb.rstrip().endswith(doc["checks"][4]["error"])


def test_suite_check_field_errors_are_recorded():
    # a bad field value is that check's error; the suite goes on
    report = cli.run_suite({"checks": [
        {"op": "renewal", "n": "abc"},
        {"op": "renewal", "dt": 0},
        {"op": "renewal", "dx": 0.1, "t_max": 50.0, "rel_tol": 0.5},
        {"op": "resolvent", "model": "brownian", "f": 3, "n": 200},
        {"op": "renewal", "g": {"kind": "indicator", "a": 1.0, "b": 0.0}},
        {"op": "renewal", "g": {"kind": "indicator", "a": 300, "b": 400}},
        {"op": "resolvent", "model": "brownian", "f": {"kind": "power"},
         "n": 200},
        {"op": "renewal", "g": {"kind": "indicator", "a": 0}},
        {"op": "renewal", "g": {"kind": "indicator", "a": 0, "b": "x"}},
        {"op": "resolvent", "model": "brownian",
         "f": {"kind": "power", "p": math.nan}, "n": 200},
        {"op": "resolvent", "model": "brownian",
         "f": {"kind": "indicator", "a": 2.0, "b": 1.0}, "n": 200},
        {"op": "resolvent", "model": "brownian",
         "f": {"kind": "bump", "a": 1.0, "b": 1.0}, "n": 200},
        # at t = 0 both samples are the point x: any alpha would pass
        {"op": "scaling", "model": "brownian", "t": 0, "alpha_override": 5.0,
         "n": 100, "seeds": 3},
        # a check's own numeric fields are named by their path
        {"op": "recursion", "model": "brownian", "beta": "q", "n": 16},
        {"op": "scaling", "model": "brownian", "c": "abc", "n": 16},
        {"op": "scaling", "model": "brownian", "alpha_override": "x",
         "n": 16},
        # an infinite z_max would pass every z check
        {"op": "recursion", "model": "brownian", "beta": 0.25, "n": 16,
         "z_max": math.inf},
        {"op": "renewal", "n": 2.5},
        # a lattice of step 0.3 ends at 50.1, not at t_max
        {"op": "renewal", "dx": 0.3, "t_max": 50.0},
        {"op": "recursion", "model": "brownian", "beta": 0.25, "n": -5},
        {"op": "scaling", "model": "brownian", "n": -3},
        {"op": "entrance_law", "model": "brownian", "n": 0},
        # the resolvent's exact value is that of a Bessel process
        {"op": "resolvent", "model": "brownian"},
    ] + [{"op": "scaling", "model": "brownian", "alpha_override": a,
          "n": 100, "seeds": 3} for a in (0, -2.0, math.nan, math.inf)]},
        seed=0)
    (bad_n, bad_dt, ok, bad_f, empty_g, far_g, no_p, no_b, text_b, nan_p,
     empty_f, flat_bump, t_zero, text_beta, text_c, text_alpha, inf_z_max,
     half_n, uneven_dx, negative_n, negative_scaling_n, zero_n,
     not_bessel, *bad_alpha) = report["checks"]
    assert bad_n["error"] == "ModelFileError: n: expected a number, got 'abc'"
    assert text_beta["error"] == \
        "ModelFileError: beta: expected a number, got 'q'"
    assert text_c["error"] == "ModelFileError: c: expected a number, got 'abc'"
    assert text_alpha["error"] == \
        "ModelFileError: alpha_override: expected a number, got 'x'"
    assert inf_z_max["error"] == \
        "ModelFileError: z_max: expected a finite number, got inf"
    assert half_n["error"] == "ModelFileError: n: expected an integer, got 2.5"
    for rec, n in ((negative_n, -5), (negative_scaling_n, -3), (zero_n, 0)):
        assert rec["error"] == \
            f"ModelFileError: n: expected an integer >= 1, got {n}"
    assert not_bessel["error"].startswith(
        "ValueError: the resolvent check needs a Bessel exponent: gaussian 1, "
        "no jumps, no killing, alpha 1/2 and -1 < drift < 0, got LevyModel(")
    assert uneven_dx["error"] == "ValueError: t_max must be a whole number " \
        "of dx steps, got dx=0.3, t_max=50.0"
    assert bad_dt["error"] == "ValueError: dt must be > 0"
    assert bad_f["error"] == "ValueError: test function f: expected an " \
        "object, got 3"
    assert empty_g["error"] == "ValueError: g: indicator needs finite a < b, " \
        "got a=1.0, b=0.0"
    assert far_g["error"] == "ValueError: g sums to zero over the lattice " \
        "of [0, t_max=200] at dx=0.025"
    assert no_p["error"] == "ModelFileError: f.p: missing required field"
    assert no_b["error"] == "ModelFileError: g.b: missing required field"
    assert text_b["error"] == \
        "ModelFileError: g.b: expected a number, got 'x'"
    assert nan_p["error"] == \
        "ModelFileError: f.p: expected a finite number, got nan"
    assert empty_f["error"] == "ValueError: f: indicator needs finite " \
        "a < b, got a=2.0, b=1.0"
    assert flat_bump["error"] == "ValueError: f: bump needs finite a < b, " \
        "got a=1.0, b=1.0"
    assert t_zero["error"] == "ValueError: t must be finite and > 0, got 0.0"
    assert [c["error"] for c in bad_alpha] == [
        f"ValueError: alpha_override must be finite and > 0, got {a!r}"
        for a in (0, -2.0, math.nan, math.inf)]
    assert not any(c["pass"] for c in report["checks"] if c is not ok)
    assert "error" not in ok and ok["pass"]


def test_readme_suite_op_list_is_the_cli_op_list():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Verification suites", 1)[1]
    listed = section.split("Each check has an `op`", 1)[1].split(")", 1)[0]
    ops = re.findall(r"`(\w+)`", listed)
    assert ops
    knobs = {"n": 64, "beta": 0.25, "seeds": 1, "dx": 0.1, "t_max": 50.0}
    # the resolvent's exact value is that of a Bessel process
    report = cli.run_suite({"checks": [
        dict(knobs, op=op, model="bessel" if op == "resolvent" else "brownian")
        for op in ops]}, seed=0)
    for op, rec in zip(ops, report["checks"]):
        assert "error" not in rec, (op, rec["error"])
    gone = cli.run_suite({"checks": [dict(knobs, op="normalization")]},
                         seed=0)
    assert gone["checks"][0]["error"] == \
        "ValueError: unknown op 'normalization'"


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


def test_verify_suite_file_errors(tmp_path, capsys):
    assert cli.main(["verify", "--suite", str(tmp_path / "nope.json")]) == 2
    capsys.readouterr()
    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert cli.main(["verify", "--suite", str(bad)]) == 2
    assert capsys.readouterr().err.startswith("error: $: invalid JSON: ")
    for doc, err in [([], r"\$: expected a JSON object"),
                     ({"checks": {}}, r"\$\.checks: expected an array"),
                     ({"checks": [{"op": "renewal"}, 1]},
                      r"\$\.checks\[1\]: expected an object")]:
        bad.write_text(json.dumps(doc))
        assert cli.main(["verify", "--suite", str(bad)]) == 2
        with pytest.raises(ModelFileError, match=err):
            cli.run_suite(doc, seed=0)


def test_default_suite_passes():
    report = cli.run_suite(cli.default_suite(), seed=0, threads=3)
    assert report["failed"] == 0, report
    assert report["passed"] == len(cli.default_suite()["checks"])
