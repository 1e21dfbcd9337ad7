"""Command-line entry point: analyze model files, simulate paths, run
verification suites, all with reproducible manifests.

Exit codes: 0 success, 1 at least one suite check failed (or a domain
error), 2 usage or parse error, 3 a bug: an exception that is not a
``LabError``, whose traceback goes to stderr.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from typing import List, Optional

from . import catalog, extensions, models, verify
from .errors import LabError, ModelFileError
from .expfun import dual_identity_check, negative_moment_check, recursion_check
from .lamperti import _check_positive, levy_to_pssmp
from .models import LevyModel, cramer_root, load_model, model_from_dict
from .paths import SimConfig, _check_path_ends, sample_levy_path

__all__ = ["main", "analyze", "run_suite", "simulate"]


def _now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat()


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _write_json(doc: dict, out: Optional[str]):
    text = json.dumps(doc, indent=2)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# analyze


def analyze(model_file: str) -> dict:
    model = load_model(model_file)
    report = cramer_root(model)
    doc = report.to_json()
    doc["verdicts"] = {
        "continuous": report.continuous_extension_exists,
        "jump_in_range": list(report.jump_in_range),
        "condition4_finite": report.condition4_finite,
    }
    doc["model_digest"] = _digest(model_file)
    return doc


# ---------------------------------------------------------------------------
# suite


def _suite_model(check: dict) -> LevyModel:
    if "model_file" in check:
        return load_model(check["model_file"])
    if "model" in check:
        name = check["model"]
        if isinstance(name, str):
            if name not in catalog.__all__:
                raise ModelFileError(f"model: unknown catalog model {name!r}")
            return getattr(catalog, name)()
        return model_from_dict(name)
    raise ModelFileError("check needs 'model' or 'model_file'")


def _field(check: dict, key: str, default=None, finite=True, integer=False):
    """Numeric field of a suite check, ``default`` when it is absent
    (required when there is none); an error names the field."""
    if key not in check and default is not None:
        return default
    v = models._number(check, key, "", finite)
    if integer and not v.is_integer():
        raise ModelFileError(f"{key}: expected an integer, got {check[key]!r}")
    return int(v) if integer else v


# ops read as one CheckReport z-score against z_max: op -> (model, check
# spec, n, config) -> CheckReport.  The lambdas look each check up when
# called, so a wrapped module attribute is seen.
_Z_CHECKS = {
    "recursion": lambda model, check, n, cfg: recursion_check(
        model, _field(check, "beta"), n, cfg),
    "dual_identity": lambda model, check, n, cfg: dual_identity_check(
        model, n, cfg),
    "negative_moment": lambda model, check, n, cfg: negative_moment_check(
        model, n, cfg),
    "entrance_law": lambda model, check, n, cfg:
        extensions.entrance_mass_check(model, _field(check, "t", 1.0), n, cfg),
    "resolvent": lambda model, check, n, cfg: extensions.resolvent_check(
        model, _field(check, "lambda", 1.0),
        check.get("f", {"kind": "bump", "a": 0.5, "b": 1.5}), n, cfg),
}


def _run_check(check: dict, seed: int, stream_base: int) -> dict:
    op = check.get("op")
    out = {"op": op}
    try:
        n = _field(check, "n", 20000, integer=True)
        if n < 1:
            raise ModelFileError(f"n: expected an integer >= 1, got {n}")
        z_max = _field(check, "z_max", 4.0)
        cfg = SimConfig(dt=_field(check, "dt", SimConfig.dt),
                        horizon=_field(check, "horizon", SimConfig.horizon,
                                       finite=False),
                        seed=seed, stream_id=stream_base)
        if op in _Z_CHECKS:
            rep = _Z_CHECKS[op](_suite_model(check), check, n, cfg)
            out.update(rep.to_json())
            out["pass"] = bool(rep.z_score < z_max)
        elif op == "scaling":
            model = _suite_model(check)
            seeds = _field(check, "seeds", 20, integer=True)
            rate = _field(check, "min_rate", 0.9)
            x = _field(check, "x", 1.0)
            c = _field(check, "c", 2.0)
            t = _field(check, "t", 0.5)
            alpha_override = check.get("alpha_override")
            if alpha_override is not None:
                # a number; scaling_test rejects a non-finite one by name
                _field(check, "alpha_override", finite=False)

            def one(s):
                c2 = replace(cfg, seed=seed + 7919 * (s + 1))
                return verify.scaling_test(
                    model, x, c, t, n, c2, alpha_override=alpha_override)

            rep = verify.multi_seed_ks(one, seeds=seeds)
            out.update(rep)
            out["pass"] = rep["rate"] >= rate
        elif op == "renewal":
            problem = verify.RenewalProblem(
                gamma=_field(check, "gamma", 0.75),
                dx=_field(check, "dx", 0.05),
                t_max=_field(check, "t_max", 200.0))
            g = check.get("g", {"kind": "indicator", "a": 0.0, "b": 1.0})
            res = verify.renewal_limit(problem, g)
            tol = _field(check, "rel_tol", 0.15)
            out.update(res)
            out["pass"] = abs(res["value"] - res["target"]) \
                <= tol * abs(res["target"])
        else:
            raise ValueError(f"unknown op {op!r}")
    except Exception as exc:  # record, never abort the suite
        out["pass"] = False
        out["error"] = f"{type(exc).__name__}: {exc}"
        out["traceback"] = traceback.format_exc()
    return out


def default_suite() -> dict:
    return {"checks": [
        {"op": "recursion", "model": "brownian", "beta": 0.25, "n": 20000},
        {"op": "dual_identity", "model": "two_sided", "n": 50000},
        {"op": "negative_moment", "model": "brownian", "n": 20000},
        {"op": "entrance_law", "model": "brownian", "t": 1.0, "n": 20000},
        {"op": "scaling", "model": "brownian", "n": 1000, "seeds": 20},
        {"op": "renewal", "gamma": 0.75},
    ]}


def run_suite(suite: dict, seed: int, threads: int = 1) -> dict:
    if not isinstance(suite, dict):
        raise ModelFileError("$: expected a JSON object")
    checks = suite.get("checks", [])
    if not isinstance(checks, list):
        raise ModelFileError("$.checks: expected an array")
    for i, c in enumerate(checks):
        if not isinstance(c, dict):
            raise ModelFileError(f"$.checks[{i}]: expected an object")
    with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
        futures = [pool.submit(_run_check, c, seed, 1000 * i)
                   for i, c in enumerate(checks)]
        results = [f.result() for f in futures]
    return {"checks": results,
            "passed": sum(1 for r in results if r["pass"]),
            "failed": sum(1 for r in results if not r["pass"])}


# ---------------------------------------------------------------------------
# simulate


def _simulate_configs(model: LevyModel, kind: str, args):
    """SimConfig, ExtensionConfig or None; a ValueError names a bad flag."""
    if args.samples < 1:
        raise ValueError(f"samples must be >= 1, got {args.samples}")
    _check_positive("x0", args.x0)
    cfg = SimConfig(dt=args.dt, horizon=args.horizon, seed=args.seed)
    _check_path_ends(model, cfg)
    if kind != "extension":
        return cfg, None
    if args.epsilon is None or args.mode is None:
        raise ValueError("extension kind requires --epsilon and --mode")
    return cfg, extensions.ExtensionConfig(
        mode=args.mode, epsilon=args.epsilon, horizon=args.ext_horizon,
        beta=args.beta)


def simulate(model: LevyModel, kind: str, args, out_path: str) -> List[str]:
    cfg, ecfg = _simulate_configs(model, kind, args)
    lines = []
    for i in range(args.samples):
        sample_cfg = cfg.substream(i)
        if kind == "levy":
            rec = sample_levy_path(model, sample_cfg)
        elif kind == "pssmp":
            rec = levy_to_pssmp(sample_levy_path(model, sample_cfg), args.x0,
                                model.alpha, allow_truncated=True)
        else:
            rec = extensions.simulate_extension(model, ecfg, sample_cfg)
        lines.append(rec.to_json_record())
    with open(out_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return lines


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser():
    """The top-level parser and its simulate subparser."""
    parser = argparse.ArgumentParser(
        prog="pssmplab",
        description="simulation lab for positive self-similar Markov "
                    "processes built from killed Levy processes")
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="Cramer-condition report for a model")
    pa.add_argument("--model", required=True)
    pa.add_argument("--out")

    ps = sub.add_parser("simulate", help="dump simulated paths as JSON lines")
    ps.add_argument("--model", required=True)
    ps.add_argument("--kind", choices=["levy", "pssmp", "extension"],
                    required=True)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--samples", type=int, default=1)
    ps.add_argument("--dt", type=float, default=SimConfig.dt)
    ps.add_argument("--horizon", type=float, default=SimConfig.horizon)
    ps.add_argument("--x0", type=float, default=1.0)
    ps.add_argument("--epsilon", type=float)
    ps.add_argument("--beta", type=float)
    ps.add_argument("--mode", choices=["jump_in", "continuous"])
    ps.add_argument("--ext-horizon", type=float, default=50.0)
    ps.add_argument("--out", required=True)

    pv = sub.add_parser("verify", help="run a verification suite")
    group = pv.add_mutually_exclusive_group(required=True)
    group.add_argument("--suite")
    group.add_argument("--default", action="store_true")
    pv.add_argument("--seed", type=int, default=0)
    pv.add_argument("--threads", type=int, default=1)
    pv.add_argument("--out")
    return parser, ps


def main(argv=None) -> int:
    parser, sim_parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analyze":
            doc = analyze(args.model)
            _write_json(doc, args.out)
            return 0
        if args.command == "simulate":
            started = _now()
            model = load_model(args.model)
            # an invalid flag value is rejected before any path is drawn
            try:
                _simulate_configs(model, args.kind, args)
            except ValueError as exc:
                sim_parser.error(str(exc))
            simulate(model, args.kind, args, args.out)
            manifest = {"command": "simulate",
                        "model_digest": _digest(args.model),
                        "seed": args.seed, "n": args.samples,
                        "started": started, "finished": _now(),
                        "outputs": [args.out]}
            with open(args.out + ".manifest.json", "w") as fh:
                json.dump(manifest, fh, indent=2)
            return 0
        # verify
        suite = (default_suite() if args.default
                 else models._read_json(args.suite))
        report = run_suite(suite, args.seed, args.threads)
        _write_json(report, args.out)
        return 0 if report["failed"] == 0 else 1
    except (ModelFileError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except Exception:  # a bug, not a failed check
        traceback.print_exc()
        return 3


if __name__ == "__main__":
    sys.exit(main())
