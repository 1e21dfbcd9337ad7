"""Command-line entry point: analyze model files, simulate paths, run
verification suites, all with reproducible manifests.

Exit codes: 0 success, 1 at least one suite check failed, 2 usage or parse
error.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import List, Optional

from scipy import special

from . import catalog, extensions, verify
from .errors import LabError, ModelFileError
from .expfun import (
    CheckReport,
    dual_identity_check,
    negative_moment_check,
    recursion_check,
)
from .lamperti import levy_to_pssmp
from .models import LevyModel, cramer_root, load_model, model_from_dict
from .paths import SimConfig, sample_levy_path

__all__ = ["main", "RunManifest", "analyze", "run_suite", "simulate"]


@dataclass
class RunManifest:
    command: str
    model_digest: Optional[str]
    seed: int
    n: int
    started: str = ""
    finished: str = ""
    outputs: List[str] = field(default_factory=list)

    def to_json(self) -> dict:
        return self.__dict__.copy()


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


# ops read as one CheckReport z-score against z_max: op -> (model, check
# spec, n, config) -> CheckReport.  The lambdas look each check up when
# called, so a wrapped module attribute is seen.
_Z_CHECKS = {
    "recursion": lambda model, check, n, cfg: recursion_check(
        model, float(check["beta"]), n, cfg),
    "dual_identity": lambda model, check, n, cfg: dual_identity_check(
        model, n, cfg),
    "negative_moment": lambda model, check, n, cfg: negative_moment_check(
        model, n, cfg),
    "resolvent": lambda model, check, n, cfg: extensions.resolvent_crosscheck(
        model, float(check.get("lambda", 1.0)),
        check.get("f", {"kind": "bump", "a": 0.5, "b": 1.5}), n, cfg),
}


def _run_check(check: dict, seed: int, stream_base: int) -> dict:
    op = check.get("op")
    n = int(check.get("n", 20000))
    z_max = float(check.get("z_max", 4.0))
    cfg = SimConfig(dt=float(check.get("dt", SimConfig.dt)),
                    horizon=float(check.get("horizon", SimConfig.horizon)),
                    seed=seed, stream_id=stream_base)
    out = {"op": op}
    try:
        if op in _Z_CHECKS:
            rep = _Z_CHECKS[op](_suite_model(check), check, n, cfg)
            out.update(rep.to_json())
            out["pass"] = rep.z_score < z_max
        elif op == "entrance_law":
            model = _suite_model(check)
            t = float(check.get("t", 1.0))
            est = extensions.entrance_law(model, t, {"kind": "one"}, n, cfg)
            rep = cramer_root(model)
            expect = t ** (-rep.alpha_theta) / special.gamma(
                1.0 - rep.alpha_theta)
            z = CheckReport(lhs=est.value, rhs=expect, std_err=est.std_err,
                            n=n, censored=est.censored).z_score
            out.update({"value": est.value, "expected": expect,
                        "se": est.std_err, "z": z, "pass": bool(z < z_max)})
        elif op == "normalization":
            model = _suite_model(check)
            rep = extensions.excursion_normalization_check(model, n, cfg)
            tol = float(check.get("rel_tol", 0.05))
            out.update(rep)
            out["pass"] = abs(rep["value"] - 1.0) < tol
        elif op == "scaling":
            model = _suite_model(check)
            seeds = int(check.get("seeds", 20))
            rate = float(check.get("min_rate", 0.9))
            x = float(check.get("x", 1.0))
            c = float(check.get("c", 2.0))
            t = float(check.get("t", 0.5))
            alpha_override = check.get("alpha_override")

            def one(s):
                c2 = SimConfig(dt=cfg.dt, horizon=cfg.horizon,
                               seed=seed + 7919 * (s + 1),
                               stream_id=stream_base)
                return verify.scaling_test(
                    model, x, c, [t], n, c2,
                    alpha_override=alpha_override)[0]

            rep = verify.multi_seed_ks(one, seeds=seeds)
            out.update(rep)
            out["pass"] = rep["rate"] >= rate
        elif op == "renewal":
            gam = float(check.get("gamma", 0.75))
            problem = verify.RenewalProblem(
                tail={"kind": "pareto", "gamma": gam}, gamma=gam,
                dx=float(check.get("dx", 0.05)),
                t_max=float(check.get("t_max", 200.0)))
            g = check.get("g", {"kind": "indicator", "a": 0.0, "b": 1.0})
            res = verify.renewal_limit(problem, g, [problem.t_max])[0]
            tol = float(check.get("rel_tol", 0.15))
            out.update(res)
            out["pass"] = abs(res["value"] - res["target"]) \
                <= tol * abs(res["target"])
        else:
            raise ValueError(f"unknown op {op!r}")
    except Exception as exc:  # record, never abort the suite
        out["pass"] = False
        out["error"] = f"{type(exc).__name__}: {exc}"
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
    checks = suite.get("checks", [])
    with ThreadPoolExecutor(max_workers=max(1, threads)) as pool:
        futures = [pool.submit(_run_check, c, seed, 1000 * i)
                   for i, c in enumerate(checks)]
        results = [f.result() for f in futures]
    return {"checks": results,
            "passed": sum(1 for r in results if r["pass"]),
            "failed": sum(1 for r in results if not r["pass"])}


# ---------------------------------------------------------------------------
# simulate


def simulate(model: LevyModel, kind: str, args, out_path: str) -> List[str]:
    lines = []
    for i in range(args.samples):
        cfg = SimConfig(dt=args.dt, horizon=args.horizon, seed=args.seed,
                        stream_id=i)
        if kind == "levy":
            rec = sample_levy_path(model, cfg)
        elif kind == "pssmp":
            rec = levy_to_pssmp(sample_levy_path(model, cfg), args.x0,
                                model.alpha, allow_truncated=True)
        else:
            ecfg = extensions.ExtensionConfig(
                mode=args.mode, epsilon=args.epsilon,
                horizon=args.ext_horizon, beta=args.beta)
            rec = extensions.simulate_extension(model, ecfg, cfg)
        lines.append(rec.to_json_record())
    with open(out_path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return lines


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
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
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    manifest = RunManifest(command=args.command, model_digest=None,
                           seed=getattr(args, "seed", 0),
                           n=getattr(args, "samples", 0), started=_now())
    try:
        if args.command == "analyze":
            doc = analyze(args.model)
            _write_json(doc, args.out)
            return 0
        if args.command == "simulate":
            if args.kind == "extension":
                if args.epsilon is None or args.mode is None:
                    parser.error("extension kind requires --epsilon and --mode")
                if args.mode == "jump_in" and args.beta is None:
                    parser.error("jump_in mode requires --beta")
            model = load_model(args.model)
            manifest.model_digest = _digest(args.model)
            simulate(model, args.kind, args, args.out)
            manifest.outputs = [args.out]
            manifest.finished = _now()
            with open(args.out + ".manifest.json", "w") as fh:
                json.dump(manifest.to_json(), fh, indent=2)
            return 0
        # verify
        if args.default:
            suite = default_suite()
        else:
            with open(args.suite) as fh:
                suite = json.load(fh)
        report = run_suite(suite, args.seed, args.threads)
        _write_json(report, args.out)
        return 0 if report["failed"] == 0 else 1
    except ModelFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except json.JSONDecodeError as exc:
        print(f"error: invalid JSON: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
