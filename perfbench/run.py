"""End-to-end benchmark of pssmplab, with an optional per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the package is imported from ``src/``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json with tracing
off.  Passes over the workload's ops repeat, on identical inputs, while
another one fits in ``--seconds``.

* ``setup_s``: median over fresh processes that import pssmplab and build
  the workload (``workloads.build``), apart from the timed ops.
* ``wall_s``: median wall time of one pass.
* ``slowest_op_s``: the largest per-op median busy time, i.e. CPU time of
  the thread that ran the op (for the suite, of its pool thread).
* ``peak_rss_mb``: peak resident memory after set-up and the first pass.

Times are speed-normalized.  A shared machine changes speed by 20-40 % for
seconds at a time, and every op slows by about the same factor.  So a fixed
reference loop (``workloads.speed_sample``: numpy work shaped like
pssmplab's, sharing no code with it) is timed before the first op and after
every op (for the suite, after every check, on its pool thread).  Each time
is scaled by REF_NOMINAL_S over the mean of the samples around it: the
figures are seconds on a machine where the reference takes REF_NOMINAL_S.
The raw times are printed next to them (``raw_pass_s``, ``raw_wall_s``,
``raw_setup_s``).

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced passes (medians), including the tracing
overhead (traced minus untraced pass time).  The output digests of the
traced passes must equal those of the untraced ones.  Layer times are raw.

Every op's output is checked against its oracle; a failed gate or an
exception is a failed op.  The last stdout line is the result object; the
lines before it are the run manifest and the per-op report.  ``--smoke``
runs every workload at a tiny size in both modes and checks that every
metric of BENCHMARK.json is reported with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

_clock = time.perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TMP = ROOT / ".bench_tmp"

SETUP_PROBES = 3


def _load_pssmplab():
    if not (SRC / "pssmplab" / "__init__.py").is_file():
        raise SystemExit(f"error: no pssmplab package under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(HERE))
    import pssmplab
    if Path(pssmplab.__file__).resolve().parent != SRC / "pssmplab":
        raise SystemExit(f"error: imported pssmplab from {pssmplab.__file__}")
    return pssmplab


# -- set-up time ---------------------------------------------------------------


def _setup_probe(workload, seed, size):
    """In this fresh process: import pssmplab and build the workload; the
    speed sample is taken after, once numpy is loaded."""
    t0 = _clock()
    _load_pssmplab()
    import workloads
    workloads.build(workload, seed, size, tmp=str(TMP))
    return _clock() - t0, workloads.speed_now()


def _setup_seconds(workload, seed, size, probes):
    from workloads import normalized

    raw, scaled = [], []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", workload, "--seed", str(seed), "--size", size],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr}")
        seconds, ref = json.loads(proc.stdout.strip().splitlines()[-1])
        raw.append(seconds)
        scaled.append(normalized(seconds, ref))
    return statistics.median(scaled), statistics.median(raw)


# -- passes --------------------------------------------------------------------


def _run_pass(ops):
    """One pass: (raw seconds, normalized seconds, [OpResult])."""
    from workloads import Speed

    speed = Speed()
    raw = norm = 0.0
    results = []
    for op in ops:
        out, seconds, scaled = op(speed)
        raw += seconds
        norm += scaled
        results += out
    return raw, norm, results


def _measure(workload, seed, seconds, trace, size, probes):
    """Run one measurement; returns (metrics, ops report, run facts)."""
    import workloads

    metrics = {}
    facts = {}
    if not trace:
        metrics["setup_s"], facts["raw_setup_s"] = _setup_seconds(
            workload, seed, size, probes)
    ops = workloads.build(workload, seed, size, tmp=str(TMP))
    plain, traced, layers = [], [], []
    t0 = _clock()
    while True:
        plain.append(_run_pass(ops))
        if len(plain) == 1:  # set-up and one pass, whatever the pass count
            peak_rss_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if trace:
            from tracing import Tracer
            tracer = Tracer()
            with tracer:
                traced_ops = workloads.build(workload, seed, size,
                                             tmp=str(TMP))
                traced.append(_run_pass(traced_ops))
            layers.append(tracer.layer_metrics())
            del tracer
        per_round = statistics.median(p[0] for p in plain) + \
            (statistics.median(p[0] for p in traced) if trace else 0.0)
        if _clock() - t0 + per_round > seconds:
            break

    names = [r.name for r in plain[0][2]]
    wall_op = {n: statistics.median(
        [r.wall_s for p in plain for r in p[2] if r.name == n])
        for n in names}
    busy_op = {n: statistics.median(
        [r.busy_s for p in plain for r in p[2] if r.name == n])
        for n in names}

    reference = {r.name: r.digest for r in plain[0][2]}
    bad = []
    runs = [("plain", p) for p in plain] + [("traced", p) for p in traced]
    for kind, p in runs:
        for r in p[2]:
            same = r.digest == reference.get(r.name)
            if not r.ok or not same:
                bad.append((kind, r, same))
    for kind, r, same in bad:
        print(f"[{workload}] {kind} op {r.name}: "
              f"{'gate failed' if not r.ok else 'digest differs'}\n"
              f"{r.detail}", file=sys.stderr)
    report = []
    for r in plain[0][2]:
        lines = r.detail.strip().splitlines()
        report.append({"op": r.name, "busy_s": busy_op[r.name],
                       "raw_wall_s": wall_op[r.name], "ok": r.ok,
                       "detail": lines[-1] if lines else "",
                       "digest": r.digest})

    if trace:
        for key in layers[0]:
            metrics[key] = statistics.median(m[key] for m in layers)
        metrics["trace.overhead_s"] = \
            statistics.median(p[0] for p in traced) - \
            statistics.median(p[0] for p in plain)
    else:
        metrics["wall_s"] = statistics.median(p[1] for p in plain)
        metrics["slowest_op_s"] = max(busy_op.values())
        metrics["peak_rss_mb"] = peak_rss_mb

    failed = sum(1 for _, r, _ in bad if not r.ok)
    attempted = sum(len(p[2]) for _, p in runs)
    facts.update({
        "passes": len(plain), "traced_passes": len(traced),
        "pass_s": [p[1] for p in plain], "raw_pass_s": [p[0] for p in plain],
        "attempted": attempted, "failed": failed,
        "ops_failed": failed / attempted,
        "digest_mismatches": sum(1 for _, r, same in bad if r.ok and not same),
        "raised": sum(1 for _, r, _ in bad
                      if r.detail.startswith("Traceback"))})
    return metrics, report, facts


# -- manifest ------------------------------------------------------------------


def _git(*args):
    try:
        # stop git at the checkout: never report a repository around it
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, env=env)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def _manifest(workload, seed, seconds, trace, size):
    import numpy
    import scipy
    import pssmplab
    import workloads

    sha = _git("rev-parse", "HEAD")
    status = _git("status", "--porcelain") if sha else None
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "size": size,
        "git_sha": sha, "git_dirty": bool(status) if sha else None,
        "src_sha256": _src_digest(),
        "kernel_backend": pssmplab.kernel_backend,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "suite_threads": workloads.SUITE_THREADS,
        "ref_nominal_s": workloads.REF_NOMINAL_S,
    }


# -- entry points --------------------------------------------------------------


def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run_one(workload, seed, seconds, trace, size="full", probes=SETUP_PROBES):
    """Measure one workload; prints the manifest and op report lines and
    returns (result object, run facts)."""
    spec = _spec()
    manifest = _manifest(workload, seed, seconds, trace, size)
    metrics, report, facts = _measure(workload, seed, seconds, trace, size,
                                      probes)
    manifest.update(passes=facts.pop("passes"),
                    traced_passes=facts.pop("traced_passes"))
    print(json.dumps({"manifest": manifest}))
    print(json.dumps({"ops": report, **{k: v for k, v in facts.items()
                                        if k not in ("attempted", "raised")}}))
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace else "end_to_end"]}
    result = {"correct": facts["failed"] == 0
              and facts["digest_mismatches"] == 0,
              "attempted": facts["attempted"], "failed": facts["failed"],
              "metrics": {k: {"value": metrics[k], "unit": u}
                          for k, u in units.items()}}
    return result, facts


def smoke() -> int:
    """Every workload at a tiny size, untraced and traced: every metric of
    BENCHMARK.json present with its unit, no op raised, traced and untraced
    digests equal.  Gate failures at this size are reported, not fatal."""
    from tracing import LAYER_UNITS

    spec = _spec()
    problems = []
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    if declared != LAYER_UNITS:
        problems.append("per_layer metrics differ from tracing.LAYER_UNITS")
    for w in spec["workloads"]:
        for trace in (0, 1):
            t0 = _clock()
            result, facts = run_one(w["name"], 0, 0, trace, "smoke", probes=1)
            print(json.dumps(result))
            for m in spec["per_layer" if trace else "end_to_end"]:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"] or \
                        not isinstance(got["value"], (int, float)):
                    problems.append(f"{w['name']}: bad metric {m['name']}")
            if facts["raised"]:
                problems.append(f"{w['name']}: {facts['raised']} ops raised")
            if facts["digest_mismatches"]:
                problems.append(f"{w['name']}: traced and untraced digests "
                                "differ")
            print(f"smoke {w['name']} trace={trace}: "
                  f"{_clock() - t0:.1f}s, failed gates {facts['failed']}",
                  file=sys.stderr)
    for p in problems:
        print(f"smoke: {p}", file=sys.stderr)
    print(json.dumps({"smoke": "ok" if not problems else "failed",
                      "problems": problems}))
    return 0 if not problems else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--size", default="full", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.setup_probe:
        print(json.dumps(_setup_probe(args.workload, args.seed, args.size)))
        return 0
    _load_pssmplab()
    TMP.mkdir(exist_ok=True)
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            p.error("--workload is required")
        import workloads
        if args.workload not in workloads.WORKLOADS:
            p.error(f"unknown workload {args.workload!r}")
        result, _ = run_one(args.workload, args.seed, args.seconds,
                            args.trace)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
