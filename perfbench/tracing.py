"""Per-layer spans for pssmplab, recorded from outside the package.

``Tracer.install()`` replaces each traced function at every name a caller
looks it up by (``from X import f`` makes a second binding, so a function is
replaced in every ``pssmplab.*`` module that holds it) and ``uninstall()``
puts the originals back.  A span is ``[name, thread id, start, end, parent,
attrs]``; the parent is the innermost open span of the same thread, so the
threads of the verification suite keep correct parent links.  Spans stay in
memory until ``layer_metrics()`` folds them into the per-layer metrics.

``paths.stream_rng`` is wrapped to return a ``TimedGenerator``: a
``numpy.random.Generator`` subclass over the same bit generator, so every
draw is the one the plain generator would make, only timed and counted.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np

_clock = time.perf_counter

# The per-layer metrics, in BENCHMARK.json order: name -> unit.  "kernels"
# is pssmplab._kernels (a metric name starts with a letter or a digit).
LAYER_UNITS = {
    "kernels.calls": "count",
    "kernels.target_calls": "count",
    "kernels.s": "s",
    "kernels.steps": "count",
    "kernels.step_use": "ratio",
    "kernels.msteps_per_s": "Msteps/s",
    "paths.rng_calls": "count",
    "paths.rng_normals": "count",
    "paths.rng_s": "s",
    "engine.gauss_self_s": "s",
    "engine.draws": "count",
    "engine.censored": "count",
    "engine.jump_s": "s",
    "engine.generic_s": "s",
    "engine.marginal_s": "s",
    "verify.scaling_s": "s",
    "verify.renewal_s": "s",
    "paths.levy_path_calls": "count",
    "paths.levy_path_points": "count",
    "paths.levy_path_s": "s",
    "lamperti.levy_to_pssmp_calls": "count",
    "lamperti.levy_to_pssmp_s": "s",
    "extensions.simulate_extension_s": "s",
    "extensions.excursions": "count",
    "extensions.entrance_curve_s": "s",
    "cli.simulate_s": "s",
    "cli.simulate_lines": "count",
    "models.cramer_root_calls": "count",
    "models.cramer_root_s": "s",
    "expfun.recursion_check_s": "s",
    "expfun.dual_identity_check_s": "s",
    "expfun.negative_moment_check_s": "s",
    "cli.check_busy_s": "s",
    "cli.check_wait_s": "s",
    "cli.pool_use": "ratio",
    "trace.overhead_s": "s",
}

_DRAWS = ("standard_normal", "normal", "exponential", "random", "poisson",
          "gamma", "uniform", "integers")


def _engine_kind(model) -> str:
    if not model.jumps:
        return "gauss"
    return "jump" if model.gaussian == 0 else "generic"


class TimedGenerator(np.random.Generator):
    """Generator whose draw methods open a ``paths.rng`` span."""

    tracer = None


def _timed_draw(method):
    base = getattr(np.random.Generator, method)

    def draw(self, *args, **kwargs):
        return self.tracer.call("paths.rng", base, (self, *args), kwargs,
                                after=_count_normals if "normal" in method
                                else None)

    draw.__name__ = method
    return draw


def _count_normals(span, args, kwargs, result):
    span[5]["normals"] = np.size(result)


for _m in _DRAWS:
    setattr(TimedGenerator, _m, _timed_draw(_m))


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._saved = []
        import pssmplab  # noqa: F401  (the modules to patch must be loaded)
        from pssmplab import _kernels, cli, engine, expfun, extensions, \
            lamperti, models, paths, verify
        self._hooks = [
            (_kernels.advance_window, "kernels.advance_window",
             _kernel_before, _kernel_after),
            (engine.functional_batch, "engine.functional_batch",
             _batch_before, _functional_after),
            (engine.marginal_batch, "engine.marginal_batch",
             _marginal_before, _marginal_after),
            (paths.stream_rng, None, None, None),
            (paths.sample_levy_path, "paths.sample_levy_path", None,
             _levy_path_after),
            (lamperti.levy_to_pssmp, "lamperti.levy_to_pssmp", None, None),
            (extensions.simulate_extension, "extensions.simulate_extension",
             None, _extension_after),
            (extensions.entrance_law_curve, "extensions.entrance_law_curve",
             None, None),
            (cli.simulate, "cli.simulate", None, _simulate_after),
            (cli.run_suite, "cli.run_suite", _suite_before, None),
            (cli._run_check, "cli.check", None, None),
            (verify.scaling_test, "verify.scaling_test", None, None),
            (verify.renewal_limit, "verify.renewal_limit", None, None),
            (models.cramer_root, "models.cramer_root", None, None),
            (expfun.recursion_check, "expfun.recursion_check", None, None),
            (expfun.dual_identity_check, "expfun.dual_identity_check",
             None, None),
            (expfun.negative_moment_check, "expfun.negative_moment_check",
             None, None),
        ]

    # -- recording -------------------------------------------------------

    def call(self, name, fn, args, kwargs, before=None, after=None):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span = [name, threading.get_ident(), 0.0, 0.0,
                stack[-1] if stack else None, {}]
        if before is not None:
            before(span, args, kwargs)
        self.spans.append(span)
        stack.append(span)
        span[2] = _clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = _clock()
            stack.pop()
        if after is not None:
            after(span, args, kwargs, result)
        return result

    def _wrap(self, fn, name, before, after):
        if name is None:  # paths.stream_rng
            tracer = self

            def stream_rng(seed, stream_id):
                gen = TimedGenerator(fn(seed, stream_id).bit_generator)
                gen.tracer = tracer
                return gen

            return stream_rng

        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, before, after)

        wrapper.__name__ = fn.__name__
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        modules = [m for k, m in sorted(sys.modules.items())
                   if (k == "pssmplab" or k.startswith("pssmplab."))
                   and m is not None]
        for fn, name, before, after in self._hooks:
            wrapper = self._wrap(fn, name, before, after)
            for mod in modules:
                for attr, val in list(vars(mod).items()):
                    if val is fn:
                        setattr(mod, attr, wrapper)
                        self._saved.append((mod, attr, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- folding ---------------------------------------------------------

    def layer_metrics(self) -> dict:
        child_s = {}
        for s in self.spans:
            if s[4] is not None:
                key = id(s[4])
                child_s[key] = child_s.get(key, 0.0) + (s[3] - s[2])
        m = dict.fromkeys(LAYER_UNITS, 0.0)
        normals_in = 0
        busy = 0.0
        for s in self.spans:
            name, dur, at = s[0], s[3] - s[2], s[5]
            if name == "kernels.advance_window":
                m["kernels.calls"] += 1
                m["kernels.target_calls"] += at["target"]
                m["kernels.s"] += dur
                m["kernels.steps"] += at["steps"]
                normals_in += at["normals"]
            elif name == "paths.rng":
                m["paths.rng_calls"] += 1
                m["paths.rng_normals"] += at.get("normals", 0)
                m["paths.rng_s"] += dur
            elif name in ("engine.functional_batch",
                          "engine.marginal_batch"):
                m["engine.draws"] += at["n"]
                m["engine.censored"] += at.get("censored", 0)
                if at["kind"] == "gauss":
                    m["engine.gauss_self_s"] += dur - child_s.get(id(s), 0.0)
                else:
                    m[f"engine.{at['kind']}_s"] += dur
                if name == "engine.marginal_batch":
                    m["engine.marginal_s"] += dur
            elif name == "verify.scaling_test":
                m["verify.scaling_s"] += dur
            elif name == "verify.renewal_limit":
                m["verify.renewal_s"] += dur
            elif name == "paths.sample_levy_path":
                m["paths.levy_path_calls"] += 1
                m["paths.levy_path_points"] += at["points"]
                m["paths.levy_path_s"] += dur
            elif name == "lamperti.levy_to_pssmp":
                m["lamperti.levy_to_pssmp_calls"] += 1
                m["lamperti.levy_to_pssmp_s"] += dur
            elif name == "extensions.simulate_extension":
                m["extensions.simulate_extension_s"] += dur
                m["extensions.excursions"] += at["excursions"]
            elif name == "extensions.entrance_law_curve":
                m["extensions.entrance_curve_s"] += dur
            elif name == "cli.simulate":
                m["cli.simulate_s"] += dur
                m["cli.simulate_lines"] += at["lines"]
            elif name == "models.cramer_root":
                m["models.cramer_root_calls"] += 1
                m["models.cramer_root_s"] += dur
            elif name.startswith("expfun."):
                m[name + "_s"] += dur
            elif name == "cli.check":
                m["cli.check_busy_s"] += dur
                m["cli.check_wait_s"] += s[2] - self._suite_start(s)
            elif name == "cli.run_suite":
                busy += at["threads"] * dur
        if normals_in:
            m["kernels.step_use"] = m["kernels.steps"] / normals_in
        if m["kernels.s"] > 0:
            m["kernels.msteps_per_s"] = m["kernels.steps"] / m["kernels.s"] / 1e6
        if busy > 0:
            m["cli.pool_use"] = m["cli.check_busy_s"] / busy
        return m

    def _suite_start(self, span) -> float:
        """Start of the suite run that queued a check (checks run on pool
        threads, so their parent is the suite span of another thread)."""
        starts = [s[2] for s in self.spans
                  if s[0] == "cli.run_suite" and s[2] <= span[2]]
        return max(starts) if starts else span[2]


# -- before/after hooks: counts recorded at the layer boundary ------------


def _kernel_before(span, args, kwargs):
    # advance_window(x, a, t, w, done, zeta, target, normals, b, sigma, dt,
    #                inv_alpha, sign, mode)
    span[5]["t0"] = args[2].copy()
    span[5]["normals"] = args[7].size
    span[5]["target"] = int(args[13] != 0)


def _kernel_after(span, args, kwargs, result):
    at = span[5]
    advanced = (args[2] - at.pop("t0")) / args[10]
    at["steps"] = int(np.ceil(advanced - 1e-9).clip(0).sum())


def _batch_before(span, args, kwargs):
    span[5]["kind"] = _engine_kind(args[0])
    span[5]["n"] = int(args[2])


def _functional_after(span, args, kwargs, result):
    span[5]["censored"] = int(result.censored.sum())


def _marginal_before(span, args, kwargs):
    span[5]["kind"] = _engine_kind(args[0])
    span[5]["n"] = int(np.size(args[1]))


def _marginal_after(span, args, kwargs, result):
    from pssmplab.engine import CENSORED
    span[5]["censored"] = int((result.status == CENSORED).sum())


def _levy_path_after(span, args, kwargs, result):
    span[5]["points"] = int(result.times.size)


def _extension_after(span, args, kwargs, result):
    span[5]["excursions"] = len(result.restarts)


def _simulate_after(span, args, kwargs, result):
    span[5]["lines"] = len(result)


def _suite_before(span, args, kwargs):
    threads = kwargs.get("threads", args[2] if len(args) > 2 else 1)
    span[5]["threads"] = max(1, int(threads))
