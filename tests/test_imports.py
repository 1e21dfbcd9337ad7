"""Every name a pssmplab module imports is used in that module, and every
name in its ``__all__`` is bound in it.  ``import pssmplab`` and the runs
that need no scipy function load no scipy module; a function that needs
scipy imports it at first use, with the same result as in a process that
has it loaded already.

Package ``__init__.py`` files only re-export, so they are exempt from the
first check, as are ``__future__`` imports.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pssmplab"
ALL_MODULES = sorted(SRC.rglob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - used)


def test_scan_sees_unused_and_used_names():
    src = ("from __future__ import annotations\n"
           "import os.path\nimport numpy as np\n"
           "from typing import Optional, Sequence\n"
           "def f(x: Optional[int]):\n    return np.zeros(x)\n")
    assert _unused_imports(src) == ["Sequence", "os"]


@pytest.mark.parametrize("path", MODULES,
                         ids=[str(p.relative_to(SRC)) for p in MODULES])
def test_module_imports_are_used(path):
    assert _unused_imports(path.read_text()) == []


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


@pytest.mark.parametrize("path", ALL_MODULES,
                         ids=[str(p.relative_to(SRC)) for p in ALL_MODULES])
def test_module_all_names_are_bound(path):
    module = importlib.import_module(_module_name(path))
    assert [n for n in getattr(module, "__all__", ())
            if not hasattr(module, n)] == []


# -- scipy is imported where it is first used ----------------------------------

_REPORT = """
import json, sys
print(json.dumps({"value": value,
                  "scipy": sorted(m for m in sys.modules
                                  if m.split(".")[0] == "scipy")}))
"""


def _fresh(code: str, *args: str, cwd=None) -> dict:
    """Run ``code``, which binds ``value``, in a new interpreter that
    imports pssmplab from this checkout; its value and loaded scipy
    modules."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                             else []))
    proc = subprocess.run([sys.executable, "-c", code + _REPORT, *args],
                          env=env, cwd=cwd, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


_NO_SCIPY = {
    "import": "import pssmplab\nvalue = None",
    "negative_moment": (
        "from pssmplab import catalog, expfun\n"
        "from pssmplab.paths import SimConfig\n"
        "value = expfun.negative_moment_check(catalog.brownian(), 64, "
        "SimConfig(seed=0)).to_json()"),
    "cli_analyze_simulate": (
        "import json, sys\n"
        "from pssmplab import catalog, cli\n"
        "from pssmplab.models import model_to_dict\n"
        "with open('two_sided.json', 'w') as fh:\n"
        "    json.dump(model_to_dict(catalog.two_sided()), fh)\n"
        "value = [cli.main(['analyze', '--model', 'two_sided.json', "
        "'--out', 'analyze.json']),\n"
        "         cli.main(['simulate', '--model', 'two_sided.json', "
        "'--kind', 'pssmp', '--samples', '2', '--out', 'paths.jsonl'])]"),
    "entrance_mass": (
        "from pssmplab import catalog\n"
        "from pssmplab.extensions import entrance_mass_check\n"
        "from pssmplab.paths import SimConfig\n"
        "value = entrance_mass_check(catalog.brownian(), 1.0, 64, "
        "SimConfig(seed=0)).to_json()"),
    "ks_two_sample": (
        "import numpy as np\n"
        "from pssmplab.verify import ks_two_sample\n"
        "value = ks_two_sample(np.linspace(0.0, 1.0, 30), "
        "np.linspace(0.2, 1.3, 25)).to_json()"),
    "default_suite": (
        "from pssmplab import cli\n"
        "suite = cli.default_suite()\n"
        "for check in suite['checks']:\n"
        "    if 'n' in check:\n"
        "        check['n'] = 200\n"
        "value = [c['op'] for c in cli.run_suite(suite, 0)['checks'] "
        "if 'error' in c]"),
    "tempered_power": (
        "from pssmplab.models import TemperedPower\n"
        "j = TemperedPower(1.0, 0.75, 0.01)\n"
        "value = [j.total_intensity, j.exponent(0.5), "
        "j.exponent_derivative(0.5)]"),
    "boundary_root": (
        "from pssmplab import catalog\n"
        "from pssmplab.models import cramer_root\n"
        "from pssmplab.paths import SimConfig\n"
        "from pssmplab.verify import counterexample_demo\n"
        "value = [cramer_root(catalog.boundary_root()).to_json(),\n"
        "         counterexample_demo(1.0, 0.75, 0.01, 200, SimConfig(seed=0))]"),
    "renewal_indicator": (
        "from pssmplab.verify import RenewalProblem, renewal_limit\n"
        "p = RenewalProblem(gamma=0.75, dx=0.05, t_max=200.0)\n"
        "value = renewal_limit(p, {'kind': 'indicator', 'a': 0.0, "
        "'b': 1.0})"),
}


@pytest.mark.parametrize("case", sorted(_NO_SCIPY))
def test_runs_that_need_no_scipy_load_none(case, tmp_path):
    res = _fresh(_NO_SCIPY[case], cwd=tmp_path)
    assert res["scipy"] == []
    if case == "cli_analyze_simulate":
        assert res["value"] == [0, 0]
    if case == "default_suite":  # no check errored
        assert res["value"] == []


# each binds ``value`` from the first call of a function that imports scipy
_FIRST_USE = {
    "resolvent_check": (
        "from pssmplab import catalog\n"
        "from pssmplab.extensions import resolvent_check\n"
        "from pssmplab.paths import SimConfig\n"
        "value = resolvent_check(catalog.bessel(), 1.0, {'kind': 'bump', "
        "'a': 0.5, 'b': 1.5}, 64, SimConfig(seed=0)).to_json()"),
}


@pytest.mark.parametrize("case", sorted(_FIRST_USE))
def test_first_use_of_scipy_gives_the_same_value(case):
    ns = {}
    exec(_FIRST_USE[case], ns)
    res = _fresh(_FIRST_USE[case])
    assert res["scipy"], "the case should load scipy at first use"
    assert res["value"] == json.loads(json.dumps(ns["value"]))


def test_concurrent_first_use_in_suite_is_reproducible():
    # two resolvent checks on the Bessel model open the suite, so the two
    # pool threads each import scipy.special at first use at the same
    # moment.  The import hook notes when each thread's first scipy import
    # starts and ends: the two must overlap.  The report must equal the
    # one-thread report byte for byte
    code = (
        "import builtins, json, sys, threading, time\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from workloads import SIZES, _suite\n"
        "from pssmplab import cli\n"
        "suite = _suite(SIZES['smoke']['suite_scale'])\n"
        "suite['checks'][0:0] = [{'op': 'resolvent', 'model': 'bessel', "
        "'n': 400} for _ in range(2)]\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "spans, imp = {}, builtins.__import__\n"
        "def hook(name, *a, **k):\n"
        "    if name.split('.')[0] != 'scipy':\n"
        "        return imp(name, *a, **k)\n"
        "    t = threading.current_thread().name\n"
        "    first = t not in spans\n"
        "    if first:\n"
        "        spans[t] = [time.perf_counter(), None]\n"
        "    try:\n"
        "        return imp(name, *a, **k)\n"
        "    finally:\n"
        "        if first:\n"
        "            spans[t][1] = time.perf_counter()\n"
        "builtins.__import__ = hook\n"
        "two = json.dumps(cli.run_suite(suite, 0, threads=2), indent=2)\n"
        "builtins.__import__ = imp\n"
        "one = json.dumps(cli.run_suite(suite, 0, threads=1), indent=2)\n"
        "value = [two, one, sorted(spans.values())]")
    res = _fresh(code, str(ROOT / "perfbench"))
    two, one, spans = res["value"]
    assert two == one
    recs = [c for c in json.loads(one)["checks"] if c["op"] == "resolvent"]
    assert len(recs) == 2 and not [c for c in recs if "error" in c]
    # the second thread's first scipy import starts before the first's ends
    assert len(spans) == 2 and spans[1][0] < spans[0][1], spans
    assert "scipy.special" in res["scipy"]
    assert "scipy.integrate" not in res["scipy"]
    assert "scipy.stats" not in res["scipy"]
