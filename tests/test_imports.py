"""Every name a pssmplab module imports is used in that module, and every
name in its ``__all__`` is bound in it.  No module imports scipy, and in an
interpreter where any scipy import raises, every suite op, the console
commands and the verify demos run.

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

from pssmplab import cli

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pssmplab"
ALL_MODULES = sorted(SRC.rglob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


def _imports(tree):
    """(module, bound name) of each import in ``tree``, at any depth,
    except ``__future__`` imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                yield a.name, a.asname or a.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for a in node.names:
                yield node.module or "", a.asname or a.name


def _unused_imports(source: str):
    tree = ast.parse(source)
    imported = {name for _, name in _imports(tree)}
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(imported - used)


def _scipy_imports(source: str):
    return sorted(m for m, _ in _imports(ast.parse(source))
                  if m.split(".")[0] == "scipy")


def test_scan_sees_unused_and_used_names():
    src = ("from __future__ import annotations\n"
           "import os.path\nimport numpy as np\n"
           "from typing import Optional, Sequence\n"
           "def f(x: Optional[int]):\n    return np.zeros(x)\n"
           "def g():\n    from scipy.special import kv\n"
           "    import scipy as sp\n    return kv, sp\n")
    assert _unused_imports(src) == ["Sequence", "os"]
    assert _scipy_imports(src) == ["scipy", "scipy.special"]


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


def test_no_module_imports_scipy():
    found = {p.name: _scipy_imports(p.read_text()) for p in ALL_MODULES}
    assert {name: mods for name, mods in found.items() if mods} == {}


# -- runs with scipy blocked ---------------------------------------------------

_BLOCK = 'import sys\nsys.modules["scipy"] = None\n'

_REPORT = """
import json, sys
print(json.dumps({"value": value,
                  "scipy": sorted(m for m, mod in sys.modules.items()
                                  if m.split(".")[0] == "scipy"
                                  and mod is not None)}))
"""


def _fresh(code: str, *args: str, cwd=None) -> dict:
    """Run ``code``, which binds ``value``, in a new interpreter that
    imports pssmplab from this checkout and where scipy is None in
    ``sys.modules``, so any scipy import raises; its value and loaded
    scipy modules."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC.parent)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                             else []))
    proc = subprocess.run([sys.executable, "-c", _BLOCK + code + _REPORT,
                           *args],
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
        "import json\n"
        "from pssmplab import catalog, cli\n"
        "from pssmplab.models import model_to_dict\n"
        "for name in ('two_sided', 'brownian'):\n"
        "    with open(name + '.json', 'w') as fh:\n"
        "        json.dump(model_to_dict(getattr(catalog, name)()), fh)\n"
        "calls = [['analyze', '--model', 'two_sided.json', "
        "'--out', 'analyze.json'],\n"
        "         ['simulate', '--model', 'two_sided.json', "
        "'--kind', 'pssmp', '--samples', '2', '--out', 'paths.jsonl']]\n"
        "for kind in (['levy'], ['pssmp'],\n"
        "             ['extension', '--mode', 'continuous', "
        "'--epsilon', '0.05']):\n"
        "    calls.append(['simulate', '--model', 'brownian.json', "
        "'--kind', *kind, '--samples', '3', '--seed', '7', "
        "'--out', 'brownian.jsonl'])\n"
        "value = [cli.main(c) for c in calls]"),
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
        assert res["value"] == [0] * 5
    if case == "default_suite":  # no check errored
        assert res["value"] == []


def test_concurrent_first_use_in_suite_is_reproducible():
    # the suite CI runs: every op, with a resolvent check on each f kind.
    # The two resolvent checks open the suite, so the two pool threads
    # each compute K_mu at first use at the same moment; a wrapper notes
    # when each thread's resolvent check starts and ends: the two must
    # overlap.  The report must equal the one-thread report byte for byte
    code = (
        "import json, threading, time\n"
        "from pathlib import Path\n"
        "from pssmplab import cli, extensions\n"
        "suite = json.loads(Path(sys.argv[1]).read_text())\n"
        "suite['checks'].sort(key=lambda c: c['op'] != 'resolvent')\n"
        "spans, check = {}, extensions.resolvent_check\n"
        "def timed(*a, **k):\n"
        "    t0 = time.perf_counter()\n"
        "    try:\n"
        "        return check(*a, **k)\n"
        "    finally:\n"
        "        spans.setdefault(threading.current_thread().name,\n"
        "                         [t0, time.perf_counter()])\n"
        "extensions.resolvent_check = timed\n"
        "two = json.dumps(cli.run_suite(suite, 0, threads=2), indent=2)\n"
        "extensions.resolvent_check = check\n"
        "one = json.dumps(cli.run_suite(suite, 0, threads=1), indent=2)\n"
        "value = [two, one, sorted(spans.values())]")
    res = _fresh(code, str(ROOT / "tests" / "every_op_suite.json"))
    two, one, spans = res["value"]
    assert two == one
    checks = json.loads(one)["checks"]
    assert [c["op"] for c in checks if "error" in c] == []
    assert {c["op"] for c in checks} == set(cli._Z_CHECKS) | {"scaling",
                                                                "renewal"}
    assert [c["op"] for c in checks[:2]] == ["resolvent"] * 2
    # the second thread's resolvent check starts before the first's ends
    assert len(spans) == 2 and spans[1][0] < spans[0][1], spans
    assert res["scipy"] == []
