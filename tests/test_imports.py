"""Static ast scans of the library modules.

Every module uses each name it imports (the package re-exports its names
from ``__init__``, which is exempt), and no result can depend on
wall-clock time: only ``harness`` reads the clock, through
``time.perf_counter`` for the ``runtime_ms`` field, which the CLI zeroes
unless ``--volatile-runtime`` is given.  Simplex faces are enumerated in
one place: the package calls ``itertools.combinations`` once, in the
support-enumeration kernel.  The many-outcome experiment is one array
program in one process: ``harness`` starts no worker pool.  Polynomial
roots come from one place, ``scoring._real_roots``, the only caller of
``np.roots``; ``environment`` builds no grid, so binary fixed points
come from the map's pieces, not from a scan; and the binary sweep in
``harness`` never builds its 1e6-point grid.

The library depends on numpy alone: no module imports ``scipy`` in any
form (scipy serves the tests as a reference only), and a fresh
interpreter that imports the CLI and runs the solves that need a root
finder (the log rule's binary optimum) or a Cholesky test (its Newton
finish under a linear map) has loaded no ``scipy`` module.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import perfscore

MODULES = sorted(
    p for p in Path(perfscore.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_scan_flags_unused_names():
    source = "import os\nimport numpy as np\nfrom x import a, b as c\nc(np.pi)\n"
    assert unused_imports(source) == ["a", "os"]


# the clock reads each module may make
CLOCK_ALLOWED = {"harness.py": {"import time", "time.perf_counter"}}


def clock_reads(source: str) -> list:
    """Every import of ``time`` and every ``time.<name>`` the source uses."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(f"import {a.name}" for a in node.names if a.name == "time")
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            found.update(f"from time import {a.name}" for a in node.names)
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "time"):
            found.add(f"time.{node.attr}")
    return sorted(found)


@pytest.mark.parametrize(
    "path", sorted(Path(perfscore.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_module_reads_no_clock(path):
    allowed = CLOCK_ALLOWED.get(path.name, set())
    assert set(clock_reads(path.read_text())) <= allowed


def test_scan_flags_clock_reads():
    source = (
        "import time\nfrom time import monotonic\nimport numpy as np\n"
        "t = time.perf_counter()\nd = time.monotonic() + np.pi\n"
    )
    assert clock_reads(source) == [
        "from time import monotonic", "import time", "time.monotonic", "time.perf_counter",
    ]


def combinations_calls(source: str) -> int:
    """Calls of ``combinations`` or ``itertools.combinations``."""
    count = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "combinations":
                count += 1
            elif (isinstance(func, ast.Attribute) and func.attr == "combinations"
                  and isinstance(func.value, ast.Name) and func.value.id == "itertools"):
                count += 1
    return count


def test_one_face_enumeration():
    sources = sorted(Path(perfscore.__file__).parent.glob("*.py"))
    assert sum(combinations_calls(path.read_text()) for path in sources) == 1


def test_scan_counts_combinations_calls():
    source = (
        "import itertools\nfrom itertools import combinations\n"
        "a = list(combinations(range(3), 2))\nb = itertools.combinations(x, k)\n"
        "c = combinations\n"
    )
    assert combinations_calls(source) == 2


def imported_modules(source: str) -> set:
    """The top-level name of every module the source imports."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            found.add(node.module.split(".")[0])
    return found


def test_harness_starts_no_worker_pool():
    source = (Path(perfscore.__file__).parent / "harness.py").read_text()
    assert not imported_modules(source) & {"concurrent", "multiprocessing"}


def test_scan_finds_pool_imports():
    source = (
        "from concurrent.futures import ProcessPoolExecutor\nimport multiprocessing.pool\n"
        "from . import solvers\nimport numpy as np\n"
    )
    assert imported_modules(source) == {"concurrent", "multiprocessing", "numpy"}


@pytest.mark.parametrize(
    "path", sorted(Path(perfscore.__file__).parent.glob("*.py")), ids=lambda p: p.name
)
def test_module_imports_no_scipy(path):
    assert "scipy" not in imported_modules(path.read_text())


def test_scan_finds_scipy_imports():
    for source in ("import scipy\n", "import scipy.linalg as la\n",
                   "from scipy.optimize import brentq\n", "from scipy import optimize\n",
                   "def f():\n    from scipy.linalg import cho_factor\n"):
        assert imported_modules(source) == {"scipy"}


FRESH_SOLVES = """
import sys
import numpy as np
import perfscore.cli
from perfscore.environment import bank_run, random_linear
from perfscore.scoring import logarithmic_rule
from perfscore.solvers import SolveConfig, performative_optimum

performative_optimum(logarithmic_rule(2), bank_run())
performative_optimum(logarithmic_rule(3), random_linear(3, np.random.default_rng(47)),
                     SolveConfig(seed=47))
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""


def test_fresh_interpreter_loads_no_scipy():
    src = str(Path(perfscore.__file__).parent.parent)
    done = subprocess.run([sys.executable, "-c", FRESH_SOLVES], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60,
                          check=True)
    assert done.stdout.strip() == "[]"


def calls_named(source: str, names: set) -> list:
    """The enclosing function of every call ``name(...)`` or
    ``<anything>.name(...)`` with ``name`` in ``names``, in source order;
    "<module>" outside any function."""
    found = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in names:
                    found.append(where)
            visit(child, where)

    visit(ast.parse(source), "<module>")
    return found


def test_one_polynomial_root_finder():
    found = [
        (path.name, where)
        for path in sorted(Path(perfscore.__file__).parent.glob("*.py"))
        for where in calls_named(path.read_text(), {"roots"})
    ]
    assert found == [("scoring.py", "_real_roots")]


def test_environment_builds_no_grid():
    source = (Path(perfscore.__file__).parent / "environment.py").read_text()
    assert calls_named(source, {"arange", "linspace"}) == []


def test_sweep_builds_no_grid():
    # the sweep computes grid points from their indices (harness._Grid)
    tree = ast.parse((Path(perfscore.__file__).parent / "harness.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {a.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
              for a in node.names}
    assert not names & {"_binary_grid", "linspace"}


def test_scan_finds_named_calls():
    source = (
        "import numpy as np\nr = np.roots([1.0, 2.0])\n"
        "def f(c):\n    def g():\n        return linspace(0, 1)\n"
        "    return np.arange(3) + g()\n"
        "def h(x):\n    roots = x.roots\n    return roots\n"
    )
    assert calls_named(source, {"roots"}) == ["<module>"]
    assert calls_named(source, {"arange", "linspace"}) == ["g", "f"]
