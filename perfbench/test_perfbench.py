"""Self-test of the benchmark's tracer on small versions of each workload.

    python3 -m pytest perfbench -q

Checks that a traced run restores every binding it patched, that the
per-layer self times sum to no more than the traced wall time, and that
traced and untraced runs return identical op results and fail_frac.
"""

import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

ps = run.import_library()

SMALL = {
    "five_outcome": lambda seed: workloads.five_outcome(ps, seed, trials=2, batch_trials=3),
    # one instance per (family, rule) pair: 24 solves, 4 on tabulated maps
    "binary": lambda seed: workloads.binary(ps, seed, instances=1, sweep_rules=1),
    "dynamics": lambda seed: workloads.dynamics(
        ps, seed, sgd_rounds=2000, rga_rounds=500, market_sizes=(2,)),
}


def _bindings():
    """Identity of every module-level and layer-class attribute of perfscore."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "perfscore" or name.startswith("perfscore."):
            for attr, value in vars(module).items():
                if attr == "__warningregistry__":  # created by any warning
                    continue
                out[(name, attr)] = id(value)
                if inspect.isclass(value) and value.__module__ == name:
                    for cattr, cvalue in vars(value).items():
                        out[(name, attr, cattr)] = id(cvalue)
    return out


@pytest.fixture(scope="module", params=sorted(SMALL))
def report(request):
    before = _bindings()
    rep = run.traced_comparison(ps, SMALL[request.param](3))
    rep.bindings_before = before
    return rep


def test_every_patched_binding_is_restored(report):
    assert report.tracer.patched, "the tracer patched nothing"
    assert report.tracer.unrestored() == []
    assert _bindings() == report.bindings_before


def test_self_times_fit_in_traced_wall_time(report):
    assert 0.0 < report.self_sum <= report.traced.wall_s


def test_traced_and_untraced_runs_agree(report):
    assert [o.digest for o in report.traced.outcomes] == [
        o.digest for o in report.untraced.outcomes
    ]
    assert report.traced.fail_frac() == report.untraced.fail_frac()
    assert report.problems() == []


def test_package_bindings_are_traced(report):
    # calls made through perfscore.<name> and through the library's own
    # imported bindings both reach the wrappers
    tr = report.tracer
    assert tr.calls("simplex.SimplexPoint") > 0
    assert set(tr.layer_totals()) == set(tracer.LAYERS)
    wl_ops = len(report.untraced.stream)
    if tr.calls("solvers.online_sgd"):
        assert tr.calls("games.regret_series") == wl_ops
    else:
        assert tr.calls("solvers.performative_optimum") >= wl_ops
