"""Static guards on how the library dispatches on a scoring rule's family.

A rule family is a class, not a ``kind`` string: no module compares
``kind``, and at most one ``isinstance`` on a family class (the exact
quadratic oracle's class test) sits outside ``scoring``.  The public
methods are written once, on the ``ScoringRule`` base, so a profiler that
names spans by module and method sees one span per name.  Of every rule
family and map family at n = 2 and 3, only the log rule under a linear map
with n = 3 reaches the multi-start ascent.
"""

import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import perfscore
from perfscore import environment, scoring, solvers
from perfscore.simplex import binary_point

SOURCES = sorted(Path(perfscore.__file__).parent.glob("*.py"))

# a comparison or membership test on a ``kind`` field
DISPATCH_PATTERN = re.compile(r"\bkind (?:==|!=|in \()")

FAMILIES = sorted(
    (cls for cls in vars(scoring).values()
     if inspect.isclass(cls) and issubclass(cls, scoring.ScoringRule)
     and cls is not scoring.ScoringRule),
    key=lambda cls: cls.__name__,
)


def dispatch_sites(source: str) -> list:
    return [
        n for n, line in enumerate(source.splitlines(), 1) if DISPATCH_PATTERN.search(line)
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_kind_dispatch(path):
    assert dispatch_sites(path.read_text()) == []


def test_pattern_flags_dispatch():
    source = 'if rule.kind == "log":\n    x = kind != y\nok = k in (1,)\nkind in ("a",)\n'
    assert dispatch_sites(source) == [1, 2, 4]


def test_one_family_class_test_outside_scoring():
    names = "|".join(cls.__name__ for cls in FAMILIES)
    test = re.compile(rf"isinstance\([^)]*\b(?:{names})\b")
    hits = [
        path.name for path in SOURCES if path.name != "scoring.py"
        for _ in test.finditer(path.read_text())
    ]
    assert hits == ["solvers.py"]


def test_three_families():
    assert [cls.__name__ for cls in FAMILIES] == [
        "ExponentialRule", "LogarithmicRule", "QuadraticRule",
    ]


@pytest.mark.parametrize("family", FAMILIES, ids=lambda cls: cls.__name__)
def test_family_defines_no_public_method(family):
    public = [
        name for name, value in vars(family).items()
        if not name.startswith("_")
        and (callable(value) or isinstance(value, (staticmethod, classmethod, property)))
    ]
    assert public == []


# one map per family and size; the binary-only families have no n = 3 map
MAPS = {
    (environment.LinearMap, 2): environment.affine_binary(binary_point(0.7), 0.5),
    (environment.LinearMap, 3): environment.random_linear(3, np.random.default_rng(5)),
    (environment.PiecewiseLinearMap, 2): environment.ramp_binary(0.1, 0.05),
    (environment.BankRunMap, 2): environment.bank_run(),
}
# the exponential rule is binary only
RULES = {
    (scoring.QuadraticRule, 2): scoring.quadratic_rule(2),
    (scoring.QuadraticRule, 3): scoring.quadratic_rule(3),
    (scoring.LogarithmicRule, 2): scoring.logarithmic_rule(2),
    (scoring.LogarithmicRule, 3): scoring.logarithmic_rule(3),
    (scoring.ExponentialRule, 2): scoring.exponential_binary_rule(3.0),
}


def test_every_family_has_a_case():
    map_families = {
        cls for cls in vars(environment).values()
        if inspect.isclass(cls) and issubclass(cls, environment.EnvironmentMap)
        and cls is not environment.EnvironmentMap
    }
    assert {cls for cls, _ in MAPS} == map_families
    assert {cls for cls, _ in RULES} == set(FAMILIES)


@pytest.mark.parametrize(
    "rule_key, map_key",
    [(r, m) for r in RULES for m in MAPS if r[1] == m[1]],
    ids=lambda key: f"{key[0].__name__}-n{key[1]}",
)
def test_only_log_linear_reaches_the_ascent(rule_key, map_key, monkeypatch):
    calls = []
    ascent = solvers._multistart_ascent
    monkeypatch.setattr(solvers, "_multistart_ascent",
                        lambda *args: calls.append(1) or ascent(*args))
    solvers.performative_optimum(RULES[rule_key], MAPS[map_key])
    expected = rule_key == (scoring.LogarithmicRule, 3) and map_key[0] is environment.LinearMap
    assert len(calls) == int(expected)
