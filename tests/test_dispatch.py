"""Static guards on how the library dispatches on a scoring rule's family.

A rule family is a class, not a ``kind`` string: no module compares
``kind``, and at most one ``isinstance`` on a family class (the exact
quadratic oracle's class test) sits outside ``scoring``.  The public
methods are written once, on the ``ScoringRule`` base, so a profiler that
names spans by module and method sees one span per name.
"""

import inspect
import re
from pathlib import Path

import pytest

import perfscore
from perfscore import scoring

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
