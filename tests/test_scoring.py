import math

import numpy as np
import pytest

from perfscore import scoring
from perfscore.bounds import log_binary_bound
from perfscore.environment import (
    affine_binary,
    bank_run,
    random_linear,
    ramp_binary,
    shrink_to,
    tabulated,
)
from perfscore.errors import DomainError, InvalidArgumentError, IterationLimitError
from perfscore.scoring import (
    LogarithmicRule,
    QuadraticRule,
    check_propriety,
    exponential_binary_rule,
    logarithmic_rule,
    parse_rule,
    quadratic_rule,
    _ROOT_XTOL,
    _bisect_rows,
    _brentq,
    _horner,
    _line_roots,
    _log_dh,
    _log_h,
)
from perfscore.solvers import performative_optimum
from perfscore.simplex import (
    SimplexPoint,
    binary_point,
    sample_simplex_points,
    tangent_project,
    uniform_point,
)

RULES_N2 = [quadratic_rule(2), logarithmic_rule(2), exponential_binary_rule(7.07)]


def interior_points(n, count, seed):
    rng = np.random.default_rng(seed)
    pts = 0.98 * sample_simplex_points(n, count, rng) + 0.02 / n
    return [SimplexPoint(row) for row in pts]


class TestScore:
    def test_quadratic_by_hand(self):
        q = quadratic_rule(2)
        assert q.score(binary_point(0.5), 0) == pytest.approx(0.5)

    def test_log_certainty_and_boundary(self):
        lg = logarithmic_rule(2)
        assert lg.score(binary_point(1.0), 0) == 0.0
        assert lg.score(binary_point(0.0), 0) == float("-inf")

    def test_outcome_range(self):
        with pytest.raises(InvalidArgumentError):
            quadratic_rule(2).score(binary_point(0.5), 2)

    def test_exponential_matches_potential_form(self):
        ex = exponential_binary_rule(1.0)
        p = binary_point(0.3)
        e = math.exp(0.3)
        # G(p) + g(p)^T (e_0 - p)
        expected = 2.0 * e + e * (1.0 - 0.3) - (-e) * 0.7
        assert ex.score(p, 0) == pytest.approx(expected)


class TestExpectedScore:
    def test_quadratic_uniform(self):
        q = quadratic_rule(2)
        u = binary_point(0.5)
        assert q.expected_score(u, u) == pytest.approx(0.5)

    def test_certainty_scores_one(self):
        q = quadratic_rule(3)
        e1 = SimplexPoint([1.0, 0.0, 0.0])
        assert q.expected_score(e1, e1) == pytest.approx(1.0)

    def test_log_negative_entropy(self):
        lg = logarithmic_rule(2)
        p = binary_point(0.75)
        assert lg.expected_score(p, p) == pytest.approx(-0.56234, abs=1e-5)

    def test_zero_times_neg_inf_convention(self):
        lg = logarithmic_rule(2)
        # q puts no mass on the zero-probability outcome
        assert lg.expected_score(binary_point(1.0), binary_point(1.0)) == 0.0
        assert lg.expected_score(binary_point(1.0), binary_point(0.5)) == float(
            "-inf"
        )
        lg3 = logarithmic_rule(3)
        p = SimplexPoint([0.0, 0.5, 0.5])
        assert lg3.expected_score(p, SimplexPoint([0.0, 0.25, 0.75])) == pytest.approx(
            math.log(0.5)
        )

    def test_dimension_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            quadratic_rule(2).expected_score(binary_point(0.5), uniform_point(3))


class TestPotentialForm:
    def test_quadratic_subgradient_by_hand(self):
        q = quadratic_rule(2)
        assert q.subgradient(binary_point(0.75)).comps == pytest.approx(
            [0.5, -0.5]
        )

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_quadratic_subgradient_zero_at_uniform(self, n):
        g = quadratic_rule(n).subgradient(uniform_point(n)).comps
        assert g == pytest.approx(np.zeros(n), abs=1e-15)

    def test_exponential_subgradient_at_vertex(self):
        ex = exponential_binary_rule(1.0)
        assert ex.subgradient(binary_point(0.0)).comps == pytest.approx([1.0, -1.0])

    @pytest.mark.parametrize("rule", RULES_N2, ids=str)
    def test_representation_identity(self, rule):
        # S(p, q) == G(p) + g(p)^T (q - p) on random interior pairs
        ps = interior_points(2, 1000, 10)
        qs = interior_points(2, 1000, 11)
        for p, q in zip(ps, qs):
            direct = rule.expected_score(p, q)
            potential_form = rule.potential(p) + rule.subgradient(p).comps @ (
                q.probs - p.probs
            )
            assert direct == pytest.approx(potential_form, abs=1e-9)

    @pytest.mark.parametrize("rule", RULES_N2, ids=str)
    def test_subgradient_inequality(self, rule):
        ps = interior_points(2, 300, 12)
        qs = interior_points(2, 300, 13)
        for p, q in zip(ps, qs):
            lower = rule.potential(p) + rule.subgradient(p).comps @ (
                q.probs - p.probs
            )
            assert rule.potential(q) >= lower - 1e-9

    @pytest.mark.parametrize(
        "rule",
        [quadratic_rule(2), quadratic_rule(4), logarithmic_rule(3),
         exponential_binary_rule(3.0)],
        ids=str,
    )
    def test_directional_derivative_matches_subgradient(self, rule):
        rng = np.random.default_rng(14)
        h = 1e-5
        for p in interior_points(rule.n, 50, 15):
            v = tangent_project(rng.normal(size=rule.n)).comps
            v = v / np.linalg.norm(v)
            hi = SimplexPoint(np.clip(p.probs + h * v, 1e-12, None))
            lo = SimplexPoint(np.clip(p.probs - h * v, 1e-12, None))
            fd = (rule.potential(hi) - rule.potential(lo)) / (2.0 * h)
            assert fd == pytest.approx(
                float(rule.subgradient(p).comps @ v), abs=1e-5
            )

    @pytest.mark.parametrize(
        "rule",
        [quadratic_rule(3), logarithmic_rule(3), exponential_binary_rule(2.0)],
        ids=str,
    )
    def test_hessian_matches_subgradient_differences(self, rule):
        rng = np.random.default_rng(16)
        h = 1e-6
        for p in interior_points(rule.n, 30, 17):
            v = tangent_project(rng.normal(size=rule.n)).comps
            v = v / np.linalg.norm(v)
            hi = SimplexPoint(np.clip(p.probs + h * v, 1e-12, None))
            lo = SimplexPoint(np.clip(p.probs - h * v, 1e-12, None))
            fd = (rule.subgradient(hi).comps - rule.subgradient(lo).comps) / (
                2.0 * h
            )
            analytic = rule.hessian(p) @ v
            analytic = analytic - analytic.mean()
            assert np.max(np.abs(fd - analytic)) <= 1e-5 * max(
                1.0, np.max(np.abs(analytic))
            )

    @pytest.mark.parametrize("rule", RULES_N2 + [logarithmic_rule(4)], ids=str)
    def test_hessian_symmetric_on_tangent(self, rule):
        rng = np.random.default_rng(18)
        for p in interior_points(rule.n, 50, 19):
            H = rule.hessian(p)
            v = tangent_project(rng.normal(size=rule.n)).comps
            w = tangent_project(rng.normal(size=rule.n)).comps
            assert abs(v @ H @ w - w @ H @ v) <= 1e-8

    def test_quadratic_subgradient_norm_identity(self):
        for n in (2, 3, 5):
            q = quadratic_rule(n)
            for p in interior_points(n, 100, 20 + n):
                expected = 2.0 * np.linalg.norm(p.probs - 1.0 / n)
                assert q.subgradient_norm(p) == pytest.approx(expected, abs=1e-14)

    def test_log_boundary_rejected(self):
        lg = logarithmic_rule(2)
        with pytest.raises(DomainError):
            lg.hessian(binary_point(1.0))
        with pytest.raises(DomainError):
            lg.subgradient(binary_point(0.0))


class TestGamma:
    def test_quadratic_gamma_is_two(self):
        assert quadratic_rule(2).gamma_at(binary_point(0.31)) == 2.0
        assert quadratic_rule(5).gamma_at(uniform_point(5)) == 2.0

    def test_log_binary_closed_form(self):
        lg = logarithmic_rule(2)
        p = binary_point(0.824)
        assert lg.gamma_at(p) == pytest.approx(
            1.0 / (2.0 * 0.824 * 0.176), rel=1e-9
        )

    def test_exponential_gamma(self):
        K = 4.2
        ex = exponential_binary_rule(K)
        for x in (0.0, 0.31, 0.9):
            assert ex.gamma_at(binary_point(x)) == pytest.approx(
                K * math.exp(K * x), rel=1e-12
            )

    def test_log_general_n_positive(self):
        lg = logarithmic_rule(4)
        for p in interior_points(4, 20, 30):
            assert lg.gamma_at(p) > 0.0


class TestPropriety:
    @pytest.mark.parametrize(
        "rule",
        [quadratic_rule(2), logarithmic_rule(2), exponential_binary_rule(7.07),
         quadratic_rule(5)],
        ids=str,
    )
    def test_randomized_regression_guard(self, rule):
        report = check_propriety(rule, trials=10_000, seed=42)
        assert report.samples_tested == 10_000
        assert report.max_violation <= 1e-9
        assert report.strictly_proper_witnessed

    def test_trials_validation(self):
        with pytest.raises(InvalidArgumentError):
            check_propriety(quadratic_rule(2), trials=0, seed=0)


class TestRuleParsing:
    def test_grammar(self):
        assert parse_rule("quadratic", 3).kind == "quadratic"
        assert parse_rule("log", 2).kind == "logarithmic"
        rule = parse_rule("exp:K=7.07", 2)
        assert rule.kind == "exponential-binary"
        assert rule.K == pytest.approx(7.07)

    @pytest.mark.parametrize("bad", ["brier", "exp:7", "exp:K=x", ""])
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(InvalidArgumentError):
            parse_rule(bad, 2)

    def test_exponential_requires_binary(self):
        with pytest.raises(InvalidArgumentError):
            parse_rule("exp:K=2", 3)
        with pytest.raises(InvalidArgumentError):
            exponential_binary_rule(0.0)


def closed_form_score(rule, p, i):
    """S(p, e_i) written out per family, independent of the rule's kernels."""
    if rule.kind == "quadratic":
        return 2.0 * p[i] - p @ p
    if rule.kind == "logarithmic":
        return math.log(p[i])
    e = math.exp(rule.K * p[0])
    ei = np.eye(2)[i]
    return 2.0 * e / rule.K + np.array([e, -e]) @ (ei - p)


class TestVectorizedPaths:
    @pytest.mark.parametrize(
        "rule",
        [pytest.param(r, id=str(r)) for r in RULES_N2]
        + [pytest.param(quadratic_rule(5), id="quadratic-n5"),
           pytest.param(logarithmic_rule(5), id="log-n5")],
    )
    def test_score_rows_matches_scalar(self, rule):
        rng = np.random.default_rng(31)
        P = 0.98 * sample_simplex_points(rule.n, 64, rng) + 0.02 / rule.n
        Y = rng.integers(0, rule.n, size=64)
        vec = rule.score_rows(P, Y)
        for i in range(64):
            ref = closed_form_score(rule, P[i], int(Y[i]))
            assert vec[i] == pytest.approx(ref, rel=1e-14, abs=1e-14)
            assert rule.score(SimplexPoint(P[i]), int(Y[i])) == pytest.approx(
                ref, rel=1e-14, abs=1e-14
            )

    @pytest.mark.parametrize("rule", RULES_N2, ids=str)
    def test_binary_objective_grid_matches_expected_score(self, rule):
        xs = np.array([0.05, 0.25, 0.5, 0.75, 0.95])
        fxs = np.array([0.2, 0.4, 0.5, 0.6, 0.8])
        grid = rule.binary_objective_grid(xs, fxs)
        for x, fx, val in zip(xs, fxs, grid):
            p = np.array([x, 1.0 - x])
            # the expectation of the per-outcome closed forms under (fx, 1 - fx)
            ref = fx * closed_form_score(rule, p, 0) + (1.0 - fx) * closed_form_score(
                rule, p, 1
            )
            assert val == pytest.approx(ref, abs=1e-12)
            assert rule.expected_score(binary_point(x), binary_point(fx)) == pytest.approx(
                ref, abs=1e-12
            )


def np_roots_in(C, a, z):
    """The reference: the real roots of C inside (a, z) from np.roots."""
    r = np.roots(C)
    r = r.real[np.abs(r.imag) <= 1e-6]
    return [float(x) for x in r if a < x < z]


class TestRealRoots:
    """A line's root is -C1/C0 in closed form (``_line_roots``); it must be
    np.roots' root, bit for bit."""

    def test_lines_match_np_roots(self):
        rng = np.random.default_rng(1919)
        lines = rng.choice([-1.0, 1.0], (2000, 2)) * 10.0 ** rng.uniform(-5.0, 5.0, (2000, 2))
        for a, z in ((-math.inf, math.inf), (0.0, 1.0)):
            rows, roots = _line_roots(lines[:, 0], lines[:, 1], a, z)
            for k, C in enumerate(lines):
                ref = np_roots_in(C, a, z)
                assert roots[rows == k].tobytes() == np.array(ref).tobytes()

    @pytest.mark.parametrize(
        "C, roots",
        [([3.0, 0.0], [0.0]), ([-2.5, -0.0], [0.0]), ([0.0, 2.0], []), ([0.0, 0.0], [])],
    )
    def test_zero_coefficients(self, C, roots):
        # a zero constant term gives an unsigned zero root; a zero leading
        # coefficient leaves no line and no root
        got = _line_roots(np.array(C[:1]), np.array(C[1:]), -1.0, 1.0)[1]
        assert got.tobytes() == np.array(roots).tobytes()
        assert got.tobytes() == np.array(np_roots_in(C, -1.0, 1.0)).tobytes()


def random_lines(count, seed):
    """Slopes and offsets of affine f1, most of them maps of [0, 1] into
    itself and some steep or far off it."""
    rng = np.random.default_rng(seed)
    b = np.concatenate([rng.uniform(-1.0, 1.0, count), rng.uniform(-5.0, 5.0, count // 4)])
    c = np.concatenate([rng.uniform(0.0, 1.0, count), rng.uniform(-3.0, 3.0, count // 4)])
    return b, c


INTERVALS = [(1e-6, 1.0 - 1e-6), (0.0, 1.0), (0.2, 0.45), (0.55, 0.9), (1e-3, 0.5)]


class TestLineCriticalRows:
    """One row kernel per rule gives the stationary points of phi on the
    lines f1 = b x + c, as (row, x) arrays."""

    @pytest.mark.parametrize(
        "rule", [quadratic_rule(2), exponential_binary_rule(3.0), exponential_binary_rule(0.5)],
        ids=str,
    )
    def test_closed_forms_are_the_polynomial_roots(self, rule):
        # a leading zero sends the line through the general polynomial path
        b, c = random_lines(400, 2121)
        b[:3], c[:3] = [0.5, 1.0, 1.0], [0.25, 0.0, 0.3]  # zero leading coefficients
        for a, z in INTERVALS:
            row, x = rule._line_critical_rows(b, c, a, z)
            for k in range(b.size):
                ref = rule._critical_points(np.array([0.0, b[k], c[k]]), a, z)
                assert x[row == k].tobytes() == np.array(ref).tobytes()

    def test_log_rows_are_the_scalar_roots(self):
        rule = logarithmic_rule(2)
        b, c = random_lines(300, 2122)
        found = 0
        for a, z in INTERVALS[:1] + INTERVALS[2:]:
            row, x = rule._line_critical_rows(b, c, a, z)
            for k in range(b.size):
                ref = sorted(rule._critical_points(np.array([b[k], c[k]]), a, z))
                got = np.sort(x[row == k])
                assert got.size == len(ref)
                assert np.all(np.abs(got - ref) <= 1e-12)
                found += got.size
        assert found > 500

    def test_bisection(self):
        # brackets of either orientation shrink to adjacent floats; a
        # midpoint where g is exactly 0 closes its bracket; none is fine
        lo, hi = np.array([0.0, 0.0, 0.1]), np.array([1.0, 1.0, 2.0])
        shift = np.array([0.5, 0.3, 1.0 / 3.0])
        sign = np.array([1.0, -1.0, 1.0])
        roots = _bisect_rows(lambda x: sign * (x - shift), lo, hi)
        assert roots[0] == 0.5
        assert np.all(np.abs(roots - shift) <= np.spacing(shift))
        assert _bisect_rows(lambda x: x, np.zeros(0), np.zeros(0)).size == 0


def sign_change_brackets(f, cuts):
    """The cells of the sorted ``cuts`` at whose ends f changes sign."""
    v = [f(x) for x in cuts]
    return [(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1) if v[i] * v[i + 1] < 0.0]


def seeded_brackets():
    """(f, a, b): h and h' of the log rule on seeded lines over the cuts the
    solver uses, and h on seeded cubics over a coarse scan."""
    b, c = random_lines(200, 2123)
    out = []
    for bk, ck in zip(b.tolist(), c.tolist()):
        h = lambda x, bk=bk, ck=ck: _log_h(bk, bk * x + ck, x)
        dh = lambda x, bk=bk: _log_dh(bk, x)
        for f in (h, dh):
            out += [(f, u, v) for u, v in sign_change_brackets(f, [1e-6, 0.5, 1.0 - 1e-6])]
        out += [(h, u, v) for u, v in sign_change_brackets(h, [1e-3, 0.2, 0.45, 0.7, 0.999])]
    rng = np.random.default_rng(2124)
    for _ in range(100):
        P = rng.uniform(-3.0, 3.0, 4)
        f1, slope = P.tolist(), np.polyder(P).tolist()
        h = lambda x, f1=f1, slope=slope: _log_h(_horner(slope, x), _horner(f1, x), x)
        out += [(h, u, v) for u, v in sign_change_brackets(h, np.linspace(1e-3, 0.999, 12).tolist())]
    return out


def family_brackets(monkeypatch):
    """Every (f, a, b) the exact log-rule solver brackets on the binary map
    families: affine (also with negative slopes), bank-run, ramp, shrink,
    2x2 linear and tabulated."""
    rng = np.random.default_rng(2125)
    maps = [bank_run()]
    for _ in range(6):
        maps += [
            affine_binary(binary_point(rng.uniform(0.35, 0.65)), rng.uniform(-0.5, 0.9)),
            ramp_binary(rng.uniform(0.05, 0.3), rng.uniform(0.01, 0.3)),
            shrink_to(binary_point(rng.uniform(0.1, 0.9)), rng.uniform(0.1, 0.9)),
            random_linear(2, rng),
            tabulated(np.linspace(0.0, 1.0, 5), rng.uniform(0.05, 0.95, 5)),
        ]
    calls = []

    def recorded(f, a, b, xtol):
        calls.append((f, a, b))
        return _brentq(f, a, b, xtol)

    monkeypatch.setattr(scoring, "_brentq", recorded)
    rule = logarithmic_rule(2)
    for f in maps:
        performative_optimum(rule, f)
    monkeypatch.undo()
    return calls


class TestBrentq:
    """``_brentq`` is a port of scipy's C ``brentq``: the same floats."""

    def test_bit_identical_to_scipy(self, monkeypatch):
        optimize = pytest.importorskip("scipy.optimize")
        brackets = seeded_brackets()
        families = family_brackets(monkeypatch)
        assert len(brackets) > 300 and len(families) > 20
        for f, a, b in brackets + families:
            got = _brentq(f, a, b, _ROOT_XTOL)
            assert got == optimize.brentq(f, a, b, xtol=_ROOT_XTOL)
            assert type(got) is float and a <= got <= b

    def test_root_at_an_end(self):
        assert _brentq(lambda x: x - 0.25, 0.25, 1.0, 1e-15) == 0.25
        assert _brentq(lambda x: x - 1.0, 0.25, 1.0, 1e-15) == 1.0
        # an end root is returned before the signs are compared
        assert _brentq(lambda x: x * x, 0.0, 1.0, 1e-15) == 0.0

    def test_same_signs_raise(self):
        with pytest.raises(InvalidArgumentError):
            _brentq(lambda x: x * x + 1.0, -1.0, 1.0, 1e-15)
        with pytest.raises(InvalidArgumentError):
            _brentq(lambda x: x - 2.0, 0.0, 1.0, 1e-15)

    def test_iteration_limit(self):
        f = lambda x: math.exp(x) - 2.0
        assert _brentq(f, 0.0, 1.0, 1e-15) == pytest.approx(math.log(2.0), abs=1e-15)
        with pytest.raises(IterationLimitError) as info:
            _brentq(f, 0.0, 1.0, 1e-15, maxiter=2)
        assert isinstance(info.value, RuntimeError)
        assert 0.0 < info.value.best < 1.0


FAMILIES = [
    pytest.param(quadratic_rule(2), id="quadratic-n2"),
    pytest.param(quadratic_rule(5), id="quadratic-n5"),
    pytest.param(logarithmic_rule(2), id="log-n2"),
    pytest.param(logarithmic_rule(5), id="log-n5"),
    pytest.param(exponential_binary_rule(2.0), id="exp-K2"),
    pytest.param(exponential_binary_rule(28.3), id="exp-K28.3"),
]


def closed_form_constants(rule):
    """(L_G, min gamma, beta, global binary bound rate) written out per family."""
    n = rule.n
    if isinstance(rule, QuadraticRule):
        return 2.0 * math.sqrt((n - 1.0) / n), 2.0, 2.0, 1.0 / math.sqrt(2.0)
    if isinstance(rule, LogarithmicRule):
        # on the tangent space diag(1/p) - 1 (1/p)^T / n is n I at the barycenter
        return math.inf, float(n), math.inf, log_binary_bound(1.0)[0]
    K = rule.K
    return math.sqrt(2.0) * math.exp(K), K, K * math.exp(K), math.sqrt(2.0) / K


class TestFamilyConstants:
    @pytest.mark.parametrize("rule", FAMILIES)
    def test_constants_match_closed_forms(self, rule):
        L_G, gamma, beta, rate = closed_form_constants(rule)
        assert rule.max_subgradient_norm() == pytest.approx(L_G, rel=1e-12)
        assert rule.min_gamma() == pytest.approx(gamma, rel=1e-12)
        assert rule.max_tangent_curvature() == pytest.approx(beta, rel=1e-12)
        assert rule.bound_rate == pytest.approx(rate, rel=1e-12)

    @pytest.mark.parametrize("rule", FAMILIES)
    def test_pointwise_rate_is_norm_over_gamma(self, rule):
        # the binary rate of the rule's family, at reports (x, 1 - x)
        binary = rule if rule.n == 2 else type(rule)(2)
        for x in (0.03, 0.2, 0.45, 0.5, 0.71, 0.97):
            p = binary_point(x)
            expected = binary.subgradient_norm(p) / binary.gamma_at(p)
            assert rule._bound_rate_at(x) == pytest.approx(expected, rel=1e-9, abs=1e-15)

    @pytest.mark.parametrize("rule", FAMILIES)
    def test_global_rate_bounds_pointwise_rate(self, rule):
        xs = np.linspace(0.001, 0.999, 999)
        assert max(rule._bound_rate_at(x) for x in xs) <= rule.bound_rate * (1.0 + 1e-12)

    def test_only_the_log_rule_needs_interior_reports(self):
        assert logarithmic_rule(3).interior_reports
        assert not quadratic_rule(3).interior_reports
        assert not exponential_binary_rule(2.0).interior_reports

    def test_labels(self):
        assert [str(r) for r in (quadratic_rule(2), logarithmic_rule(2),
                                 exponential_binary_rule(28.3))] == ["quadratic", "log", "exp:K=28.3"]
