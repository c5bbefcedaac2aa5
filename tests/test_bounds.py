import math

import numpy as np
import pytest

from perfscore.bounds import (
    FIXED_POINT_DISTANCE,
    MAX_STAKE_POINTS,
    design_exponential_rule,
    fixed_point_distance_bound,
    inaccuracy_bound,
    log_binary_bound,
    stake_profile,
    stake_ratio_lower_bound,
)
from perfscore.environment import affine_binary, random_linear
from perfscore.errors import DomainError, InvalidArgumentError
from perfscore.scoring import (
    _log_dh,
    exponential_binary_rule,
    logarithmic_rule,
    parse_rule,
    quadratic_rule,
)
from perfscore.simplex import binary_point, l2_distance, uniform_point
from perfscore.solvers import SolveConfig, performative_optimum


class TestInaccuracyBound:
    def test_quadratic_binary_global_form(self):
        q = quadratic_rule(2)
        env = affine_binary(binary_point(0.5), 0.4)
        rep = inaccuracy_bound(q, env, binary_point(0.3))
        assert rep.lipschitz_inaccuracy_bound == pytest.approx(0.4 / math.sqrt(2.0))

    def test_quadratic_five_outcome_rate(self):
        q = quadratic_rule(5)
        env = random_linear(5, np.random.default_rng(0))
        rep = inaccuracy_bound(q, env, uniform_point(5), L_f=1.0)
        assert rep.lipschitz_inaccuracy_bound == pytest.approx(
            2.0 / math.sqrt(5.0), abs=1e-12
        )
        assert rep.lipschitz_inaccuracy_bound == pytest.approx(0.8944, abs=1e-4)

    def test_quadratic_pointwise_form(self):
        q = quadratic_rule(2)
        alpha = 0.35
        env = affine_binary(binary_point(0.5), alpha)
        p = binary_point(0.8)
        rep = inaccuracy_bound(q, env, p)
        expected = alpha * np.linalg.norm(p.probs - 0.5)
        assert rep.pointwise_inaccuracy_bound == pytest.approx(expected, abs=1e-12)
        assert rep.inputs["gamma_p"] == 2.0

    def test_pointwise_below_global(self):
        q = quadratic_rule(2)
        env = affine_binary(binary_point(0.4), 0.6)
        for x in (0.1, 0.5, 0.93):
            rep = inaccuracy_bound(q, env, binary_point(x))
            assert (
                rep.pointwise_inaccuracy_bound
                <= rep.lipschitz_inaccuracy_bound * (1 + 1e-12)
            )

    def test_log_boundary_rejected(self):
        lg = logarithmic_rule(2)
        env = affine_binary(binary_point(0.5), 0.4)
        with pytest.raises(DomainError):
            inaccuracy_bound(lg, env, binary_point(1.0))

    @pytest.mark.parametrize("L_f", [None, 0.0])
    def test_log_rule_under_constant_map(self, L_f):
        # L_f = 0 against the log rule's L_G = inf: a constant map moves no
        # report, so every bound form is 0 (not 0 * inf = nan)
        env = affine_binary(binary_point(0.5), 0.0)
        rep = inaccuracy_bound(logarithmic_rule(2), env, binary_point(0.3), L_f=L_f)
        assert rep.inputs["L_f"] == 0.0
        assert rep.lipschitz_inaccuracy_bound == 0.0
        assert rep.pointwise_inaccuracy_bound == 0.0
        assert rep.fixed_point_distance_bound == 0.0

    def test_monotone_in_lipschitz_and_outcomes(self):
        # global quadratic bound L sqrt((n-1)/n) grows in both arguments
        rates = []
        for n in (2, 3, 5, 10):
            rates.append(
                quadratic_rule(n).max_subgradient_norm() / quadratic_rule(n).min_gamma()
            )
        assert all(a < b for a, b in zip(rates, rates[1:]))
        for lf_lo, lf_hi in ((0.1, 0.3), (0.3, 0.9)):
            assert lf_lo * rates[0] < lf_hi * rates[0]


class TestFixedPointDistanceBound:
    def test_quadratic_binary_closed_form(self):
        q = quadratic_rule(2)
        alpha = 0.4
        env = affine_binary(binary_point(0.5), alpha)
        # at the worst report the bound reduces to alpha/((1-alpha) sqrt(2))
        p = binary_point(1.0)
        val = fixed_point_distance_bound(q, env, p, L_f=alpha)
        assert val == pytest.approx(alpha / ((1 - alpha) * math.sqrt(2.0)) * (
            np.linalg.norm(p.probs - 0.5) * math.sqrt(2.0)
        ), abs=1e-12)

    def test_zero_lipschitz(self):
        q = quadratic_rule(2)
        env = affine_binary(binary_point(0.5), 0.0)
        assert fixed_point_distance_bound(q, env, binary_point(0.9), 0.0) == 0.0

    def test_five_outcome_arithmetic(self):
        q = quadratic_rule(5)
        env = random_linear(5, np.random.default_rng(1))
        p = uniform_point(5)
        # worst-case over reports: L_G/gamma / (1-L) = 0.8944 at L = 0.5
        rate = q.max_subgradient_norm() / q.min_gamma()
        assert rate * 0.5 / 0.5 == pytest.approx(0.8944, abs=1e-4)

    def test_rejects_expansive_maps(self):
        q = quadratic_rule(2)
        env = affine_binary(binary_point(0.5), 1.0)
        with pytest.raises(DomainError):
            fixed_point_distance_bound(q, env, binary_point(0.5), 1.0)


class TestLogBinaryBound:
    def test_recomputed_constant(self):
        # true maximum is 0.31660 at 0.82396; the published three-decimal
        # figures are truncations, so compare within one unit in the third
        # decimal place
        bound, xmax = log_binary_bound(1.0)
        assert bound == pytest.approx(0.316, abs=1e-3)
        assert xmax == pytest.approx(0.824, abs=1e-3)

    def test_zero(self):
        assert log_binary_bound(0.0)[0] == 0.0

    def test_linear_scaling(self):
        assert log_binary_bound(0.5)[0] == pytest.approx(0.158, abs=5e-4)

    def test_profile_maximized_at_reported_point(self):
        _, xmax = log_binary_bound(1.0)
        h = lambda x: math.sqrt(2.0) * x * (1 - x) * abs(math.log(x / (1 - x)))
        assert h(xmax) >= h(xmax + 1e-4) and h(xmax) >= h(xmax - 1e-4)

    def test_rate_constant_is_pinned(self):
        assert log_binary_bound(1.0)[0] == 0.316602256269538

    def test_argmax_is_the_root_of_the_profile_slope(self):
        # the profile's slope is a multiple of h' on the line of slope 1;
        # it changes sign between the argmax's neighbouring floats
        _, xmax = log_binary_bound(1.0)
        below, above = math.nextafter(xmax, 0.0), math.nextafter(xmax, 1.0)
        assert _log_dh(1.0, below) > 0.0 > _log_dh(1.0, above)


class TestDesignExponentialRule:
    def test_inaccuracy_target(self):
        rule = design_exponential_rule(1.0, 0.1)
        assert rule.K == pytest.approx(math.sqrt(2.0) / 0.1)
        # the pointwise bound of the designed rule equals epsilon everywhere
        env = affine_binary(binary_point(0.5), 1.0)
        for x in (0.1, 0.5, 0.9):
            rep = inaccuracy_bound(rule, env, binary_point(x), L_f=1.0)
            assert rep.pointwise_inaccuracy_bound == pytest.approx(0.1, rel=1e-9)

    def test_distance_target(self):
        rule = design_exponential_rule(0.5, 0.1, FIXED_POINT_DISTANCE)
        assert rule.K == pytest.approx(math.sqrt(2.0) * 0.5 / (0.5 * 0.1))
        env = affine_binary(binary_point(0.5), 0.5)
        p = binary_point(0.4)
        val = fixed_point_distance_bound(rule, env, p, L_f=0.5)
        assert val == pytest.approx(0.1, rel=1e-9)

    def test_guards(self):
        with pytest.raises(InvalidArgumentError):
            design_exponential_rule(1.0, 1e9)  # K collapses below the floor
        with pytest.raises(InvalidArgumentError):
            design_exponential_rule(1.0, 0.1, FIXED_POINT_DISTANCE)
        with pytest.raises(InvalidArgumentError):
            design_exponential_rule(0.0, 0.1)
        with pytest.raises(InvalidArgumentError):
            design_exponential_rule(1.0, -0.1)

    def test_achieves_epsilon_on_random_affine_environments(self):
        # smoke version of the achievement guarantee (full 200-env run in
        # the acceptance suite)
        eps = 0.1
        rule = design_exponential_rule(1.0, eps)
        rng = np.random.default_rng(5)
        for i in range(50):
            alpha = rng.uniform(-1.0, 1.0)
            lo, hi = (0.0, 1.0) if alpha >= 0 else (
                -alpha / (1 - alpha), 1.0 / (1 - alpha)
            )
            s = rng.uniform(lo, hi)
            env = affine_binary(binary_point(s), alpha)
            res = performative_optimum(
                rule, env, SolveConfig(seed=i, grid_resolution=1e-6)
            )
            assert l2_distance(env.eval(res.report), res.report) <= eps + 1e-9


class TestStakeProfile:
    def test_quadratic_cost_constant(self):
        q = quadratic_rule(2)
        prof = stake_profile(q, L_f=1.0, epsilon=0.05, p_l=0.25, p_h=0.7)
        delta = 0.05 / 2.0
        costs = [c for _, c in prof.grid]
        assert prof.sup_inf_ratio == pytest.approx(1.0, rel=1e-9)
        # shifting by x costs ||x (1,-1)||^2 = 2 x^2 under the quadratic rule
        assert costs[0] == pytest.approx(2.0 * (4.0 * delta) ** 2, rel=1e-9)
        assert not prof.premise_certified

    def test_quadratic_certified_within_its_own_bound(self):
        # the binary quadratic bound L_f / sqrt(2) = 0.0707 is below epsilon
        prof = stake_profile(quadratic_rule(2), L_f=0.1, epsilon=0.1, p_l=0.35, p_h=0.55)
        assert prof.premise_certified
        assert prof.sup_inf_ratio == pytest.approx(1.0, rel=1e-9)

    def test_designed_exponential_beats_lower_bound(self):
        eps = 0.05
        rule = design_exponential_rule(1.0, eps)
        prof = stake_profile(rule, L_f=1.0, epsilon=eps, p_l=0.25, p_h=0.75)
        assert prof.premise_certified
        assert prof.sup_inf_ratio >= prof.lower_bound
        # the exponential rule's cost scales as e^{K p}, so the ratio is
        # e^{K (p_h - p_l)} exactly
        assert prof.sup_inf_ratio == pytest.approx(
            math.exp(rule.K * 0.5), rel=1e-6
        )

    def test_degenerate_interval(self):
        q = quadratic_rule(2)
        prof = stake_profile(q, 1.0, 0.05, 0.4, 0.4)
        assert prof.sup_inf_ratio == pytest.approx(1.0)

    @pytest.mark.parametrize("step", [0.6, 1.5, 1e300])
    def test_coarse_step_keeps_both_ends(self, step):
        # a step wider than p_h - p_l used to leave p_l alone on the grid,
        # with a ratio of 1 below the lower bound the designed rule beats
        eps = 0.05
        rule = design_exponential_rule(1.0, eps)
        prof = stake_profile(rule, 1.0, eps, 0.25, 0.75, grid_step=step)
        assert [x for x, _ in prof.grid] == [0.25, 0.75]
        assert prof.sup_inf_ratio >= prof.lower_bound

    # 1e-9 and 1e-300 ask for 5e8 and 5e299 points, 5e-324 for infinitely many
    @pytest.mark.parametrize("step", [0.0, -1e-3, float("nan"), float("inf"),
                                      1e-9, 1e-300, 5e-324])
    def test_step_validation(self, step):
        with pytest.raises(InvalidArgumentError):
            stake_profile(quadratic_rule(2), 1.0, 0.05, 0.25, 0.75, grid_step=step)

    def test_largest_grid(self):
        prof = stake_profile(quadratic_rule(2), 1.0, 0.05, 0.25, 0.75, grid_step=5e-7)
        assert len(prof.grid) == MAX_STAKE_POINTS

    @pytest.mark.parametrize("spec", ["exp:K=28.3", "quadratic", "log"])
    def test_costs_match_pointwise_scores(self, spec):
        rule = parse_rule(spec, 2)
        prof = stake_profile(rule, 1.0, 0.05, 0.25, 0.75)
        shift = 4.0 * prof.delta
        for x, cost in prof.grid:
            truth = binary_point(x)
            want = rule.expected_score(truth, truth) - rule.expected_score(
                binary_point(x + shift), truth)
            assert cost == want

    def test_hypothesis_guard(self):
        q = quadratic_rule(2)
        with pytest.raises(InvalidArgumentError):
            stake_profile(q, 1.0, 0.05, 0.1, 0.7)  # p_l < 3 eps
        with pytest.raises(InvalidArgumentError):
            stake_profile(q, 1.0, 0.05, 0.25, 0.9)  # p_h > 1 - 4 eps

    def test_lower_bound_grows_with_interval(self):
        small = stake_ratio_lower_bound(1.0, 0.05, 0.3, 0.5)
        large = stake_ratio_lower_bound(1.0, 0.05, 0.2, 0.8)
        assert large > small

    def test_costs_nonnegative_all_rules(self):
        for rule in (quadratic_rule(2), logarithmic_rule(2),
                     exponential_binary_rule(10.0)):
            prof = stake_profile(rule, 1.0, 0.05, 0.2, 0.6, grid_step=0.01)
            assert all(c >= 0.0 for _, c in prof.grid)


class TestBoundValidityAtOptima:
    @pytest.mark.parametrize("alpha", [0.1, 0.35, 0.6, 0.85])
    @pytest.mark.parametrize("s", [0.15, 0.5, 0.9])
    def test_quadratic_affine(self, alpha, s):
        q = quadratic_rule(2)
        env = affine_binary(binary_point(s), alpha)
        res = performative_optimum(q, env, SolveConfig(grid_resolution=1e-6))
        inacc = l2_distance(env.eval(res.report), res.report)
        rep = inaccuracy_bound(q, env, res.report, L_f=alpha)
        assert inacc <= rep.pointwise_inaccuracy_bound * (1 + 1e-6) + 1e-9
        assert inacc <= rep.lipschitz_inaccuracy_bound * (1 + 1e-6) + 1e-9
        if alpha < 1.0:
            d = l2_distance(res.report, env.p_star)
            assert d <= fixed_point_distance_bound(q, env, res.report, alpha) * (
                1 + 1e-6
            ) + 1e-9
