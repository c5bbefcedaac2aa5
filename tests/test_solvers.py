import math

import numpy as np
import pytest

from perfscore.environment import (
    affine_binary,
    bank_run,
    linear,
    ramp_binary,
    random_linear,
    shrink_to,
    tabulated,
)
from perfscore.errors import DomainError, InvalidArgumentError, SolveTimeoutError
from perfscore.scoring import (
    exponential_binary_rule,
    logarithmic_rule,
    quadratic_rule,
)
from perfscore.simplex import (
    SimplexPoint,
    TangentVector,
    binary_point,
    l2_distance,
    project_to_simplex,
    sample_simplex_points,
    tangent_project,
    uniform_point,
)
from perfscore.solvers import (
    LOG_INTERIOR_NUDGE,
    MAX_BACKTRACKS,
    SolveConfig,
    SolveResult,
    _ascend_rows,
    _pick_best,
    _RowProblem,
    constant_policy_trace,
    grid_optimum_binary,
    inverse_schedule,
    online_sgd,
    performative_gradient,
    performative_optimum,
    quadratic_linear_exact_optimum,
    repeated_gradient_ascent,
    repeated_risk_minimization,
    stop_gradient,
)


def interior(n, count, seed):
    rng = np.random.default_rng(seed)
    return [
        SimplexPoint(0.9 * row + 0.1 / n)
        for row in sample_simplex_points(n, count, rng)
    ]


def smooth_envs(n, seed=0):
    if n == 2:
        return [
            affine_binary(binary_point(0.6), 0.45),
            bank_run(),
            random_linear(2, np.random.default_rng(seed)),
            shrink_to(binary_point(0.3), 0.5),
        ]
    return [
        random_linear(n, np.random.default_rng(seed)),
        shrink_to(uniform_point(n), 0.4),
    ]


class TestPerformativeGradient:
    @pytest.mark.parametrize(
        "rule",
        [quadratic_rule(2), logarithmic_rule(2), exponential_binary_rule(3.0),
         quadratic_rule(5), logarithmic_rule(5)],
        ids=str,
    )
    def test_matches_finite_differences(self, rule):
        rng = np.random.default_rng(20)
        h = 1e-6
        for env in smooth_envs(rule.n, seed=21):
            for p in interior(rule.n, 100, 22):
                grad = performative_gradient(rule, env, p).comps
                for _ in range(20):
                    v = tangent_project(rng.normal(size=rule.n)).comps
                    v = v / np.linalg.norm(v)
                    hi = SimplexPoint(np.clip(p.probs + h * v, 1e-12, None))
                    lo = SimplexPoint(np.clip(p.probs - h * v, 1e-12, None))
                    fd = (
                        rule.expected_score(hi, env.eval(hi))
                        - rule.expected_score(lo, env.eval(lo))
                    ) / (2.0 * h)
                    assert fd == pytest.approx(
                        float(grad @ v), abs=1e-5 * max(1.0, abs(fd))
                    )

    def test_constant_environment_closed_form(self):
        # alpha = 0 freezes beliefs at p*; gradient is 2 (p* - p) centered
        q = quadratic_rule(2)
        env = affine_binary(binary_point(0.7), 0.0)
        p = binary_point(0.2)
        grad = performative_gradient(q, env, p).comps
        assert grad == pytest.approx(2.0 * (env.p_star.probs - p.probs))

    def test_exponential_interior_stationarity_closed_form(self):
        # with exponent K the interior optimum satisfies f(x) - x = -alpha/K,
        # i.e. x = p* + alpha / (K (1 - alpha)); for K = 2, p* = 1/2 this is
        # x = 1 / (2 (1 - alpha))
        ex = exponential_binary_rule(2.0)
        for alpha in (0.1, 0.3, 0.45):
            env = affine_binary(binary_point(0.5), alpha)
            x = 1.0 / (2.0 * (1.0 - alpha))
            grad = performative_gradient(ex, env, binary_point(x))
            assert grad.norm == pytest.approx(0.0, abs=1e-9)

    def test_zero_at_interior_optimum(self):
        q = quadratic_rule(2)
        env = affine_binary(binary_point(0.5), 0.3)
        res = performative_optimum(q, env, SolveConfig(tol=1e-12))
        grad = performative_gradient(q, env, res.report)
        assert grad.norm <= 1e-8


class TestGridOracle:
    def test_exponential_closed_form(self):
        ex = exponential_binary_rule(2.0)
        env = affine_binary(binary_point(0.5), 0.3)
        res = grid_optimum_binary(ex, env, 1e-6)
        assert res.report[0] == pytest.approx(1.0 / 1.4, abs=1.1e-6)

    def test_constant_map_returns_target(self):
        q = quadratic_rule(2)
        env = affine_binary(binary_point(0.31), 0.0)
        res = grid_optimum_binary(q, env, 1e-4)
        assert res.report[0] == pytest.approx(0.31, abs=1.1e-4)

    def test_boundary_clamp_when_stationarity_exits(self):
        # exponential K=2, alpha=0.6: stationary point 1.25 exits [0, 1]
        ex = exponential_binary_rule(2.0)
        env = affine_binary(binary_point(0.5), 0.6)
        res = grid_optimum_binary(ex, env, 1e-5)
        assert res.report[0] == pytest.approx(1.0)

    def test_resolution_contract(self):
        q = quadratic_rule(2)
        env = affine_binary(binary_point(0.5), 0.3)
        with pytest.raises(InvalidArgumentError):
            grid_optimum_binary(q, env, 0.01)

    def test_log_rule_grid_clipped(self):
        lg = logarithmic_rule(2)
        env = affine_binary(binary_point(0.9), 0.2)
        res = grid_optimum_binary(lg, env, 1e-4)
        assert 1e-4 <= res.report[0] <= 1.0 - 1e-4
        assert np.isfinite(res.objective)


class TestPerformativeOptimum:
    def test_symmetric_affine_quadratic_optimum_is_fixed_point(self):
        # for the quadratic rule the objective is the parabola
        # (4a-2) x^2 + (2-4a) x + const, so below slope 1/2 the optimum sits
        # at the fixed point 1/2; the grid oracle confirms
        q = quadratic_rule(2)
        for alpha in (0.1, 0.3, 0.49):
            env = affine_binary(binary_point(0.5), alpha)
            res = performative_optimum(q, env, SolveConfig(grid_resolution=1e-5))
            assert res.report[0] == pytest.approx(0.5, abs=1e-6)
            assert res.objective == pytest.approx(0.5, abs=1e-12)

    def test_symmetric_affine_quadratic_vertices_tie_above_half(self):
        q = quadratic_rule(2)
        env = affine_binary(binary_point(0.5), 0.7)
        res = performative_optimum(q, env, SolveConfig(grid_resolution=1e-5))
        # vertices tie at objective alpha; smallest report wins
        assert res.objective == pytest.approx(0.7, abs=1e-12)
        assert res.report[0] == pytest.approx(0.0, abs=1e-9)

    def test_exponential_closed_form_family(self):
        ex = exponential_binary_rule(2.0)
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            env = affine_binary(binary_point(0.5), alpha)
            res = performative_optimum(ex, env, SolveConfig(grid_resolution=1e-6))
            expected = min(1.0, 1.0 / (2.0 * (1.0 - alpha))) if alpha < 1 else 1.0
            assert res.report[0] == pytest.approx(expected, abs=1e-5)
            inacc = l2_distance(env.eval(res.report), res.report)
            if expected < 1.0:
                assert inacc == pytest.approx(alpha / math.sqrt(2.0), abs=1e-5)

    def test_strictly_proper_rules_report_target_under_constant_map(self):
        env = affine_binary(binary_point(0.62), 0.0)
        for rule in (quadratic_rule(2), logarithmic_rule(2),
                     exponential_binary_rule(5.0)):
            res = performative_optimum(rule, env, SolveConfig(grid_resolution=1e-5))
            assert res.report[0] == pytest.approx(0.62, abs=1e-5)
            assert l2_distance(env.eval(res.report), res.report) <= 2e-5

    def test_bank_run_optimum_near_extreme_fixed_point(self):
        q = quadratic_rule(2)
        res = performative_optimum(q, bank_run(), SolveConfig(grid_resolution=1e-6))
        x = res.report[0]
        nearest = min((0.1, 0.6, 0.9), key=lambda r: abs(r - x))
        assert nearest in (0.1, 0.9)
        assert abs(x - 0.6) > 0.05

    def test_oracle_dominance_lattice(self):
        # gradient solver matches the 1e-6 grid oracle across (alpha, p*)
        q = quadratic_rule(2)
        worst = 0.0
        for alpha in np.linspace(0.0, 1.0, 21):
            for s in np.linspace(0.0, 1.0, 21):
                env = affine_binary(binary_point(s), alpha)
                pga = performative_optimum(q, env, SolveConfig(grid_resolution=1e-4))
                grid = grid_optimum_binary(q, env, 1e-6)
                worst = max(worst, abs(pga.objective - grid.objective))
        assert worst <= 1e-6

    def test_interior_stationarity_invariant(self):
        cfg = SolveConfig(tol=1e-11, grid_resolution=1e-5)
        ex = exponential_binary_rule(2.0)
        env = affine_binary(binary_point(0.5), 0.3)
        res = performative_optimum(ex, env, cfg)
        assert res.converged
        grad = performative_gradient(ex, env, res.report)
        assert grad.norm <= 10 * cfg.tol * max(1.0, abs(res.objective)) + 1e-9

    def test_objective_recomputable(self):
        q = quadratic_rule(5)
        env = random_linear(5, np.random.default_rng(33))
        res = performative_optimum(q, env, SolveConfig(seed=1))
        assert res.objective == pytest.approx(
            q.expected_score(res.report, env.eval(res.report)), abs=1e-9
        )

    def test_timeout_raises_with_best_iterate(self):
        q = quadratic_rule(5)
        env = random_linear(5, np.random.default_rng(34))
        with pytest.raises(SolveTimeoutError) as err:
            performative_optimum(q, env, SolveConfig(timeout_secs=1e-9))
        best = err.value.best
        assert best is not None
        assert best.objective == q.expected_score(best.report, env.eval(best.report))

    @pytest.mark.parametrize(
        "rule",
        [quadratic_rule(2), logarithmic_rule(2), exponential_binary_rule(3.0)],
        ids=str,
    )
    def test_tabulated_map_reaches_grid_optimum(self, rule):
        # knots include both vertices, where the map has no two-sided slope
        env = tabulated(np.linspace(0.0, 1.0, 5), [0.3, 0.8, 0.15, 0.6, 0.9])
        res = performative_optimum(rule, env, SolveConfig(grid_resolution=1e-6))
        grid = grid_optimum_binary(rule, env, 1e-6)
        assert res.objective >= grid.objective - 2e-7 * max(1.0, abs(grid.objective))


class TestExactQuadraticLinearOracle:
    def test_agrees_with_gradient_solver(self):
        q5 = quadratic_rule(5)
        for i in range(50):
            env = random_linear(5, np.random.default_rng([5, i]))
            exact = quadratic_linear_exact_optimum(env)
            pga = performative_optimum(q5, env, SolveConfig(seed=i))
            assert pga.objective >= exact.objective - 1e-9

    def test_constant_uniform_map(self):
        A = np.full((5, 5), 0.2)
        env = linear(A)
        res = performative_optimum(quadratic_rule(5), env, SolveConfig(seed=0))
        assert res.report.probs == pytest.approx(np.full(5, 0.2), abs=1e-6)
        assert l2_distance(env.eval(res.report), res.report) <= 1e-6

    def test_requires_linear(self):
        with pytest.raises(InvalidArgumentError):
            quadratic_linear_exact_optimum(bank_run())


class TestRepeatedRiskMinimization:
    def test_banach_geometric_rate(self):
        q = quadratic_rule(2)
        env = affine_binary(binary_point(0.8), 0.5)
        res = repeated_risk_minimization(q, env, uniform_point(2), tol=1e-13)
        assert res.converged
        assert res.report[0] == pytest.approx(0.8, abs=1e-12)
        traj = res.trajectory
        target = env.p_star.probs
        for a, b in zip(traj[:-1], traj[1:]):
            da = np.linalg.norm(a.probs - target)
            db = np.linalg.norm(b.probs - target)
            if da > 1e-10:
                assert db == pytest.approx(0.5 * da, rel=1e-9)

    def test_bank_run_converges_to_attracting_extreme(self):
        q = quadratic_rule(2)
        res = repeated_risk_minimization(q, bank_run(), binary_point(0.5), tol=1e-12)
        assert res.converged
        # the cubic's own iteration is the oracle: 0.5 flows to one of the
        # attracting fixed points, never to the repelling interior one
        assert min(abs(res.report[0] - 0.1), abs(res.report[0] - 0.9)) <= 1e-6

    def test_identity_returns_immediately(self):
        q = quadratic_rule(2)
        env = affine_binary(binary_point(0.5), 1.0)
        start = binary_point(0.27)
        res = repeated_risk_minimization(q, env, start, tol=1e-12)
        assert res.converged and res.iterations == 1
        assert res.report[0] == pytest.approx(0.27)

    def test_iteration_limit_returns_nonconverged(self):
        q = quadratic_rule(2)
        env = affine_binary(binary_point(0.8), 0.999)
        res = repeated_risk_minimization(q, env, binary_point(0.0), max_iters=5,
                                         tol=1e-15)
        assert not res.converged


class TestRepeatedGradientAscent:
    def test_converges_to_fixed_point_not_optimum(self):
        q = quadratic_rule(2)
        env = affine_binary(binary_point(0.5), 0.3)
        res = repeated_gradient_ascent(q, env, binary_point(0.9), tol=2e-8)
        assert res.converged
        assert res.report[0] == pytest.approx(0.5, abs=1e-7)
        # under the exponential rule the optimum is elsewhere (5/7)
        ex = exponential_binary_rule(2.0)
        opt = performative_optimum(ex, env, SolveConfig(grid_resolution=1e-6))
        assert abs(res.report[0] - opt.report[0]) > 0.2

    def test_default_step_is_inverse_curvature(self):
        # for the quadratic rule 1/beta = 0.5 turns the ascent into exact
        # fixed-point iteration
        q = quadratic_rule(2)
        env = affine_binary(binary_point(0.7), 0.5)
        res = repeated_gradient_ascent(q, env, uniform_point(2), tol=1e-10)
        assert res.converged
        assert res.report[0] == pytest.approx(0.7, abs=1e-9)

    def test_fixed_point_start_is_immediate(self):
        q = quadratic_rule(2)
        env = affine_binary(binary_point(0.4), 0.5)
        res = repeated_gradient_ascent(q, env, binary_point(0.4), tol=1e-10)
        assert res.converged and res.iterations == 1

    def test_stop_gradient_zero_iff_fixed_point(self):
        q = quadratic_rule(2)
        env = affine_binary(binary_point(0.4), 0.5)
        assert stop_gradient(q, env, binary_point(0.4)).norm <= 1e-15
        assert stop_gradient(q, env, binary_point(0.8)).norm > 1e-3

    def test_converged_implies_fixed_point(self):
        rng = np.random.default_rng(40)
        q = quadratic_rule(3)
        for i in range(20):
            env = shrink_to(
                SimplexPoint(sample_simplex_points(3, 1, rng)[0]), 0.5
            )
            start = SimplexPoint(sample_simplex_points(3, 1, rng)[0])
            res = repeated_gradient_ascent(q, env, start, tol=2e-7)
            assert res.converged
            assert l2_distance(env.eval(res.report), res.report) <= 1e-6

    def test_unbounded_curvature_needs_explicit_step(self):
        lg = logarithmic_rule(2)
        env = affine_binary(binary_point(0.6), 0.5)
        with pytest.raises(InvalidArgumentError):
            repeated_gradient_ascent(lg, env, uniform_point(2))
        res = repeated_gradient_ascent(lg, env, uniform_point(2), step=0.05,
                                       tol=1e-9)
        assert res.report[0] == pytest.approx(0.6, abs=1e-6)


class TestOnlineSGD:
    def test_empty_horizon(self):
        q = quadratic_rule(2)
        env = affine_binary(binary_point(0.5), 0.3)
        tr = online_sgd(q, env, binary_point(0.2), inverse_schedule(1.0), 0, 0)
        assert tr.reports.shape == (1, 2)
        assert tr.reports[0] == pytest.approx([0.2, 0.8])
        assert tr.outcomes.size == 0 and tr.scores.size == 0

    def test_outcomes_drawn_from_environment(self):
        q = quadratic_rule(2)
        env = affine_binary(binary_point(0.9), 0.0)
        tr = online_sgd(q, env, binary_point(0.9), inverse_schedule(0.1), 5000, 3)
        assert tr.outcomes.mean() == pytest.approx(0.1, abs=0.02)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_constant_map_concentrates_on_target(self, seed):
        q = quadratic_rule(2)
        env = affine_binary(binary_point(0.3), 0.0)
        tr = online_sgd(q, env, uniform_point(2), inverse_schedule(1.0),
                        100_000, seed)
        tail = tr.reports[-1000:].mean(axis=0)
        assert np.linalg.norm(tail - env.p_star.probs) <= 0.02

    def test_contraction_tracks_fixed_point(self):
        q = quadratic_rule(2)
        env = affine_binary(binary_point(0.7), 0.5)
        tr = online_sgd(q, env, uniform_point(2), inverse_schedule(1.0),
                        100_000, 0)
        tail = tr.reports[-1000:].mean(axis=0)
        assert np.linalg.norm(tail - [0.7, 0.3]) <= 0.02

    def test_log_rule_stays_off_boundary(self):
        lg = logarithmic_rule(2)
        env = affine_binary(binary_point(0.97), 0.0)
        tr = online_sgd(lg, env, uniform_point(2), inverse_schedule(0.5),
                        20_000, 1)
        assert tr.reports.min() >= 1e-6 - 1e-15
        assert np.all(np.isfinite(tr.scores))

    def test_constant_policy_trace(self):
        q = quadratic_rule(2)
        env = affine_binary(binary_point(0.7), 0.5)
        tr = constant_policy_trace(q, env, binary_point(0.3), 1000, 0)
        assert np.all(tr.reports == tr.reports[0])
        q_induced = env.eval(binary_point(0.3)).probs
        assert tr.outcomes.mean() == pytest.approx(q_induced[1], abs=0.05)


class TestNonFixedPointUbiquity:
    def test_random_linear_optima_rarely_fixed(self):
        # light version of the generic-optima demonstration
        q2, q5 = quadratic_rule(2), quadratic_rule(5)
        hits = 0
        total = 60
        for i in range(total):
            n = 2 if i % 2 == 0 else 5
            env = random_linear(n, np.random.default_rng([9, i]))
            rule = q2 if n == 2 else q5
            res = performative_optimum(rule, env, SolveConfig(seed=i))
            if l2_distance(env.eval(res.report), res.report) > 1e-6:
                hits += 1
        assert hits >= int(0.99 * total)


# -- sequential reference ------------------------------------------------------
# The one-start-at-a-time ascent on validated objects that the batched row
# kernel replaced, kept as the reference the kernel must reproduce.


def _ref_gradient(rule, f, p):
    q = f.eval(p)
    v = rule.hessian(p).T @ (q.probs - p.probs) + f.jacobian(p).T @ rule.subgradient(p).comps
    return TangentVector(v - v.mean())


def _ref_objective(rule, f, p):
    return rule.expected_score(p, f.eval(p))


def _ref_ascend(rule, f, start, cfg):
    p = start
    phi = _ref_objective(rule, f, p)
    gn = float("nan")
    converged = False
    it = 0
    for it in range(1, cfg.max_iters + 1):
        try:
            grad = _ref_gradient(rule, f, p)
        except DomainError:
            break
        gn = grad.norm
        if gn <= cfg.tol:
            converged = True
            break
        step = cfg.step_size
        accepted = None
        for _ in range(MAX_BACKTRACKS + 1):
            cand = project_to_simplex(p.probs + step * grad.comps)
            cand_phi = _ref_objective(rule, f, cand)
            if cand_phi > phi:
                accepted = (cand, cand_phi)
                break
            step *= 0.5
        if accepted is None:
            converged = True
            break
        moved = np.linalg.norm(accepted[0].probs - p.probs)
        p, phi = accepted
        if moved <= cfg.tol:
            converged = True
            break
    return SolveResult(p, phi, converged, it, gn)


def _ref_polish(rule, f, res, cfg):
    p = res.report
    if not p.is_interior(1e-9):
        return res
    gn = _ref_gradient(rule, f, p).norm
    phi = _ref_objective(rule, f, p)
    slack = 1e-9 * max(1.0, abs(phi))
    it = res.iterations
    for _ in range(200):
        if gn <= cfg.tol:
            break
        grad = _ref_gradient(rule, f, p)
        step = cfg.step_size
        accepted = None
        for _ in range(MAX_BACKTRACKS + 1):
            cand = project_to_simplex(p.probs + step * grad.comps)
            try:
                cand_gn = _ref_gradient(rule, f, cand).norm
            except DomainError:
                cand_gn = float("inf")
            if cand_gn < gn and _ref_objective(rule, f, cand) >= phi - slack:
                accepted = (cand, cand_gn)
                break
            step *= 0.5
        if accepted is None:
            break
        p, gn = accepted
        phi = _ref_objective(rule, f, p)
        it += 1
    return SolveResult(p, phi, res.converged or gn <= cfg.tol, it, gn)


def _ref_starts(rule, n, cfg, rng):
    starts = [uniform_point(n)]
    nudge = LOG_INTERIOR_NUDGE
    for i in range(n):
        v = np.full(n, nudge / n)
        v[i] = 1.0 - nudge + nudge / n
        starts.append(SimplexPoint(v / v.sum()))
    for i in range(n):
        v = np.full(n, 1.0 / (n - 1.0))
        v[i] = 0.0
        if rule.kind == "logarithmic":
            v = (1.0 - nudge) * v + nudge / n
        starts.append(SimplexPoint(v / v.sum()))
    for row in sample_simplex_points(n, max(cfg.restarts - len(starts), 0), rng):
        starts.append(SimplexPoint(row))
    return starts[: cfg.restarts]


def reference_optimum(rule, f, cfg):
    """(final result, start points, per-start results) of the sequential solver."""
    starts = _ref_starts(rule, f.n, cfg, np.random.default_rng(cfg.seed))
    oracle = None
    if f.n == 2:
        oracle = grid_optimum_binary(rule, f, cfg.grid_resolution)
    elif rule.kind == "quadratic" and f.kind == "linear":
        oracle = quadratic_linear_exact_optimum(f)
    if oracle is not None:
        starts.append(oracle.report)
    rows = [_ref_ascend(rule, f, s, cfg) for s in starts]
    candidates = rows[:-1] + [oracle, rows[-1]] if oracle is not None else rows
    best = _ref_polish(rule, f, _pick_best(candidates), cfg)
    return best, starts, rows


def _reference_cases():
    maps = {
        "linear3": random_linear(3, np.random.default_rng(61)),
        "linear5": random_linear(5, np.random.default_rng(62)),
        "affine": affine_binary(binary_point(0.7), 0.5),
        "affine-neg": affine_binary(binary_point(0.45), -0.6),
        "bank-run": bank_run(),
        "ramp": ramp_binary(0.1, 0.05),
        "tabulated": tabulated(np.linspace(0.0, 1.0, 5), [0.3, 0.8, 0.15, 0.6, 0.9]),
        "shrink2": shrink_to(binary_point(0.3), 0.5),
        "shrink4": shrink_to(SimplexPoint([0.1, 0.2, 0.3, 0.4]), 0.4),
    }
    for name, env in maps.items():
        rules = [quadratic_rule(env.n), logarithmic_rule(env.n)]
        if env.n == 2:
            rules.append(exponential_binary_rule(3.0))
        for rule in rules:
            yield pytest.param(rule, env, id=f"{rule}-{name}")


class TestBatchedAscentMatchesSequentialReference:
    # float64 rounding on a flat optimum, fixed before the batched kernel:
    # objectives agree to 1e-12 relative, reports to 1e-6
    @pytest.mark.parametrize("rule, env", _reference_cases())
    def test_final_and_converged_rows_agree(self, rule, env):
        cfg = SolveConfig(seed=7)
        ref, starts, ref_rows = reference_optimum(rule, env, cfg)
        got = performative_optimum(rule, env, cfg)
        scale = max(1.0, abs(ref.objective))
        assert abs(got.objective - _ref_objective(rule, env, ref.report)) <= 1e-12 * scale
        assert np.max(np.abs(got.report.probs - ref.report.probs)) <= 1e-6

        rows = _ascend_rows(
            _RowProblem(rule, env), np.array([s.probs for s in starts]),
            cfg.max_iters, cfg.step_size, cfg.tol,
        ).results()
        both = [(a, b) for a, b in zip(rows, ref_rows) if a.converged and b.converged]
        assert both
        for a, b in both:
            assert abs(a.objective - b.objective) <= 1e-12 * max(1.0, abs(b.objective))
            assert np.max(np.abs(a.report.probs - b.report.probs)) <= 1e-6
