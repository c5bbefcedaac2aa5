import dataclasses
import hashlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import perfscore.solvers as solvers
from perfscore.bounds import design_exponential_rule
from perfscore.environment import (
    affine_binary,
    bank_run,
    linear,
    ramp_binary,
    random_linear,
    shrink_to,
    tabulated,
)
from perfscore.errors import DomainError, InvalidArgumentError
from perfscore.scoring import (
    _SCAN_STEP,
    ScoringRule,
    exponential_binary_rule,
    logarithmic_rule,
    quadratic_rule,
)
from perfscore.simplex import (
    SimplexPoint,
    TangentVector,
    binary_point,
    l2_distance,
    project_rows,
    project_to_simplex,
    sample_simplex_points,
    tangent_basis,
    tangent_project,
    uniform_point,
)
from perfscore.solvers import (
    ASCENT_STEP,
    ASCENT_TOL,
    LOG_INTERIOR_NUDGE,
    MAX_BACKTRACKS,
    SolveConfig,
    SolveResult,
    _ascend_rows,
    _best_index,
    _log_linear_hessian_rows,
    _multistart_ascent,
    _quadratic_simplex_rows,
    _RowProblem,
    _structured_starts,
    constant_policy_trace,
    grid_optimum_binary,
    inverse_schedule,
    online_sgd,
    performative_gradient,
    performative_optimum,
    quadratic_linear_exact_optimum,
    repeated_gradient_ascent,
    repeated_risk_minimization,
    rga_policy_trace,
    stop_gradient,
)


def interior(n, count, seed):
    rng = np.random.default_rng(seed)
    return [
        SimplexPoint(0.9 * row + 0.1 / n)
        for row in sample_simplex_points(n, count, rng)
    ]


def kernel_ascent(rule, env, cfg):
    """The batched ascent kernel that markets still run, with no finish:
    the winning row's (report, objective) as ``_best_index`` picks it."""
    starts = _structured_starts(rule, env.n, cfg, np.random.default_rng(cfg.seed))
    rows = _ascend_rows(_RowProblem(rule, env), starts, cfg.max_iters, ASCENT_STEP, ASCENT_TOL)
    k = int(_best_index(rows.P, rows.phi))
    return rows.P[k], float(rows.phi[k])


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


BINARY_FAMILIES = ("affine", "ramp", "tabulated", "shrink", "bank-run", "linear2")


def random_binary_map(family, rng):
    if family == "affine":
        return affine_binary(binary_point(rng.uniform(0.1, 0.9)), rng.uniform(-0.1, 0.9))
    if family == "ramp":
        return ramp_binary(rng.uniform(0.05, 0.3), rng.uniform(0.01, 0.3))
    if family == "tabulated":
        return tabulated(np.linspace(0.0, 1.0, 5), rng.uniform(0.05, 0.95, 5))
    if family == "shrink":
        return shrink_to(binary_point(rng.uniform(0.1, 0.9)), rng.uniform(0.1, 0.9))
    if family == "bank-run":
        return bank_run()
    return random_linear(2, rng)


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
        res = performative_optimum(q, env)
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


class TestSolveConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [dict(max_iters=0), dict(max_iters=-3),
         dict(restarts=0), dict(grid_resolution=0.5),
         dict(grid_resolution=float("nan")), dict(grid_resolution=0.0)],
        ids=lambda kw: ",".join(f"{k}={v}" for k, v in kw.items()),
    )
    def test_rejected_when_built(self, kwargs):
        with pytest.raises(InvalidArgumentError):
            SolveConfig(**kwargs)

    def test_four_fields(self):
        # the ascent's step and stop are solver constants, not settings
        assert [f.name for f in dataclasses.fields(SolveConfig)] == [
            "max_iters", "restarts", "seed", "grid_resolution",
        ]


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
        assert res.report[0] == 0.0

    def test_exponential_closed_form_family(self):
        ex = exponential_binary_rule(2.0)
        for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
            env = affine_binary(binary_point(0.5), alpha)
            res = performative_optimum(ex, env, SolveConfig(grid_resolution=1e-6))
            expected = min(1.0, 1.0 / (2.0 * (1.0 - alpha))) if alpha < 1 else 1.0
            assert res.report[0] == pytest.approx(expected, abs=1e-12)
            inacc = l2_distance(env.eval(res.report), res.report)
            if expected < 1.0:
                assert inacc == pytest.approx(alpha / math.sqrt(2.0), abs=1e-5)

    def test_strictly_proper_rules_report_target_under_constant_map(self):
        # f1 = c: the quadratic rule's stationary point 4c / 4 is c exactly
        env = affine_binary(binary_point(0.62), 0.0)
        for rule, tol in ((quadratic_rule(2), 0.0), (logarithmic_rule(2), 1e-12),
                          (exponential_binary_rule(5.0), 1e-12)):
            res = performative_optimum(rule, env, SolveConfig(grid_resolution=1e-5))
            assert abs(res.report[0] - 0.62) <= tol
            assert l2_distance(env.eval(res.report), res.report) <= 2e-5

    def test_bank_run_optimum_near_extreme_fixed_point(self):
        q = quadratic_rule(2)
        res = performative_optimum(q, bank_run(), SolveConfig(grid_resolution=1e-6))
        x = res.report[0]
        nearest = min((0.1, 0.6, 0.9), key=lambda r: abs(r - x))
        assert nearest in (0.1, 0.9)
        assert abs(x - 0.6) > 0.05

    def test_oracle_dominance_lattice(self):
        # the exact solve and the batched ascent kernel each match the 1e-6
        # grid oracle across (alpha, p*)
        q = quadratic_rule(2)
        cfg = SolveConfig()
        worst = 0.0
        for alpha in np.linspace(0.0, 1.0, 21):
            for s in np.linspace(0.0, 1.0, 21):
                env = affine_binary(binary_point(s), alpha)
                grid = grid_optimum_binary(q, env, 1e-6)
                exact = performative_optimum(q, env, cfg).objective
                ascent = kernel_ascent(q, env, cfg)[1]
                for value in (exact, ascent):
                    worst = max(worst, abs(value - grid.objective))
        assert worst <= 1e-6

    def test_interior_stationarity_invariant(self):
        ex = exponential_binary_rule(2.0)
        env = affine_binary(binary_point(0.5), 0.3)
        res = performative_optimum(ex, env, SolveConfig(grid_resolution=1e-5))
        assert res.converged
        grad = performative_gradient(ex, env, res.report)
        assert grad.norm <= 1e-10 * max(1.0, abs(res.objective)) + 1e-9

    def test_objective_recomputable(self):
        q = quadratic_rule(5)
        env = random_linear(5, np.random.default_rng(33))
        res = performative_optimum(q, env, SolveConfig(seed=1))
        assert res.objective == pytest.approx(
            q.expected_score(res.report, env.eval(res.report)), abs=1e-9
        )

    def test_max_iters_caps_the_ascent(self):
        # the log rule with n = 3 has no exact solver: every row stops at
        # the iteration cap, unconverged, and the solve still returns a
        # scored result
        lg = logarithmic_rule(3)
        env = random_linear(3, np.random.default_rng(34))
        cfg = SolveConfig(max_iters=3)
        starts = _structured_starts(lg, 3, cfg, np.random.default_rng(cfg.seed))
        rows = _ascend_rows(_RowProblem(lg, env), starts, cfg.max_iters, ASCENT_STEP, ASCENT_TOL)
        assert rows.iterations.max() <= cfg.max_iters and not rows.converged.any()
        res = performative_optimum(lg, env, cfg)
        assert res.objective == lg.expected_score(res.report, env.eval(res.report))

    def test_newton_finish_runs_past_max_iters(self):
        # the winning row of test_max_iters_caps_the_ascent stops at the cap;
        # the Newton finish does not share it, and its steps are counted
        lg = logarithmic_rule(3)
        env = random_linear(3, np.random.default_rng(34))
        res = performative_optimum(lg, env, SolveConfig(max_iters=3))
        gn = performative_gradient(lg, env, res.report).norm
        assert res.iterations > 3
        assert res.converged == (res.gradient_norm_final <= ASCENT_TOL)
        assert res.gradient_norm_final == pytest.approx(gn, abs=1e-15)

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


# (n, rng seed, objective before the Newton finish): the maps of seeds 0-199
# per n whose ascent winner kept the largest tangent gradient norms, 3.6e-6
# to 1.4e-3, when a gradient-step polish sharing the 500-step cap finished
# the solve
UNFINISHED_LOG_LINEAR = [
    (3, 47, -0.9330041585796074),
    (3, 82, -0.5804980296838927),
    (3, 93, -1.0885065951153547),
    (3, 197, -0.7690680726546508),
    (5, 53, -1.3816210109985914),
    (5, 147, -0.6079617730351826),
    (8, 29, -2.062907778467694),
    (8, 46, -1.9381352750553649),
]


class TestLogLinearNewtonFinish:
    @pytest.mark.parametrize("n", [3, 5, 8])
    def test_hessian_matches_gradient_differences(self, n):
        # the tangent part of H v against central differences of the
        # tangent gradient along each tangent basis vector v
        lg = logarithmic_rule(n)
        B = tangent_basis(n)
        h = 1e-6
        for seed in range(5):
            env = random_linear(n, np.random.default_rng([n, seed]))
            for p in interior(n, 4, seed):
                H = _log_linear_hessian_rows(env.A, p.probs[None, :])[0]
                scale = max(1.0, np.abs(H).max())
                for v in B.T:
                    hi = performative_gradient(lg, env, SimplexPoint(p.probs + h * v)).comps
                    lo = performative_gradient(lg, env, SimplexPoint(p.probs - h * v)).comps
                    fd = (hi - lo) / (2.0 * h)
                    Hv = H @ v
                    assert np.max(np.abs(fd - (Hv - Hv.mean()))) <= 1e-6 * scale

    @pytest.mark.parametrize("n, seed, before", UNFINISHED_LOG_LINEAR,
                             ids=[f"n{n}-seed{seed}" for n, seed, _ in UNFINISHED_LOG_LINEAR])
    def test_finish_reaches_a_zero_gradient(self, n, seed, before):
        lg = logarithmic_rule(n)
        env = random_linear(n, np.random.default_rng(seed))
        res = performative_optimum(lg, env, SolveConfig(seed=seed))
        assert performative_gradient(lg, env, res.report).norm <= 1e-12
        assert res.gradient_norm_final <= 1e-12 and res.converged
        assert res.objective >= before - 1e-15 * max(1.0, abs(before))

    @pytest.mark.parametrize("n, seed", [(3, 47), (5, 53)])
    def test_non_finite_hessian_ends_the_finish(self, n, seed, monkeypatch):
        # a NaN tangent Hessian gives a NaN step, whose candidate is not
        # interior: the ascent's winner is returned, scored by its own |g|
        lg = logarithmic_rule(n)
        env = random_linear(n, np.random.default_rng(seed))
        cfg = SolveConfig(seed=seed)
        starts = _structured_starts(lg, n, cfg, np.random.default_rng(cfg.seed))
        problem = _RowProblem(lg, env)
        rows = _ascend_rows(problem, starts, cfg.max_iters, ASCENT_STEP, ASCENT_TOL)
        k = int(_best_index(rows.P, rows.phi))
        monkeypatch.setattr(solvers, "_log_linear_hessian_rows",
                            lambda A, P: np.full((1, n, n), np.nan))
        res = performative_optimum(lg, env, cfg)
        assert np.array_equal(res.report.probs, SimplexPoint(rows.P[k]).probs)
        assert res.iterations == rows.iterations[k]
        gn = float(np.linalg.norm(problem.gradient(rows.P[k:k + 1], None)[0]))
        assert res.gradient_norm_final == gn
        assert res.converged == (gn <= ASCENT_TOL)

    def test_boundary_winner_skips_the_finish(self):
        # a frozen belief on a face: the winning row leaves the interior,
        # where the Hessian is undefined, and is returned as the ascent left it
        q = SimplexPoint([0.5, 0.5, 0.0])
        res = performative_optimum(logarithmic_rule(3), shrink_to(q, 1.0))
        assert np.array_equal(res.report.probs, q.probs)
        assert res.iterations == 2 and not res.converged


class TestExactQuadraticLinearOracle:
    def test_agrees_with_gradient_solver(self):
        # the multi-start ascent alone: no oracle row among its starts
        q5 = quadratic_rule(5)
        for i in range(50):
            env = random_linear(5, np.random.default_rng([5, i]))
            exact = quadratic_linear_exact_optimum(env)
            _, phi = kernel_ascent(q5, env, SolveConfig(seed=i))
            assert abs(phi - exact.objective) <= 1e-9

    def test_constant_uniform_map(self):
        A = np.full((5, 5), 0.2)
        env = linear(A)
        res = performative_optimum(quadratic_rule(5), env, SolveConfig(seed=0))
        assert res.report.probs == pytest.approx(np.full(5, 0.2), abs=1e-6)
        assert l2_distance(env.eval(res.report), res.report) <= 1e-6

    def test_requires_linear(self):
        with pytest.raises(InvalidArgumentError):
            quadratic_linear_exact_optimum(bank_run())

    def test_matches_scalar_face_loop(self):
        # five-outcome maps as many_outcome_experiment draws them (perfbench's
        # population seed 2305 and seed 1), 200 maps for each n = 3..7, and
        # shrink maps whose supports tie exactly
        envs = [
            random_linear(5, np.random.default_rng(np.random.SeedSequence([seed, i])))
            for seed in (2305, 1) for i in range(150)
        ]
        envs += [random_linear(n, np.random.default_rng([n, i]))
                 for n in range(3, 8) for i in range(200)]
        envs += [shrink_to(uniform_point(4), a) for a in (0.0, 0.25, 0.5, 0.75, 1.0)]
        for env in envs:
            x, val = _ref_exact_optimum(env.A)
            res = quadratic_linear_exact_optimum(env)
            assert np.array_equal(res.report.probs, SimplexPoint(x).probs), env.descriptor()
            assert res.objective == val

    def test_shrink_ties_go_to_the_smallest_report(self):
        # below a = 1/2 every vertex ties; at a = 1/2 the form is constant
        for a in (0.0, 0.25, 0.5):
            res = quadratic_linear_exact_optimum(shrink_to(uniform_point(4), a))
            assert np.array_equal(res.report.probs, [0.0, 0.0, 0.0, 1.0])

    @given(n=st.integers(min_value=2, max_value=6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_kernel_dominates_vertices_and_samples(self, n, seed):
        rng = np.random.default_rng(seed)
        B = rng.normal(size=(3, n, n))
        M = B + B.transpose(0, 2, 1)
        X = _quadratic_simplex_rows(M)
        assert np.all(X >= 0.0) and np.allclose(X.sum(axis=1), 1.0, atol=1e-12)
        got = np.einsum("ri,rij,rj->r", X, M, X)
        samples = np.vstack([sample_simplex_points(n, 200, rng), np.eye(n)])
        values = np.einsum("si,rij,sj->rs", samples, M, samples)
        assert np.all(got[:, None] >= values - 1e-12)

    def test_singular_row_leaves_the_other_rows_bit_identical(self):
        # an all-zero form makes every face of its row singular
        rng = np.random.default_rng(17)
        A = np.stack([sample_simplex_points(5, 5, rng).T for _ in range(64)])
        M = A + A.transpose(0, 2, 1) - np.eye(5)
        clean = _quadratic_simplex_rows(M)
        M[21] = 0.0
        got = _quadratic_simplex_rows(M)
        others = np.arange(64) != 21
        assert np.array_equal(got[others], clean[others])
        # the zero form ties on every vertex: the smallest report wins
        assert np.array_equal(got[21], [0.0, 0.0, 0.0, 0.0, 1.0])

    def test_singular_fallback_splits_the_stack(self, monkeypatch):
        rng = np.random.default_rng(3)
        K = rng.normal(size=(1024, 3, 3))
        K[700] = 0.0
        b = rng.normal(size=(1024, 3))
        others = np.arange(1024) != 700
        want = np.linalg.solve(K[others], b[others][..., None])[..., 0]
        solve = np.linalg.solve
        calls = []
        monkeypatch.setattr(np.linalg, "solve", lambda *a: calls.append(1) or solve(*a))
        y = solvers._solve_or_nan(K, b)
        assert np.isnan(y[700]).all()
        assert np.array_equal(y[others], want)
        # the whole stack, then both halves at each of the log2(1024) levels
        assert len(calls) == 1 + 2 * 10


def _ref_exact_optimum(A):
    """The scalar support enumeration the batched kernel replaced: one
    normalized solve per support, sequential ties to the smaller report."""
    n = A.shape[0]
    M = A + A.T - np.eye(n)
    best_x, best_val = None, -np.inf
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            idx = list(support)
            if size == 1:
                x = np.zeros(n)
                x[idx[0]] = 1.0
            else:
                try:
                    y = np.linalg.solve(M[np.ix_(idx, idx)], np.ones(size))
                except np.linalg.LinAlgError:
                    continue
                total = y.sum()
                if abs(total) < 1e-14:
                    continue
                y = y / total
                if np.any(y <= 0.0):
                    continue
                x = np.zeros(n)
                x[idx] = y
            val = float(x @ M @ x)
            if val > best_val + 1e-12 or (
                abs(val - best_val) <= 1e-12
                and best_x is not None
                and _ref_lexicographically_smaller(x, best_x)
            ):
                best_x, best_val = x, val
    return best_x, best_val


class TestMethodDispatch:
    @pytest.mark.parametrize(
        "env",
        [random_linear(3, np.random.default_rng(71)),
         random_linear(5, np.random.default_rng(72)),
         shrink_to(SimplexPoint([0.1, 0.2, 0.3, 0.4]), 0.4)],
        ids=["linear3", "linear5", "shrink4"],
    )
    def test_quadratic_linear_returns_exact_optimum(self, env, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the exact class ran the ascent")

        monkeypatch.setattr(solvers, "_ascend_rows", forbidden)
        q = quadratic_rule(env.n)
        res = performative_optimum(q, env)
        exact = quadratic_linear_exact_optimum(env)
        assert np.array_equal(res.report.probs, exact.report.probs)
        assert res.objective == q.expected_score(res.report, env.eval(res.report))
        assert res.converged
        assert res.iterations == 2 ** env.n - 1

    @pytest.mark.parametrize(
        "rule",
        [quadratic_rule(2), logarithmic_rule(2), design_exponential_rule(1.0, 0.2)],
        ids=str,
    )
    @pytest.mark.parametrize("family", BINARY_FAMILIES)
    def test_binary_default_matches_ascent(self, rule, family):
        rng = np.random.default_rng([73, BINARY_FAMILIES.index(family)])
        for k in range(2):
            env = random_binary_map(family, rng)
            cfg = SolveConfig(grid_resolution=1e-6, seed=k)
            auto = performative_optimum(rule, env, cfg)
            _, ascent = kernel_ascent(rule, env, cfg)
            assert auto.objective >= ascent - 2e-7 * max(1.0, abs(ascent))
            assert auto.objective == rule.expected_score(auto.report, env.eval(auto.report))

    @given(n=st.integers(min_value=3, max_value=6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_linear_default_is_exact_and_dominates_ascent(self, n, seed):
        q = quadratic_rule(n)
        env = random_linear(n, np.random.default_rng(seed))
        auto = performative_optimum(q, env)
        exact = quadratic_linear_exact_optimum(env)
        _, ascent = kernel_ascent(q, env, SolveConfig(seed=seed))
        assert auto.objective == pytest.approx(exact.objective, abs=1e-12)
        assert auto.objective >= ascent - 1e-9


GRID_STEP = 1e-6


def _grid_miss(rule, env, x):
    """0.5 |phi''(x)| h^2, the h = GRID_STEP grid's second-order miss at a
    smooth optimum x.  With phi'' the central difference
    (phi(x - h) - 2 phi(x) + phi(x + h)) / h^2, that is half the second
    difference; the stencil is kept inside (0, 1)."""
    h = GRID_STEP
    x = min(max(x, 2.0 * h), 1.0 - 2.0 * h)
    xs = np.array([x - h, x, x + h])
    phi = rule.binary_objective_grid(xs, env.eval1(xs))
    return 0.5 * abs(phi[0] - 2.0 * phi[1] + phi[2])


def grid_bounds_exact(rule, env):
    """The 1e-6 grid oracle against the exact binary solve: the grid never
    beats it, misses it by at most its discretisation error, and reports
    more than one step apart only at a tie."""
    exact = performative_optimum(rule, env, SolveConfig(grid_resolution=GRID_STEP))
    grid = grid_optimum_binary(rule, env, GRID_STEP)
    assert exact.objective >= grid.objective - 1e-12 * max(1.0, abs(grid.objective))
    tie = 1e-8 * max(1.0, abs(exact.objective))
    assert grid.objective >= exact.objective - tie - _grid_miss(rule, env, exact.report[0])
    if abs(exact.report[0] - grid.report[0]) > GRID_STEP * (1.0 + 1e-9):
        assert abs(exact.objective - grid.objective) <= tie


MICRO = 1e6  # grid points per unit


@st.composite
def binary_problems(draw):
    """(rule, map): affine maps of either slope sign, tabulated maps with
    knots beyond [0, 1], and ramps.  Under the log rule f1 stays within
    [0.01, 0.99], so the optimum keeps off the grid's clipped ends.  Knots
    sit on the 1e-6 grid, 0.01 apart or more: the grid misses a kink off
    its points by a first-order error (slope x step), and a steeper piece
    by more than 1e-8 even at a smooth optimum."""
    name = draw(st.sampled_from(["quadratic", "log", "exp"]))
    if name == "exp":
        rule = exponential_binary_rule(draw(st.floats(0.5, 30.0)))
    else:
        rule = quadratic_rule(2) if name == "quadratic" else logarithmic_rule(2)
    lo, hi = (0.01, 0.99) if name == "log" else (0.0, 1.0)
    value = st.floats(lo, hi)
    family = draw(st.sampled_from(["affine", "tabulated", "ramp"]))
    if family == "affine":
        # columns are the images of the vertices (1, 0) and (0, 1)
        y1, y0 = draw(value), draw(value)
        return rule, linear([[y1, y0], [1.0 - y1, 1.0 - y0]])
    if family == "tabulated":
        first = draw(st.integers(-500_000, 500_000))
        gaps = draw(st.lists(st.integers(10_000, 500_000), min_size=1, max_size=5))
        xs = np.cumsum([first] + gaps) / MICRO
        ys = draw(st.lists(value, min_size=xs.size, max_size=xs.size))
        return rule, tabulated(xs, ys)
    zeta, eps = draw(st.floats(0.01, 0.5)), draw(st.floats(0.01, 0.99))
    # the kink (1 - zeta - start) / (1 - eps) on the grid, with start >= 0.01
    top = min(990_000, int((1.0 - zeta - 0.01) / (1.0 - eps) * MICRO))
    kink = draw(st.integers(10_000, top)) / MICRO
    return rule, ramp_binary(zeta, eps, 1.0 - zeta - kink * (1.0 - eps))


class TestExactBinaryOptimum:
    @given(problem=binary_problems())
    @settings(max_examples=60, deadline=None)
    # a steep first piece puts the log optimum at p1 ~ 7.9e-5, where
    # |phi''| ~ 4.5e6 and the grid misses by 1.9e-7
    @example(problem=(logarithmic_rule(2), tabulated([0.0, 0.01], [0.03125, 0.5])))
    def test_grid_never_beats_exact(self, problem):
        grid_bounds_exact(*problem)

    @pytest.mark.parametrize(
        "rule, env",
        [(quadratic_rule(2), bank_run()), (logarithmic_rule(2), bank_run()),
         (exponential_binary_rule(3.0), bank_run()),
         # the optimum (p1 ~ 0.0016) is one of two roots of x (1 - x) phi'
         # in (0, 1/2), where that function has the same sign at both ends
         (logarithmic_rule(2), ramp_binary(0.1, 0.01))],
        ids=["quadratic-bank-run", "log-bank-run", "exp-bank-run", "log-ramp"],
    )
    def test_against_grid(self, rule, env):
        grid_bounds_exact(rule, env)

    @pytest.mark.parametrize("res", [1e-5, 1e-3])
    def test_log_rule_ends(self, res):
        lg = logarithmic_rule(2)
        cfg = SolveConfig(grid_resolution=res)
        for target, end in ((0.0, res), (1.0, 1.0 - res)):
            env = affine_binary(binary_point(target), 0.0)
            assert performative_optimum(lg, env, cfg).report[0] == end

    def test_result_fields(self):
        env = tabulated(np.linspace(0.0, 1.0, 5), [0.3, 0.8, 0.15, 0.6, 0.9])
        res = performative_optimum(quadratic_rule(2), env)
        assert res.converged
        assert res.iterations >= 2 + 3  # the ends and the inner knots at least
        assert math.isnan(res.gradient_norm_final)


class TestBinarySolveEffort:
    """The binary solve evaluates phi at a short candidate list: it never
    falls back to the grid oracle or the ascent."""

    @pytest.mark.parametrize(
        "rule",
        [quadratic_rule(2), logarithmic_rule(2), design_exponential_rule(1.0, 0.2)],
        ids=str,
    )
    def test_points_per_solve(self, rule, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("the binary solve ran a brute-force path")

        monkeypatch.setattr(solvers, "grid_optimum_binary", forbidden)
        monkeypatch.setattr(solvers, "_ascend_rows", forbidden)
        evaluated = []
        grid = ScoringRule.binary_objective_grid

        def counted(self, x, fx):
            evaluated.append(np.size(x))
            return grid(self, x, fx)

        monkeypatch.setattr(ScoringRule, "binary_objective_grid", counted)
        scan = int(round(1.0 / _SCAN_STEP)) + 1
        for family in BINARY_FAMILIES:
            rng = np.random.default_rng([74, BINARY_FAMILIES.index(family)])
            for _ in range(3):
                evaluated.clear()
                performative_optimum(rule, random_binary_map(family, rng))
                cap = 64 + (scan if family == "bank-run" and rule.interior_reports else 0)
                assert 0 < sum(evaluated) <= cap


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

    def test_rejects_mismatched_sizes_before_the_loop(self):
        def schedule(t):
            raise AssertionError("a round ran")

        env = affine_binary(binary_point(0.7), 0.5)
        with pytest.raises(InvalidArgumentError):
            online_sgd(quadratic_rule(5), env, uniform_point(2), schedule, 100, 0)
        with pytest.raises(InvalidArgumentError):
            online_sgd(quadratic_rule(2), env, uniform_point(3), schedule, 100, 0)

    @pytest.mark.parametrize("p1", [0.0, 1.0])
    def test_log_rule_rejects_a_boundary_start(self, p1):
        env = affine_binary(binary_point(0.7), 0.5)
        with pytest.raises(DomainError):
            online_sgd(logarithmic_rule(2), env, binary_point(p1), inverse_schedule(0.5), 100, 0)

    def test_trace_digest(self):
        # pinned from the per-round numpy loop that the float rounds replaced.
        # Every operation is an IEEE +, -, * or / except the map row, a BLAS
        # matmul, whose rounding differs between kernels that fuse
        # multiply-adds and kernels that do not
        env = affine_binary(binary_point(0.7), 0.5)
        tr = online_sgd(quadratic_rule(2), env, uniform_point(2), inverse_schedule(1.0), 20000, 3)
        digest = hashlib.sha256()
        for a in (tr.reports, tr.outcomes, tr.scores):
            digest.update(a.tobytes())
        assert digest.hexdigest() == (
            "e41224555f50143ff13a1a99b9ee45484aff60b55c1da7bb24ee6267b8080774"
        )

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
        if gn <= ASCENT_TOL:
            converged = True
            break
        step = ASCENT_STEP
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
        if moved <= ASCENT_TOL:
            converged = True
            break
    return SolveResult(p, phi, converged, it, gn)


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


def _ref_lexicographically_smaller(a, b):
    for x, y in zip(a, b):
        if x != y:
            return x < y
    return False


def _ref_pick_best(candidates):
    """Best (objective, result); ties within 1e-12 go to the smallest report."""
    best = None
    for res in candidates:
        if best is None:
            best = res
            continue
        if res.objective > best.objective + 1e-12:
            best = res
        elif abs(res.objective - best.objective) <= 1e-12:
            if _ref_lexicographically_smaller(best.report.probs, res.report.probs):
                continue
            if _ref_lexicographically_smaller(res.report.probs, best.report.probs):
                best = res
    return best


def reference_optimum(rule, f, cfg):
    """(winning row, start points, per-start results) of the sequential ascent."""
    starts = _ref_starts(rule, f.n, cfg, np.random.default_rng(cfg.seed))
    rows = [_ref_ascend(rule, f, s, cfg) for s in starts]
    return _ref_pick_best(rows), starts, rows


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
        scale = max(1.0, abs(ref.objective))
        if rule.interior_reports and env.n > 2:
            # the solver of this class: the Newton finish moves the winner
            # only uphill, and by no more than the ascent left undone
            got = _multistart_ascent(rule, env, cfg)
            assert got.objective >= ref.objective - 1e-15 * scale
            assert np.max(np.abs(got.report.probs - ref.report.probs)) <= 1e-4
            assert got.gradient_norm_final <= 1e-12 and got.converged
        else:
            report, phi = kernel_ascent(rule, env, cfg)
            assert abs(phi - ref.objective) <= 1e-12 * scale
            assert np.max(np.abs(report - ref.report.probs)) <= 1e-6

        rows = _ascend_rows(
            _RowProblem(rule, env), np.array([s.probs for s in starts]),
            cfg.max_iters, ASCENT_STEP, ASCENT_TOL,
        )
        both = [k for k, b in enumerate(ref_rows) if rows.converged[k] and b.converged]
        assert both
        for k in both:
            b = ref_rows[k]
            assert abs(rows.phi[k] - b.objective) <= 1e-12 * max(1.0, abs(b.objective))
            assert np.max(np.abs(rows.P[k] - b.report.probs)) <= 1e-6


# -- per-step online references --------------------------------------------------
# The online policies as they ran before they used the rules' row kernels:
# one hand-written score and gradient per step, and the Hessian form of the
# frozen-belief gradient.


def _ref_score(rule, v, y):
    if rule.kind == "quadratic":
        return float(2.0 * v[y] - v @ v)
    if rule.kind == "logarithmic":
        return float(np.log(v[y])) if v[y] > 0.0 else float("-inf")
    e = float(np.exp(rule.K * v[0]))
    d0 = (1.0 if y == 0 else 0.0) - v[0]
    d1 = (1.0 if y == 1 else 0.0) - v[1]
    return 2.0 * e / rule.K + e * (d0 - d1)


def _ref_single_outcome_gradient(rule, v, y):
    n = v.size
    if rule.kind == "quadratic":
        g = -2.0 * v
        g[y] += 2.0
        return g - g.mean()
    if rule.kind == "logarithmic":
        g = np.zeros(n)
        g[y] = 1.0 / v[y]
        return g - g.mean()
    e = np.exp(rule.K * v[0])
    d = np.eye(n)[y] - v
    g = np.array([rule.K * e * d[0], -rule.K * e * d[0]])
    return g - g.mean()


def _ref_online_sgd(rule, f, p0, schedule, T, seed):
    rng = np.random.default_rng(seed)
    n = f.n
    margin = LOG_INTERIOR_NUDGE if rule.kind == "logarithmic" else 0.0
    scale = 1.0 - n * margin
    reports = np.empty((T + 1, n))
    outcomes = np.empty(T, dtype=np.int64)
    scores = np.empty(T)
    uniforms = rng.random(T)
    v = p0.probs.copy()
    reports[0] = v
    for t in range(1, T + 1):
        q = f.eval_raw(v)
        y = min(int(np.searchsorted(np.cumsum(q), uniforms[t - 1])), n - 1)
        outcomes[t - 1] = y
        scores[t - 1] = _ref_score(rule, v, y)
        stepped = v + schedule(t) * _ref_single_outcome_gradient(rule, v, y)
        if margin > 0.0:
            v = margin + scale * project_rows(((stepped - margin) / scale)[None])[0]
        else:
            v = project_rows(stepped[None])[0]
        reports[t] = v
    return reports, outcomes, scores


def _ref_rga_policy_trace(rule, f, p0, T, seed, step):
    path = [p0]
    p = p0
    for _ in range(T):
        v = rule.hessian(p).T @ (f.eval(p).probs - p.probs)
        v = v - v.mean()
        if np.linalg.norm(v) <= 0.0:
            break
        p = project_to_simplex(p.probs + step * v)
        path.append(p)
    rng = np.random.default_rng(seed)
    n = f.n
    reports = np.empty((T + 1, n))
    outcomes = np.empty(T, dtype=np.int64)
    scores = np.empty(T)
    for t in range(T):
        point = path[t] if t < len(path) else path[-1]
        reports[t] = point.probs
        q = f.eval(point).probs
        y = int(min(np.searchsorted(np.cumsum(q), rng.random()), n - 1))
        outcomes[t] = y
        scores[t] = _ref_score(rule, point.probs, y)
    reports[T] = (path[T] if T < len(path) else path[-1]).probs
    return reports, outcomes, scores


def _online_cases():
    linear5 = random_linear(5, np.random.default_rng(63))
    # (rule, map, SGD step scale, RGA step); the log rule's curvature is
    # unbounded, so its RGA step is explicit
    return [
        pytest.param(quadratic_rule(2), affine_binary(binary_point(0.7), 0.5), 1.0, 0.5,
                     id="quadratic-n2"),
        pytest.param(quadratic_rule(5), linear5, 1.0, 0.5, id="quadratic-n5"),
        pytest.param(logarithmic_rule(2), affine_binary(binary_point(0.97), 0.3), 0.5, 0.02,
                     id="log"),
        pytest.param(exponential_binary_rule(3.0), affine_binary(binary_point(0.3), 0.5),
                     0.05, 1.0 / (3.0 * math.exp(3.0)), id="exp"),
    ]


class TestOnlineSGDEffort:
    """A round makes one map-row call and one gradient-row call and builds
    no point objects."""

    @pytest.mark.parametrize("rule, env, c, step", _online_cases())
    def test_kernel_calls_per_round(self, rule, env, c, step, monkeypatch):
        p0 = uniform_point(env.n)
        calls = {"map": 0, "gradient": 0, "objects": 0}

        def counting(owner, name, key):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[key] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        counting(type(env), "_rows", "map")
        counting(type(rule), "_belief_gradient_rows", "gradient")
        counting(SimplexPoint, "__init__", "objects")
        counting(TangentVector, "__init__", "objects")
        online_sgd(rule, env, p0, inverse_schedule(c), 500, 3)
        assert calls == {"map": 500, "gradient": 500, "objects": 0}


class TestOnlinePoliciesMatchPerStepReference:
    # the kernels change only the order of a few float operations per step,
    # so outcomes match exactly and reports to a few ulps
    @pytest.mark.parametrize("rule, env, c, step", _online_cases())
    def test_online_sgd(self, rule, env, c, step):
        p0 = uniform_point(env.n)
        ref_reports, ref_outcomes, ref_scores = _ref_online_sgd(
            rule, env, p0, inverse_schedule(c), 5000, 3
        )
        tr = online_sgd(rule, env, p0, inverse_schedule(c), 5000, 3)
        assert np.array_equal(tr.outcomes, ref_outcomes)
        assert np.max(np.abs(tr.reports - ref_reports)) <= 1e-15
        assert tr.scores == pytest.approx(ref_scores, rel=1e-14, abs=1e-14)

    @pytest.mark.parametrize("rule, env, c, step", _online_cases())
    def test_rga_policy_trace(self, rule, env, c, step):
        p0 = uniform_point(env.n)
        ref_reports, ref_outcomes, ref_scores = _ref_rga_policy_trace(
            rule, env, p0, 2000, 4, step
        )
        tr = rga_policy_trace(rule, env, p0, 2000, 4, step=step)
        assert np.array_equal(tr.outcomes, ref_outcomes)
        assert np.max(np.abs(tr.reports - ref_reports)) <= 1e-15
        assert tr.scores == pytest.approx(ref_scores, rel=1e-14, abs=1e-14)
