import itertools

import numpy as np
import pytest

import perfscore.games
from perfscore.environment import (
    affine_binary,
    bank_run,
    find_fixed_points,
    random_linear,
    shrink_to,
)
from perfscore.errors import InvalidArgumentError, IterationLimitError
from perfscore.games import (
    _best_responses,
    MarketGame,
    honest_report_argmax,
    is_oracle_game_equilibrium,
    is_performatively_stable,
    market_equilibrium,
    market_power_bound_check,
    rank_fixed_points,
    regret_series,
)
from perfscore.scoring import (
    exponential_binary_rule,
    logarithmic_rule,
    quadratic_rule,
)
from perfscore.simplex import (
    SimplexPoint,
    binary_point,
    l2_distance,
    project_to_simplex,
    sample_simplex_points,
    uniform_point,
)
from perfscore.solvers import (
    MAX_BACKTRACKS,
    SolveConfig,
    _RowProblem,
    constant_policy_trace,
    online_sgd,
    inverse_schedule,
    performative_optimum,
    rga_policy_trace,
)

Q2 = quadratic_rule(2)


class TestStability:
    def test_bank_run_fixed_points_are_stable(self):
        br = bank_run()
        for x in (0.1, 0.6, 0.9):
            assert is_performatively_stable(Q2, br, binary_point(x), tol=1e-8)

    def test_optimum_need_not_be_stable(self):
        env = affine_binary(binary_point(0.5), 0.3)
        ex = exponential_binary_rule(2.0)
        res = performative_optimum(ex, env, SolveConfig(grid_resolution=1e-6))
        # the optimal report 5/7 induces beliefs ~0.564, far from itself
        assert not is_performatively_stable(ex, env, res.report, tol=1e-6)

    def test_identity_map_everything_stable(self):
        env = affine_binary(binary_point(0.5), 1.0)
        for x in (0.0, 0.33, 1.0):
            assert is_performatively_stable(Q2, env, binary_point(x), tol=1e-12)

    def test_cross_check_agrees_on_random_triples(self):
        rng = np.random.default_rng(50)
        rules = [Q2, logarithmic_rule(2), exponential_binary_rule(4.0)]
        count = 0
        for i in range(200):
            rule = rules[i % 3]
            alpha = rng.uniform(0.0, 0.9)
            s = rng.uniform(0.05, 0.95)
            env = affine_binary(binary_point(s), alpha)
            if i % 2 == 0:
                p = env.p_star  # stable
                expected = True
            else:
                p = binary_point(float(np.clip(s + rng.uniform(0.05, 0.3), 0.02, 0.98)))
                expected = alpha == 1.0
            got = is_performatively_stable(rule, env, p, tol=1e-6, cross_check=True)
            assert got == expected
            count += 1
        assert count == 200

    def test_honest_argmax_recovers_belief(self):
        for rule in (Q2, logarithmic_rule(2), exponential_binary_rule(3.0)):
            q = binary_point(0.37)
            argmax = honest_report_argmax(rule, q)
            assert l2_distance(argmax, q) <= 1e-4


class TestOracleGame:
    def test_fixed_points_with_own_belief_are_equilibria(self):
        br = bank_run()
        for x in (0.1, 0.6, 0.9):
            p = binary_point(x)
            assert is_oracle_game_equilibrium(Q2, br, p, br.eval(p), tol=1e-8)

    def test_non_fixed_points_are_not(self):
        br = bank_run()
        rng = np.random.default_rng(51)
        rejected = 0
        for _ in range(50):
            x = rng.uniform(0.0, 1.0)
            if min(abs(x - r) for r in (0.1, 0.6, 0.9)) < 1e-3:
                continue
            p = binary_point(x)
            if not is_oracle_game_equilibrium(Q2, br, p, br.eval(p), tol=1e-6):
                rejected += 1
        assert rejected >= 45

    def test_wrong_belief_breaks_equilibrium(self):
        br = bank_run()
        p = binary_point(0.6)
        assert not is_oracle_game_equilibrium(Q2, br, p, binary_point(0.9), tol=1e-6)


class TestRankFixedPoints:
    def test_bank_run_ranking(self):
        fps = find_fixed_points(bank_run())
        ranked = rank_fixed_points(Q2, fps)
        scores = [s for _, s in ranked]
        assert scores == pytest.approx([0.82, 0.82, 0.52])
        # symmetric pair ties, lexicographically smaller vector first
        assert ranked[0][0][0] == pytest.approx(0.1, abs=1e-8)
        assert ranked[1][0][0] == pytest.approx(0.9, abs=1e-8)
        assert ranked[2][0][0] == pytest.approx(0.6, abs=1e-8)

    def test_singleton(self):
        env = affine_binary(binary_point(0.4), 0.5)
        ranked = rank_fixed_points(Q2, find_fixed_points(env))
        assert len(ranked) == 1


class TestMarket:
    def test_single_player_reduces_to_performative_optimum(self):
        ex = exponential_binary_rule(2.0)
        env = affine_binary(binary_point(0.5), 0.3)
        game = MarketGame(ex, env, (1.0,))
        eq = market_equilibrium(game)
        assert eq.market_prediction[0] == pytest.approx(1.0 / 1.4, abs=1e-6)

    def test_constant_environment_everyone_honest(self):
        env = affine_binary(binary_point(0.3), 0.0)
        game = MarketGame(Q2, env, (0.5, 0.3, 0.2))
        eq = market_equilibrium(game)
        for p in eq.predictions:
            assert l2_distance(p, binary_point(0.3)) <= 1e-7

    @pytest.mark.parametrize("N", [2, 4, 5, 10, 50])
    def test_equal_weight_equilibrium_closed_form(self, N):
        # symmetric traders solve (1-a)(x-s) = w a (x - 1/2); for
        # a=0.5, s=0.7: x = (0.7 - 0.5 w)/(1 - w), which is 23/30 at N = 4
        env = affine_binary(binary_point(0.7), 0.5)
        w = 1.0 / N
        game = MarketGame(Q2, env, tuple([w] * N))
        eq = market_equilibrium(game)
        expected = 23.0 / 30.0 if N == 4 else (0.7 - 0.5 * w) / (1.0 - w)
        assert eq.market_prediction[0] == pytest.approx(expected, abs=1e-9)
        for p in eq.predictions:
            assert p[0] == pytest.approx(expected, abs=1e-9)

    def test_market_consistency_invariant(self):
        env = affine_binary(binary_point(0.7), 0.5)
        game = MarketGame(Q2, env, (0.5, 0.25, 0.25))
        eq = market_equilibrium(game)
        recomputed = sum(
            w * p.probs for w, p in zip(game.weights, eq.predictions)
        )
        assert eq.market_prediction.probs == pytest.approx(recomputed, abs=1e-12)

    def test_power_bound_holds_and_gaps_small(self):
        env = affine_binary(binary_point(0.7), 0.5)
        game = MarketGame(Q2, env, tuple([0.1] * 10))
        eq = market_equilibrium(game)
        checks = market_power_bound_check(eq, game)
        assert all(ok for _, _, ok in checks)
        assert max(eq.per_player_br_gap) <= 1e-12

    @pytest.mark.parametrize("N", [2, 5, 10, 50])
    def test_power_bound_is_tight(self, N):
        # criterion 10's markets: each interior best response meets the
        # bound with equality, up to the equilibrium's own residual
        env = affine_binary(binary_point(0.7), 0.5)
        game = MarketGame(Q2, env, tuple([1.0 / N] * N))
        checks = market_power_bound_check(market_equilibrium(game), game)
        assert max(abs(lhs / rhs - 1.0) for lhs, rhs, _ in checks) <= 1e-6

    def test_small_trader_is_accurate(self):
        env = affine_binary(binary_point(0.7), 0.5)
        game = MarketGame(Q2, env, (0.98, 0.02))
        eq = market_equilibrium(game)
        checks = market_power_bound_check(eq, game)
        # the 2% trader predicts the induced beliefs much better
        assert checks[1][0] < 0.1 * checks[0][0]

    @pytest.mark.parametrize("N", [2, 10, 50])
    def test_batched_rounds_match_sequential_reference(self, N):
        # criterion 10's map; round counts may differ, so they are not compared
        env = affine_binary(binary_point(0.7), 0.5)
        game = MarketGame(Q2, env, tuple([1.0 / N] * N))
        eq = market_equilibrium(game)
        ref = _reference_market_profile(game)
        got = np.array([p.probs for p in eq.predictions])
        # the reference is an ascent, accurate to about 1e-8
        assert np.max(np.abs(got - ref)) <= 1e-6
        assert max(eq.per_player_br_gap) <= 1e-12

    def test_round_cap_raises_with_last_profile(self):
        # this market needs 32 rounds.  With f1(h) = 0.35 + h / 2 and
        # h = r + x / 4, a trader's score has slope 1.15 + 2 r - 3 x in its
        # report x, so its best response is x = (1.15 + 2 r) / 3, where r is
        # the others' weighted p1
        env = affine_binary(binary_point(0.7), 0.5)
        game = MarketGame(Q2, env, (0.25,) * 4)
        with pytest.raises(IterationLimitError) as err:
            market_equilibrium(game, max_rounds=1)
        x = np.full(4, (1.15 + 2.0 * 0.75 * 0.5) / 3.0)
        best = err.value.best
        assert best.shape == (4, 2)
        assert best[:, 0] == pytest.approx(x, abs=1e-12)
        assert best.sum(axis=1) == pytest.approx(np.ones(4), abs=1e-12)

    def test_weight_validation(self):
        env = affine_binary(binary_point(0.7), 0.5)
        with pytest.raises(InvalidArgumentError):
            MarketGame(Q2, env, (0.6, 0.6))


class TestExactBestResponse:
    """The quadratic rule under a linear map: best responses by support
    enumeration, checked against independent references."""

    def test_dominates_reference_ascent(self):
        rng = np.random.default_rng(130)
        for i in range(20):
            N = 2 + i % 3
            env = random_linear(3, rng)
            game = MarketGame(quadratic_rule(3), env, tuple(rng.dirichlet(np.ones(N))))
            w = np.asarray(game.weights)
            profile = sample_simplex_points(3, N, rng)
            rest = (w[:, None] * profile).sum(axis=0) - w[:, None] * profile
            exact = _best_responses(game, profile, rest, w, 200, 1e-10)
            for k in range(N):
                ref = max(
                    _ref_player_objective(
                        game, k, _ref_best_response(game, k, start, rest[k]), rest[k]
                    )
                    for start in _REFERENCE_STARTS
                )
                got = _ref_player_objective(game, k, exact[k], rest[k])
                assert got >= ref - 1e-12, (i, k)

    @pytest.mark.parametrize("alpha", [-0.2, 0.3, 0.5, 0.8])
    def test_single_quadratic_trader_is_performative_optimum(self, alpha):
        # alpha = 0.5: phi is linear in p1, the full face has no stationary
        # point (M y = 1 has sum(y) = 0) and the vertex (1, 0) wins;
        # alpha = 0.8: the best response is not concave
        env = affine_binary(binary_point(0.7), alpha)
        eq = market_equilibrium(MarketGame(Q2, env, (1.0,)))
        expected = performative_optimum(Q2, env).report.probs
        assert np.max(np.abs(eq.predictions[0].probs - expected)) <= 1e-12

    def test_singular_face_is_skipped_per_row(self):
        # row 0 is the lone trader at alpha = 0.5, whose full face has no
        # stationary point; row 1 is a half-weight trader with one
        game = MarketGame(Q2, affine_binary(binary_point(0.7), 0.5), (0.5, 0.5))
        own = np.array([[0.5, 0.5], [0.5, 0.5]])
        rest = np.array([[0.0, 0.0], [0.1, 0.4]])
        weight = np.array([1.0, 0.5])
        both = _best_responses(game, own, rest, weight, 200, 1e-10)
        for r in range(2):
            alone = _best_responses(game, own[r:r + 1], rest[r:r + 1], weight[r:r + 1],
                                    200, 1e-10)
            assert np.array_equal(both[r], alone[0])
        assert np.array_equal(both[0], [1.0, 0.0])
        assert 0.0 < both[1][0] < 1.0

    def test_matches_bordered_kernel(self):
        rng = np.random.default_rng(131)
        for n in range(2, 6):
            for _ in range(50):
                N = int(rng.integers(2, 6))
                game = MarketGame(quadratic_rule(n), random_linear(n, rng),
                                  tuple(rng.dirichlet(np.ones(N))))
                w = np.asarray(game.weights)
                profile = sample_simplex_points(n, N, rng)
                rest = (w[:, None] * profile).sum(axis=0) - w[:, None] * profile
                problem = _RowProblem(game.rule, game.f, rest, w)
                got = problem.objective(_best_responses(game, profile, rest, w, 200, 1e-10),
                                        np.arange(N))
                ref = problem.objective(_ref_bordered_best_responses(game.f.A, rest, w),
                                        np.arange(N))
                assert np.max(np.abs(got - ref)) <= 1e-12, (n, N)

    @pytest.mark.parametrize("case", ["binary N=2", "binary N=50", "n=3"])
    def test_markets_run_no_ascent(self, monkeypatch, case):
        monkeypatch.setattr(perfscore.games, "_ascend_rows", _no_ascent)
        if case == "n=3":
            env = random_linear(3, np.random.default_rng(2))
            game = MarketGame(quadratic_rule(3), env, (0.5, 0.3, 0.2))
        else:
            N = int(case.split("=")[1])
            game = MarketGame(Q2, affine_binary(binary_point(0.7), 0.5), tuple([1.0 / N] * N))
        eq = market_equilibrium(game)
        assert max(eq.per_player_br_gap) <= 1e-12
        assert all(ok for _, _, ok in market_power_bound_check(eq, game))

    def test_other_rules_still_ascend(self, monkeypatch):
        # test_single_player_reduces_to_performative_optimum's market
        monkeypatch.setattr(perfscore.games, "_ascend_rows", _no_ascent)
        game = MarketGame(exponential_binary_rule(2.0),
                          affine_binary(binary_point(0.5), 0.3), (1.0,))
        with pytest.raises(_AscentCalled):
            market_equilibrium(game)


class _AscentCalled(Exception):
    pass


def _ref_bordered_best_responses(A, rest, weight):
    """The bordered support enumeration the one-form kernel replaced: on each
    support S of every row, M_SS x + mu 1 = -C_S with 1^T x = 1, for the
    score x^T M x + 2 C . x with M = w (A + A^T) - I and C = A rest."""
    R, n = rest.shape
    M = weight[:, None, None] * (A + A.T) - np.eye(n)
    C = rest @ A.T
    best_x = np.zeros((R, n))
    best_val = np.full(R, -np.inf)
    for size in range(1, n + 1):
        for support in itertools.combinations(range(n), size):
            idx = list(support)
            X = np.zeros((R, n))
            if size == 1:
                X[:, idx[0]] = 1.0
                ok = np.ones(R, dtype=bool)
            else:
                K = np.ones((R, size + 1, size + 1))
                K[:, :size, :size] = M[:, idx][:, :, idx]
                K[:, size, size] = 0.0
                b = np.ones((R, size + 1))
                b[:, :size] = -C[:, idx]
                y = np.full((R, size), np.nan)
                for r in range(R):
                    try:
                        y[r] = np.linalg.solve(K[r], b[r])[:size]
                    except np.linalg.LinAlgError:
                        continue
                ok = np.all(y > 0.0, axis=1)
                X[:, idx] = y
            val = np.einsum("ri,ri->r", X, np.einsum("rij,rj->ri", M, X) + 2.0 * C)
            differ = X != best_x
            first = differ.argmax(axis=1)
            rows = np.arange(R)
            smaller = differ[rows, first] & (X[rows, first] < best_x[rows, first])
            take = ok & ((val > best_val + 1e-12)
                         | ((np.abs(val - best_val) <= 1e-12) & smaller))
            best_x[take] = X[take]
            best_val[take] = val[take]
    return best_x


def _no_ascent(*args, **kwargs):
    raise _AscentCalled


# barycenter and inward-nudged vertices of the 3-simplex
_REFERENCE_STARTS = [np.full(3, 1.0 / 3.0)] + [
    (1.0 - 1e-6) * np.eye(3)[i] + 1e-6 / 3.0 for i in range(3)
]


# -- sequential reference ------------------------------------------------------
# The per-trader best-response loop on validated objects that the batched
# rounds replaced, kept as their reference.


def _ref_player_gradient(game, idx, own, rest):
    rule, f = game.rule, game.f
    w = game.weights[idx]
    hat = SimplexPoint(rest + w * own)
    q = f.eval(hat).probs
    p = SimplexPoint(own)
    v = rule.hessian(p).T @ (q - own) + w * (f.jacobian(hat).T @ rule.subgradient(p).comps)
    return v - v.mean()


def _ref_player_objective(game, idx, own, rest):
    hat = SimplexPoint(rest + game.weights[idx] * own)
    return game.rule.expected_score(SimplexPoint(own), game.f.eval(hat))


def _ref_best_response(game, idx, own, rest, max_iters=200, tol=1e-10):
    p = own.copy()
    phi = _ref_player_objective(game, idx, p, rest)
    for _ in range(max_iters):
        grad = _ref_player_gradient(game, idx, p, rest)
        if np.linalg.norm(grad) <= tol:
            break
        step = 0.5
        accepted = None
        for _ in range(MAX_BACKTRACKS + 1):
            cand = project_to_simplex(p + step * grad).probs
            cand_phi = _ref_player_objective(game, idx, cand, rest)
            if cand_phi > phi:
                accepted = (cand, cand_phi)
                break
            step *= 0.5
        if accepted is None:
            break
        p, phi = accepted
    return p


def _reference_market_profile(game, max_rounds=500, tol=1e-10):
    """Synchronous iterated best response, one trader at a time."""
    w = np.asarray(game.weights)
    profile = np.tile(uniform_point(game.f.n).probs, (game.n_players, 1))
    for _ in range(max_rounds):
        updates = np.empty_like(profile)
        for i in range(game.n_players):
            rest = (w[:, None] * profile).sum(axis=0) - w[i] * profile[i]
            updates[i] = _ref_best_response(game, i, profile[i], rest)
        moved = float(np.max(np.linalg.norm(updates - profile, axis=1)))
        profile = updates
        if moved <= tol:
            return profile
    raise AssertionError("reference market did not converge")


class TestRegret:
    def test_fixed_point_policy_zero_regret_exactly(self):
        env = affine_binary(binary_point(0.7), 0.5)
        trace = constant_policy_trace(Q2, env, binary_point(0.7), 20_000, 0)
        series = regret_series(trace, Q2, env)
        assert np.all(series.cumulative_regret == 0.0)
        assert series.prediction_error_cumsum[-1] == pytest.approx(0.0, abs=1e-9)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_constant_off_fixed_point_linear_regret(self, seed):
        # pinned at 0.3 under f with fixed point 0.7, slope 0.5: the
        # induced belief is (0.5, 0.5) and the per-round gap is
        # ||f(p) - p||^2 = 0.08 under the quadratic rule
        env = affine_binary(binary_point(0.7), 0.5)
        trace = constant_policy_trace(Q2, env, binary_point(0.3), 100_000, seed)
        series = regret_series(trace, Q2, env)
        assert series.average_regret() == pytest.approx(0.08, rel=0.10)
        assert series.average_prediction_error() == pytest.approx(
            np.sqrt(0.08), rel=1e-9
        )

    def test_gap_matches_analytic_formula(self):
        env = affine_binary(binary_point(0.7), 0.5)
        p = binary_point(0.3)
        fp = env.eval(p)
        gap = Q2.expected_score(fp, fp) - Q2.expected_score(p, fp)
        assert gap == pytest.approx(l2_distance(fp, p) ** 2, abs=1e-12)

    def test_rga_policy_has_vanishing_regret(self):
        env = affine_binary(binary_point(0.7), 0.5)
        trace = rga_policy_trace(Q2, env, uniform_point(2), 20_000, 0)
        series = regret_series(trace, Q2, env)
        assert abs(series.average_regret()) <= 0.01
        assert series.prediction_error_cumsum[-1] / 20_000 <= 0.01

    def test_sgd_policy_has_vanishing_regret(self):
        env = affine_binary(binary_point(0.7), 0.5)
        trace = online_sgd(Q2, env, uniform_point(2), inverse_schedule(1.0),
                           50_000, 0)
        series = regret_series(trace, Q2, env)
        assert abs(series.average_regret()) <= 0.01

    def test_recomputation_matches_definition(self):
        env = affine_binary(binary_point(0.6), 0.4)
        trace = constant_policy_trace(Q2, env, binary_point(0.2), 200, 7)
        series = regret_series(trace, Q2, env)
        total = 0.0
        for t in range(200):
            p = SimplexPoint(trace.reports[t])
            fp = env.eval(p)
            y = int(trace.outcomes[t])
            total += Q2.score(fp, y) - Q2.score(p, y)
            assert series.cumulative_regret[t] == pytest.approx(total, abs=1e-10)

    def test_empty_trace(self):
        env = affine_binary(binary_point(0.6), 0.4)
        trace = constant_policy_trace(Q2, env, binary_point(0.2), 0, 0)
        series = regret_series(trace, Q2, env)
        assert series.T == 0
        assert series.average_regret() == 0.0
