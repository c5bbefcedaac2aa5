"""Game-theoretic and sequential notions of honest prediction.

A report is performatively stable when it best-responds to the beliefs it
itself induces; for strictly proper rules that is exactly the fixed-point
condition f(p) = p.  The same condition characterizes Nash equilibria of
the two-player oracle game.  This module also implements the weighted
market game (N traders scored against outcomes drawn from f of the
weighted average prediction) with its per-trader accuracy bound, and the
regret accounting that links no-regret learning to vanishing prediction
error.  Market best responses run on the solvers' batched ascent: a
synchronous round, and the closing best-response-gap pass, advance all N
traders as the rows of one array, each row ascending its trader's score
with the others' weighted reports held fixed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .environment import EnvironmentMap, FixedPointSet, shrink_to
from .errors import InvalidArgumentError, IterationLimitError
from .scoring import ScoringRule
from .simplex import (
    SimplexPoint,
    l2_distance,
    tangent_operator_norm,
    uniform_point,
)
from .solvers import (
    OnlineTrace,
    SolveConfig,
    _ascend_rows,
    _RowProblem,
    performative_optimum,
)


def honest_report_argmax(
    rule: ScoringRule, q: SimplexPoint, cfg: SolveConfig = None
) -> SimplexPoint:
    """argmax_r S(r, q) for a frozen belief q.

    Realized by optimizing against the constant environment that always
    returns q; for a strictly proper rule the answer is q itself, so this
    doubles as an independent cross-check of the optimizer.
    """
    frozen = shrink_to(q, 1.0)
    cfg = cfg or SolveConfig(max_iters=200, restarts=4, grid_resolution=1e-5)
    return performative_optimum(rule, frozen, cfg).report


def is_performatively_stable(
    rule: ScoringRule,
    f: EnvironmentMap,
    p: SimplexPoint,
    tol: float = 1e-8,
    cross_check: bool = False,
) -> bool:
    """Whether p best-responds to the beliefs it induces.

    For strictly proper rules stability reduces to the fixed-point test
    ||f(p) - p|| <= tol.  With ``cross_check`` the reduction is verified by
    actually maximizing S(., f(p)) and comparing the argmax to p, allowing
    for optimizer resolution.
    """
    residual = l2_distance(f.eval(p), p)
    verdict = residual <= tol
    if cross_check:
        cfg = SolveConfig(max_iters=200, restarts=4, grid_resolution=1e-5)
        argmax = honest_report_argmax(rule, f.eval(p), cfg)
        slack = 10.0 * cfg.grid_resolution if f.n == 2 else 1e-4
        agree = (l2_distance(argmax, p) <= tol + slack) == verdict
        if not agree and abs(residual - tol) > slack:
            raise IterationLimitError(
                f"stability cross-check disagrees at {p!r}: residual={residual}",
                best=argmax,
            )
    return verdict


def is_oracle_game_equilibrium(
    rule: ScoringRule,
    f: EnvironmentMap,
    p: SimplexPoint,
    q: SimplexPoint,
    tol: float = 1e-8,
) -> bool:
    """Best-response check for the simultaneous two-player oracle game.

    Player 1 (reporter) earns S(p, q); player 2 (belief) earns S(q, f(p)).
    Both best-respond exactly when q = f(p) and p = q, i.e. when p is a
    fixed point announced together with its own induced belief.
    """
    belief_br = l2_distance(q, f.eval(p)) <= tol
    reporter_br = l2_distance(p, q) <= tol
    return belief_br and reporter_br


def rank_fixed_points(rule: ScoringRule, fps: FixedPointSet) -> list:
    """Fixed points ordered by honest expected score S(p, p) = G(p), descending.

    Ties resolve to the lexicographically smaller probability vector.  The
    top of this ranking is what a score-maximizing expert would steer
    toward; interior (convex-combination) fixed points can never win.
    """
    scored = [(p, rule.potential(p)) for p in fps.points]
    scored.sort(key=lambda item: (-item[1], tuple(item[0].probs)))
    return scored


# -- prediction markets ---------------------------------------------------------


BEST_RESPONSE_STEP = 0.5


@dataclass(frozen=True)
class MarketGame:
    """N weighted traders scored against outcomes from f(weighted average)."""

    rule: ScoringRule
    f: EnvironmentMap
    weights: tuple

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size < 1:
            raise InvalidArgumentError("weights must be a nonempty vector")
        if np.any(w < 0.0) or abs(w.sum() - 1.0) > 1e-12:
            raise InvalidArgumentError(f"weights must be nonnegative and sum to 1: {w}")
        object.__setattr__(self, "weights", tuple(float(x) for x in w))

    @property
    def n_players(self) -> int:
        return len(self.weights)


@dataclass
class MarketEquilibrium:
    predictions: list
    market_prediction: SimplexPoint
    per_player_br_gap: list
    rounds: int = 0


def _best_responses(game: MarketGame, own, rest, weight, inner_iters, tol):
    """Projected-ascent best responses of several traders at once.

    Row r is one trader: it ascends S(p, f(rest_r + weight_r p)) from own_r.
    """
    problem = _RowProblem(game.rule, game.f, rest, weight)
    return _ascend_rows(problem, own, inner_iters, BEST_RESPONSE_STEP, tol)


def market_equilibrium(
    game: MarketGame,
    max_rounds: int = 500,
    tol: float = 1e-10,
    inner_iters: int = 200,
    mode: str = "synchronous",
    timeout_secs: float = 120.0,
) -> MarketEquilibrium:
    """Iterated best response to a pure-strategy market equilibrium.

    Every round each trader solves their own performative subproblem (their
    report enters f with their weight) by projected gradient ascent;
    ``synchronous`` updates all traders at once, ``round-robin`` one at a
    time.  Stops when no trader moved more than ``tol``; pure equilibria
    are not guaranteed to exist, and non-convergence raises
    ``IterationLimitError`` carrying the last profile.
    """
    if mode not in ("synchronous", "round-robin"):
        raise InvalidArgumentError(f"unknown update mode {mode!r}")
    N = game.n_players
    n = game.f.n
    w = np.asarray(game.weights)
    profile = np.tile(uniform_point(n).probs, (N, 1))
    deadline = time.monotonic() + timeout_secs if timeout_secs else None
    rounds = 0
    for rounds in range(1, max_rounds + 1):
        if deadline is not None and time.monotonic() > deadline:
            raise IterationLimitError(
                "market equilibrium search timed out", best=profile
            )
        moved = 0.0
        if mode == "synchronous":
            rest = (w[:, None] * profile).sum(axis=0) - w[:, None] * profile
            updates = _best_responses(game, profile, rest, w, inner_iters, tol).P
            moved = float(np.max(np.linalg.norm(updates - profile, axis=1)))
            profile = updates
        else:
            for i in range(N):
                rest = (w[:, None] * profile).sum(axis=0) - w[i] * profile[i]
                new = _best_responses(
                    game, profile[i:i + 1], rest[None, :], w[i:i + 1], inner_iters, tol
                ).P[0]
                moved = max(moved, float(np.linalg.norm(new - profile[i])))
                profile[i] = new
        if moved <= tol:
            break
    else:
        raise IterationLimitError(
            f"no market equilibrium within {max_rounds} rounds", best=profile
        )
    hat = SimplexPoint((w[:, None] * profile).sum(axis=0))
    rest = hat.probs - w[:, None] * profile
    own_phi = _RowProblem(game.rule, game.f, rest, w).objective(profile, np.arange(N))
    br_phi = _best_responses(game, profile, rest, w, inner_iters, tol).phi
    gaps = [max(0.0, float(b - o)) for b, o in zip(br_phi, own_phi)]
    return MarketEquilibrium(
        predictions=[SimplexPoint(row) for row in profile],
        market_prediction=hat,
        per_player_br_gap=gaps,
        rounds=rounds,
    )


def market_power_bound_check(eq: MarketEquilibrium, game: MarketGame) -> list:
    """Per-trader check of ||f(p_hat) - p_n|| <= w_n ||Df(p_hat)||_op ||g(p_n)|| / gamma_n."""
    hat = eq.market_prediction
    q = game.f.eval(hat)
    df_norm = tangent_operator_norm(game.f.jacobian(hat))
    out = []
    for wn, pn in zip(game.weights, eq.predictions):
        lhs = l2_distance(q, pn)
        rhs = wn * df_norm * game.rule.subgradient_norm(pn) / game.rule.gamma_at(pn)
        out.append((lhs, rhs, lhs <= rhs * (1.0 + 1e-6)))
    return out


# -- regret ---------------------------------------------------------------------


@dataclass
class RegretSeries:
    """Cumulative regret against the best expert, plus prediction error.

    The best expert in expectation is the policy reporting f(P_t), so
    realized regret at horizon T is sum_t S(f(P_t), Y_t) - S(P_t, Y_t).
    ``prediction_error_cumsum`` accumulates ||f(P_t) - P_t||; regret per
    round vanishes exactly when average prediction error does.
    """

    cumulative_regret: np.ndarray = field(repr=False)
    prediction_error_cumsum: np.ndarray = field(repr=False)

    @property
    def T(self) -> int:
        return self.cumulative_regret.size

    def average_regret(self) -> float:
        if self.T == 0:
            return 0.0
        return float(self.cumulative_regret[-1] / self.T)

    def average_prediction_error(self) -> float:
        if self.T == 0:
            return 0.0
        return float(self.prediction_error_cumsum[-1] / self.T)


def regret_series(trace: OnlineTrace, rule: ScoringRule, f: EnvironmentMap) -> RegretSeries:
    """Recompute realized regret and prediction error from a trace."""
    T = trace.T
    if T == 0:
        return RegretSeries(np.zeros(0), np.zeros(0))
    P = trace.reports[:T]
    F = f.eval_rows(P)
    expert_scores = rule.score_rows(F, trace.outcomes)
    own_scores = rule.score_rows(P, trace.outcomes)
    per_step = expert_scores - own_scores
    errors = np.linalg.norm(F - P, axis=1)
    return RegretSeries(
        cumulative_regret=np.cumsum(per_step),
        prediction_error_cumsum=np.cumsum(errors),
    )
