"""Optimization and learning dynamics over the simplex.

The central objective is the self-influencing expected score
phi(p) = S(p, f(p)), whose gradient decomposes as

    grad phi(p) = Dg(p)^T (f(p) - p) + Df(p)^T g(p).

``performative_optimum`` maximizes phi by multi-start projected gradient
ascent (phi is not concave in general); binary problems additionally get a
brute-force grid oracle.  All starts advance together: one kernel moves an
(R, n) array of reports, one row per start, through the rules' and maps'
row kernels on bare arrays and a row-wise simplex projection, each row
with its own step, backtracking and stops; the iterates get the
``SimplexPoint`` checks as array checks, and point objects are built only
for the returned results.  The market best responses in ``games`` run on
the same kernel.  The remaining routines implement the dynamics
that converge to fixed points instead of optima: fixed-point iteration of
f (repeated risk minimization), ascent on the frozen-belief objective
Dg(p)^T (f(p) - p) (repeated gradient ascent), and its stochastic
single-outcome counterpart (online SGD).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Optional

import numpy as np

from .environment import EnvironmentMap
from .errors import DomainError, InvalidArgumentError, SolveTimeoutError
from .scoring import LOGARITHMIC, QUADRATIC, ScoringRule
from .simplex import (
    SimplexPoint,
    TangentVector,
    binary_point,
    checked_rows,
    project_raw,
    project_rows,
    project_to_simplex,
    sample_simplex_points,
)

OBJECTIVE_TIE_TOL = 1e-12
MAX_BACKTRACKS = 40
LOG_INTERIOR_NUDGE = 1e-6


@dataclass
class SolveConfig:
    max_iters: int = 500
    step_size: float = 0.5
    tol: float = 1e-10
    restarts: int = 16
    seed: int = 0
    grid_resolution: float = 1e-5
    timeout_secs: float = 120.0

    def __post_init__(self):
        if self.tol <= 0:
            raise InvalidArgumentError("tol must be positive")
        if self.restarts < 1:
            raise InvalidArgumentError("restarts must be >= 1")
        if self.step_size <= 0:
            raise InvalidArgumentError("step_size must be positive")


@dataclass
class SolveResult:
    report: SimplexPoint
    objective: float
    converged: bool
    iterations: int
    gradient_norm_final: float
    trajectory: Optional[list] = field(default=None, repr=False)


class _RowProblem:
    """Row r of a batch maximizes S(p, f(rest_r + w_r p)) over its report p.

    A plain solve has rest = 0 and w = 1 (every row maximizes phi); a market
    row is one trader, with the others' weighted reports in ``rest`` and the
    trader's weight in ``w``.  Methods take bare (k, n) reports and the
    batch indices ``idx`` of their rows.
    """

    def __init__(self, rule: ScoringRule, f: EnvironmentMap, rest=None, weight=None):
        self.rule = rule
        self.f = f
        self.rest = rest
        self.weight = weight

    def _induced(self, P, idx):
        if self.rest is None:
            H = P
        else:
            H = self.rest[idx] + self.weight[idx, None] * P
        return H, checked_rows(self.f.eval_rows(H))

    def objective(self, P, idx):
        return self.rule._objective_rows(P, self._induced(P, idx)[1])

    def gradient(self, P, idx):
        """Tangent gradients Dg(P)^T (f(H) - P) + w Df(H)^T g(P), H = rest + w P."""
        H, Q = self._induced(P, idx)
        D, G = self.rule._ascent_rows(P, Q)
        J = self.f._jacobian_t_rows(H, G)
        V = D + (J if self.weight is None else self.weight[idx, None] * J)
        V -= V.mean(axis=1, keepdims=True)
        if not np.isfinite(V).all():
            raise InvalidArgumentError(f"gradient comps must be finite, got {V}")
        return V

    def defined(self, P):
        """Rows where the gradient exists: the log rule needs interior reports."""
        if self.rule.kind == LOGARITHMIC:
            return (P > 0.0).all(axis=1)
        return np.ones(P.shape[0], dtype=bool)


def _row_norms(V):
    return np.sqrt(np.einsum("ij,ij->i", V, V))


def performative_gradient(
    rule: ScoringRule, f: EnvironmentMap, p: SimplexPoint
) -> TangentVector:
    """Tangent gradient of phi(p) = S(p, f(p))."""
    rule._check_point(p)
    f._check_point(p)
    P = p.probs[None, :]
    problem = _RowProblem(rule, f)
    if not problem.defined(P)[0]:
        raise DomainError("log-rule gradient is unbounded at the boundary")
    return TangentVector(problem.gradient(P, None)[0])


def stop_gradient(rule: ScoringRule, f: EnvironmentMap, p: SimplexPoint) -> TangentVector:
    """Tangent gradient of the frozen-belief objective: Dg(p)^T (f(p) - p)."""
    q = f.eval(p)
    v = rule.hessian(p).T @ (q.probs - p.probs)
    return TangentVector(v - v.mean())


def _objective(rule: ScoringRule, f: EnvironmentMap, p: SimplexPoint) -> float:
    return rule.expected_score(p, f.eval(p))


def _lexicographically_smaller(a: np.ndarray, b: np.ndarray) -> bool:
    for x, y in zip(a, b):
        if x != y:
            return x < y
    return False


def _pick_best(candidates):
    """Best (objective, result); ties within 1e-12 go to the smallest report."""
    best = None
    for res in candidates:
        if best is None:
            best = res
            continue
        if res.objective > best.objective + OBJECTIVE_TIE_TOL:
            best = res
        elif abs(res.objective - best.objective) <= OBJECTIVE_TIE_TOL:
            if _lexicographically_smaller(best.report.probs, res.report.probs):
                continue
            if _lexicographically_smaller(res.report.probs, best.report.probs):
                best = res
    return best


@dataclass
class _Rows:
    """Per-row state of a batched ascent."""

    P: np.ndarray
    phi: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    gradient_norm: np.ndarray

    def results(self) -> list:
        return [
            SolveResult(SimplexPoint(p), float(phi), bool(c), int(it), float(gn))
            for p, phi, c, it, gn in zip(
                self.P, self.phi, self.converged, self.iterations, self.gradient_norm
            )
        ]


def _ascend_rows(
    problem: _RowProblem, starts: np.ndarray, max_iters: int, step_size: float,
    tol: float, deadline=None,
) -> _Rows:
    """Projected gradient ascent from every row of ``starts`` at once.

    Each row follows the one-start rule on its own: a step that starts at
    ``step_size`` every iteration and halves up to MAX_BACKTRACKS times
    until the objective strictly rises, and four stops: gradient norm <= tol
    and a move <= tol (converged), no ascent step along the gradient ray (a
    boundary optimum, converged), or ``max_iters``.  A log-rule row that
    leaves the interior stops unconverged.  Rows leave the batch as they
    stop.  Past ``deadline`` the best row so far is raised in a
    ``SolveTimeoutError``.
    """
    R = starts.shape[0]
    rows = _Rows(
        P=starts.copy(),
        phi=problem.objective(starts, np.arange(R)),
        converged=np.zeros(R, dtype=bool),
        iterations=np.zeros(R, dtype=np.int64),
        gradient_norm=np.full(R, np.nan),
    )
    live = np.arange(R)
    for it in range(1, max_iters + 1):
        if live.size == 0:
            break
        if deadline is not None and time.monotonic() > deadline:
            best = _pick_best(rows.results())
            best.objective = _objective(problem.rule, problem.f, best.report)
            raise SolveTimeoutError(
                "performative optimum solve exceeded its wall-clock budget",
                best=best,
            )
        rows.iterations[live] = it
        live = live[problem.defined(rows.P[live])]
        if live.size == 0:
            break
        X = rows.P[live]
        G = problem.gradient(X, live)
        gn = _row_norms(G)
        rows.gradient_norm[live] = gn
        flat = gn <= tol
        rows.converged[live[flat]] = True
        live, X, G = live[~flat], X[~flat], G[~flat]
        if live.size == 0:
            break

        new = np.empty_like(X)
        new_phi = np.empty(live.size)
        step = np.full(live.size, step_size)
        todo = np.arange(live.size)
        for _ in range(MAX_BACKTRACKS + 1):
            cand = checked_rows(project_rows(X[todo] + step[todo, None] * G[todo]))
            cand_phi = problem.objective(cand, live[todo])
            up = cand_phi > rows.phi[live[todo]]
            new[todo[up]] = cand[up]
            new_phi[todo[up]] = cand_phi[up]
            todo = todo[~up]
            if todo.size == 0:
                break
            step[todo] *= 0.5
        # no ascent step exists along the gradient ray: boundary optimum
        rows.converged[live[todo]] = True
        ok = np.ones(live.size, dtype=bool)
        ok[todo] = False
        live, X, new = live[ok], X[ok], new[ok]
        rows.P[live] = new
        rows.phi[live] = new_phi[ok]
        still = _row_norms(new - X) > tol
        rows.converged[live[~still]] = True
        live = live[still]
    return rows


def _polish_interior(problem: _RowProblem, res: SolveResult, cfg: SolveConfig) -> SolveResult:
    """Drive the gradient norm below tol at an interior optimum.

    The line-search ascent cannot resolve objective improvements below
    floating rounding (~1e-8 displacements), so the final sharpening
    accepts steps by gradient-norm decrease instead.
    """
    if not res.report.is_interior(1e-9):
        return res
    X = res.report.probs[None, :]
    G = problem.gradient(X, None)
    gn = float(_row_norms(G)[0])
    phi = float(problem.objective(X, None)[0])
    # allowance below which objective changes are indistinguishable from
    # rounding; large enough to admit genuine polish steps, small enough to
    # veto jumps out of the basin
    slack = 1e-9 * max(1.0, abs(phi))
    it = res.iterations
    for _ in range(200):
        if gn <= cfg.tol:
            break
        step = cfg.step_size
        accepted = None
        for _ in range(MAX_BACKTRACKS + 1):
            cand = checked_rows(project_rows(X + step * G))
            if problem.defined(cand)[0]:
                cand_G = problem.gradient(cand, None)
                cand_gn = float(_row_norms(cand_G)[0])
            else:
                cand_gn = float("inf")
            if cand_gn < gn and problem.objective(cand, None)[0] >= phi - slack:
                accepted = (cand, cand_G, cand_gn)
                break
            step *= 0.5
        if accepted is None:
            break
        X, G, gn = accepted
        phi = float(problem.objective(X, None)[0])
        it += 1
    return SolveResult(
        report=SimplexPoint(X[0]) if it > res.iterations else res.report,
        objective=phi,
        converged=res.converged or gn <= cfg.tol,
        iterations=it,
        gradient_norm_final=gn,
    )


def _structured_starts(rule, n, cfg, rng) -> np.ndarray:
    starts = [np.full(n, 1.0 / n)]
    nudge = LOG_INTERIOR_NUDGE
    for i in range(n):
        v = np.full(n, nudge / n)
        v[i] = 1.0 - nudge + nudge / n
        starts.append(v / v.sum())
    for i in range(n):
        v = np.full(n, 1.0 / (n - 1.0))
        v[i] = 0.0
        if rule.kind == LOGARITHMIC:
            v = (1.0 - nudge) * v + nudge / n
        starts.append(v / v.sum())
    extra = cfg.restarts - len(starts)
    if extra > 0:
        starts.extend(sample_simplex_points(n, extra, rng))
    if cfg.restarts < len(starts):
        starts = starts[: cfg.restarts]
    return checked_rows(np.array(starts))


def grid_optimum_binary(
    rule: ScoringRule, f: EnvironmentMap, resolution: float
) -> SolveResult:
    """Brute-force binary oracle: evaluate phi on the p1 grid and take the argmax.

    Deterministic; ties within 1e-12 of the maximum resolve to the smallest
    p1.  The log rule's grid is clipped to [res, 1 - res] to keep scores
    finite.
    """
    if f.n != 2 or rule.n != 2:
        raise InvalidArgumentError("the grid oracle is binary only")
    if not 0 < resolution <= 1e-3:
        raise InvalidArgumentError("resolution must be in (0, 1e-3]")
    count = int(round(1.0 / resolution)) + 1
    xs = np.linspace(0.0, 1.0, count)
    if rule.kind == LOGARITHMIC:
        xs = xs[(xs >= resolution) & (xs <= 1.0 - resolution)]
    phi = rule.binary_objective_grid(xs, f.eval1(xs))
    top = float(np.max(phi))
    idx = int(np.flatnonzero(phi >= top - OBJECTIVE_TIE_TOL)[0])
    report = binary_point(float(xs[idx]))
    return SolveResult(
        report=report,
        objective=float(phi[idx]),
        converged=True,
        iterations=xs.size,
        gradient_norm_final=float("nan"),
    )


def performative_optimum(
    rule: ScoringRule, f: EnvironmentMap, cfg: SolveConfig = None
) -> SolveResult:
    """argmax_p S(p, f(p)) by multi-start projected gradient ascent.

    Starts from the barycenter, inward-nudged vertices, face centers, and
    seeded uniform draws.  Binary problems also run the grid oracle, and
    the quadratic rule under a linear map the exact oracle; the ascent from
    the oracle's argmax joins the starts, all of which advance together as
    one batch of rows, and the best-scoring candidate wins.
    Non-convergence is reported through ``converged``, never raised; only
    the wall-clock budget raises ``SolveTimeoutError``, carrying the best
    row at that moment.
    """
    cfg = cfg or SolveConfig()
    if rule.n != f.n:
        raise InvalidArgumentError(f"rule n={rule.n} vs environment n={f.n}")
    rng = np.random.default_rng(cfg.seed)
    deadline = (
        time.monotonic() + cfg.timeout_secs if cfg.timeout_secs else None
    )
    starts = _structured_starts(rule, f.n, cfg, rng)
    oracle = None
    if f.n == 2:
        oracle = grid_optimum_binary(rule, f, cfg.grid_resolution)
    elif rule.kind == QUADRATIC and f.kind == "linear":
        # the quadratic objective under a linear map admits an exact
        # support-enumeration oracle; merge it like the binary grid
        oracle = quadratic_linear_exact_optimum(f)
    if oracle is not None:
        starts = np.vstack([starts, oracle.report.probs])
    problem = _RowProblem(rule, f)
    candidates = _ascend_rows(
        problem, starts, cfg.max_iters, cfg.step_size, cfg.tol, deadline
    ).results()
    if oracle is not None:
        # merge order: the starts, the oracle, then the ascent from it
        candidates.insert(len(candidates) - 1, oracle)
    best = _polish_interior(problem, _pick_best(candidates), cfg)
    # store the recomputable objective for the winning report
    return SolveResult(
        report=best.report,
        objective=_objective(rule, f, best.report),
        converged=best.converged,
        iterations=best.iterations,
        gradient_norm_final=best.gradient_norm_final,
    )


def quadratic_linear_exact_optimum(f: EnvironmentMap) -> SolveResult:
    """Exact optimum of the quadratic rule under a linear map, by support
    enumeration.

    For f(p) = A p the objective is the quadratic form p^T (A + A^T - I) p,
    whose maximum over the simplex is attained at a vertex or at a
    stationary point of some face.  Enumerating all supports is exact and
    cheap for the small n used here; serves as an independent oracle for
    the gradient solver.
    """
    if f.kind != "linear":
        raise InvalidArgumentError("exact oracle requires a linear environment")
    n = f.n
    M = f.A + f.A.T - np.eye(n)
    best_x, best_val = None, -np.inf
    for size in range(1, n + 1):
        for support in combinations(range(n), size):
            idx = list(support)
            if size == 1:
                x = np.zeros(n)
                x[idx[0]] = 1.0
            else:
                sub = M[np.ix_(idx, idx)]
                try:
                    y = np.linalg.solve(sub, np.ones(size))
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
            if val > best_val + OBJECTIVE_TIE_TOL or (
                abs(val - best_val) <= OBJECTIVE_TIE_TOL
                and best_x is not None
                and _lexicographically_smaller(x, best_x)
            ):
                best_x, best_val = x, val
    report = SimplexPoint(best_x)
    return SolveResult(
        report=report,
        objective=best_val,
        converged=True,
        iterations=2 ** n - 1,
        gradient_norm_final=float("nan"),
    )


# -- fixed-point dynamics -----------------------------------------------------


def repeated_risk_minimization(
    rule: ScoringRule,
    f: EnvironmentMap,
    p0: SimplexPoint,
    max_iters: int = 10_000,
    tol: float = 1e-12,
) -> SolveResult:
    """p_{t+1} = argmax_p S(p, f(p_t)), which for a strictly proper rule is
    plain fixed-point iteration p_{t+1} = f(p_t)."""
    p = p0
    trajectory = [p]
    converged = False
    it = 0
    for it in range(1, max_iters + 1):
        q = f.eval(p)
        trajectory.append(q)
        if np.linalg.norm(q.probs - p.probs) <= tol:
            p = q
            converged = True
            break
        p = q
    return SolveResult(
        report=p,
        objective=_objective(rule, f, p),
        converged=converged,
        iterations=it,
        gradient_norm_final=float(np.linalg.norm(f.eval(p).probs - p.probs)),
        trajectory=trajectory,
    )


def repeated_gradient_ascent(
    rule: ScoringRule,
    f: EnvironmentMap,
    p0: SimplexPoint,
    step: float = None,
    max_iters: int = 100_000,
    tol: float = 1e-10,
) -> SolveResult:
    """Projected ascent on the frozen-belief objective.

    Updates p <- Proj(p + step * Dg(p)^T (f(p) - p)).  Critical points are
    exactly the fixed points of f when Dg is positive definite on the
    tangent space, so convergence lands on a fixed point, not on the
    performative optimum.  Default step is 1/beta for rules with bounded
    curvature beta.
    """
    if step is None:
        beta = rule.max_tangent_curvature()
        if not np.isfinite(beta):
            raise InvalidArgumentError(
                "rule curvature is unbounded; pass an explicit step"
            )
        step = 1.0 / beta
    p = p0
    trajectory = [p]
    converged = False
    it = 0
    gn = float("nan")
    for it in range(1, max_iters + 1):
        grad = stop_gradient(rule, f, p)
        gn = grad.norm
        if gn <= tol:
            converged = True
            break
        p = project_to_simplex(p.probs + step * grad.comps)
        trajectory.append(p)
    return SolveResult(
        report=p,
        objective=_objective(rule, f, p),
        converged=converged,
        iterations=it,
        gradient_norm_final=gn,
        trajectory=trajectory,
    )


# -- online stochastic learning ----------------------------------------------


@dataclass
class OnlineTrace:
    """A stochastic learning run: reports P_0..P_T, sampled outcomes, scores.

    ``reports`` has T + 1 rows (the initial report included); ``outcomes``
    and ``scores`` have T entries, with outcomes[t] drawn from f(P_t).
    """

    reports: np.ndarray
    outcomes: np.ndarray
    scores: np.ndarray
    seed: int

    @property
    def T(self) -> int:
        return self.outcomes.size

    def report_points(self):
        return [SimplexPoint(row) for row in self.reports]


def inverse_schedule(c: float) -> Callable[[int], float]:
    """alpha_t = c / t, the classic stochastic-approximation decay."""
    return lambda t: c / t


def _score_raw(rule: ScoringRule, v: np.ndarray, y: int) -> float:
    if rule.kind == QUADRATIC:
        return float(2.0 * v[y] - v @ v)
    if rule.kind == LOGARITHMIC:
        return float(np.log(v[y])) if v[y] > 0.0 else float("-inf")
    e = float(np.exp(rule.K * v[0]))
    d0 = (1.0 if y == 0 else 0.0) - v[0]
    d1 = (1.0 if y == 1 else 0.0) - v[1]
    return 2.0 * e / rule.K + e * (d0 - d1)


def _single_outcome_gradient(rule: ScoringRule, v: np.ndarray, y: int) -> np.ndarray:
    """Tangent gradient of p -> S(p, e_y), i.e. Dg(p)^T (e_y - p)."""
    n = v.size
    if rule.kind == QUADRATIC:
        g = -2.0 * v
        g[y] += 2.0
        return g - g.mean()
    if rule.kind == LOGARITHMIC:
        g = np.zeros(n)
        g[y] = 1.0 / v[y]
        return g - g.mean()
    e = np.exp(rule.K * v[0])
    ey = np.zeros(n)
    ey[y] = 1.0
    d = ey - v
    g = np.array([rule.K * e * d[0], -rule.K * e * d[0]])
    return g - g.mean()


def online_sgd(
    rule: ScoringRule,
    f: EnvironmentMap,
    p0: SimplexPoint,
    schedule: Callable[[int], float],
    T: int,
    seed: int,
) -> OnlineTrace:
    """Projected stochastic gradient ascent on single-outcome scores.

    Each round samples Y_t from f(P_t), scores the standing report, and
    ascends the per-outcome gradient Dg(P_t)^T (e_{Y_t} - P_t).  In
    expectation this is the frozen-belief ascent, so the dynamics track
    fixed points of f.  The log rule projects onto the 1e-6-shrunk simplex
    to keep scores and gradients bounded.
    """
    if T < 0:
        raise InvalidArgumentError("T must be >= 0")
    rng = np.random.default_rng(seed)
    n = f.n
    margin = LOG_INTERIOR_NUDGE if rule.kind == LOGARITHMIC else 0.0
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
        scores[t - 1] = _score_raw(rule, v, y)
        alpha = schedule(t)
        if alpha <= 0:
            raise InvalidArgumentError(f"schedule produced alpha_{t} = {alpha}")
        stepped = v + alpha * _single_outcome_gradient(rule, v, y)
        if margin > 0.0:
            v = margin + scale * project_raw((stepped - margin) / scale)
        else:
            v = project_raw(stepped)
        reports[t] = v
    return OnlineTrace(reports=reports, outcomes=outcomes, scores=scores, seed=seed)


def constant_policy_trace(
    rule: ScoringRule, f: EnvironmentMap, p: SimplexPoint, T: int, seed: int
) -> OnlineTrace:
    """Trace of a policy pinned at p, with outcomes drawn i.i.d. from f(p)."""
    if T < 0:
        raise InvalidArgumentError("T must be >= 0")
    rng = np.random.default_rng(seed)
    q = f.eval(p).probs
    outcomes = rng.choice(f.n, size=T, p=q)
    per_outcome = np.array([rule.score(p, i) for i in range(f.n)])
    return OnlineTrace(
        reports=np.tile(p.probs, (T + 1, 1)),
        outcomes=outcomes,
        scores=per_outcome[outcomes],
        seed=seed,
    )


def rga_policy_trace(
    rule: ScoringRule,
    f: EnvironmentMap,
    p0: SimplexPoint,
    T: int,
    seed: int,
    step: float = None,
) -> OnlineTrace:
    """Trace of the frozen-belief ascent policy, scored on sampled outcomes."""
    if T < 0:
        raise InvalidArgumentError("T must be >= 0")
    rga = repeated_gradient_ascent(rule, f, p0, step=step, max_iters=T, tol=0.0)
    path = rga.trajectory
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
        scores[t] = rule.score(point, y)
    reports[T] = (path[T] if T < len(path) else path[-1]).probs
    return OnlineTrace(reports=reports, outcomes=outcomes, scores=scores, seed=seed)
