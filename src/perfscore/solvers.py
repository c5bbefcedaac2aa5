"""Optimization and learning dynamics over the simplex.

The central objective is the self-influencing expected score
phi(p) = S(p, f(p)), whose gradient decomposes as

    grad phi(p) = Dg(p)^T (f(p) - p) + Df(p)^T g(p).

``performative_optimum`` has one solver per problem class.  The
quadratic rule under a linear map with n > 2 is a standard quadratic
program, solved exactly by support enumeration (``_quadratic_simplex_rows``,
one stacked solve per support size).  A binary problem is
solved exactly by critical-point enumeration: phi is evaluated only at
the ends, the map's knots and each piece's stationary points (closed
forms, or bracketed roots found by Brent's method).  The one class left,
the log rule under a linear map with n > 2 (phi is not concave in
general), gets
multi-start projected gradient ascent, bounded by an iteration cap and
never by wall-clock time, and its winner is finished by damped Newton
steps on the tangent space.  All starts advance together: one kernel
moves an (R, n) array of reports, one row per start, through the rules'
and maps' row kernels on bare arrays and a row-wise simplex projection,
each row with its own step, backtracking and stops; the iterates get the
``SimplexPoint`` checks as array checks, and point objects are built only
for the returned results.  The market best responses in ``games`` run on
the same kernel, except under the quadratic rule and a linear map, where
they are rows of the support enumeration.
Every choice among candidates follows one tie rule (``_best_index``):
within 1e-12 of the best value, the lexicographically smallest report
wins.  The remaining routines
implement the dynamics that converge to fixed points instead of optima:
fixed-point iteration of f (repeated risk minimization), ascent on the
frozen-belief objective Dg(p)^T (f(p) - p) (repeated gradient ascent), and
its stochastic single-outcome counterpart (online SGD).
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import accumulate, combinations
from typing import Callable, Optional

import numpy as np

from .environment import EnvironmentMap, LinearMap
from .errors import DomainError, InvalidArgumentError
from .scoring import QuadraticRule, ScoringRule
from .simplex import (
    SimplexPoint,
    TangentVector,
    binary_point,
    checked_rows,
    norm_rows,
    project_rows,
    project_shrunk_raw,
    project_to_simplex,
    sample_simplex_points,
    tangent_basis,
)

OBJECTIVE_TIE_TOL = 1e-12
MAX_BACKTRACKS = 40
LOG_INTERIOR_NUDGE = 1e-6
# the ascent's first step length, and its gradient-norm and move stop
ASCENT_STEP = 0.5
ASCENT_TOL = 1e-10
NEWTON_STEPS = 20


@dataclass
class SolveConfig:
    """Solver settings, checked when built.  ``grid_resolution`` only clips
    the log rule's binary reports to [res, 1 - res]."""

    max_iters: int = 500
    restarts: int = 16
    seed: int = 0
    grid_resolution: float = 1e-5

    def __post_init__(self):
        if self.max_iters < 1:
            raise InvalidArgumentError("max_iters must be >= 1")
        if self.restarts < 1:
            raise InvalidArgumentError("restarts must be >= 1")
        _check_resolution(self.grid_resolution)


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
        D = self.rule._belief_gradient_rows(P, Q)
        J = self.f._jacobian_t_rows(H, self.rule._subgradient_rows(P))
        V = D + (J if self.weight is None else self.weight[idx, None] * J)
        V -= V.mean(axis=1, keepdims=True)
        if not np.isfinite(V).all():
            raise InvalidArgumentError(f"gradient comps must be finite, got {V}")
        return V


def performative_gradient(
    rule: ScoringRule, f: EnvironmentMap, p: SimplexPoint
) -> TangentVector:
    """Tangent gradient of phi(p) = S(p, f(p))."""
    rule._check_point(p)
    f._check_point(p)
    P = p.probs[None, :]
    if not rule._defined_rows(P)[0]:
        raise DomainError("log-rule gradient is unbounded at the boundary")
    return TangentVector(_RowProblem(rule, f).gradient(P, None)[0])


def stop_gradient(rule: ScoringRule, f: EnvironmentMap, p: SimplexPoint) -> TangentVector:
    """Tangent gradient of the frozen-belief objective: Dg(p)^T (f(p) - p)."""
    rule._check_point(p)
    q = f.eval(p)
    P = p.probs[None, :]
    if not rule._defined_rows(P)[0]:
        raise DomainError("log-rule gradient is unbounded at the boundary")
    v = rule._belief_gradient_rows(P, q.probs[None, :])[0]
    return TangentVector(v - v.mean())


def _objective(rule: ScoringRule, f: EnvironmentMap, p: SimplexPoint) -> float:
    return rule.expected_score(p, f.eval(p))


def _best_index(X: np.ndarray, values: np.ndarray) -> np.ndarray:
    """The one tie rule: per row, the index of the lexicographically smallest
    point among those valued within OBJECTIVE_TIE_TOL of the row's maximum.

    X is (..., m, n) and ``values`` (..., m); returns the (...) indices.
    """
    keep = values >= values.max(axis=-1, keepdims=True) - OBJECTIVE_TIE_TOL
    for j in range(X.shape[-1]):
        column = np.where(keep, X[..., j], np.inf)
        keep &= column == column.min(axis=-1, keepdims=True)
    return keep.argmax(axis=-1)


@dataclass
class _Rows:
    """Per-row state of a batched ascent."""

    P: np.ndarray
    phi: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    gradient_norm: np.ndarray


def _ascend_rows(
    problem: _RowProblem, starts: np.ndarray, max_iters: int, step_size: float, tol: float
) -> _Rows:
    """Projected gradient ascent from every row of ``starts`` at once.

    Each row follows the one-start rule on its own: a step that starts at
    ``step_size`` every iteration and halves up to MAX_BACKTRACKS times
    until the objective strictly rises, and four stops: gradient norm <= tol
    and a move <= tol (converged), no ascent step along the gradient ray (a
    boundary optimum, converged), or ``max_iters``.  A log-rule row that
    leaves the interior stops unconverged.  Rows leave the batch as they
    stop.
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
        rows.iterations[live] = it
        live = live[problem.rule._defined_rows(rows.P[live])]
        if live.size == 0:
            break
        X = rows.P[live]
        G = problem.gradient(X, live)
        gn = norm_rows(G)
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
        still = norm_rows(new - X) > tol
        rows.converged[live[~still]] = True
        live = live[still]
    return rows


def _log_linear_hessian_rows(A: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Hessians of phi(p) = sum_i (Ap)_i log p_i at the interior rows of P:
    A/p[:, None] + (A/p[:, None])^T - diag((Ap)/p^2), stacked (k, n, n)."""
    M = A / P[:, :, None]
    H = M + M.transpose(0, 2, 1)
    i = np.arange(P.shape[1])
    H[:, i, i] -= (P @ A.T) / P**2
    return H


def _newton_finish(problem: _RowProblem, x: np.ndarray, gn: float):
    """Damped Newton steps d = B (-B^T H B)^-1 B^T grad phi on the tangent
    space from the (1, n) report x of a log-rule solve under a linear map.

    A full step is taken while -B^T H B has a Cholesky factor, the new
    report passes ``checked_rows`` and stays interior, and the tangent
    gradient norm falls; at most NEWTON_STEPS steps.  Returns the report,
    its gradient norm and the number of steps taken.
    """
    B = tangent_basis(x.shape[1])
    steps = 0
    if problem.rule._defined_rows(x)[0]:
        G = problem.gradient(x, None)
        gn = float(norm_rows(G)[0])
        while steps < NEWTON_STEPS and gn > 0.0:
            K = -(B.T @ _log_linear_hessian_rows(problem.f.A, x)[0] @ B)
            try:
                np.linalg.cholesky(K)  # -B^T H B positive definite
            except np.linalg.LinAlgError:
                break
            cand = x + B @ np.linalg.solve(K, B.T @ G[0])
            if not problem.rule._defined_rows(cand)[0]:
                break
            cand = checked_rows(cand)
            cand_G = problem.gradient(cand, None)
            cand_gn = float(norm_rows(cand_G)[0])
            if not cand_gn < gn:
                break
            x, G, gn = cand, cand_G, cand_gn
            steps += 1
    return x, gn, steps


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
        if rule.interior_reports:
            v = (1.0 - nudge) * v + nudge / n
        starts.append(v / v.sum())
    extra = cfg.restarts - len(starts)
    if extra > 0:
        starts.extend(sample_simplex_points(n, extra, rng))
    if cfg.restarts < len(starts):
        starts = starts[: cfg.restarts]
    return checked_rows(np.array(starts))


def _binary_grid(rule: ScoringRule, resolution: float) -> np.ndarray:
    """The binary oracle's p1 grid; the log rule's is clipped to
    [resolution, 1 - resolution] to keep scores finite."""
    xs = np.linspace(0.0, 1.0, int(round(1.0 / resolution)) + 1)
    if rule.interior_reports:
        xs = xs[(xs >= resolution) & (xs <= 1.0 - resolution)]
    return xs


def _first_argmax(phi: np.ndarray) -> int:
    """Index of the first value within OBJECTIVE_TIE_TOL of the maximum:
    ``_best_index``'s tie rule on a grid sorted by increasing p1."""
    top = float(np.max(phi))
    return int(np.flatnonzero(phi >= top - OBJECTIVE_TIE_TOL)[0])


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
    _check_resolution(resolution)
    xs = _binary_grid(rule, resolution)
    phi = rule.binary_objective_grid(xs, f.eval1(xs))
    idx = _first_argmax(phi)
    return SolveResult(
        report=binary_point(float(xs[idx])),
        objective=float(phi[idx]),
        converged=True,
        iterations=xs.size,
        gradient_norm_final=float("nan"),
    )


def _check_resolution(resolution: float):
    if not 0 < resolution <= 1e-3:
        raise InvalidArgumentError(f"resolution must be in (0, 1e-3], got {resolution}")


def _exact_binary_optimum(
    rule: ScoringRule, f: EnvironmentMap, resolution: float
) -> SolveResult:
    """Binary optimum by critical-point enumeration.

    phi(x) = S((x, 1 - x), f(x)) is smooth on each piece of f1, so its
    maximum over [lo, hi] sits at an end, at a knot or at a stationary
    point of a piece; phi is evaluated at those candidates only.  The log
    rule's ends are [resolution, 1 - resolution], as on its grid.  Ties
    within 1e-12 of the maximum go to the smallest report.
    """
    lo, hi = (resolution, 1.0 - resolution) if rule.interior_reports else (0.0, 1.0)
    xs = [lo, hi]
    for a, z, P in f._pieces(lo, hi):
        xs.append(a)
        xs.extend(rule._critical_points(P, a, z))
    xs = np.unique(xs)
    phi = rule.binary_objective_grid(xs, f.eval1(xs))
    report = binary_point(float(xs[_first_argmax(phi)]))
    return SolveResult(
        report=report,
        objective=_objective(rule, f, report),
        converged=True,
        iterations=xs.size,
        gradient_norm_final=float("nan"),
    )


def performative_optimum(
    rule: ScoringRule, f: EnvironmentMap, cfg: SolveConfig = None
) -> SolveResult:
    """argmax_p S(p, f(p)), by one solver per problem class.

    - the quadratic rule under a linear map with n > 2 (shrink maps
      included) returns the support-enumeration optimum, exact for this
      standard quadratic program;
    - a binary problem returns the best of the ends, the map's knots and
      the stationary points of each piece (critical-point enumeration);
      ``iterations`` counts the candidates;
    - the log rule under a linear map with n > 2, the one class without an
      exact method, runs the multi-start ascent with a Newton finish
      (``_multistart_ascent``).

    The first two run no ascent and draw no random numbers.
    Non-convergence is reported through ``converged``, never raised.
    """
    cfg = cfg or SolveConfig()
    if rule.n != f.n:
        raise InvalidArgumentError(f"rule n={rule.n} vs environment n={f.n}")
    if _quadratic_linear(rule, f) and f.n > 2:
        exact = quadratic_linear_exact_optimum(f)
        # store the recomputable objective, as the other paths do
        exact.objective = _objective(rule, f, exact.report)
        return exact
    if f.n == 2:
        return _exact_binary_optimum(rule, f, cfg.grid_resolution)
    return _multistart_ascent(rule, f, cfg)


def _multistart_ascent(rule: ScoringRule, f: LinearMap, cfg: SolveConfig) -> SolveResult:
    """The solver of the log rule under a linear map with n > 2.

    Multi-start projected gradient ascent on phi from the barycenter,
    inward-nudged vertices, face centers and seeded uniform draws, all
    advancing together as one batch of rows, each for at most
    ``cfg.max_iters`` steps.  The best-scoring row (ties within 1e-12 to the
    smallest report) is finished by ``_newton_finish``, outside that cap:
    ``iterations`` counts the row's ascent steps plus the Newton steps, and
    ``converged`` means a tangent gradient norm <= ASCENT_TOL at the report.
    """
    starts = _structured_starts(rule, f.n, cfg, np.random.default_rng(cfg.seed))
    problem = _RowProblem(rule, f)
    rows = _ascend_rows(problem, starts, cfg.max_iters, ASCENT_STEP, ASCENT_TOL)
    k = int(_best_index(rows.P, rows.phi))
    x, gn, steps = _newton_finish(problem, rows.P[k:k + 1], float(rows.gradient_norm[k]))
    report = SimplexPoint(x[0])
    return SolveResult(
        report=report,
        # the recomputable objective, as the exact paths store it
        objective=_objective(rule, f, report),
        converged=gn <= ASCENT_TOL,
        iterations=int(rows.iterations[k]) + steps,
        gradient_norm_final=gn,
    )


def _quadratic_linear(rule: ScoringRule, f: EnvironmentMap) -> bool:
    """Whether S(p, f(p)) is a quadratic form in p: the quadratic rule under
    a linear map, the class with exact optima and exact best responses."""
    return isinstance(rule, QuadraticRule) and isinstance(f, LinearMap)


def quadratic_linear_exact_optimum(f: EnvironmentMap) -> SolveResult:
    """Exact optimum of the quadratic rule under a linear map, the solver
    ``performative_optimum`` runs for this class.

    For f(p) = A p the objective is the quadratic form p^T (A + A^T - I) p,
    maximized over the simplex by support enumeration
    (``_quadratic_simplex_rows`` on one row); ``iterations`` counts the
    2^n - 1 supports.
    """
    A = getattr(f, "A", None)
    if A is None:
        raise InvalidArgumentError("exact oracle requires a linear environment")
    M = A + A.T - np.eye(f.n)
    x = _quadratic_simplex_rows(M[None])[0]
    return SolveResult(
        report=SimplexPoint(x),
        objective=float(x @ M @ x),
        converged=True,
        iterations=2 ** f.n - 1,
        gradient_norm_final=float("nan"),
    )


def _solve_or_nan(K: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stacked solve of K_r y_r = b_r; a row whose K_r is singular gets nan.
    A singular stack splits in halves, so s singular rows cost O(s log R) solves."""
    try:
        return np.linalg.solve(K, b[..., None])[..., 0]
    except np.linalg.LinAlgError:
        if K.shape[0] == 1:
            return np.full(b.shape, np.nan)
        h = K.shape[0] // 2
        return np.concatenate([_solve_or_nan(K[:h], b[:h]), _solve_or_nan(K[h:], b[h:])])


def _quadratic_simplex_rows(M: np.ndarray) -> np.ndarray:
    """argmax over the simplex of x^T M_r x for every row r of a stack of
    symmetric (R, n, n) matrices; returns the (R, n) maximizers.

    A standard quadratic program (Bomze 1998), solved exactly by support
    enumeration: the maximum sits at a vertex or at a stationary point of
    a face S, where M_SS y = 1 and x_S = y / sum(y).  Vertices need no
    solve; each larger support size takes one stacked solve over all rows
    and all its supports.  A face is
    skipped where M_SS is singular, |sum(y)| < 1e-14 or an entry of x_S is
    <= 0.  ``_best_index`` picks each row's winner.
    """
    R, n = M.shape[:2]
    points = [np.broadcast_to(np.eye(n), (R, n, n))]
    values = [np.diagonal(M, axis1=1, axis2=2)]
    for size in range(2, n + 1):
        S = np.array(list(combinations(range(n), size)))
        m = S.shape[0]
        sub = M[:, S[:, :, None], S[:, None, :]]
        y = _solve_or_nan(sub.reshape(-1, size, size), np.ones((R * m, size)))
        y = y.reshape(R, m, size)
        total = y.sum(axis=2)
        with np.errstate(divide="ignore", invalid="ignore"):
            x = y / total[..., None]
        ok = (np.abs(total) >= 1e-14) & np.all(x > 0.0, axis=2)
        x[~ok] = 0.0
        X = np.zeros((R, m, n))
        X[:, np.arange(m)[:, None], S] = x
        points.append(X)
        values.append(np.where(ok, np.einsum("rmi,rmij,rmj->rm", x, sub, x), -np.inf))
    X = np.concatenate(points, axis=1)
    return X[np.arange(R), _best_index(X, np.concatenate(values, axis=1))]


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


def inverse_schedule(c: float) -> Callable[[int], float]:
    """alpha_t = c / t, the classic stochastic-approximation decay."""
    return lambda t: c / t


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
    to keep scores and gradients bounded, and must start off the boundary.

    A round makes two kernel calls, the map row ``f._rows`` and the
    gradient row ``_belief_gradient_rows``; the draw, the centring, the step
    and the projection run on Python floats, in the order of the array
    operations they replace.
    """
    if T < 0:
        raise InvalidArgumentError("T must be >= 0")
    n = f.n
    if rule.n != n:
        raise InvalidArgumentError(f"dimension mismatch: rule n={rule.n} vs map n={n}")
    rule._checked_row(p0, "gradient")
    margin = LOG_INTERIOR_NUDGE if rule.interior_reports else 0.0
    rng = np.random.default_rng(seed)
    reports = np.empty((T + 1, n))
    outcomes = np.empty(T, dtype=np.int64)
    onehot = np.eye(n)[:, None, :]  # outcome y as a (1, n) belief row
    v = p0.probs.tolist()
    reports[0] = v
    # iterating the buffer yields the uniforms as Python floats
    for t, u in enumerate(rng.random(T).data, 1):
        P = reports[t - 1:t]
        y = min(bisect_left(list(accumulate(f._rows(P).tolist()[0])), u), n - 1)
        outcomes[t - 1] = y
        alpha = schedule(t)
        if alpha <= 0:
            raise InvalidArgumentError(f"schedule produced alpha_{t} = {alpha}")
        g = rule._belief_gradient_rows(P, onehot[y]).tolist()[0]
        mean = 0.0
        for d in g:
            mean += d
        mean /= n
        v = project_shrunk_raw([x + alpha * (d - mean) for x, d in zip(v, g)], margin)
        reports[t] = v
    scores = rule.score_rows(reports[:T], outcomes)
    return OnlineTrace(reports=reports, outcomes=outcomes, scores=scores, seed=seed)


def constant_policy_trace(
    rule: ScoringRule, f: EnvironmentMap, p: SimplexPoint, T: int, seed: int
) -> OnlineTrace:
    """Trace of a policy pinned at p, with outcomes drawn i.i.d. from f(p)."""
    if T < 0:
        raise InvalidArgumentError("T must be >= 0")
    rule._check_point(p)
    rng = np.random.default_rng(seed)
    q = f.eval(p).probs
    outcomes = rng.choice(f.n, size=T, p=q)
    reports = np.tile(p.probs, (T + 1, 1))
    return OnlineTrace(
        reports=reports,
        outcomes=outcomes,
        scores=rule.score_rows(reports[:T], outcomes),
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
    path = np.array([p.probs for p in rga.trajectory])
    # a converged ascent stays at its last report
    reports = np.vstack([path, np.tile(path[-1], (T + 1 - len(path), 1))])
    rng = np.random.default_rng(seed)
    beliefs = np.cumsum(f.eval_rows(reports[:T]), axis=1)
    # searchsorted's left insertion point: the entries below the uniform
    drawn = (beliefs < rng.random(T)[:, None]).sum(axis=1)
    outcomes = np.minimum(drawn, f.n - 1)
    return OnlineTrace(
        reports=reports,
        outcomes=outcomes,
        scores=rule.score_rows(reports[:T], outcomes),
        seed=seed,
    )
