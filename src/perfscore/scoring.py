"""Proper scoring rules in convex-potential form.

Every rule here is represented through a convex potential G on the simplex
and a tangent-normalized subgradient g, so that the expected score of
reporting p when outcomes follow q is

    S(p, q) = G(p) + g(p)^T (q - p).

Three strictly proper families are shipped, one class each:

* QuadraticRule(n)     S(p, i) = 2 p_i - ||p||^2           (any n)
* LogarithmicRule(n)   S(p, i) = log p_i                   (any n)
* ExponentialRule(K)   binary rule with G(p) = (2/K) e^{K p1}, K > 0

A family writes only private kernels and hands the ``ScoringRule`` base
its constants; the public methods are written once, on the base.  Each
formula is written once, in the row kernels on bare (R, n) arrays:
``_objective_rows`` gives S(P_r, Q_r),
``_belief_gradient_rows`` gives Dg(P_r)^T (Q_r - P_r) and
``_subgradient_rows`` gives g(P_r).  S is affine in the belief q, so every
other form is a call of these: ``expected_score`` is one row of the
objective, ``potential`` the objective at q = p, ``score`` and
``score_rows`` the objective against one-hot beliefs, and ``subgradient``
one row of g; the public scalar methods validate their points first.
``binary_objective_grid`` stays a fused elementwise formula (``_grid``):
the binary grid oracle evaluates it at 1e6 points, where
``_objective_rows`` on the same points ran 1.9x (quadratic, log) to 5.5x
(exponential) slower on one thread of a 2-CPU Xeon VM.  The Hessian, the
modulus gamma_p and the binary bound rate ||g||/gamma at (x, 1 - x) are
closed forms per family, and so is ``_critical_points``: the stationary
points of the binary objective phi(x) = S((x, 1 - x), f(x)) on a piece
where f1 is a polynomial, which the exact binary solver enumerates.
``_line_critical_rows`` gives them for many lines f1 = b x + c at once,
as the binary sweep needs them.

Subgradients are always centered into the tangent space, which minimizes
||g(p)|| and makes the accuracy-bound formulas unambiguous.  Minus-infinity
scores (log rule at the boundary) are IEEE -inf, never NaN; expectations
use the convention 0 * (-inf) = 0, implemented once in ``_objective_rows``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cache

import numpy as np

from .errors import DomainError, InvalidArgumentError, IterationLimitError
from .simplex import (
    SimplexPoint,
    TangentVector,
    sample_simplex_points,
    tangent_min_eigenvalue,
    uniform_point,
)

# Exponent guard: e^K must stay a normal double across the unit interval.
MAX_EXPONENT = 700.0
MIN_EXPONENT = 1e-6
# the log rule's h(x) = x (1 - x) phi'(x) carries a logit term, so on a
# curved f1 its roots have no closed form: they are bracketed on this grid
_SCAN_STEP = 1e-4
_ROOT_XTOL = 1e-15
_EPS = float(np.finfo(float).eps)
_X = np.array([1.0, 0.0])  # the polynomial x


class ScoringRule:
    """A strictly proper scoring rule over n outcomes.  Immutable.

    ``kind`` labels the family (for output only); ``bound_rate`` is the
    global binary inaccuracy bound per unit of Lipschitz constant,
    sup_x ||g||/gamma at (x, 1 - x); ``interior_reports`` says whether g
    and Dg need every report coordinate positive.
    """

    interior_reports = False

    def __init__(self, n: int, kind: str, label: str, max_norm: float,
                 min_gamma: float, max_curvature: float, bound_rate: float):
        if n < 2:
            raise InvalidArgumentError("scoring rules need n >= 2 outcomes")
        self.n = n
        self.kind = kind
        self.bound_rate = bound_rate
        self._label = label
        self._max_norm = max_norm
        self._min_gamma = min_gamma
        self._max_curvature = max_curvature

    # -- pointwise scores ------------------------------------------------
    # Validated one-row calls of the row kernels below.

    def score(self, p: SimplexPoint, outcome: int) -> float:
        """Score received for reporting p when outcome ``outcome`` occurs."""
        self._check_point(p)
        if not 0 <= outcome < self.n:
            raise InvalidArgumentError(
                f"outcome {outcome} out of range for n={self.n}"
            )
        return float(self.score_rows(p.probs[None, :], [outcome])[0])

    def expected_score(self, p: SimplexPoint, q: SimplexPoint) -> float:
        """S(p, q) = E_{i~q} S(p, i)."""
        self._check_point(p)
        if q.n != self.n:
            raise InvalidArgumentError(f"dimension mismatch: {q.n} vs n={self.n}")
        return float(self._objective_rows(p.probs[None, :], q.probs[None, :])[0])

    # -- potential form --------------------------------------------------

    def potential(self, p: SimplexPoint) -> float:
        """The convex potential G(p) = S(p, p)."""
        self._check_point(p)
        P = p.probs[None, :]
        return float(self._objective_rows(P, P)[0])

    def subgradient(self, p: SimplexPoint) -> TangentVector:
        """Tangent-normalized subgradient g(p) of G.

        For the log rule at the boundary the subgradient is unbounded;
        ``DomainError`` is raised rather than returning infinite entries.
        """
        return TangentVector(self._subgradient_rows(self._checked_row(p, "subgradient"))[0])

    def hessian(self, p: SimplexPoint) -> np.ndarray:
        """An R^(n,n) representation of the Hessian Dg(p).

        Only the action on the tangent space is meaningful; restrict with
        ``tangent_min_eigenvalue`` / ``tangent_operator_norm`` before taking
        spectra.
        """
        return self._hessian(self._checked_row(p, "Hessian")[0])

    def gamma_at(self, p: SimplexPoint) -> float:
        """Strong-convexity modulus at p: smallest tangent eigenvalue of Dg(p)."""
        return self._gamma(self._checked_row(p, "Hessian")[0])

    def subgradient_norm(self, p: SimplexPoint) -> float:
        return self.subgradient(p).norm

    def max_subgradient_norm(self) -> float:
        """L_G = sup_p ||g(p)||, or inf when the subgradient is unbounded."""
        return self._max_norm

    def min_gamma(self) -> float:
        """inf_p of the strong-convexity modulus over the simplex."""
        return self._min_gamma

    def max_tangent_curvature(self) -> float:
        """beta = sup_p of the largest tangent eigenvalue of Dg(p); inf if unbounded."""
        return self._max_curvature

    # -- vectorized binary objective --------------------------------------

    def binary_objective_grid(self, x: np.ndarray, fx: np.ndarray) -> np.ndarray:
        """S((x, 1-x), (fx, 1-fx)) evaluated elementwise on arrays.

        The workhorse of the binary grid oracle; x must avoid {0, 1} for the
        log rule.
        """
        if self.n != 2:
            raise InvalidArgumentError("grid objective is for binary rules")
        return self._grid(np.asarray(x, dtype=float), np.asarray(fx, dtype=float))

    def score_rows(self, P: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Vectorized S(P_t, Y_t) over aligned arrays of reports and outcomes."""
        P = np.asarray(P, dtype=float)
        Y = np.asarray(Y, dtype=np.int64)
        return self._objective_rows(P, np.eye(self.n)[Y])

    # -- row kernels ---------------------------------------------------------
    # Bare (R, n) arrays of reports P and beliefs Q, one pair per row, no
    # validation: the solvers' batched ascent checks its iterates itself.
    # Each family defines _objective_rows, _belief_gradient_rows (not
    # centred) and _subgradient_rows, and on one report v or binary
    # coordinate x: _hessian(v), _gamma(v), _grid(x, fx), _bound_rate_at(x),
    # and, for f1 = np.polyval(P, x) on [a, z], _critical_points(P, a, z):
    # the points of (a, z) where phi' = 0; the row kernel for lines,
    # _line_critical_rows(b, c, a, z), gives them for all lines f1 = b[r] x
    # + c[r] at once as arrays (r, x).  A line's _critical_points is its
    # one-row call, except that the log rule's keeps Brent's method
    # (``_brentq``: 136 us a line on one thread of a 2-CPU Xeon VM, against
    # 1.1 ms for a one-row stacked bisection).

    def _defined_rows(self, P: np.ndarray) -> np.ndarray:
        """Rows where g and Dg are finite: the log rule needs interior reports."""
        if self.interior_reports:
            return (P > 0.0).all(axis=1)
        return np.ones(P.shape[0], dtype=bool)

    # -- internals ---------------------------------------------------------

    def _check_point(self, p: SimplexPoint):
        if not isinstance(p, SimplexPoint):
            raise InvalidArgumentError(f"expected a SimplexPoint, got {type(p)}")
        if p.n != self.n:
            raise InvalidArgumentError(f"dimension mismatch: {p.n} vs n={self.n}")

    def _checked_row(self, p: SimplexPoint, what: str) -> np.ndarray:
        """p as a (1, n) row where g and Dg are finite, else DomainError."""
        self._check_point(p)
        P = p.probs[None, :]
        if not self._defined_rows(P)[0]:
            raise DomainError(f"{self} rule {what} is unbounded at the boundary")
        return P

    def __str__(self):
        return self._label


class QuadraticRule(ScoringRule):
    """S(p, i) = 2 p_i - ||p||^2, with G(p) = ||p||^2 and Dg = 2 I."""

    def __init__(self, n: int):
        super().__init__(n, "quadratic", "quadratic", max_norm=2.0 * math.sqrt((n - 1.0) / n),
                         min_gamma=2.0, max_curvature=2.0, bound_rate=1.0 / math.sqrt(2.0))

    def _objective_rows(self, P, Q):
        return np.einsum("ij,ij->i", 2.0 * P, Q) - np.einsum("ij,ij->i", P, P)

    def _belief_gradient_rows(self, P, Q):
        return 2.0 * (Q - P)

    def _subgradient_rows(self, P):
        return 2.0 * P - 2.0 / self.n

    def _hessian(self, v):
        return 2.0 * np.eye(self.n)

    def _gamma(self, v):
        return 2.0

    def _grid(self, x, fx):
        return 2.0 * fx * (2.0 * x - 1.0) + 2.0 * (1.0 - x) - (
            x * x + (1.0 - x) * (1.0 - x)
        )

    @staticmethod
    def _bound_rate_at(x):
        return math.sqrt(2.0) * abs(x - 0.5)

    @staticmethod
    def _line_critical_rows(b, c, a, z):
        # phi' = (8b - 4) x + 4c - 2b on f1 = b x + c: the coefficients of
        # _critical_points' polynomial, in np.polyadd's order of operations
        return _line_roots(4.0 * b + 4.0 * (b - 1.0), -2.0 * b + 4.0 * c, a, z)

    @staticmethod
    def _critical_points(P, a, z):
        if P.size == 2:
            return QuadraticRule._line_critical_rows(P[:1], P[1:], a, z)[1].tolist()
        # phi' = 2 f1' (2x - 1) + 4 (f1 - x)
        dphi = np.polyadd(np.polymul(2.0 * np.polyder(P), [2.0, -1.0]),
                          4.0 * np.polysub(P, _X))
        return _real_roots(dphi, a, z)


class LogarithmicRule(ScoringRule):
    """S(p, i) = log p_i, with G(p) = sum_i p_i log p_i; reports must be
    interior for g and Dg to be finite."""

    interior_reports = True

    def __init__(self, n: int):
        # 1/(2 p1 p2) for n=2 is minimized at the barycenter; for general n
        # the barycenter is the minimizer as well
        gamma = self._gamma(uniform_point(n).probs)
        super().__init__(n, "logarithmic", "log", max_norm=float("inf"), min_gamma=gamma,
                         max_curvature=float("inf"), bound_rate=_log_rate_max()[0])

    def _objective_rows(self, P, Q):
        # 0 * (-inf) = 0: outcomes of zero belief contribute nothing
        with np.errstate(divide="ignore"):
            logs = np.log(np.where(Q > 0.0, P, 1.0))
        return np.einsum("ij,ij->i", Q, logs)

    def _belief_gradient_rows(self, P, Q):
        # equals the Hessian form (D - sum(D)/n) / P on the simplex
        return (Q - P) / P

    def _subgradient_rows(self, P):
        logs = np.log(P)
        return logs - logs.mean(axis=1, keepdims=True)

    def _hessian(self, v):
        inv = 1.0 / v
        return np.diag(inv) - np.outer(np.ones(v.size), inv) / v.size

    def _gamma(self, v):
        g = tangent_min_eigenvalue(self._hessian(v))
        if g <= 0.0:
            raise DomainError(f"nonpositive curvature {g} at {v!r}")
        return g

    def _grid(self, x, fx):
        return fx * np.log(x) + (1.0 - fx) * np.log1p(-x)

    @staticmethod
    def _bound_rate_at(x):
        if not 0.0 < x < 1.0:
            return float("nan")
        return math.sqrt(2.0) * x * (1.0 - x) * abs(math.log(x / (1.0 - x)))

    @staticmethod
    def _critical_points(P, a, z):
        f1, slope = P.tolist(), np.polyder(P).tolist()

        def h(x):
            return _log_h(_horner(slope, x), _horner(f1, x), x)

        if P.size > 2:
            # a curved f1 has no monotone pieces: bracket on the scan
            xs = np.arange(0.0, 1.0 + 0.5 * _SCAN_STEP, _SCAN_STEP)
            return _bracketed_roots(h, np.concatenate([[a], xs[(xs > a) & (xs < z)], [z]]))
        b = P[0]
        # h is convex or concave on each half of (0, 1); cut at 1/2 and at
        # the root of h' leaves pieces where h is monotone
        cuts = [a, z] + ([0.5] if a < 0.5 < z else [])
        halves = np.sort(cuts)
        for u, v in zip(halves[:-1], halves[1:]):
            if _log_dh(b, u) * _log_dh(b, v) < 0.0:
                cuts.append(_brentq(lambda x: _log_dh(b, x), u, v, _ROOT_XTOL))
        return _bracketed_roots(h, np.sort(cuts))

    @staticmethod
    def _line_critical_rows(b, c, a, z):
        # _critical_points' line case on every row at once, one stacked
        # bisection per stage: the cuts a, 1/2, z and the root of h' on each
        # half where h' changes sign, then the roots of h between the cuts
        halves = np.sort([a, z] + ([0.5] if a < 0.5 < z else []))
        d = _log_dh(b[:, None], halves)
        row, k = np.nonzero(d[:, :-1] * d[:, 1:] < 0.0)
        cuts = np.full((b.size, 2 * halves.size - 1), np.nan)
        cuts[:, ::2] = halves
        br = b[row]
        cuts[row, 2 * k + 1] = _bisect_rows(lambda x: _log_dh(br, x), halves[k], halves[k + 1])
        # each row's cuts in increasing order, rows one after another
        row, k = np.nonzero(~np.isnan(cuts))
        x, br, cr = cuts[row, k], b[row], c[row]
        v = _log_h(br, br * x + cr, x)
        zero = np.flatnonzero(v == 0.0)
        gap = np.flatnonzero((row[1:] == row[:-1]) & (v[:-1] * v[1:] < 0.0))
        br, cr = br[gap], cr[gap]
        roots = _bisect_rows(lambda t: _log_h(br, br * t + cr, t), x[gap], x[gap + 1])
        return np.concatenate([row[zero], row[gap]]), np.concatenate([x[zero], roots])


@cache
def _log_rate_max() -> tuple:
    """(max, argmax) over x of the binary log rule's bound rate; the
    profile is symmetric about 1/2.  On (1/2, 1) it peaks where its
    derivative, a multiple of (1 - 2x) logit x + 1 = h' on the line of
    slope 1, vanishes."""
    x = _brentq(lambda x: _log_dh(1.0, x), 0.5 + 1e-9, 1.0 - 1e-12, _ROOT_XTOL)
    return LogarithmicRule._bound_rate_at(x), x


class ExponentialRule(ScoringRule):
    """Binary rule with G(p) = (2/K) e^{K p1}: g(p) = (e, -e) and Dg has
    the single tangent eigenvalue K e, e = e^{K p1}, so ||g||/gamma is
    sqrt(2)/K everywhere."""

    def __init__(self, K: float):
        K = float(K)
        if not (MIN_EXPONENT <= K <= MAX_EXPONENT):
            raise InvalidArgumentError(
                f"exponent K={K} outside [{MIN_EXPONENT}, {MAX_EXPONENT}]"
            )
        self.K = K
        # gamma_p = K e^{K p1} is least at p1 = 0
        super().__init__(2, "exponential-binary", f"exp:K={K:g}",
                         max_norm=math.sqrt(2.0) * math.exp(K), min_gamma=K,
                         max_curvature=K * math.exp(K), bound_rate=math.sqrt(2.0) / K)

    def _objective_rows(self, P, Q):
        e = np.exp(self.K * P[:, 0])
        return 2.0 * e / self.K + e * (Q[:, 0] - P[:, 0]) - e * (Q[:, 1] - P[:, 1])

    def _belief_gradient_rows(self, P, Q):
        D = Q - P
        Ke = self.K * np.exp(self.K * P[:, 0])
        out = np.zeros_like(P)
        out[:, 0] = Ke * D[:, 0] - Ke * D[:, 1]
        return out

    def _subgradient_rows(self, P):
        e = np.exp(self.K * P[:, 0])
        return np.column_stack([e, -e])

    def _hessian(self, v):
        e = math.exp(self.K * v[0])
        return np.array([[self.K * e, 0.0], [-self.K * e, 0.0]])

    def _gamma(self, v):
        return self.K * math.exp(self.K * v[0])

    def _grid(self, x, fx):
        e = np.exp(self.K * x)
        return e * (2.0 / self.K + 2.0 * (fx - x))

    def _bound_rate_at(self, x):
        return self.bound_rate

    def _line_critical_rows(self, b, c, a, z):
        # phi' = 2 e^{Kx} (K (f1 - x) + f1') on f1 = b x + c: the root of
        # K (b - 1) x + Kc + b, the coefficients of _critical_points'
        # polynomial
        return _line_roots(self.K * (b - 1.0), self.K * c + b, a, z)

    def _critical_points(self, P, a, z):
        if P.size == 2:
            return self._line_critical_rows(P[:1], P[1:], a, z)[1].tolist()
        return _real_roots(np.polyadd(self.K * np.polysub(P, _X), np.polyder(P)), a, z)


def _logit(x):
    return np.log(x) - np.log1p(-x)


def _log_h(slope, f1, x):
    """h = x (1 - x) phi'(x) of the log rule, finite on (0, 1), from f1(x)
    and f1'(x); phi' has h's roots."""
    return slope * x * (1.0 - x) * _logit(x) + f1 - x


def _log_dh(b, x):
    """h' on a line of slope b, monotone on each half of (0, 1)."""
    return b * ((1.0 - 2.0 * x) * _logit(x) + 2.0) - 1.0


def _horner(P, x):
    """np.polyval(P, x) for a list P, without np.polyval's per-call array
    setup, which dominated the scalar calls of ``_brentq``."""
    y = 0.0
    for c in P:
        y = y * x + c
    return y


def _real_roots(C, a, z) -> list:
    """Real roots of the polynomial C inside (a, z); a root pair split off
    the real line by rounding counts as one real root."""
    r = np.roots(C)
    return [float(x) for x in r.real[np.abs(r.imag) <= 1e-6] if a < x < z]


def _line_roots(C0, C1, a, z):
    """(rows, roots) of the lines C0 x + C1 on aligned arrays: the root
    -C1/C0 of each row with C0 != 0 that lies inside (a, z).  It has the
    bits ``np.roots`` gives; subtracting from 0.0 keeps a zero root
    unsigned, as ``np.roots`` does."""
    with np.errstate(divide="ignore", invalid="ignore"):
        x = 0.0 - C1 / C0
    rows = np.flatnonzero((C0 != 0.0) & (a < x) & (x < z))
    return rows, x[rows]


def _bisect_rows(g, lo, hi) -> np.ndarray:
    """A root of g in each bracket [lo, hi] at whose ends g has opposite
    signs: stacked bisection until no bracket shrinks.  A midpoint where g
    is 0 closes its bracket."""
    sign = np.where(g(lo) < 0.0, 1.0, -1.0)  # sign g < 0 at lo, > 0 at hi
    while True:
        mid = 0.5 * (lo + hi)
        if not ((lo < mid) & (mid < hi)).any():
            return lo
        gm = sign * g(mid)
        lo = np.where(gm > 0.0, lo, mid)
        hi = np.where(gm < 0.0, hi, mid)


def _brentq(f, a, b, xtol, maxiter=100) -> float:
    """A root of f in [a, b], at whose ends f has opposite signs, by
    Brent's method (Brent 1973, ch. 4).  A line-for-line port of
    ``scipy/optimize/Zeros/brentq.c`` on Python floats, with its rtol = 4 eps
    and its branches and operation order, so it returns that routine's
    floats; where the C code divides by zero and gets an inf or nan trial
    step, which fails the step test, the port bisects directly.  A root at
    an end is returned as is; same signs raise ``InvalidArgumentError`` and
    ``maxiter`` iterations without convergence ``IterationLimitError``."""
    rtol = 4.0 * _EPS
    xpre, xcur = float(a), float(b)
    xblk = fblk = spre = scur = 0.0
    fpre, fcur = float(f(xpre)), float(f(xcur))
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):
        raise InvalidArgumentError(f"f({a}) and f({b}) have the same sign")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        stry = None
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)
                if den != 0.0:
                    stry = -fcur * (fblk * dblk - fpre * dpre) / den
        bound = 3 * abs(sbis) - delta
        if stry is not None and 2 * abs(stry) < (abs(spre) if abs(spre) < bound else bound):
            # good short step
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = float(f(xcur))
    raise IterationLimitError(f"Brent's method did not converge in {maxiter} iterations",
                              best=xcur)


def _bracketed_roots(h, cuts) -> list:
    """Roots of h at the sorted ``cuts`` and one in every cell where h
    changes sign."""
    v = h(cuts)
    roots = [float(x) for x in cuts[v == 0.0]]
    for i in np.flatnonzero(v[:-1] * v[1:] < 0.0):
        roots.append(_brentq(h, cuts[i], cuts[i + 1], _ROOT_XTOL))
    return roots


def quadratic_rule(n: int) -> ScoringRule:
    return QuadraticRule(n)


def logarithmic_rule(n: int) -> ScoringRule:
    return LogarithmicRule(n)


def exponential_binary_rule(K: float) -> ScoringRule:
    return ExponentialRule(K)


def parse_rule(spec: str, n: int) -> ScoringRule:
    """Parse the CLI rule grammar: quadratic | log | exp:K=<float>."""
    s = spec.strip().lower()
    if s == "quadratic":
        return quadratic_rule(n)
    if s == "log":
        return logarithmic_rule(n)
    if s.startswith("exp:"):
        body = s[len("exp:"):]
        if not body.startswith("k="):
            raise InvalidArgumentError(f"bad exponential rule spec {spec!r}")
        try:
            K = float(body[2:])
        except ValueError as exc:
            raise InvalidArgumentError(f"bad exponent in {spec!r}") from exc
        if n != 2:
            raise InvalidArgumentError("exp rule requires a binary environment")
        return exponential_binary_rule(K)
    raise InvalidArgumentError(f"unknown rule {spec!r}")


@dataclass
class ProprietyReport:
    """Result of a randomized propriety regression check."""

    samples_tested: int
    max_violation: float
    strictly_proper_witnessed: bool
    worst_pair: tuple = field(default=None, repr=False)


def check_propriety(
    rule: ScoringRule, trials: int, seed: int, strictness_gap: float = 1e-3
) -> ProprietyReport:
    """Sample (p, q) pairs uniformly and measure S(p, q) - S(q, q).

    Propriety demands the difference is never positive; strictness is
    witnessed by a strictly positive honest-report advantage whenever
    ||p - q|| > ``strictness_gap``.
    """
    if trials < 1:
        raise InvalidArgumentError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    ps = sample_simplex_points(rule.n, trials, rng)
    qs = sample_simplex_points(rule.n, trials, rng)
    max_violation = float("-inf")
    strict = True
    worst = None
    for a, b in zip(ps, qs):
        p = SimplexPoint(a)
        q = SimplexPoint(b)
        gap = rule.expected_score(p, q) - rule.expected_score(q, q)
        if gap > max_violation:
            max_violation = gap
            worst = (p, q)
        if np.linalg.norm(a - b) > strictness_gap and not gap < 0.0:
            strict = False
    return ProprietyReport(
        samples_tested=trials,
        max_violation=max_violation,
        strictly_proper_witnessed=strict,
        worst_pair=worst,
    )
