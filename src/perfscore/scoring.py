"""Proper scoring rules in convex-potential form.

Every rule here is represented through a convex potential G on the simplex
and a tangent-normalized subgradient g, so that the expected score of
reporting p when outcomes follow q is

    S(p, q) = G(p) + g(p)^T (q - p).

Three strictly proper families are shipped:

* quadratic       S(p, i) = 2 p_i - ||p||^2           (any n)
* logarithmic     S(p, i) = log p_i                   (any n)
* exponential     binary rule with G(p) = (2/K) e^{K p1}, K > 0

Subgradients are always centered into the tangent space, which minimizes
||g(p)|| and makes the accuracy-bound formulas unambiguous.  Minus-infinity
scores (log rule at the boundary) are IEEE -inf, never NaN; expectations
use the convention 0 * (-inf) = 0, implemented once in
``convex_combination_of_scores``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidArgumentError
from .simplex import (
    SimplexPoint,
    TangentVector,
    sample_simplex_points,
    tangent_min_eigenvalue,
    uniform_point,
)

QUADRATIC = "quadratic"
LOGARITHMIC = "logarithmic"
EXPONENTIAL_BINARY = "exponential-binary"

_KINDS = (QUADRATIC, LOGARITHMIC, EXPONENTIAL_BINARY)

# Exponent guard: e^K must stay a normal double across the unit interval.
MAX_EXPONENT = 700.0
MIN_EXPONENT = 1e-6


def convex_combination_of_scores(weights: np.ndarray, scores: np.ndarray) -> float:
    """sum_i w_i * s_i with the convention 0 * (-inf) = 0."""
    w = np.asarray(weights, dtype=float)
    s = np.asarray(scores, dtype=float)
    live = w > 0.0
    if np.any(np.isneginf(s[live])):
        return float("-inf")
    return float(np.dot(w[live], s[live]))


@dataclass(frozen=True)
class ScoringRule:
    """A strictly proper scoring rule descriptor.

    ``kind`` selects the family; ``n`` is the outcome count; ``K`` is the
    exponent of the exponential binary rule and is ignored otherwise.
    """

    kind: str
    n: int
    K: float = 0.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidArgumentError(f"unknown scoring rule kind {self.kind!r}")
        if self.n < 2:
            raise InvalidArgumentError("scoring rules need n >= 2 outcomes")
        if self.kind == EXPONENTIAL_BINARY:
            if self.n != 2:
                raise InvalidArgumentError("the exponential rule is binary only")
            if not (MIN_EXPONENT <= self.K <= MAX_EXPONENT):
                raise InvalidArgumentError(
                    f"exponent K={self.K} outside [{MIN_EXPONENT}, {MAX_EXPONENT}]"
                )

    # -- pointwise scores ------------------------------------------------

    def score(self, p: SimplexPoint, outcome: int) -> float:
        """Score received for reporting p when outcome ``outcome`` occurs."""
        self._check_point(p)
        if not 0 <= outcome < self.n:
            raise InvalidArgumentError(
                f"outcome {outcome} out of range for n={self.n}"
            )
        v = p.probs
        if self.kind == QUADRATIC:
            return float(2.0 * v[outcome] - v @ v)
        if self.kind == LOGARITHMIC:
            return math.log(v[outcome]) if v[outcome] > 0.0 else float("-inf")
        e = math.exp(self.K * v[0])
        g = np.array([e, -e])
        ei = np.zeros(self.n)
        ei[outcome] = 1.0
        return float(2.0 * e / self.K + g @ (ei - v))

    def expected_score(self, p: SimplexPoint, q: SimplexPoint) -> float:
        """S(p, q) = E_{i~q} S(p, i)."""
        self._check_point(p)
        if q.n != self.n:
            raise InvalidArgumentError(f"dimension mismatch: {q.n} vs n={self.n}")
        v = p.probs
        if self.kind == QUADRATIC:
            return float(2.0 * v @ q.probs - v @ v)
        if self.kind == LOGARITHMIC:
            with np.errstate(divide="ignore"):
                logs = np.log(v)
            return convex_combination_of_scores(q.probs, logs)
        e = math.exp(self.K * v[0])
        return float(2.0 * e / self.K + e * (q[0] - v[0]) - e * (q[1] - v[1]))

    # -- potential form --------------------------------------------------

    def potential(self, p: SimplexPoint) -> float:
        """The convex potential G(p) = S(p, p)."""
        self._check_point(p)
        v = p.probs
        if self.kind == QUADRATIC:
            return float(v @ v)
        if self.kind == LOGARITHMIC:
            live = v > 0.0
            return float(np.dot(v[live], np.log(v[live])))
        return float(2.0 / self.K * math.exp(self.K * v[0]))

    def subgradient(self, p: SimplexPoint) -> TangentVector:
        """Tangent-normalized subgradient g(p) of G.

        For the log rule at the boundary the subgradient is unbounded;
        ``DomainError`` is raised rather than returning infinite entries.
        """
        self._check_point(p)
        v = p.probs
        if self.kind == QUADRATIC:
            return TangentVector(2.0 * v - 2.0 / self.n)
        if self.kind == LOGARITHMIC:
            if not p.is_interior():
                raise DomainError("log-rule subgradient is unbounded at the boundary")
            logs = np.log(v)
            return TangentVector(logs - logs.mean())
        e = math.exp(self.K * v[0])
        return TangentVector(np.array([e, -e]))

    def hessian(self, p: SimplexPoint) -> np.ndarray:
        """An R^(n,n) representation of the Hessian Dg(p).

        Only the action on the tangent space is meaningful; restrict with
        ``tangent_min_eigenvalue`` / ``tangent_operator_norm`` before taking
        spectra.
        """
        self._check_point(p)
        v = p.probs
        if self.kind == QUADRATIC:
            return 2.0 * np.eye(self.n)
        if self.kind == LOGARITHMIC:
            if not p.is_interior():
                raise DomainError("log-rule Hessian undefined at the boundary")
            inv = 1.0 / v
            return np.diag(inv) - np.outer(np.ones(self.n), inv) / self.n
        e = math.exp(self.K * v[0])
        return np.array([[self.K * e, 0.0], [-self.K * e, 0.0]])

    def gamma_at(self, p: SimplexPoint) -> float:
        """Strong-convexity modulus at p: smallest tangent eigenvalue of Dg(p)."""
        if self.kind == QUADRATIC:
            return 2.0
        if self.kind == EXPONENTIAL_BINARY:
            self._check_point(p)
            return self.K * math.exp(self.K * p[0])
        g = tangent_min_eigenvalue(self.hessian(p))
        if g <= 0.0:
            raise DomainError(f"nonpositive curvature {g} at {p!r}")
        return g

    def subgradient_norm(self, p: SimplexPoint) -> float:
        return self.subgradient(p).norm

    def max_subgradient_norm(self) -> float:
        """L_G = sup_p ||g(p)||, or inf when the subgradient is unbounded."""
        if self.kind == QUADRATIC:
            return 2.0 * math.sqrt((self.n - 1.0) / self.n)
        if self.kind == LOGARITHMIC:
            return float("inf")
        return math.sqrt(2.0) * math.exp(self.K)

    def min_gamma(self) -> float:
        """inf_p of the strong-convexity modulus over the simplex."""
        if self.kind == QUADRATIC:
            return 2.0
        if self.kind == LOGARITHMIC:
            # 1/(2 p1 p2) for n=2 is minimized at the barycenter; for
            # general n the barycenter is the minimizer as well
            return self.gamma_at(uniform_point(self.n))
        return self.K  # K e^{K p1} at p1 = 0

    def max_tangent_curvature(self) -> float:
        """beta = sup_p of the largest tangent eigenvalue of Dg(p); inf if unbounded."""
        if self.kind == QUADRATIC:
            return 2.0
        if self.kind == LOGARITHMIC:
            return float("inf")
        return self.K * math.exp(self.K)

    # -- vectorized binary objective --------------------------------------

    def binary_objective_grid(self, x: np.ndarray, fx: np.ndarray) -> np.ndarray:
        """S((x, 1-x), (fx, 1-fx)) evaluated elementwise on arrays.

        The workhorse of the binary grid oracle; x must avoid {0, 1} for the
        log rule.
        """
        if self.n != 2:
            raise InvalidArgumentError("grid objective is for binary rules")
        x = np.asarray(x, dtype=float)
        fx = np.asarray(fx, dtype=float)
        if self.kind == QUADRATIC:
            return 2.0 * fx * (2.0 * x - 1.0) + 2.0 * (1.0 - x) - (
                x * x + (1.0 - x) * (1.0 - x)
            )
        if self.kind == LOGARITHMIC:
            return fx * np.log(x) + (1.0 - fx) * np.log1p(-x)
        e = np.exp(self.K * x)
        return e * (2.0 / self.K + 2.0 * (fx - x))

    def score_rows(self, P: np.ndarray, Y: np.ndarray) -> np.ndarray:
        """Vectorized S(P_t, Y_t) over aligned arrays of reports and outcomes."""
        P = np.asarray(P, dtype=float)
        Y = np.asarray(Y, dtype=np.int64)
        rows = np.arange(P.shape[0])
        if self.kind == QUADRATIC:
            return 2.0 * P[rows, Y] - np.einsum("ij,ij->i", P, P)
        if self.kind == LOGARITHMIC:
            with np.errstate(divide="ignore"):
                return np.log(P[rows, Y])
        e = np.exp(self.K * P[:, 0])
        d0 = (Y == 0).astype(float) - P[:, 0]
        d1 = (Y == 1).astype(float) - P[:, 1]
        return 2.0 * e / self.K + e * (d0 - d1)

    # -- row kernels ---------------------------------------------------------
    # Bare (R, n) arrays of reports P and beliefs Q, one pair per row, no
    # validation: the solvers' batched ascent checks its iterates itself.

    def _objective_rows(self, P: np.ndarray, Q: np.ndarray) -> np.ndarray:
        """S(P_r, Q_r) for every row r (``expected_score`` row by row)."""
        if self.kind == QUADRATIC:
            return np.einsum("ij,ij->i", 2.0 * P, Q) - np.einsum("ij,ij->i", P, P)
        if self.kind == LOGARITHMIC:
            # 0 * (-inf) = 0: outcomes of zero belief contribute nothing
            with np.errstate(divide="ignore"):
                logs = np.log(np.where(Q > 0.0, P, 1.0))
            return np.einsum("ij,ij->i", Q, logs)
        e = np.exp(self.K * P[:, 0])
        return 2.0 * e / self.K + e * (Q[:, 0] - P[:, 0]) - e * (Q[:, 1] - P[:, 1])

    def _ascent_rows(self, P: np.ndarray, Q: np.ndarray):
        """(Dg(P)^T (Q - P), g(P)) row by row: the rule's two gradient terms.

        The log rule's rows must be interior.
        """
        D = Q - P
        if self.kind == QUADRATIC:
            return 2.0 * D, 2.0 * P - 2.0 / self.n
        if self.kind == LOGARITHMIC:
            inv = 1.0 / P
            logs = np.log(P)
            return (
                inv * (D - D.sum(axis=1, keepdims=True) / self.n),
                logs - logs.mean(axis=1, keepdims=True),
            )
        e = np.exp(self.K * P[:, 0])
        Ke = self.K * e
        first = np.zeros_like(P)
        first[:, 0] = Ke * D[:, 0] - Ke * D[:, 1]
        return first, np.column_stack([e, -e])

    # -- internals ---------------------------------------------------------

    def _check_point(self, p: SimplexPoint):
        if not isinstance(p, SimplexPoint):
            raise InvalidArgumentError(f"expected a SimplexPoint, got {type(p)}")
        if p.n != self.n:
            raise InvalidArgumentError(f"dimension mismatch: {p.n} vs n={self.n}")

    def __str__(self):
        if self.kind == EXPONENTIAL_BINARY:
            return f"exp:K={self.K:g}"
        return "log" if self.kind == LOGARITHMIC else self.kind


def quadratic_rule(n: int) -> ScoringRule:
    return ScoringRule(QUADRATIC, n)


def logarithmic_rule(n: int) -> ScoringRule:
    return ScoringRule(LOGARITHMIC, n)


def exponential_binary_rule(K: float) -> ScoringRule:
    return ScoringRule(EXPONENTIAL_BINARY, 2, K=float(K))


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
