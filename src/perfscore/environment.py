"""Belief-response environments f: Delta(n) -> Delta(n).

An environment map sends a published prediction p to the outcome
distribution q = f(p) it induces.  Shipped families:

* affine-binary(p*, alpha)   f(p) = p* + alpha (p - p*); slope alpha,
  fixed point p*.  Valid for alpha in [0, 1] unconditionally; other
  slopes are accepted only when the image stays inside the simplex.
* bank-run                   the cubic f1(p1) = p1 - 3 (p1 - 1/10)(p1 - 3/5)(p1 - 9/10) / 2
  with three fixed points at p1 = 0.1, 0.6, 0.9.
* linear(A)                  f(p) = A p for a column-stochastic matrix A.
* shrink-to(p*, alpha)       f(p) = (1 - alpha) p + alpha p*; pulls every
  point toward p* at rate alpha (any n).
* ramp-binary(zeta, eps)     rises at slope 1 - eps from a small start
  value, then saturates at 1 - zeta; unique fixed point, Lipschitz 1 - eps.
* tabulated                  binary map interpolated from a grid (tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidArgumentError, IterationLimitError
from .simplex import (
    SimplexPoint,
    binary_point,
    sample_simplex_points,
    tangent_operator_norm,
    uniform_point,
)

AFFINE_BINARY = "affine-binary"
BANK_RUN = "bank-run"
LINEAR = "linear"
SHRINK_TO = "shrink-to"
RAMP_BINARY = "ramp-binary"
TABULATED = "tabulated"

_BOUNDARY_SLACK = 1e-12


class EnvironmentMap:
    """One belief-response map.  Immutable; all methods are pure."""

    def __init__(self, kind, n, *, p_star=None, alpha=None, A=None,
                 zeta=None, eps=None, ramp_start=None, grid=None):
        self.kind = kind
        self.n = n
        self.p_star = p_star
        self.alpha = alpha
        self.A = A
        self.zeta = zeta
        self.eps = eps
        self.ramp_start = ramp_start
        self.grid = grid
        if A is not None:
            self.A = np.array(A, dtype=float)
            self.A.flags.writeable = False

    # -- evaluation --------------------------------------------------------

    def eval(self, p: SimplexPoint) -> SimplexPoint:
        """q = f(p)."""
        self._check_point(p)
        if self.kind in (AFFINE_BINARY, BANK_RUN, RAMP_BINARY, TABULATED):
            return binary_point(float(self.eval1(np.asarray(p[0]))))
        if self.kind == LINEAR:
            return SimplexPoint(self.A @ p.probs)
        # shrink-to
        return SimplexPoint(
            (1.0 - self.alpha) * p.probs + self.alpha * self.p_star.probs
        )

    def eval1(self, x):
        """Vectorized first coordinate f1(p1) for binary kinds."""
        x = np.asarray(x, dtype=float)
        if self.kind == AFFINE_BINARY:
            return self.p_star[0] + self.alpha * (x - self.p_star[0])
        if self.kind == BANK_RUN:
            return x - 1.5 * (x - 0.1) * (x - 0.6) * (x - 0.9)
        if self.kind == RAMP_BINARY:
            return np.minimum(
                self.ramp_start + (1.0 - self.eps) * x, 1.0 - self.zeta
            )
        if self.kind == TABULATED:
            xs, ys = self.grid
            return np.interp(x, xs, ys)
        if self.kind == LINEAR and self.n == 2:
            return self.A[0, 0] * x + self.A[0, 1] * (1.0 - x)
        if self.kind == SHRINK_TO and self.n == 2:
            return (1.0 - self.alpha) * x + self.alpha * self.p_star[0]
        raise InvalidArgumentError(f"eval1 not available for kind {self.kind!r}")

    def eval_raw(self, v: np.ndarray) -> np.ndarray:
        """f on a bare probability array, skipping validation (hot loops)."""
        if self.kind == LINEAR:
            return self.A @ v
        if self.kind == SHRINK_TO:
            return (1.0 - self.alpha) * v + self.alpha * self.p_star.probs
        f1 = float(self.eval1(v[0]))
        return np.array([f1, 1.0 - f1])

    def eval_rows(self, P: np.ndarray) -> np.ndarray:
        """Row-wise evaluation: stack of f(p) for each row p of P."""
        P = np.asarray(P, dtype=float)
        if P.ndim != 2 or P.shape[1] != self.n:
            raise InvalidArgumentError(f"expected rows of length {self.n}")
        if self.kind == LINEAR:
            return P @ self.A.T
        if self.kind == SHRINK_TO:
            return (1.0 - self.alpha) * P + self.alpha * self.p_star.probs
        f1 = self.eval1(P[:, 0])
        return np.column_stack([f1, 1.0 - f1])

    def slope1(self, x):
        """d f1 / d p1 for binary kinds (one-sided at the ramp kink)."""
        x = np.asarray(x, dtype=float)
        if self.kind == AFFINE_BINARY:
            return np.broadcast_to(np.asarray(self.alpha, dtype=float), x.shape)
        if self.kind == BANK_RUN:
            return -4.5 * x * x + 4.8 * x - 0.035
        if self.kind == RAMP_BINARY:
            kink = (1.0 - self.zeta - self.ramp_start) / (1.0 - self.eps)
            return np.where(x < kink, 1.0 - self.eps, 0.0)
        if self.kind == TABULATED:
            # the segment [xs[k], xs[k+1]) containing x, so right-continuous
            # at knots; the last knot takes the last segment; flat outside
            xs, ys = self.grid
            slopes = np.diff(ys) / np.diff(xs)
            k = np.clip(np.searchsorted(xs, x, side="right") - 1, 0, slopes.size - 1)
            return np.where((x >= xs[0]) & (x <= xs[-1]), slopes[k], 0.0)
        if self.kind == LINEAR and self.n == 2:
            return np.broadcast_to(
                np.asarray(self.A[0, 0] - self.A[0, 1], dtype=float), x.shape
            )
        if self.kind == SHRINK_TO and self.n == 2:
            return np.broadcast_to(np.asarray(1.0 - self.alpha), x.shape)
        raise InvalidArgumentError(f"slope1 not available for kind {self.kind!r}")

    # -- differentiation ----------------------------------------------------

    def jacobian(self, p: SimplexPoint) -> np.ndarray:
        """Df(p) as an n x n matrix; only its action on T matters.

        Analytic for every shipped kind.  At a kink (the ramp's, a tabulated
        knot) the map is not differentiable and ``slope1``'s one-sided slope
        is reported.
        """
        self._check_point(p)
        if self.kind == AFFINE_BINARY:
            return self.alpha * np.eye(2)
        if self.kind == SHRINK_TO:
            return (1.0 - self.alpha) * np.eye(self.n)
        if self.kind == LINEAR:
            return np.array(self.A)
        d = float(self.slope1(np.asarray(p[0])))
        return np.array([[d, 0.0], [-d, 0.0]])

    def _jacobian_t_rows(self, H: np.ndarray, G: np.ndarray) -> np.ndarray:
        """Df(H_r)^T G_r for every row r of bare (R, n) arrays (no validation)."""
        if self.kind == AFFINE_BINARY:
            return self.alpha * G
        if self.kind == SHRINK_TO:
            return (1.0 - self.alpha) * G
        if self.kind == LINEAR:
            return G @ self.A
        d = self.slope1(H[:, 0])
        out = np.zeros_like(G)
        out[:, 0] = d * G[:, 0] - d * G[:, 1]
        return out

    def lipschitz_estimate(self, samples: int = 200, seed: int = 0) -> float:
        """sup_p ||Df(p)||_op on the tangent space.

        Exact for affine, shrink-to, linear, and ramp kinds; the bank-run
        cubic and tabulated maps are scanned on a fine grid / sample cloud.
        """
        if samples < 1:
            raise InvalidArgumentError("samples must be >= 1")
        if self.kind == AFFINE_BINARY:
            return abs(self.alpha)
        if self.kind == SHRINK_TO:
            return abs(1.0 - self.alpha)
        if self.kind == LINEAR:
            return tangent_operator_norm(self.A)
        if self.kind == RAMP_BINARY:
            return 1.0 - self.eps
        if self.kind == BANK_RUN:
            xs = np.linspace(0.0, 1.0, 10001)
            return float(np.max(np.abs(self.slope1(xs))))
        rng = np.random.default_rng(seed)
        pts = sample_simplex_points(self.n, samples, rng)
        return max(
            tangent_operator_norm(self.jacobian(SimplexPoint(q))) for q in pts
        )

    # -- misc ----------------------------------------------------------------

    def exact_fixed_point(self) -> Optional[SimplexPoint]:
        """Closed-form fixed point when the family provides one."""
        if self.kind == AFFINE_BINARY and self.alpha != 1.0:
            return self.p_star
        if self.kind == SHRINK_TO and self.alpha != 0.0:
            return self.p_star
        if self.kind == RAMP_BINARY:
            if self.ramp_start >= self.eps * (1.0 - self.zeta):
                return binary_point(1.0 - self.zeta)
            return binary_point(self.ramp_start / self.eps)
        return None

    def descriptor(self) -> str:
        if self.kind == AFFINE_BINARY:
            return f"affine:p1={self.p_star[0]:.17g},alpha={self.alpha:.17g}"
        if self.kind == BANK_RUN:
            return "bankrun"
        if self.kind == LINEAR:
            return f"linear:n={self.n}"
        if self.kind == SHRINK_TO:
            return f"shrink:alpha={self.alpha:.17g},n={self.n}"
        if self.kind == RAMP_BINARY:
            return (
                f"ramp:zeta={self.zeta:.17g},eps={self.eps:.17g},"
                f"start={self.ramp_start:.17g}"
            )
        return "tabulated"

    def _check_point(self, p: SimplexPoint):
        if not isinstance(p, SimplexPoint):
            raise InvalidArgumentError(f"expected a SimplexPoint, got {type(p)}")
        if p.n != self.n:
            raise InvalidArgumentError(f"dimension mismatch: {p.n} vs n={self.n}")

    def __repr__(self):
        return f"EnvironmentMap({self.descriptor()})"


# -- constructors -------------------------------------------------------------


def affine_binary(p_star: SimplexPoint, alpha: float) -> EnvironmentMap:
    """f(p) = p* + alpha (p - p*) on the binary simplex."""
    if p_star.n != 2:
        raise InvalidArgumentError("affine-binary requires a binary fixed point")
    alpha = float(alpha)
    if not (0.0 <= alpha <= 1.0):
        # the image of [0, 1] under an affine map is spanned by the endpoints
        for endpoint in (0.0, 1.0):
            y = p_star[0] + alpha * (endpoint - p_star[0])
            if not -_BOUNDARY_SLACK <= y <= 1.0 + _BOUNDARY_SLACK:
                raise InvalidArgumentError(
                    f"affine map with alpha={alpha}, p*={p_star[0]} leaves the simplex"
                )
    return EnvironmentMap(AFFINE_BINARY, 2, p_star=p_star, alpha=alpha)


def bank_run() -> EnvironmentMap:
    """The cubic crowd-response map with fixed points at 0.1, 0.6, 0.9."""
    return EnvironmentMap(BANK_RUN, 2)


def linear(A) -> EnvironmentMap:
    """f(p) = A p; every column of A must lie on the simplex."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidArgumentError(f"A must be square, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise InvalidArgumentError("A must be finite")
    if np.any(A < -_BOUNDARY_SLACK):
        raise InvalidArgumentError("columns of A must be nonnegative")
    sums = A.sum(axis=0)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        raise InvalidArgumentError(f"columns of A must sum to 1, got {sums}")
    return EnvironmentMap(LINEAR, A.shape[0], A=np.clip(A, 0.0, None))


def random_linear(n: int, rng: np.random.Generator) -> EnvironmentMap:
    """Random column-stochastic map: each column drawn uniformly from Delta(n)."""
    cols = sample_simplex_points(n, n, rng)
    return linear(cols.T)


def shrink_to(p_star: SimplexPoint, alpha: float) -> EnvironmentMap:
    """f(p) = (1 - alpha) p + alpha p*, alpha in [0, 1], any n."""
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise InvalidArgumentError(f"shrink rate alpha={alpha} outside [0, 1]")
    return EnvironmentMap(SHRINK_TO, p_star.n, p_star=p_star, alpha=alpha)


def ramp_binary(zeta: float, eps: float, start: float = None) -> EnvironmentMap:
    """Saturating ramp: slope 1 - eps up to the plateau 1 - zeta.

    ``start`` is f1(0); any small positive value works, default zeta / 10.
    """
    zeta = float(zeta)
    eps = float(eps)
    if not (0.0 < zeta < 1.0 and 0.0 < eps < 1.0):
        raise InvalidArgumentError("require 0 < zeta < 1 and 0 < eps < 1")
    start = zeta / 10.0 if start is None else float(start)
    if not 0.0 < start < 1.0 - zeta:
        raise InvalidArgumentError(f"ramp start {start} outside (0, 1 - zeta)")
    return EnvironmentMap(RAMP_BINARY, 2, zeta=zeta, eps=eps, ramp_start=start)


def tabulated(xs, f1s) -> EnvironmentMap:
    """Binary map linearly interpolated through (p1, f1) support points."""
    xs = np.asarray(xs, dtype=float)
    f1s = np.asarray(f1s, dtype=float)
    if xs.shape != f1s.shape or xs.ndim != 1 or xs.size < 2:
        raise InvalidArgumentError("grid must be two equal-length 1-d arrays")
    if np.any(np.diff(xs) <= 0):
        raise InvalidArgumentError("grid abscissae must be strictly increasing")
    if np.any(f1s < 0.0) or np.any(f1s > 1.0):
        raise InvalidArgumentError("grid values must lie in [0, 1]")
    return EnvironmentMap(TABULATED, 2, grid=(xs.copy(), f1s.copy()))


def parse_environment(spec: str, rng_seed: int = 0) -> EnvironmentMap:
    """Parse the CLI environment grammar.

    affine:p1=<f>,alpha=<f> | bankrun | linear:seed=<u64>[,n=<int>] |
    linear:file=<path> | ramp:zeta=<f>,eps=<f>[,start=<f>]
    """
    s = spec.strip()
    if s.lower() == "bankrun":
        return bank_run()
    head, _, body = s.partition(":")
    head = head.lower()
    kv = {}
    if body:
        for part in body.split(","):
            key, _, val = part.partition("=")
            if not val:
                raise InvalidArgumentError(f"bad environment spec {spec!r}")
            kv[key.lower()] = val
    try:
        if head == "affine":
            return affine_binary(
                binary_point(float(kv["p1"])), float(kv["alpha"])
            )
        if head == "linear":
            if "file" in kv:
                A = np.loadtxt(kv["file"], delimiter=",")
                return linear(A)
            n = int(kv.get("n", 5))
            seed = int(kv.get("seed", rng_seed))
            return random_linear(n, np.random.default_rng(seed))
        if head == "ramp":
            start = float(kv["start"]) if "start" in kv else None
            return ramp_binary(float(kv["zeta"]), float(kv["eps"]), start)
        if head == "shrink":
            return shrink_to(binary_point(float(kv["p1"])), float(kv["alpha"]))
    except KeyError as exc:
        raise InvalidArgumentError(f"missing field {exc} in {spec!r}") from exc
    raise InvalidArgumentError(f"unknown environment {spec!r}")


# -- fixed points --------------------------------------------------------------


@dataclass
class FixedPointSet:
    """Fixed points of a map, with the method that found them.

    ``unique_guaranteed`` is True when a contraction argument certifies
    uniqueness; the identity map sets it to False and reports the query
    point only.
    """

    points: list
    method: str
    unique_guaranteed: bool = False

    def coordinates(self) -> list:
        return [float(p[0]) for p in self.points]


@dataclass
class FixedPointConfig:
    max_iters: int = 100_000
    tol: float = 1e-12
    scan_step: float = 1e-4
    residual_tol: float = 1e-8


def _bisect_fixed_point(f: EnvironmentMap, lo: float, hi: float, tol: float) -> float:
    glo = float(f.eval1(np.asarray(lo))) - lo
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gm = float(f.eval1(np.asarray(mid))) - mid
        if hi - lo <= tol:
            break
        if (glo <= 0.0) == (gm <= 0.0):
            lo, glo = mid, gm
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _banach_iterate(f: EnvironmentMap, start: SimplexPoint, cfg: FixedPointConfig):
    p = start
    for _ in range(cfg.max_iters):
        q = f.eval(p)
        if np.linalg.norm(q.probs - p.probs) <= cfg.tol:
            return q
        p = q
    raise IterationLimitError(
        f"no fixed point within {cfg.max_iters} iterations", best=p
    )


def find_fixed_points(f: EnvironmentMap, cfg: FixedPointConfig = None) -> FixedPointSet:
    """Locate fixed points of f.

    Strategy: linear maps use the eigenvector for eigenvalue 1 (which
    exists because columns sum to one); binary maps are scanned for sign
    changes of f1(x) - x and each bracket refined by bisection, which
    catches multiple fixed points; contraction maps fall back to iteration
    from the barycenter, unique by the contraction principle.
    """
    cfg = cfg or FixedPointConfig()

    if f.kind == LINEAR:
        vals, vecs = np.linalg.eig(f.A)
        idx = int(np.argmin(np.abs(vals - 1.0)))
        v = np.real(vecs[:, idx])
        v = np.abs(v)
        v = v / v.sum()
        point = SimplexPoint(v)
        point = _polish_linear_fixed_point(f, point)
        _verify_fixed_points(f, [point], cfg.residual_tol)
        return FixedPointSet([point], "eigen", unique_guaranteed=False)

    if f.n == 2:
        xs = np.arange(0.0, 1.0 + 0.5 * cfg.scan_step, cfg.scan_step)
        resid = f.eval1(xs) - xs
        if np.max(np.abs(resid)) < 1e-12:
            # identity-like map: every point is fixed
            return FixedPointSet([uniform_point(2)], "sign-scan", unique_guaranteed=False)
        roots = []
        for i in range(xs.size - 1):
            a, b = resid[i], resid[i + 1]
            if a == 0.0:
                roots.append(xs[i])
            elif a * b < 0.0:
                roots.append(_bisect_fixed_point(f, xs[i], xs[i + 1], cfg.tol))
        if resid[-1] == 0.0:
            roots.append(xs[-1])
        deduped = []
        for r in sorted(roots):
            if not deduped or r - deduped[-1] > 1e-9:
                deduped.append(r)
        points = [binary_point(r) for r in deduped]
        _verify_fixed_points(f, points, cfg.residual_tol)
        unique = len(points) == 1 and f.lipschitz_estimate() < 1.0
        return FixedPointSet(points, "sign-scan", unique_guaranteed=unique)

    if f.lipschitz_estimate() < 1.0:
        point = _banach_iterate(f, uniform_point(f.n), cfg)
        _verify_fixed_points(f, [point], cfg.residual_tol)
        return FixedPointSet([point], "banach", unique_guaranteed=True)

    raise InvalidArgumentError(
        f"no fixed-point strategy for kind {f.kind!r} with n={f.n} and L_f >= 1"
    )


def _polish_linear_fixed_point(f: EnvironmentMap, p: SimplexPoint) -> SimplexPoint:
    # one round of power iteration cleans up eigensolver rounding
    v = p.probs
    for _ in range(50):
        w = f.A @ v
        w = np.clip(w, 0.0, None)
        w = w / w.sum()
        if np.linalg.norm(w - v) < 1e-15:
            break
        v = w
    return SimplexPoint(v)


def _verify_fixed_points(f: EnvironmentMap, points, residual_tol: float):
    for p in points:
        r = np.linalg.norm(f.eval(p).probs - p.probs)
        if r > residual_tol:
            raise IterationLimitError(
                f"candidate fixed point {p!r} has residual {r}", best=p
            )
