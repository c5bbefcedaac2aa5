"""Belief-response environments f: Delta(n) -> Delta(n).

An environment map sends a published prediction p to the outcome
distribution q = f(p) it induces.  Three families, each with its named
constructors:

* linear(A)        f(p) = A p for a column-stochastic matrix A, any n.
  On the simplex 1^T p = 1, so two more constructors are linear maps:
  - affine_binary(p*, alpha)  f(p) = p* + alpha (p - p*), that is
    A = alpha I + (1 - alpha) p* 1^T; slope alpha, fixed point p*.
    Valid for alpha in [0, 1] unconditionally; other slopes are accepted
    only when the columns (the images of the vertices) stay inside the
    simplex.
  - shrink_to(p*, alpha)      f(p) = (1 - alpha) p + alpha p*, that is
    A = (1 - alpha) I + alpha p* 1^T; pulls every point toward p* at
    rate alpha (any n).
* piecewise-linear binary  f1 interpolates knots (xs, ys), flat outside:
  - tabulated(xs, ys)         the knots as given.
  - ramp_binary(zeta, eps)    rises at slope 1 - eps from a small start
    value, then saturates at 1 - zeta; unique fixed point, Lipschitz
    1 - eps.
* bank_run()       the cubic f1(p1) = p1 - 3 (p1 - 1/10)(p1 - 3/5)(p1 - 9/10) / 2
  with three fixed points at p1 = 0.1, 0.6, 0.9.

Fixed points: binary maps by the exact roots of f1(x) - x on each
polynomial piece of f1, maps with n > 2 (all linear) by the eigenproblem.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InvalidArgumentError, IterationLimitError, PerfscoreError
from .scoring import _X, _real_roots
from .simplex import (
    SimplexPoint,
    binary_point,
    norm_rows,
    sample_simplex_points,
    tangent_operator_norm,
    uniform_point,
)

_BOUNDARY_SLACK = 1e-12
# the largest ||f(p) - p|| a reported fixed point may keep
_RESIDUAL_TOL = 1e-8


class EnvironmentMap:
    """One belief-response map.  Immutable; all methods are pure.

    The public calls are written once, here, over two kernels on bare
    (R, n) arrays: ``_rows`` (f of each row) and ``_jacobian_t_rows``.
    The kernels below are the binary ones, built from a family's ``_f1``
    and ``_slope1``; ``LinearMap`` replaces them.  A binary family also
    writes ``_pieces(lo, hi)``: [lo, hi] cut where f1 changes formula, as
    (a, z, P) with f1 = np.polyval(P, x) on [a, z].  ``p_star`` is the
    map's closed-form fixed point, or None.
    """

    def __init__(self, n: int, descriptor: str, lipschitz: float, p_star=None):
        self.n = n
        self.p_star = p_star
        self._descriptor = descriptor
        self._lipschitz = float(lipschitz)

    # -- evaluation --------------------------------------------------------

    def eval(self, p: SimplexPoint) -> SimplexPoint:
        """q = f(p)."""
        self._check_point(p)
        return SimplexPoint(self.eval_raw(p.probs))

    def eval_raw(self, v: np.ndarray) -> np.ndarray:
        """f on a bare probability array, skipping validation (hot loops)."""
        return self._rows(v[None, :])[0]

    def eval_rows(self, P: np.ndarray) -> np.ndarray:
        """Row-wise evaluation: stack of f(p) for each row p of P."""
        P = np.asarray(P, dtype=float)
        if P.ndim != 2 or P.shape[1] != self.n:
            raise InvalidArgumentError(f"expected rows of length {self.n}")
        return self._rows(P)

    def eval1(self, x):
        """Vectorized first coordinate f1(p1) of a binary map."""
        self._check_binary()
        return self._f1(np.asarray(x, dtype=float))

    def slope1(self, x):
        """d f1 / d p1 of a binary map (right-sided at a kink)."""
        self._check_binary()
        return self._slope1(np.asarray(x, dtype=float))

    # -- differentiation ----------------------------------------------------

    def jacobian(self, p: SimplexPoint) -> np.ndarray:
        """Df(p) as an n x n matrix; only its action on T matters.

        Row r is Df(p)^T e_r.  At a kink (a piecewise-linear knot) the map
        is not differentiable and ``slope1``'s one-sided slope is reported.
        """
        self._check_point(p)
        return self._jacobian_t_rows(np.tile(p.probs, (self.n, 1)), np.eye(self.n))

    def lipschitz_estimate(self) -> float:
        """sup_p ||Df(p)||_op on the tangent space.

        Exact for every family: for the bank-run cubic it is |f1'| at the
        vertex 8/15 of its parabola f1', 1.245.
        """
        return self._lipschitz

    # -- misc ----------------------------------------------------------------

    def exact_fixed_point(self) -> Optional[SimplexPoint]:
        """Closed-form fixed point when the family provides one."""
        return self.p_star

    def descriptor(self) -> str:
        return self._descriptor

    def _rows(self, P: np.ndarray) -> np.ndarray:
        f1 = self._f1(P[:, :1])
        return np.concatenate([f1, 1.0 - f1], axis=1)

    def _jacobian_t_rows(self, H: np.ndarray, G: np.ndarray) -> np.ndarray:
        """Df(H_r)^T G_r for every row r of bare (R, n) arrays (no validation)."""
        d = self._slope1(H[:, 0])
        out = np.zeros_like(G)
        out[:, 0] = d * G[:, 0] - d * G[:, 1]
        return out

    def _check_binary(self):
        if self.n != 2:
            raise InvalidArgumentError(f"not a binary map: {self.descriptor()}")

    def _check_point(self, p: SimplexPoint):
        if not isinstance(p, SimplexPoint):
            raise InvalidArgumentError(f"expected a SimplexPoint, got {type(p)}")
        if p.n != self.n:
            raise InvalidArgumentError(f"dimension mismatch: {p.n} vs n={self.n}")

    def __repr__(self):
        return f"EnvironmentMap({self.descriptor()})"


class LinearMap(EnvironmentMap):
    """f(p) = A p for a column-stochastic A."""

    def __init__(self, A: np.ndarray, descriptor=None, lipschitz=None, p_star=None):
        A = np.array(A, dtype=float)
        A.flags.writeable = False
        self.A = A
        super().__init__(
            A.shape[0],
            descriptor or f"linear:n={A.shape[0]}",
            tangent_operator_norm(A) if lipschitz is None else lipschitz,
            p_star,
        )

    def _rows(self, P):
        return P @ self.A.T

    def _jacobian_t_rows(self, H, G):
        return G @ self.A

    def _f1(self, x):
        return self.A[0, 1] + (self.A[0, 0] - self.A[0, 1]) * x

    def _slope1(self, x):
        return np.broadcast_to(self.A[0, 0] - self.A[0, 1], x.shape)

    def _pieces(self, lo, hi):
        return [(lo, hi, np.array([self.A[0, 0] - self.A[0, 1], self.A[0, 1]]))]


class PiecewiseLinearMap(EnvironmentMap):
    """Binary map whose f1 interpolates the knots (xs, ys) linearly and is
    flat outside [xs[0], xs[-1]]."""

    def __init__(self, xs, ys, descriptor="tabulated", lipschitz=None, p_star=None):
        self.xs = np.array(xs, dtype=float)
        self.ys = np.array(ys, dtype=float)
        slopes = np.diff(self.ys) / np.diff(self.xs)
        # x in [xs[k], xs[k+1]) takes slope k (right-continuous at knots),
        # the last knot the last segment, and x outside [xs[0], xs[-1]] 0;
        # the leading 0 serves x < xs[0]
        self._slopes = np.concatenate([[0.0], slopes])
        super().__init__(
            2,
            descriptor,
            np.max(np.abs(slopes)) if lipschitz is None else lipschitz,
            p_star,
        )

    def _f1(self, x):
        return np.interp(x, self.xs, self.ys)

    def _slope1(self, x):
        k = np.searchsorted(self.xs[:-1], x, side="right")
        return np.where(x <= self.xs[-1], self._slopes[k], 0.0)

    def _pieces(self, lo, hi):
        # the knots inside (lo, hi) cut it; the tails are flat pieces
        cuts = np.concatenate([[lo], self.xs[(self.xs > lo) & (self.xs < hi)], [hi]])
        mids = 0.5 * (cuts[:-1] + cuts[1:])
        b = self._slope1(mids)
        c = self._f1(mids) - b * mids
        return [(a, z, np.array([s, t])) for a, z, s, t in zip(cuts[:-1], cuts[1:], b, c)]


class BankRunMap(EnvironmentMap):
    """The cubic crowd-response map with fixed points at 0.1, 0.6, 0.9."""

    _CUBIC = np.polyadd(-1.5 * np.poly([0.1, 0.6, 0.9]), [1.0, 0.0])

    def __init__(self):
        # f1' is a downward parabola: |f1'| peaks at an end or at its
        # vertex 8/15, where f1' = 1.245
        xs = np.array([0.0, 8.0 / 15.0, 1.0])
        super().__init__(2, "bankrun", np.max(np.abs(self._slope1(xs))))

    def _f1(self, x):
        return x - 1.5 * (x - 0.1) * (x - 0.6) * (x - 0.9)

    def _slope1(self, x):
        return -4.5 * x * x + 4.8 * x - 0.035

    def _pieces(self, lo, hi):
        return [(lo, hi, self._CUBIC)]


# -- constructors -------------------------------------------------------------


def affine_binary(p_star: SimplexPoint, alpha: float) -> EnvironmentMap:
    """f(p) = p* + alpha (p - p*) on the binary simplex."""
    if p_star.n != 2:
        raise InvalidArgumentError("affine-binary requires a binary fixed point")
    alpha = float(alpha)
    if not np.isfinite(alpha):
        raise InvalidArgumentError(f"affine slope alpha={alpha} is not finite")
    # column j is the image of vertex j, so the map stays inside the simplex
    # exactly when A is column-stochastic
    A = alpha * np.eye(2) + (1.0 - alpha) * p_star.probs[:, None]
    if np.any(A < -_BOUNDARY_SLACK):
        raise InvalidArgumentError(
            f"affine map with alpha={alpha}, p*={p_star[0]} leaves the simplex"
        )
    return LinearMap(
        np.clip(A, 0.0, None),
        f"affine:p1={p_star[0]:.17g},alpha={alpha:.17g}",
        abs(alpha),
        p_star if alpha != 1.0 else None,
    )


def bank_run() -> EnvironmentMap:
    """The cubic crowd-response map with fixed points at 0.1, 0.6, 0.9."""
    return BankRunMap()


def linear(A) -> EnvironmentMap:
    """f(p) = A p; every column of A must lie on the simplex."""
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidArgumentError(f"A must be square, got shape {A.shape}")
    return LinearMap(checked_stochastic(A))


def checked_stochastic(A: np.ndarray) -> np.ndarray:
    """``linear``'s checks on one matrix or an (R, n, n) stack: columns finite,
    >= -1e-12 and summing to 1 within 1e-9.  Returns A clamped at 0."""
    if not np.all(np.isfinite(A)):
        raise InvalidArgumentError("A must be finite")
    if np.any(A < -_BOUNDARY_SLACK):
        raise InvalidArgumentError("columns of A must be nonnegative")
    sums = A.sum(axis=-2)
    if np.any(np.abs(sums - 1.0) > 1e-9):
        raise InvalidArgumentError(f"columns of A must sum to 1, got {sums}")
    return np.clip(A, 0.0, None)


def random_linear(n: int, rng: np.random.Generator) -> EnvironmentMap:
    """Random column-stochastic map: each column drawn uniformly from Delta(n)."""
    cols = sample_simplex_points(n, n, rng)
    return linear(cols.T)


def shrink_to(p_star: SimplexPoint, alpha: float) -> EnvironmentMap:
    """f(p) = (1 - alpha) p + alpha p*, alpha in [0, 1], any n."""
    alpha = float(alpha)
    if not 0.0 <= alpha <= 1.0:
        raise InvalidArgumentError(f"shrink rate alpha={alpha} outside [0, 1]")
    n = p_star.n
    return LinearMap(
        (1.0 - alpha) * np.eye(n) + alpha * p_star.probs[:, None],
        f"shrink:alpha={alpha:.17g},n={n}",
        abs(1.0 - alpha),
        p_star if alpha != 0.0 else None,
    )


def ramp_binary(zeta: float, eps: float, start: float = None) -> EnvironmentMap:
    """Saturating ramp f1(x) = min(start + (1 - eps) x, 1 - zeta).

    ``start`` is f1(0); any small positive value works, default zeta / 10.
    """
    zeta = float(zeta)
    eps = float(eps)
    if not (0.0 < zeta < 1.0 and 0.0 < eps < 1.0):
        raise InvalidArgumentError("require 0 < zeta < 1 and 0 < eps < 1")
    start = zeta / 10.0 if start is None else float(start)
    if not 0.0 < start < 1.0 - zeta:
        raise InvalidArgumentError(f"ramp start {start} outside (0, 1 - zeta)")
    kink = (1.0 - zeta - start) / (1.0 - eps)
    if kink < 1.0:
        xs, ys = [0.0, kink, 1.0], [start, 1.0 - zeta, 1.0 - zeta]
    else:
        # the ramp reaches its plateau only beyond p1 = 1
        xs, ys = [0.0, 1.0], [start, start + 1.0 - eps]
    fixed = 1.0 - zeta if start >= eps * (1.0 - zeta) else start / eps
    return PiecewiseLinearMap(
        xs,
        ys,
        f"ramp:zeta={zeta:.17g},eps={eps:.17g},start={start:.17g}",
        1.0 - eps,
        binary_point(fixed),
    )


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
    return PiecewiseLinearMap(xs, f1s)


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
            if n < 2 or seed < 0:
                raise InvalidArgumentError(f"need n >= 2 and seed >= 0 in {spec!r}")
            return random_linear(n, np.random.default_rng(seed))
        if head == "ramp":
            start = float(kv["start"]) if "start" in kv else None
            return ramp_binary(float(kv["zeta"]), float(kv["eps"]), start)
        if head == "shrink":
            return shrink_to(binary_point(float(kv["p1"])), float(kv["alpha"]))
    except KeyError as exc:
        raise InvalidArgumentError(f"missing field {exc} in {spec!r}") from exc
    except PerfscoreError:
        raise
    except ValueError as exc:
        raise InvalidArgumentError(f"bad number in {spec!r}: {exc}") from exc
    raise InvalidArgumentError(f"unknown environment {spec!r}")


# -- fixed points --------------------------------------------------------------


@dataclass
class FixedPointSet:
    """Fixed points of a map, with the method that found them.

    ``method`` is "piece-roots" for a binary map (the roots of f1(x) - x
    on each polynomial piece of f1) and "eigen" for n > 2.
    ``unique_guaranteed`` is True when a contraction argument certifies
    uniqueness; a map that is the identity on all of [0, 1] sets it to
    False and reports the uniform point only.
    """

    points: list
    method: str
    unique_guaranteed: bool = False

    def coordinates(self) -> list:
        return [float(p[0]) for p in self.points]


def find_fixed_points(f: EnvironmentMap) -> FixedPointSet:
    """Locate fixed points of f.

    Binary maps solve f1(x) - x = 0 on each piece of ``f._pieces(0, 1)``:
    a cut point whose residual is exactly 0, the closed-form root of a
    line piece whose end residuals change sign, and the real roots of the
    bank-run cubic.  A piece with |f1(x) - x| < 1e-12 at both ends is
    fixed throughout and reports its two ends; when every piece is, the
    uniform point stands for them.  Maps with n > 2 are linear and use the
    eigenvector for eigenvalue 1 (which exists because columns sum to
    one).  Either way the fixed point is unique when L_f < 1 by the
    contraction principle.
    """
    if f.n == 2:
        return _binary_fixed_points(f)
    p = SimplexPoint(linear_fixed_point_rows(f.A[None])[0], renormalize=False)
    return FixedPointSet([p], "eigen", unique_guaranteed=f.lipschitz_estimate() < 1.0)


def _binary_fixed_points(f: EnvironmentMap) -> FixedPointSet:
    pieces = f._pieces(0.0, 1.0)
    cuts = np.array([a for a, _, _ in pieces] + [1.0])
    # one evaluation at every cut: pieces that meet at a knot see the same
    # residual there, so a root on a knot is found once, as an exact zero
    resid = f.eval1(cuts) - cuts
    small = np.abs(resid) < 1e-12
    if small.all():
        return FixedPointSet([uniform_point(2)], "piece-roots", unique_guaranteed=False)
    roots = cuts[resid == 0.0].tolist()
    for (a, z, P), ga, gz, fixed in zip(pieces, resid[:-1], resid[1:], small[:-1] & small[1:]):
        C = np.polysub(P, _X)
        if len(C) > 2:
            roots += _real_roots(C, a, z)
        elif fixed:
            roots += [a, z]
        elif ga * gz < 0.0:
            roots.append(min(max(-C[1] / C[0], a), z))
    deduped = []
    for r in sorted(roots):
        if not deduped or r - deduped[-1] > 1e-9:
            deduped.append(r)
    points = [binary_point(r) for r in deduped]
    P = np.array([p.probs for p in points])
    _verified(P, f._rows(P))
    unique = len(points) == 1 and f.lipschitz_estimate() < 1.0
    return FixedPointSet(points, "piece-roots", unique_guaranteed=unique)


def linear_map_rows(A: np.ndarray, P: np.ndarray) -> np.ndarray:
    """f(P_r) = A_r P_r for every map of an (R, n, n) stack, as ``LinearMap._rows``."""
    return (P[:, None, :] @ np.swapaxes(A, 1, 2))[:, 0]


def linear_fixed_point_rows(A: np.ndarray):
    """Fixed points of an (R, n, n) column-stochastic stack (A not validated),
    as (R, n) rows of SimplexPoint probs: one stacked eig for the eigenvector
    of the eigenvalue nearest 1, then up to 50 power-iteration rounds, a row
    keeping its last iterate from the first round that would move it less
    than 1e-15.  A residual above ``_RESIDUAL_TOL`` raises.
    """
    R = A.shape[0]
    vals, vecs = np.linalg.eig(A)
    V = np.abs(np.real(vecs[range(R), :, np.argmin(np.abs(vals - 1.0), axis=1)]))
    # normalized twice, as SimplexPoint(v / v.sum()) does
    V = V / V.sum(axis=1, keepdims=True)
    V = V / V.sum(axis=1, keepdims=True)
    moving = np.ones(R, dtype=bool)
    for _ in range(50):
        W = np.clip((A @ V[:, :, None])[:, :, 0], 0.0, None)
        W /= W.sum(axis=1, keepdims=True)
        moving &= norm_rows(W - V) >= 1e-15
        if not moving.any():
            break
        V = np.where(moving[:, None], W, V)
    # finite nonnegative rows summing to 1: SimplexPoint(v) only renormalizes
    P = V / V.sum(axis=1, keepdims=True)
    return _verified(P, linear_map_rows(A, P))


def _verified(P: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Fixed points P with images F; IterationLimitError if some
    ||F_r - P_r|| > ``_RESIDUAL_TOL``."""
    residual = norm_rows(F - P)
    if residual.max() > _RESIDUAL_TOL:
        k = int(np.argmax(residual > _RESIDUAL_TOL))
        p = SimplexPoint(P[k], renormalize=False)
        raise IterationLimitError(f"candidate fixed point {p!r} has residual {residual[k]}", best=p)
    return P
