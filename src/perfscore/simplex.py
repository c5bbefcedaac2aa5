"""Geometry and linear algebra on the probability simplex.

The probability simplex over n outcomes is Delta(n) = {p >= 0, sum p = 1}.
Directions of motion inside it live in the tangent space
T = {x in R^n : sum x = 0}.  Matrices that act on predictions (Jacobians of
simplex maps, Hessians of scoring-rule potentials) are meaningful only
through their action on T, and their R^(n,n) representation is not unique.
All spectral quantities here are therefore computed after conjugating with
the centering projector Pi = I - (1/n) 11^T and restricting to an
orthonormal basis of T, which makes every representation agree.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import InvalidArgumentError

# Constructor tolerances: sums are checked to SUM_TOL, tiny negative entries
# above -CLAMP_TOL are clamped to zero and the vector renormalized.  Optimizer
# iterates accumulate rounding on the boundary, so exact nonnegativity is
# enforced by clamping rather than rejection.
SUM_TOL = 1e-9
CLAMP_TOL = 1e-12


def _as_finite_vector(values, name="input"):
    v = np.asarray(values, dtype=float)
    if v.ndim != 1:
        raise InvalidArgumentError(f"{name} must be a 1-d vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise InvalidArgumentError(f"{name} must be finite, got {v}")
    return v


class SimplexPoint:
    """A probability vector over n >= 2 outcomes.

    Immutable.  Entries within -1e-12 of zero are clamped to 0 and the
    vector is renormalized (unless ``renormalize=False``); sums further
    than 1e-9 from 1 are rejected.
    """

    __slots__ = ("_probs",)

    def __init__(self, probs, *, renormalize=True):
        v = _as_finite_vector(probs, "probs")
        if v.size < 2:
            raise InvalidArgumentError("a simplex point needs n >= 2 outcomes")
        if np.any(v < -CLAMP_TOL):
            raise InvalidArgumentError(f"negative probability in {v}")
        if abs(v.sum() - 1.0) > SUM_TOL:
            raise InvalidArgumentError(f"probabilities sum to {v.sum()}, not 1")
        v = np.clip(v, 0.0, None)
        if renormalize:
            v = v / v.sum()
        v.flags.writeable = False
        self._probs = v

    @property
    def probs(self) -> np.ndarray:
        return self._probs

    @property
    def n(self) -> int:
        return self._probs.size

    def is_interior(self, margin: float = 0.0) -> bool:
        return bool(np.all(self._probs > margin))

    def __len__(self):
        return self._probs.size

    def __getitem__(self, i):
        return self._probs[i]

    def __iter__(self):
        return iter(self._probs)

    def __repr__(self):
        return f"SimplexPoint({np.array2string(self._probs, precision=6)})"

    def __eq__(self, other):
        if not isinstance(other, SimplexPoint):
            return NotImplemented
        return self._probs.shape == other._probs.shape and bool(
            np.all(self._probs == other._probs)
        )

    def __hash__(self):
        return hash(self._probs.tobytes())


class TangentVector:
    """A direction in the tangent space T (entries sum to zero). Immutable."""

    __slots__ = ("_comps",)

    def __init__(self, comps):
        v = _as_finite_vector(comps, "comps")
        if abs(v.sum()) > SUM_TOL * max(1.0, float(np.abs(v).max(initial=0.0))):
            raise InvalidArgumentError(f"tangent components sum to {v.sum()}, not 0")
        v = v.copy()
        v.flags.writeable = False
        self._comps = v

    @property
    def comps(self) -> np.ndarray:
        return self._comps

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self._comps))

    def __len__(self):
        return self._comps.size

    def __getitem__(self, i):
        return self._comps[i]

    def __repr__(self):
        return f"TangentVector({np.array2string(self._comps, precision=6)})"


def uniform_point(n: int) -> SimplexPoint:
    """The barycenter (1/n, ..., 1/n), entry for entry: not renormalized,
    since n copies of the rounded 1/n need not sum to exactly 1."""
    if n < 2:
        raise InvalidArgumentError("n must be >= 2")
    return SimplexPoint(np.full(n, 1.0 / n), renormalize=False)


def vertex(n: int, i: int) -> SimplexPoint:
    """The i-th vertex e_i of Delta(n)."""
    if not 0 <= i < n:
        raise InvalidArgumentError(f"vertex index {i} out of range for n={n}")
    v = np.zeros(n)
    v[i] = 1.0
    return SimplexPoint(v)


def binary_point(p1: float) -> SimplexPoint:
    """Convenience constructor for (p1, 1 - p1)."""
    return SimplexPoint([p1, 1.0 - p1])


def project_raw(v) -> list:
    """Sort-and-shift simplex projection of a bare sequence of floats (no
    validation), as a list of Python floats.

    Small vectors project faster on floats than through numpy calls.  Each
    result equals that row of ``project_rows``: the operations and their
    order are the same, except that numpy adds the renormalizing total of
    n >= 8 entries in eight lanes.
    """
    u = sorted(v, reverse=True)
    # for inputs so large that u[0] - (u[0] - 1) rounds to 0, no k passes
    # and the support collapses to the single top coordinate
    theta = u[0] - 1.0
    css = 0.0
    for k, x in enumerate(u, 1):
        css += x
        shift = (css - 1.0) / k
        if x - shift > 0:
            theta = shift
    out = [x - theta if x - theta > 0.0 else 0.0 for x in v]
    total = 0.0
    for x in out:
        total += x
    if total <= 0.0:
        out = [0.0] * len(out)
        out[max(range(len(out)), key=v.__getitem__)] = 1.0
        return out
    return [x / total for x in out] if abs(total - 1.0) > 1e-9 else out


def project_shrunk_raw(v, margin: float) -> list:
    """``project_raw`` onto {p in Delta : p_i >= margin}, for a feasible
    margin (no validation): the shrunk simplex is translated onto the
    standard one, the point projected there and mapped back."""
    if margin == 0.0:
        return project_raw(v)
    scale = 1.0 - len(v) * margin
    return [margin + scale * x for x in project_raw([(x - margin) / scale for x in v])]


def project_rows(V: np.ndarray) -> np.ndarray:
    """``project_raw`` applied to every row of an (R, n) array at once.

    Row-wise sort-and-shift (Duchi et al. 2008; Condat 2016) with the same
    arithmetic as ``project_raw``, so each row equals the 1-D result.  No
    validation; ``checked_rows`` applies the constructor checks.
    """
    R, n = V.shape
    U = np.sort(V, axis=1)[:, ::-1]
    css = np.cumsum(U, axis=1) - 1.0
    ks = np.arange(1, n + 1)
    # last index where the condition holds; a row with no hit keeps index 0
    rho = np.where(U - css / ks > 0, ks, 1).max(axis=1) - 1
    theta = css[np.arange(R), rho] / (rho + 1.0)
    out = np.maximum(V - theta[:, None], 0.0)
    total = out.sum(axis=1)
    empty = total <= 0.0
    if empty.any():
        out[empty] = 0.0
        out[empty, np.argmax(V[empty], axis=1)] = 1.0
        total[empty] = 1.0
    off = np.abs(total - 1.0) > 1e-9
    if off.any():
        out[off] /= total[off, None]
    return out


def checked_rows(V: np.ndarray) -> np.ndarray:
    """The ``SimplexPoint`` constructor's checks and clamping, row by row.

    Raises ``InvalidArgumentError`` for a non-finite entry, an entry below
    -1e-12 or a row sum further than 1e-9 from 1; otherwise returns the
    clamped, renormalized rows, each equal to ``SimplexPoint(row).probs``.
    """
    # NaN fails every comparison; entries of a valid row lie in
    # [-CLAMP_TOL, 2], so the row sums are taken only once that holds
    low = V.min()
    sums = None
    if low >= -CLAMP_TOL and V.max() <= 2.0:
        sums = V.sum(axis=1)
    if sums is None or not np.abs(sums - 1.0).max() <= SUM_TOL:
        for row in V:
            SimplexPoint(row)  # raises the constructor's own error
    if low < 0.0:
        V = np.maximum(V, 0.0)
        sums = V.sum(axis=1)
    return V / sums[:, None]


def project_to_simplex(v) -> SimplexPoint:
    """Euclidean projection onto the probability simplex.

    Sort-and-shift algorithm: find the largest shift theta such that
    max(v + theta, 0) sums to one.  Idempotent and nonexpansive.
    """
    v = _as_finite_vector(v)
    if v.size < 2:
        raise InvalidArgumentError("projection needs n >= 2")
    return SimplexPoint(project_raw(v.tolist()))


def project_to_shrunk_simplex(v, margin: float) -> SimplexPoint:
    """Euclidean projection onto {p in Delta : p_i >= margin for all i}.

    Used by online learners that must keep log scores finite.
    """
    v = _as_finite_vector(v)
    n = v.size
    if margin < 0 or margin * n >= 1.0:
        raise InvalidArgumentError(f"margin {margin} infeasible for n={n}")
    if n < 2:
        raise InvalidArgumentError("projection needs n >= 2")
    return SimplexPoint(project_shrunk_raw(v.tolist(), margin))


def tangent_project(v) -> TangentVector:
    """Orthogonal projection onto T: subtract the mean from every entry."""
    v = _as_finite_vector(v)
    return TangentVector(v - v.mean())


def l2_distance(p: SimplexPoint, q: SimplexPoint) -> float:
    """Euclidean distance between two predictions."""
    if p.n != q.n:
        raise InvalidArgumentError(f"dimension mismatch: {p.n} vs {q.n}")
    return float(np.linalg.norm(p.probs - q.probs))


def norm_rows(V: np.ndarray) -> np.ndarray:
    """Euclidean norm of every row of an (R, n) array, each equal to
    ``np.linalg.norm(row)``: the same BLAS dot product, row by row."""
    return np.sqrt((V[:, None, :] @ V[:, :, None])[:, 0, 0])


@functools.lru_cache(maxsize=None)
def tangent_basis(n: int) -> np.ndarray:
    """An n x (n-1) orthonormal basis of T (Helmert construction), built once
    per n and read-only."""
    if n < 2:
        raise InvalidArgumentError("n must be >= 2")
    B = np.zeros((n, n - 1))
    for k in range(1, n):
        B[:k, k - 1] = 1.0
        B[k, k - 1] = -float(k)
        B[:, k - 1] /= math.sqrt(k * (k + 1.0))
    B.flags.writeable = False
    return B


def _checked_square(M) -> np.ndarray:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidArgumentError(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise InvalidArgumentError("matrix entries must be finite")
    return M


def _restrict_to_tangent(M: np.ndarray) -> np.ndarray:
    """B^T M B, B the ``tangent_basis``, for a matrix or an (R, n, n) stack."""
    B = tangent_basis(M.shape[-1])
    return B.T @ M @ B


def tangent_norm_rows(M: np.ndarray) -> np.ndarray:
    """``tangent_operator_norm`` of a matrix or of each in a stack (no checks)."""
    return np.linalg.svd(_restrict_to_tangent(M), compute_uv=False)[..., 0]


def tangent_operator_norm(M) -> float:
    """Largest singular value of M as an operator on the tangent space.

    Conjugation by the centering projector makes the answer independent of
    which R^(n,n) representation of the operator was supplied.
    """
    return float(tangent_norm_rows(_checked_square(M)))


def tangent_min_eigenvalue(M) -> float:
    """Smallest eigenvalue of the symmetrized restriction of M to T."""
    MT = _restrict_to_tangent(_checked_square(M))
    MT = 0.5 * (MT + MT.T)
    return float(np.linalg.eigvalsh(MT)[0])


def sample_simplex_points(n: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """count x n array of independent uniform draws from Delta(n)."""
    cuts = np.sort(rng.random((count, n - 1)), axis=1)
    padded = np.hstack(
        [np.zeros((count, 1)), cuts, np.ones((count, 1))]
    )
    return np.diff(padded, axis=1)
