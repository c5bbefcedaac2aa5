"""Experiment runner: binary sweeps, max-accuracy curves, many-outcome
random-matrix trials, counterexample demonstrations, CSV/JSON emission.

Determinism contract: every trial derives its RNG stream from
SeedSequence([seed, trial_index]), and identical (command, seed) pairs
produce byte-identical output files on one platform and BLAS build.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .environment import (
    checked_stochastic,
    linear_fixed_point_rows,
    linear_map_rows,
    ramp_binary,
    shrink_to,
)
from .errors import InvalidArgumentError
from .scoring import ScoringRule, quadratic_rule
from .simplex import (
    SimplexPoint,
    checked_rows,
    norm_rows,
    sample_simplex_points,
    tangent_norm_rows,
    uniform_point,
    vertex,
)
from .solvers import (
    OBJECTIVE_TIE_TOL,
    _check_resolution,
    _quadratic_simplex_rows,
    performative_optimum,
)

STATUS_OK = "ok"

CSV_COLUMNS = (
    "env",
    "op_norm",
    "inaccuracy",
    "dist_to_fp",
    "dist_fp_uniform",
    "dist_report_uniform",
    "bound_Lf",
    "bound_pointwise",
    "runtime_ms",
    "status",
)

# distance-to-fixed-point entries are suppressed above this slope: the
# fixed point becomes numerically unstable as the map approaches identity
FP_DISTANCE_ALPHA_CAP = 0.95

# the binary sweep's windows: each starts at 2 * _WINDOW_HALF + 1 grid
# points around its candidate, and one array pass serves up to
# _CHUNK_CELLS cells, about 27 000 window points, whose arrays stay in
# cache (256 cells made the 9 x 21 sweeps about 1.3x and the 9 x 1001
# sweeps about 1.6x slower on a 2-CPU VM).  The rounding error of a value
# of T0 or D at a grid point stays below 1e-15 of max|T0| + max|D| over
# the grid (measured at 1e-6 on the quadratic, log and exponential rules,
# K up to 20), and _TABLE_ROUNDING of that magnitude bounds twice the
# error with room to spare
_WINDOW_HALF = 128
_CHUNK_CELLS = 32
_TABLE_ROUNDING = 1e-13


@dataclass
class ExperimentRecord:
    """Measured quantities for one environment trial."""

    env_descriptor: str
    op_norm: float
    inaccuracy: float
    dist_to_fp: float
    dist_fp_uniform: float
    dist_report_uniform: float
    bound_Lf: float
    bound_pointwise: float
    runtime_ms: float
    status: str
    report: Optional[list] = None
    fixed_point: Optional[list] = None
    logit_inaccuracy: Optional[float] = None


@dataclass
class SummaryStats:
    mean: float
    std: float
    q1: float
    q2: float
    q3: float

    @classmethod
    def of(cls, values: np.ndarray) -> "SummaryStats":
        v = np.asarray(values, dtype=float)
        q1, q2, q3 = np.percentile(v, [25.0, 50.0, 75.0])
        return cls(
            mean=float(v.mean()),
            std=float(v.std(ddof=1)) if v.size > 1 else 0.0,
            q1=float(q1),
            q2=float(q2),
            q3=float(q3),
        )


@dataclass
class LinearFit:
    intercept: float
    slope: float

    @classmethod
    def of(cls, x: np.ndarray, y: np.ndarray) -> "LinearFit":
        slope, intercept = np.polyfit(np.asarray(x), np.asarray(y), 1)
        return cls(intercept=float(intercept), slope=float(slope))


@dataclass
class ExperimentSummary:
    """Aggregate statistics over the ok records of a many-outcome run."""

    inaccuracy: Optional[SummaryStats]
    dist_to_fp: Optional[SummaryStats]
    slack_Lf: Optional[SummaryStats]
    slack_pointwise: Optional[SummaryStats]
    correlations: Optional[dict]
    fits: Optional[dict]
    n_ok: int
    n_timeout: int


def binary_sweep(
    rule: ScoringRule,
    alpha_grid,
    pstar_grid,
    resolution: float = 1e-6,
) -> list:
    """Optimal reports for affine binary maps across (slope, fixed point).

    Each cell reports the grid oracle's answer at ``resolution``: the
    first grid point within 1e-12 of the grid maximum, bit for bit as
    ``grid_optimum_binary`` would find it on the cell's own map.  Neither
    the grid nor a table over it is built: grid points are computed from
    their indices (``_Grid``).  Every cell's candidates, the grid's ends and
    the stationary points of phi, come from one call of the rule's row
    kernel ``_line_critical_rows`` over all cells.  The objective is
    evaluated only on windows of the grid around the candidates, for up to
    ``_CHUNK_CELLS`` cells in one array pass, and a cell's windows grow 4x
    until one of two stop rules settles its answer (see
    ``_cells_argmax``).  Each cell records
    inaccuracy, distance to the fixed point (slopes <= 0.95 only),
    distances to uniform, and both accuracy bounds.  The log rule
    additionally records the logit-scale inaccuracy.  ``runtime_ms`` is
    the sweep's wall time shared evenly over its cells.
    """
    if rule.n != 2:
        raise InvalidArgumentError("the binary sweep needs a binary rule")
    _check_resolution(resolution)
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    pstar_grid = np.asarray(pstar_grid, dtype=float)
    if not np.all((alpha_grid >= 0.0) & (alpha_grid <= 1.0)):
        raise InvalidArgumentError("sweep slopes must lie in [0, 1]")
    if not np.all((pstar_grid >= 0.0) & (pstar_grid <= 1.0)):
        raise InvalidArgumentError("sweep fixed points must lie in [0, 1]")
    t0 = time.perf_counter()
    xs = _Grid(rule, resolution)
    ends = xs[[0, xs.size - 1]]
    lo, hi = ends.tolist()
    slack = _rounding_slack(rule, ends)
    # cell k's map is f1(x) = slopes[k] x + offsets[k], offset s (1 - alpha)
    slopes = np.repeat(alpha_grid, pstar_grid.size)
    offsets = np.tile(pstar_grid, alpha_grid.size) * (1.0 - slopes)
    # every cell's candidates: the grid's ends and phi's stationary points
    k = np.arange(slopes.size)
    at, found = rule._line_critical_rows(slopes, offsets, lo, hi)
    cell = np.concatenate([k, k, at])
    order = np.argsort(cell)
    cell = cell[order]
    cands = np.concatenate([np.full(k.size, lo), np.full(k.size, hi), found])[order]
    reports = np.empty(slopes.size)
    for start in range(0, slopes.size, _CHUNK_CELLS):
        chunk = slice(start, start + _CHUNK_CELLS)
        i, j = np.searchsorted(cell, [start, start + _CHUNK_CELLS])
        reports[chunk] = xs[_cells_argmax(rule, xs, slopes[chunk], offsets[chunk],
                                          cell[i:j] - start, cands[i:j], slack)]
    runtime_ms = (time.perf_counter() - t0) * 1e3 / max(slopes.size, 1)
    records = []
    cells = iter(reports.tolist())
    for alpha in alpha_grid:
        for s in pstar_grid:
            x = next(cells)
            fx = s + alpha * (x - s)
            inaccuracy = math.sqrt(2.0) * abs(fx - x)
            dist_fp = (
                math.sqrt(2.0) * abs(x - s)
                if alpha <= FP_DISTANCE_ALPHA_CAP
                else float("nan")
            )
            logit_inacc = None
            if rule.interior_reports:
                if 0.0 < x < 1.0 and 0.0 < fx < 1.0:
                    logit_inacc = abs(
                        math.log(x / (1.0 - x)) - math.log(fx / (1.0 - fx))
                    )
                else:
                    logit_inacc = float("nan")
            records.append(
                ExperimentRecord(
                    env_descriptor=f"affine:p1={s:.17g},alpha={alpha:.17g}",
                    op_norm=float(alpha),
                    inaccuracy=inaccuracy,
                    dist_to_fp=dist_fp,
                    dist_fp_uniform=math.sqrt(2.0) * abs(s - 0.5),
                    dist_report_uniform=math.sqrt(2.0) * abs(x - 0.5),
                    bound_Lf=rule.bound_rate * alpha,
                    bound_pointwise=rule._bound_rate_at(x) * alpha,
                    runtime_ms=runtime_ms,
                    status=STATUS_OK,
                    report=[x, 1.0 - x],
                    fixed_point=[s, 1.0 - s],
                    logit_inaccuracy=logit_inacc,
                )
            )
    return records


class _Grid:
    """The points of ``solvers._binary_grid(rule, resolution)``, computed
    from their indices.  That grid is np.linspace(0, 1, N + 1), N =
    round(1 / resolution), whose point i is i * (1 / N) + 0.0 and whose last
    point is exactly 1.0; the log rule's mask keeps the index range whose
    points lie in [resolution, 1 - resolution].  ``size``, ``searchsorted``
    and indexing by index arrays are the grid array's own."""

    def __init__(self, rule, resolution):
        self.N = int(round(1.0 / resolution))
        self.step = 1.0 / self.N
        self.first, end = 0, self.N + 1
        if rule.interior_reports:
            cut = np.array([resolution, 1.0 - resolution])
            self.first = int(self._count(cut, np.less)[0])
            end = int(self._count(cut, np.less_equal)[1])
        self.size = end - self.first

    def _at(self, i):
        # + 0.0 changes no bit of a product i * (1 / N) >= 0
        x = i * self.step
        x[i == self.N] = 1.0
        return x

    def _count(self, v, below):
        """How many points x of the whole grid have below(x, v), per entry
        of the array v: the estimate ceil(v N) moved one index at a time
        until it holds."""
        i = np.clip(np.ceil(v * self.N), 0, self.N + 1).astype(np.intp)
        while True:
            down = (i > 0) & ~below(self._at(i - 1), v)
            up = (i <= self.N) & below(self._at(i), v)
            if not (down.any() or up.any()):
                return i
            i = i - down + up

    def searchsorted(self, v):
        return np.clip(self._count(v, np.less) - self.first, 0, self.size)

    def __getitem__(self, idx):
        return self._at(np.asarray(idx) + self.first)


def _rounding_slack(rule, xs) -> float:
    """_TABLE_ROUNDING of max|T0| + max|D| over the grid ``xs`` (the grid
    or its two ends), at least _TABLE_ROUNDING.  S is affine in the belief,
    phi(x) = T0(x) + f1(x) D(x); T0 and D are monotone on [0, 1] for every
    rule family, so their largest magnitudes over the grid sit at its ends."""
    T0 = rule.binary_objective_grid(xs[[0, -1]], 0.0)
    D = rule.binary_objective_grid(xs[[0, -1]], 1.0) - T0
    return _TABLE_ROUNDING * max(1.0, float(np.abs(T0).max() + np.abs(D).max()))


def _cells_argmax(rule, xs, alpha, c, cell, cands, slack) -> np.ndarray:
    """Per cell k, ``_first_argmax`` of phi = (T0 + (alpha[k] xs) D) +
    c[k] D over the whole grid ``xs``, from windows around the cell's
    candidates ``cands[cell == k]``; returns grid indices.

    phi is monotone between consecutive candidates, and each window holds
    the grid points on both sides of its candidate, so each value outside
    the windows is at most its larger bordering window edge plus
    ``slack``, which bounds twice the rounding error of a value of T0 or
    D.  Let top be a cell's maximum over its windows, line = top -
    OBJECTIVE_TIE_TOL - slack, and h its first window point at or above
    top - OBJECTIVE_TIE_TOL.  The grid's answer is h once either
      - every window edge that borders an unevaluated gap is below line:
        nothing outside the windows reaches top - OBJECTIVE_TIE_TOL; or
      - phi(h) >= top + slack - OBJECTIVE_TIE_TOL and every such edge
        before h is below line: the grid maximum is at most top + slack,
        so h ties with it and nothing before h does.
    Otherwise the windows with an edge at or above line grow 4x.  Each
    value is computed by the full scan's expression on the gathered grid
    points, so it is the full scan's value, bit for bit.
    """
    n = xs.size
    centers = xs.searchsorted(cands)
    b = np.maximum(centers - _WINDOW_HALF, 0)
    e = np.minimum(centers + _WINDOW_HALF + 1, n)
    out = np.empty(alpha.size, dtype=np.intp)
    while cell.size:
        # merge each cell's overlapping or touching windows, in grid order;
        # reach is the furthest end so far within the cell
        order = np.lexsort((b, cell))
        cell, b, e = cell[order], b[order], e[order]
        base = cell * (n + 1)
        reach = np.maximum.accumulate(base + e) - base
        opens = np.ones(cell.size, dtype=bool)
        opens[1:] = (cell[1:] != cell[:-1]) | (b[1:] > reach[:-1])
        w = np.flatnonzero(opens)
        cell, b, e = cell[w], b[w], reach[np.append(w[1:], cell.size) - 1]
        # phi at every window point, windows laid end to end
        size = e - b
        first = np.cumsum(size) - size
        idx = np.arange(first[-1] + size[-1]) + np.repeat(b - first, size)
        x = xs[idx]
        T0 = rule.binary_objective_grid(x, 0.0)
        D = rule.binary_objective_grid(x, 1.0) - T0
        at = np.repeat(cell, size)
        phi = (T0 + (alpha[at] * x) * D) + c[at] * D
        # per cell still open: top, its first point h at or above top -
        # OBJECTIVE_TIE_TOL, and the window hw that holds h; heads are the
        # cells' first windows and rank maps each window to its cell
        opens = np.r_[True, cell[1:] != cell[:-1]]
        heads = np.flatnonzero(opens)
        rank = np.cumsum(opens) - 1
        top = np.maximum.reduceat(phi, first[heads])
        hits = np.flatnonzero(phi >= top[np.repeat(rank, size)] - OBJECTIVE_TIE_TOL)
        h = hits[np.r_[True, at[hits[1:]] != at[hits[:-1]]]]
        hw = np.searchsorted(first, h, "right")[rank] - 1
        # window edges that border an unevaluated gap and reach the line;
        # the two stop rules of the docstring
        line = (top - OBJECTIVE_TIE_TOL - slack)[rank]
        hot_b = (b > 0) & (phi[first] >= line)
        hot_e = (e < n) & (phi[first + size - 1] >= line)
        grow = hot_b | hot_e
        w = np.arange(cell.size)
        before_h = (hot_b & (w <= hw)) | (hot_e & (w < hw))
        done = ~np.logical_or.reduceat(before_h, heads) & (
            ~np.logical_or.reduceat(grow, heads)
            | (phi[h] >= top + slack - OBJECTIVE_TIE_TOL)
        )
        out[cell[heads[done]]] = idx[h[done]]
        keep = ~done[rank]
        pad = np.where(grow, 3 * size // 2, 0)[keep]
        cell, b, e = cell[keep], np.maximum(b[keep] - pad, 0), np.minimum(e[keep] + pad, n)
    return out


@dataclass
class MaxCurveRow:
    alpha: float
    max_inaccuracy: float
    max_dist_to_fp: float
    bound_inaccuracy: float
    bound_dist: float


def pstar_grid(step: float) -> np.ndarray:
    """The fixed-point grid 0, step, 2 step, ... through 1."""
    if not (math.isfinite(step) and step > 0.0):
        raise InvalidArgumentError(f"fixed-point grid step must be finite and > 0, got {step}")
    return np.arange(0.0, 1.0 + 0.5 * step, step)


def max_curves(
    rule: ScoringRule,
    alpha_grid,
    pstar_step: float = 1e-3,
    resolution: float = 1e-6,
) -> list:
    """Worst-case curves over the fixed-point location, with theory overlays.

    For each slope, maximizes inaccuracy and distance-to-fixed-point over
    the fixed-point grid and pairs them with the global bounds (the
    distance overlay diverges as the slope approaches 1).  One sweep
    covers every slope.
    """
    if pstar_step > 1e-3:
        raise InvalidArgumentError("fixed-point grid step must be <= 1e-3")
    pstars = pstar_grid(pstar_step)
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    records = binary_sweep(rule, alpha_grid, pstars, resolution)
    rows = []
    for k, alpha in enumerate(alpha_grid):
        cells = records[k * pstars.size:(k + 1) * pstars.size]
        dists = [r.dist_to_fp for r in cells if not math.isnan(r.dist_to_fp)]
        rows.append(
            MaxCurveRow(
                alpha=float(alpha),
                max_inaccuracy=max(r.inaccuracy for r in cells),
                max_dist_to_fp=max(dists) if dists else float("nan"),
                bound_inaccuracy=rule.bound_rate * alpha,
                bound_dist=rule.bound_rate * alpha / (1.0 - alpha)
                if alpha < 1.0
                else float("inf"),
            )
        )
    return rows


# -- many-outcome experiment ----------------------------------------------------


def summarize_records(records: list) -> ExperimentSummary:
    """Statistics over the ok records.

    Every statistic is None when no record is ok; a correlation or a fit
    is None while one of its variables takes a single value (as with one
    ok record).
    """
    ok = [r for r in records if r.status == STATUS_OK]
    n_timeout = len(records) - len(ok)
    if not ok:
        return ExperimentSummary(None, None, None, None, None, None, 0, n_timeout)
    inacc = np.array([r.inaccuracy for r in ok])
    dfp = np.array([r.dist_to_fp for r in ok])
    opn = np.array([r.op_norm for r in ok])
    dfu = np.array([r.dist_fp_uniform for r in ok])
    slack_L = np.array([r.bound_Lf - r.inaccuracy for r in ok])
    slack_p = np.array([r.bound_pointwise - r.inaccuracy for r in ok])

    def corr(a, b):
        if np.ptp(a) == 0.0 or np.ptp(b) == 0.0:
            return None
        return float(np.corrcoef(a, b)[0, 1])

    def fit(x, y):
        return LinearFit.of(x, y) if np.ptp(x) > 0.0 else None

    return ExperimentSummary(
        inaccuracy=SummaryStats.of(inacc),
        dist_to_fp=SummaryStats.of(dfp),
        slack_Lf=SummaryStats.of(slack_L),
        slack_pointwise=SummaryStats.of(slack_p),
        correlations={
            "op_norm_vs_inaccuracy": corr(opn, inacc),
            "op_norm_vs_dist_to_fp": corr(opn, dfp),
            "dist_fp_uniform_vs_inaccuracy": corr(dfu, inacc),
            "dist_fp_uniform_vs_dist_to_fp": corr(dfu, dfp),
            "inaccuracy_vs_dist_to_fp": corr(inacc, dfp),
        },
        fits={
            "inaccuracy_on_op_norm": fit(opn, inacc),
            "dist_to_fp_on_op_norm": fit(opn, dfp),
        },
        n_ok=len(ok),
        n_timeout=n_timeout,
    )


def many_outcome_experiment(
    n: int,
    trials: int,
    seed: int,
    jobs: int = 1,
):
    """Random column-stochastic linear environments under the quadratic rule.

    Trial i draws A from SeedSequence([seed, i]) as ``random_linear`` does.
    All trials then run as one array program on the (trials, n, n) stack:
    one SVD, one eig with its power polish, one support enumeration and row
    arithmetic.  Each record equals the single-map calls' results for its
    trial, bit for bit; ``runtime_ms`` is the batch's wall time shared
    evenly.  ``jobs`` is accepted and ignored.
    """
    if n < 3:
        raise InvalidArgumentError("the many-outcome experiment needs n >= 3")
    if trials < 1:
        raise InvalidArgumentError("trials must be >= 1")
    t0 = time.perf_counter()
    cols = np.stack([
        sample_simplex_points(n, n, np.random.default_rng(np.random.SeedSequence([seed, i])))
        for i in range(trials)
    ])
    # each A_r is the transposed view of its draw, laid out as random_linear
    # lays it out, so every BLAS call sees the same operands
    A = checked_stochastic(np.swapaxes(cols, 1, 2))
    op_norm = tangent_norm_rows(A)
    fp = linear_fixed_point_rows(A)
    P = checked_rows(_quadratic_simplex_rows(A + np.swapaxes(A, 1, 2) - np.eye(n)))
    u = uniform_point(n).probs
    rule = quadratic_rule(n)
    # the quadratic rule's modulus gamma_p is min_gamma() at every p
    stats = np.column_stack([
        op_norm,
        norm_rows(checked_rows(linear_map_rows(A, P)) - P),
        norm_rows(P - fp),
        norm_rows(fp - u),
        norm_rows(P - u),
        op_norm * (rule.max_subgradient_norm() / rule.min_gamma()),
        op_norm * (norm_rows(rule._subgradient_rows(P)) / rule.min_gamma()),
    ]).tolist()
    runtime_ms = (time.perf_counter() - t0) * 1e3 / trials
    records = [
        # the fields in CSV column order, from op_norm to bound_pointwise
        ExperimentRecord(f"linear:seed={seed},trial={i},n={n}", *stats[i], runtime_ms,
                         STATUS_OK, P[i].tolist(), fp[i].tolist())
        for i in range(trials)
    ]
    return records, summarize_records(records)


# -- counterexamples -------------------------------------------------------------


@dataclass
class CounterexampleReport:
    """A shrink-map environment whose unique fixed point is outscored."""

    alpha: float
    crossing_alpha: float
    p_prime: SimplexPoint
    fixed_point: SimplexPoint
    score_gap: float


def counterexample_demo(
    rule: ScoringRule, p_star: SimplexPoint, n: int = None
) -> CounterexampleReport:
    """Exhibit a contraction toward p* whose fixed point is not optimal.

    Picks an interior report p' with strictly higher potential than p*.
    Under f(p) = (1 - a) p + a p*, phi(p') = (1 - a) G(p') + a S(p', p*) is
    affine in a, so p' stops beating the honest score G(p*) at the crossing
    a = (G(p') - G(p*)) / (G(p') - S(p', p*)), clipped to 1; any rate below
    it leaves the unique fixed point p* suboptimal.  Existence is
    guaranteed for every strictly proper rule and interior p*.
    """
    n = p_star.n if n is None else n
    if n != p_star.n or rule.n != n:
        raise InvalidArgumentError("dimension mismatch between rule and p*")
    if not p_star.is_interior():
        raise InvalidArgumentError("the counterexample needs an interior p*")
    nudge = 1e-3
    candidates = []
    for i in range(n):
        v = vertex(n, i).probs * (1.0 - nudge) + nudge / n
        candidates.append(SimplexPoint(v / v.sum()))
    base = rule.potential(p_star)
    p_prime = max(candidates, key=rule.potential)
    top = rule.potential(p_prime)
    if top <= base:
        raise InvalidArgumentError(f"potential not improvable from {p_star!r}")
    crossing = min(1.0, (top - base) / (top - rule.expected_score(p_prime, p_star)))
    alpha = 0.5 * crossing
    env = shrink_to(p_star, alpha)
    return CounterexampleReport(
        alpha=alpha,
        crossing_alpha=crossing,
        p_prime=p_prime,
        fixed_point=p_star,
        score_gap=rule.expected_score(p_prime, env.eval(p_prime)) - base,
    )


@dataclass
class RampDemoReport:
    """Optimal report versus fixed point for a near-identity saturating ramp."""

    zeta: float
    eps: float
    ramp_start: float
    report: SimplexPoint
    fixed_point: SimplexPoint
    dist_p1: float
    threshold: float


def ramp_distance_demo(rule: ScoringRule, zeta: float, eps: float) -> RampDemoReport:
    """Show that near-identity maps allow optima almost maximally far from
    the unique fixed point: the distance is at least 1 - zeta - 2 * start
    in first-coordinate terms."""
    env = ramp_binary(zeta, eps)
    start = float(env.eval1(0.0))  # f1(0), the ramp's start value
    solved = performative_optimum(rule, env)
    fp = env.exact_fixed_point()
    return RampDemoReport(
        zeta=zeta,
        eps=eps,
        ramp_start=start,
        report=solved.report,
        fixed_point=fp,
        dist_p1=abs(solved.report[0] - fp[0]),
        threshold=1.0 - zeta - 2.0 * start,
    )


# -- emission ---------------------------------------------------------------------


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, str):
        # standard CSV quoting for fields carrying commas (env descriptors)
        return f'"{x}"' if "," in x else x
    if isinstance(x, (list, tuple)):
        return ";".join(format(float(v), ".17g") for v in x)
    return format(float(x), ".17g")


def records_to_csv(records: list) -> str:
    """Render experiment records with the fixed documented column order."""
    has_logit = any(r.logit_inaccuracy is not None for r in records)
    columns = CSV_COLUMNS + (("logit_inaccuracy",) if has_logit else ())
    fields = ("env_descriptor",) + columns[1:]
    lines = [",".join(columns)]
    lines += [",".join(_fmt(getattr(r, f)) for f in fields) for r in records]
    return "\n".join(lines) + "\n"


def max_curves_to_csv(rows: list) -> str:
    fields = [f.name for f in dataclasses.fields(MaxCurveRow)]
    lines = [",".join(fields)]
    lines += [",".join(_fmt(getattr(r, f)) for f in fields) for r in rows]
    return "\n".join(lines) + "\n"


def _plain(o):
    """``o`` as builtin JSON values, with None for NaN and +-inf."""
    if dataclasses.is_dataclass(o) and not isinstance(o, type):
        o = dataclasses.asdict(o)
    elif isinstance(o, SimplexPoint):
        o = o.probs
    if isinstance(o, np.ndarray):
        o = o.tolist()
    elif isinstance(o, (np.floating, np.integer)):
        o = o.item()
    if isinstance(o, dict):
        return {k: _plain(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_plain(v) for v in o]
    if isinstance(o, float) and not math.isfinite(o):
        return None
    return o


def to_json(payload) -> str:
    """Deterministic strict JSON with full float round-trip fidelity.

    Non-finite floats are written as ``null``.
    """
    return json.dumps(_plain(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def emit(payload, fmt: str) -> str:
    """Render records/stats as csv or json text."""
    if fmt == "json":
        return to_json(payload)
    if fmt != "csv":
        raise InvalidArgumentError(f"unknown format {fmt!r}")
    if isinstance(payload, list) and payload and isinstance(payload[0], MaxCurveRow):
        return max_curves_to_csv(payload)
    if isinstance(payload, list) and all(isinstance(r, ExperimentRecord) for r in payload):
        return records_to_csv(payload)
    raise InvalidArgumentError(f"cannot render {type(payload)} as csv")
