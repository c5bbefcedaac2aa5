"""Experiment runner: binary sweeps, max-accuracy curves, many-outcome
random-matrix trials, counterexample demonstrations, CSV/JSON emission.

Determinism contract: every trial derives its RNG stream from
SeedSequence([seed, trial_index]), so results are identical regardless of
worker count or scheduling, and identical (command, seed) pairs produce
byte-identical output files.
"""

from __future__ import annotations

import dataclasses
import json
import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .environment import find_fixed_points, ramp_binary, random_linear, shrink_to
from .errors import InvalidArgumentError
from .scoring import ScoringRule, quadratic_rule
from .simplex import (
    SimplexPoint,
    l2_distance,
    tangent_operator_norm,
    uniform_point,
    vertex,
)
from .solvers import _binary_grid, _first_argmax, performative_optimum

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

    Each cell solves the brute-force grid oracle at ``resolution`` and
    records inaccuracy, distance to the fixed point (slopes <= 0.95 only),
    distances to uniform, and both accuracy bounds.  The log rule
    additionally records the logit-scale inaccuracy.
    """
    if rule.n != 2:
        raise InvalidArgumentError("the binary sweep needs a binary rule")
    alpha_grid = np.asarray(alpha_grid, dtype=float)
    pstar_grid = np.asarray(pstar_grid, dtype=float)
    if np.any(alpha_grid < 0.0) or np.any(alpha_grid > 1.0):
        raise InvalidArgumentError("sweep slopes must lie in [0, 1]")
    xs = _binary_grid(rule, resolution)
    # S is affine in the belief: phi(x) = T0(x) + f1(x) D(x) with
    # f1(x) = alpha x + s (1 - alpha), so each slope needs one table and
    # each fixed point one fused multiply-add per grid point
    T0 = rule.binary_objective_grid(xs, 0.0)
    D = rule.binary_objective_grid(xs, 1.0) - T0
    records = []
    for alpha in alpha_grid:
        base = T0 + (alpha * xs) * D
        for s in pstar_grid:
            t0 = time.perf_counter()
            idx = _first_argmax(base + (s * (1.0 - alpha)) * D)
            x = float(xs[idx])
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
                    runtime_ms=(time.perf_counter() - t0) * 1e3,
                    status=STATUS_OK,
                    report=[x, 1.0 - x],
                    fixed_point=[s, 1.0 - s],
                    logit_inaccuracy=logit_inacc,
                )
            )
    return records


@dataclass
class MaxCurveRow:
    alpha: float
    max_inaccuracy: float
    max_dist_to_fp: float
    bound_inaccuracy: float
    bound_dist: float


def max_curves(
    rule: ScoringRule,
    alpha_grid,
    pstar_step: float = 1e-3,
    resolution: float = 1e-6,
) -> list:
    """Worst-case curves over the fixed-point location, with theory overlays.

    For each slope, maximizes inaccuracy and distance-to-fixed-point over
    the fixed-point grid and pairs them with the global bounds (the
    distance overlay diverges as the slope approaches 1).
    """
    if pstar_step > 1e-3:
        raise InvalidArgumentError("fixed-point grid step must be <= 1e-3")
    pstar_grid = np.arange(0.0, 1.0 + 0.5 * pstar_step, pstar_step)
    rows = []
    for alpha in np.asarray(alpha_grid, dtype=float):
        records = binary_sweep(rule, [alpha], pstar_grid, resolution)
        inacc = max(r.inaccuracy for r in records)
        dists = [r.dist_to_fp for r in records if not math.isnan(r.dist_to_fp)]
        rows.append(
            MaxCurveRow(
                alpha=float(alpha),
                max_inaccuracy=inacc,
                max_dist_to_fp=max(dists) if dists else float("nan"),
                bound_inaccuracy=rule.bound_rate * alpha,
                bound_dist=rule.bound_rate * alpha / (1.0 - alpha)
                if alpha < 1.0
                else float("inf"),
            )
        )
    return rows


# -- many-outcome experiment ----------------------------------------------------


def _run_linear_trial(args):
    """One seeded trial of the random-matrix experiment (worker-safe)."""
    n, seed, index = args
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    env = random_linear(n, rng)
    u = uniform_point(n).probs
    op_norm = tangent_operator_norm(env.A)
    fp = find_fixed_points(env).points[0]
    dist_fp_uniform = float(np.linalg.norm(fp.probs - u))
    descriptor = f"linear:seed={seed},trial={index},n={n}"
    t0 = time.perf_counter()
    rule = quadratic_rule(n)
    solved = performative_optimum(rule, env)
    runtime_ms = (time.perf_counter() - t0) * 1e3
    p = solved.report
    return ExperimentRecord(
        env_descriptor=descriptor,
        op_norm=op_norm,
        inaccuracy=l2_distance(env.eval(p), p),
        dist_to_fp=l2_distance(p, fp),
        dist_fp_uniform=dist_fp_uniform,
        dist_report_uniform=float(np.linalg.norm(p.probs - u)),
        bound_Lf=op_norm * (rule.max_subgradient_norm() / rule.min_gamma()),
        bound_pointwise=op_norm * (rule.subgradient_norm(p) / rule.gamma_at(p)),
        runtime_ms=runtime_ms,
        status=STATUS_OK,
        report=[float(v) for v in p.probs],
        fixed_point=[float(v) for v in fp.probs],
    )


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

    Per trial: draw A with uniform-on-the-simplex columns, find the fixed
    point by the eigenproblem, solve for the performative optimum, and
    record the accuracy quantities and both bound forms.  Every trial is a
    quadratic x linear problem, which ``performative_optimum`` solves
    exactly by support enumeration, with no wall-clock budget, so every
    record is ok.  Results are invariant to ``jobs``.
    """
    if n < 3:
        raise InvalidArgumentError("the many-outcome experiment needs n >= 3")
    if trials < 1:
        raise InvalidArgumentError("trials must be >= 1")
    tasks = [(n, seed, i) for i in range(trials)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_run_linear_trial, tasks, chunksize=16))
    else:
        records = [_run_linear_trial(t) for t in tasks]
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

    Picks an interior report p' with strictly higher potential than p*,
    then bisects on the shrink rate to find where p' stops beating the
    honest report; any rate below the crossing leaves the unique fixed
    point p* suboptimal.  Existence is guaranteed for every strictly
    proper rule and interior p*.
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
    if rule.potential(p_prime) <= base:
        raise InvalidArgumentError(f"potential not improvable from {p_star!r}")

    def gap(alpha: float) -> float:
        env = shrink_to(p_star, alpha)
        return rule.expected_score(p_prime, env.eval(p_prime)) - rule.expected_score(
            p_star, p_star
        )

    lo, hi = 0.0, 1.0
    if gap(1.0) > 0.0:
        crossing = 1.0
    else:
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            if gap(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        crossing = lo
    alpha = 0.5 * crossing
    return CounterexampleReport(
        alpha=alpha,
        crossing_alpha=crossing,
        p_prime=p_prime,
        fixed_point=p_star,
        score_gap=gap(alpha),
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
    header = list(CSV_COLUMNS) + (["logit_inaccuracy"] if has_logit else [])
    lines = [",".join(header)]
    for r in records:
        row = [
            _fmt(r.env_descriptor),
            _fmt(r.op_norm),
            _fmt(r.inaccuracy),
            _fmt(r.dist_to_fp),
            _fmt(r.dist_fp_uniform),
            _fmt(r.dist_report_uniform),
            _fmt(r.bound_Lf),
            _fmt(r.bound_pointwise),
            _fmt(r.runtime_ms),
            r.status,
        ]
        if has_logit:
            row.append(_fmt(r.logit_inaccuracy))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def max_curves_to_csv(rows: list) -> str:
    lines = ["alpha,max_inaccuracy,max_dist_to_fp,bound_inaccuracy,bound_dist"]
    for r in rows:
        lines.append(
            ",".join(
                _fmt(v)
                for v in (
                    r.alpha,
                    r.max_inaccuracy,
                    r.max_dist_to_fp,
                    r.bound_inaccuracy,
                    r.bound_dist,
                )
            )
        )
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
    if fmt == "csv":
        if isinstance(payload, list) and payload and isinstance(payload[0], ExperimentRecord):
            text = records_to_csv(payload)
        elif isinstance(payload, list) and payload and isinstance(payload[0], MaxCurveRow):
            text = max_curves_to_csv(payload)
        elif isinstance(payload, list) and not payload:
            text = ",".join(CSV_COLUMNS) + "\n"
        else:
            raise InvalidArgumentError(f"cannot render {type(payload)} as csv")
    elif fmt == "json":
        text = to_json(payload)
    else:
        raise InvalidArgumentError(f"unknown format {fmt!r}")
    return text
