"""Accuracy bounds for score-maximizing reports, and rule design against them.

For a differentiable strictly proper rule and environment, every
performative optimum p obeys

    ||p - f(p)||  <=  ||Df(p)||_op ||g(p)|| / gamma_p      (pointwise)
                  <=  L_f L_G / gamma                      (global constants)

and, when f is a contraction (L_f < 1) with unique fixed point p*,

    ||p - p*||  <=  ||g(p)|| ||Df(p)||_op / ((1 - L_f) gamma_p).

For binary prediction the ratio ||g||/gamma can be made arbitrarily small
by exponential rules, so the bounds can be driven below any epsilon; the
price is that the cost of misreporting then varies enormously across the
probability range, which ``stake_profile`` quantifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .environment import EnvironmentMap
from .errors import DomainError, InvalidArgumentError
from .scoring import MIN_EXPONENT, ScoringRule, _log_rate_max, exponential_binary_rule
from .simplex import SimplexPoint, checked_rows, tangent_operator_norm

INACCURACY = "inaccuracy"
FIXED_POINT_DISTANCE = "fixed_point_distance"
MAX_STAKE_POINTS = 10**6 + 1


@dataclass
class BoundReport:
    """Bound values at one report, with the ingredients that produced them."""

    pointwise_inaccuracy_bound: float
    lipschitz_inaccuracy_bound: float
    fixed_point_distance_bound: Optional[float]
    inputs: dict = field(default_factory=dict)


def inaccuracy_bound(
    rule: ScoringRule,
    f: EnvironmentMap,
    p: SimplexPoint,
    L_f: float = None,
    L_G: float = None,
) -> BoundReport:
    """Evaluate the inaccuracy bounds at p.

    The pointwise form uses the local quantities ||Df(p)||_op, ||g(p)||,
    gamma_p; the Lipschitz form uses the global constants (estimated from
    the map and rule when not supplied).  Operator norms are always taken
    on the tangent space.
    """
    gamma_p = rule.gamma_at(p)
    if gamma_p <= 0.0:
        raise DomainError(f"nonpositive curvature gamma={gamma_p} at {p!r}")
    g_norm = rule.subgradient_norm(p)
    df_norm = tangent_operator_norm(f.jacobian(p))
    L_f = f.lipschitz_estimate() if L_f is None else float(L_f)
    L_G = rule.max_subgradient_norm() if L_G is None else float(L_G)
    gamma = rule.min_gamma()
    pointwise = df_norm * g_norm / gamma_p
    # a constant map (L_f = 0) moves no report, even where L_G is infinite
    lipschitz = 0.0 if L_f == 0.0 else L_f * L_G / gamma
    fp_bound = None
    if L_f < 1.0:
        fp_bound = g_norm * df_norm / ((1.0 - L_f) * gamma_p)
    return BoundReport(
        pointwise_inaccuracy_bound=pointwise,
        lipschitz_inaccuracy_bound=lipschitz,
        fixed_point_distance_bound=fp_bound,
        inputs={
            "g_norm": g_norm,
            "gamma_p": gamma_p,
            "df_opnorm": df_norm,
            "L_f": L_f,
            "L_G": L_G,
            "gamma": gamma,
        },
    )


def fixed_point_distance_bound(
    rule: ScoringRule, f: EnvironmentMap, p: SimplexPoint, L_f: float
) -> float:
    """||p - p*|| bound for contractive environments.

    Defined only for L_f < 1: without a contraction the fixed point need
    not be unique and the distance can approach the simplex diameter
    sqrt(2), so no nontrivial bound exists.
    """
    if L_f >= 1.0:
        raise DomainError(
            "distance-to-fixed-point bound requires L_f < 1; for L_f -> 1 the "
            "worst case approaches the simplex diameter sqrt(2)"
        )
    return inaccuracy_bound(rule, f, p, L_f=L_f).fixed_point_distance_bound


def log_binary_bound(L_f: float) -> tuple:
    """Best global inaccuracy bound for the binary log rule.

    The log rule's pointwise bound is sqrt(2) L_f x (1 - x) |log(x/(1-x))|;
    its maximum over x (the rule's ``bound_rate``) is found numerically and
    scales linearly in L_f.  Returns (bound, argmax_x).
    """
    if L_f < 0.0:
        raise InvalidArgumentError("L_f must be nonnegative")
    rate, xmax = _log_rate_max()
    return (rate * L_f, xmax)


def design_exponential_rule(
    L_f: float, epsilon: float, target: str = INACCURACY
) -> ScoringRule:
    """Choose the exponent K so the target bound equals epsilon.

    The binary exponential rule has ||g(p)||/gamma_p = sqrt(2)/K at every
    point, so its inaccuracy bound is sqrt(2) L_f / K; solving for the
    requested guarantee gives

        inaccuracy target:            K = sqrt(2) L_f / epsilon
        fixed-point distance target:  K = sqrt(2) L_f / ((1 - L_f) epsilon)

    The distance target additionally needs L_f < 1.
    """
    if L_f <= 0.0:
        raise InvalidArgumentError("L_f must be positive")
    if epsilon <= 0.0:
        raise InvalidArgumentError("epsilon must be positive")
    if target == INACCURACY:
        K = math.sqrt(2.0) * L_f / epsilon
    elif target == FIXED_POINT_DISTANCE:
        if L_f >= 1.0:
            raise InvalidArgumentError(
                "fixed-point distance target requires L_f < 1"
            )
        K = math.sqrt(2.0) * L_f / ((1.0 - L_f) * epsilon)
    else:
        raise InvalidArgumentError(f"unknown design target {target!r}")
    if K < MIN_EXPONENT:
        raise InvalidArgumentError(
            f"degenerate design: K={K:g} below {MIN_EXPONENT}"
        )
    return exponential_binary_rule(K)


@dataclass
class StakeProfile:
    """Misreporting costs across the probability range, and their spread.

    ``grid`` holds (p1, cost) pairs where cost is the expected loss of
    shifting a binary report up by 4 * delta when the truth is (p1, 1-p1).
    For any rule whose optima are epsilon-accurate under L_f-Lipschitz
    environments, the sup/inf cost ratio is bounded below by a term
    exponential in L_f/epsilon; ``premise_certified`` records whether that
    accuracy premise is certified for this rule by its own global binary
    bound, bound_rate * L_f <= epsilon (as for the designed exponential
    family), or the comparison is informational only.
    """

    delta: float
    grid: list
    sup_inf_ratio: float
    lower_bound: float
    premise_certified: bool


def stake_ratio_lower_bound(L_f: float, epsilon: float, p_l: float, p_h: float) -> float:
    """Closed-form lower bound on the sup/inf misreporting-cost ratio."""
    base = 3.0 * (L_f + 1.0) / (L_f + 3.0)
    exponent = (L_f + 1.0) * (p_h - p_l) / (8.0 * epsilon) - 2.5
    return (L_f / (2.0 * L_f + 6.0)) * base ** exponent


def stake_profile(
    rule: ScoringRule,
    L_f: float,
    epsilon: float,
    p_l: float,
    p_h: float,
    grid_step: float = 1e-3,
) -> StakeProfile:
    """Misreport-cost grid over [p_l, p_h], its sup/inf ratio, and the
    theoretical lower bound for epsilon-accurate rules.  The grid holds
    both ends, however wide the finite ``grid_step``, and at most
    MAX_STAKE_POINTS points.

    Requires the hypothesis 3 epsilon <= p_l <= p_h <= 1 - 4 epsilon;
    delta = epsilon / (L_f + 1), and the probed misreport is +4 delta.
    """
    if rule.n != 2:
        raise InvalidArgumentError("stake profiles are binary only")
    if L_f <= 0.0 or epsilon <= 0.0:
        raise InvalidArgumentError("L_f and epsilon must be positive")
    if not (3.0 * epsilon <= p_l <= p_h <= 1.0 - 4.0 * epsilon):
        raise InvalidArgumentError(
            f"need 3*eps <= p_l <= p_h <= 1 - 4*eps, got "
            f"p_l={p_l}, p_h={p_h}, eps={epsilon}"
        )
    if not (math.isfinite(grid_step) and grid_step > 0.0):
        raise InvalidArgumentError(f"grid_step must be finite and > 0, got {grid_step}")
    steps = (p_h - p_l) / grid_step
    # a subnormal step makes the quotient infinite, which this rejects too
    if steps > MAX_STAKE_POINTS - 1:
        raise InvalidArgumentError(
            f"grid_step={grid_step} asks for more than {MAX_STAKE_POINTS} grid points"
        )
    delta = epsilon / (L_f + 1.0)
    shift = 4.0 * delta
    # both ends are on the grid, however coarse the step
    count = 1 if p_h == p_l else max(2, int(round(steps)) + 1)
    xs = np.linspace(p_l, p_h, count)
    T = checked_rows(np.column_stack([xs, 1.0 - xs]))
    shifted = checked_rows(np.column_stack([xs + shift, 1.0 - (xs + shift)]))
    costs = rule._objective_rows(T, T) - rule._objective_rows(shifted, T)
    grid = list(zip(xs.tolist(), costs.tolist()))
    if np.any(costs < -1e-12):
        raise DomainError("negative misreporting cost: rule is not proper")
    costs = np.clip(costs, 0.0, None)
    inf_cost = float(np.min(costs))
    sup_cost = float(np.max(costs))
    ratio = sup_cost / inf_cost if inf_cost > 0.0 else float("inf")
    certified = rule.bound_rate * L_f <= epsilon * (1.0 + 1e-12)
    return StakeProfile(
        delta=delta,
        grid=grid,
        sup_inf_ratio=ratio,
        lower_bound=stake_ratio_lower_bound(L_f, epsilon, p_l, p_h),
        premise_certified=certified,
    )
