"""The three benchmark workloads: their inputs, operations and checks.

Every workload is a closed loop with one caller: a *stream* of operations
("ops"), each started only after the previous one returned, and a fixed
*batch* that is repeated ``batch_reps`` times between the stream's ops.  An
op is a closure that calls the library through the ``perfscore`` package
namespace at call time, so a tracer that patches the package bindings sees
every call.  Each op's check runs outside its timing and compares the op's
output with an independent reference.

Instance populations are pinned by ``POPULATION_SEED``; the run seed sets
the op order, the solvers' random-start seeds, the online samplers and the
SGD environments.  Solver cost per instance is heavy tailed (a
five-outcome trial has a cost coefficient of variation of about 1.06 over
400 trials), so a run over ~100 seed-drawn instances would differ by ~11%
between seeds from the draw alone; pinning the population leaves the
between-seed spread to machine noise.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

POPULATION_SEED = 2305

# -- five_outcome -----------------------------------------------------------------

FIVE_TRIALS = 100  # the fewest that carry a p90
FIVE_BATCH_TRIALS = 5
FIVE_BATCH_REPS = 5
# the solver merges the support-enumeration optimum and then polishes; its
# objective agrees with the exact one to rounding (worst seen: 7e-16)
FIVE_OBJECTIVE_TOL = 1e-9
BOUND_MULT = 1.0 + 1e-6
FIXED_POINT_RESIDUAL = 1e-8

# -- binary ------------------------------------------------------------------------

BINARY_FAMILIES = ("affine", "bank-run", "ramp", "shrink", "linear2", "tabulated")
BINARY_INSTANCES = 5  # per (family, rule) pair
DESIGN_EPSILONS = (0.2, 0.4)  # exponential rules from design_exponential_rule(1, eps)
GRID_RESOLUTION = 1e-6
# the grid candidate competes under a 1e-12 tie tolerance and the interior
# polish accepts up to 200 steps that each lose at most 1e-9 max(1, |phi|)
# (worst seen: 2e-16 below the grid)
BINARY_OBJECTIVE_SLACK = 2e-7
SWEEP_ALPHAS = tuple(round(0.1 * k, 1) for k in range(1, 10))
SWEEP_PSTARS = tuple(round(0.05 * k, 2) for k in range(21))
SWEEP_SAMPLE = 8  # cells per rule re-solved by the grid oracle
BINARY_BATCH_REPS = 3

# -- dynamics ----------------------------------------------------------------------

SGD_ROUNDS = 50_000
RGA_ROUNDS = 20_000
TAIL_ROUNDS = 1000
# The log rule's gradient grows as 1/p.  Under inverse_schedule(0.5) an
# early step lands on the 1e-6 boundary and reports then jump between the
# edges (average regret ~5 at T = 1e5); inverse_schedule(0.2) stays inside
# but its tail is still 0.06 from the fixed point at T = 1e5.  Offsetting
# the 1/t decay keeps early steps below 0.05 and converges (worst tail
# 0.007 over 12 seeds at T = 1e5, 0.008 over 16 seeds at T = 5e4).
LOG_SGD_STEP = 1.0
LOG_SGD_OFFSET = 50.0
TAIL_TOL = 0.02  # test_solvers' tolerance for the SGD tail mean
REGRET_TOL = 0.01  # test_games' tolerance for |average regret|
MARKET_SIZES = (2, 5, 10, 50)  # criterion 10's market set
# Criterion 10's map, also test_games' RGA map.  RGA stops iterating once
# its gradient is exactly zero, after a map-dependent number of rounds (one
# op took 0.9 to 4 s across seeded maps), so RGA and the markets run on it.
REFERENCE_MAP = (0.7, 0.5)  # (fixed point p1, slope)
MARKET_REPS = 3


@dataclass
class Op:
    """One unit of work: ``run`` calls the library, ``check`` returns the
    reason the output is wrong or None, ``digest`` renders it exactly."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    digest: Callable[[object], bytes]
    rounds: int = 0  # simulated online rounds, dynamics only


@dataclass
class Workload:
    name: str
    unit: str  # what one stream op is
    batch_unit: str  # what the batch is
    stream: list = field(default_factory=list)
    batch: list = field(default_factory=list)
    batch_cells: int = 0
    batch_reps: int = 1  # times the batch runs in a timed run; batch_s is their median


def _digest(*arrays) -> bytes:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(np.asarray(a, dtype=float)).tobytes())
    return h.digest()


def _solve_seed(run_seed: int, index: int) -> int:
    return int(np.random.SeedSequence([run_seed, index]).generate_state(1)[0])


def _order(ops, run_seed: int):
    perm = np.random.default_rng([run_seed, 0]).permutation(len(ops))
    return [ops[i] for i in perm]


def _linear_fixed_point(A: np.ndarray) -> np.ndarray:
    """Stationary vector of a column-stochastic matrix, by plain numpy."""
    vals, vecs = np.linalg.eig(A)
    v = np.abs(np.real(vecs[:, int(np.argmin(np.abs(vals - 1.0)))]))
    return v / v.sum()


# -- five_outcome -----------------------------------------------------------------


def _five_outcome_trial(ps, entropy, solve_seed):
    def run():
        env = ps.random_linear(5, np.random.default_rng(entropy))
        fixed = ps.find_fixed_points(env).points[0]
        op_norm = ps.tangent_operator_norm(env.A)
        rule = ps.quadratic_rule(5)
        solved = ps.performative_optimum(rule, env, ps.SolveConfig(seed=solve_seed))
        bound = ps.inaccuracy_bound(rule, env, solved.report)
        return (env.A, fixed.probs, op_norm, solved.report.probs, solved.objective,
                bound.pointwise_inaccuracy_bound)

    return run


def _check_linear_optimum(ps, A, report, objective, pointwise):
    exact = ps.quadratic_linear_exact_optimum(ps.linear(A))
    if abs(objective - exact.objective) > FIVE_OBJECTIVE_TOL:
        return f"objective {objective!r} vs exact {exact.objective!r}"
    inaccuracy = float(np.linalg.norm(A @ report - report))
    if inaccuracy > pointwise * BOUND_MULT:
        return f"inaccuracy {inaccuracy!r} above pointwise bound {pointwise!r}"
    return None


def _check_five_outcome_trial(ps):
    def check(out):
        A, fixed, _, report, objective, pointwise = out
        residual = float(np.linalg.norm(A @ fixed - fixed))
        if residual > FIXED_POINT_RESIDUAL:
            return f"fixed-point residual {residual!r}"
        return _check_linear_optimum(ps, A, report, objective, pointwise)

    return check


def _many_outcome_batch(ps, trials):
    def run():
        return ps.many_outcome_experiment(5, trials, POPULATION_SEED, jobs=1)

    def check(out):
        records, _ = out
        for i, r in enumerate(records):
            if r.status != "ok":
                return f"trial {i} status {r.status}"
            env = ps.random_linear(
                5, np.random.default_rng(np.random.SeedSequence([POPULATION_SEED, i]))
            )
            A = env.A
            p = np.asarray(r.report)
            reason = _check_linear_optimum(
                ps, A, p, float(p @ (A + A.T - np.eye(5)) @ p), r.bound_pointwise
            )
            if reason:
                return f"trial {i}: {reason}"
        return None

    def digest(out):
        records, _ = out
        return _digest(*[r.report for r in records])

    return Op(f"many-outcome x{trials}", run, check, digest)


def five_outcome(ps, run_seed, trials=FIVE_TRIALS, batch_trials=FIVE_BATCH_TRIALS):
    """Random 5x5 column-stochastic maps under the quadratic rule."""
    check = _check_five_outcome_trial(ps)
    ops = [
        Op(
            "trial",
            _five_outcome_trial(
                ps, np.random.SeedSequence([POPULATION_SEED, i]), _solve_seed(run_seed, i)
            ),
            check,
            lambda out: _digest(*out),
        )
        for i in range(trials)
    ]
    return Workload(
        "five_outcome",
        unit="trial",
        batch_unit=f"many_outcome_experiment of {batch_trials} trials",
        stream=_order(ops, run_seed),
        batch=[_many_outcome_batch(ps, batch_trials)],
        batch_cells=batch_trials,
        batch_reps=FIVE_BATCH_REPS,
    )


# -- binary ------------------------------------------------------------------------


def _binary_map(ps, family, rng):
    if family == "affine":
        p_star = rng.uniform(0.1, 0.9)
        # negative slopes are valid while both endpoints map into [0, 1]
        steepest = min(p_star / (1.0 - p_star), (1.0 - p_star) / p_star, 0.9)
        alpha = rng.uniform(-steepest, 0.9)
        return ps.affine_binary(ps.binary_point(p_star), alpha)
    if family == "bank-run":
        return ps.bank_run()
    if family == "ramp":
        return ps.ramp_binary(rng.uniform(0.05, 0.3), rng.uniform(0.01, 0.3))
    if family == "shrink":
        return ps.shrink_to(ps.binary_point(rng.uniform(0.1, 0.9)), rng.uniform(0.1, 0.9))
    if family == "linear2":
        return ps.random_linear(2, rng)
    return ps.tabulated(np.linspace(0.0, 1.0, 5), rng.uniform(0.05, 0.95, 5))


def _binary_rules(ps):
    rules = [("quadratic", ps.quadratic_rule(2)), ("log", ps.logarithmic_rule(2))]
    for eps in DESIGN_EPSILONS:
        rules.append((f"exp(eps={eps})", ps.design_exponential_rule(1.0, eps)))
    return rules


def _binary_solve(ps, label, rule, env, solve_seed):
    def run():
        cfg = ps.SolveConfig(grid_resolution=GRID_RESOLUTION, seed=solve_seed)
        solved = ps.performative_optimum(rule, env, cfg)
        fixed = ps.find_fixed_points(env)
        bound = ps.inaccuracy_bound(rule, env, solved.report)
        return (solved.report.probs, solved.objective, fixed.coordinates(),
                bound.pointwise_inaccuracy_bound)

    def check(out):
        objective = out[1]
        grid = ps.grid_optimum_binary(rule, env, GRID_RESOLUTION).objective
        if objective < grid - BINARY_OBJECTIVE_SLACK * max(1.0, abs(grid)):
            return f"objective {objective!r} below grid oracle {grid!r}"
        return None

    return Op(label, run, check, lambda out: _digest(*out))


def _sweep(ps, rule, run_seed, tag):
    def run():
        return ps.binary_sweep(rule, SWEEP_ALPHAS, SWEEP_PSTARS, GRID_RESOLUTION)

    def check(records):
        # the sweep shares one objective table per slope; the oracle
        # re-derives each sampled cell from its own affine map
        rng = np.random.default_rng([run_seed, tag])
        for k in rng.choice(len(records), SWEEP_SAMPLE, replace=False):
            r = records[k]
            s, alpha = r.fixed_point[0], r.op_norm
            env = ps.affine_binary(ps.binary_point(s), alpha)
            x = ps.grid_optimum_binary(rule, env, GRID_RESOLUTION).report[0]
            if abs(x - r.report[0]) > GRID_RESOLUTION * (1.0 + 1e-9):
                return f"cell alpha={alpha} p*={s}: sweep {r.report[0]!r} vs oracle {x!r}"
        return None

    def digest(records):
        return _digest(*[r.report for r in records])

    return Op(f"binary_sweep {rule}", run, check, digest)


def binary(ps, run_seed, instances=BINARY_INSTANCES, sweep_rules=3):
    """Binary solves over a mix of maps and rules, then affine sweeps."""
    rules = _binary_rules(ps)
    ops = []
    for f_idx, family in enumerate(BINARY_FAMILIES):
        for r_idx, (rule_name, rule) in enumerate(rules):
            for k in range(instances):
                rng = np.random.default_rng([POPULATION_SEED, 1, f_idx, r_idx, k])
                env = _binary_map(ps, family, rng)
                ops.append(_binary_solve(ps, f"{family}/{rule_name}", rule, env,
                                         _solve_seed(run_seed, len(ops))))
    sweeps = [_sweep(ps, rule, run_seed, i) for i, (_, rule) in enumerate(rules[:sweep_rules])]
    return Workload(
        "binary",
        unit="solve",
        batch_unit=f"binary_sweep over {len(SWEEP_ALPHAS)}x{len(SWEEP_PSTARS)} cells "
                   f"for {len(sweeps)} rules",
        stream=_order(ops, run_seed),
        batch=sweeps,
        batch_cells=len(sweeps) * len(SWEEP_ALPHAS) * len(SWEEP_PSTARS),
        batch_reps=BINARY_BATCH_REPS,
    )


# -- dynamics ----------------------------------------------------------------------


def _online(ps, label, make_trace, rule, env, fixed_point, rounds):
    def run():
        trace = make_trace()
        series = ps.regret_series(trace, rule, env)
        return trace.reports, series.cumulative_regret, series.prediction_error_cumsum

    def check(out):
        reports, regret, _ = out
        tail = float(np.linalg.norm(reports[-TAIL_ROUNDS:].mean(axis=0) - fixed_point))
        if tail > TAIL_TOL:
            return f"tail mean {tail!r} from the fixed point"
        average = float(regret[-1] / regret.size)
        if abs(average) > REGRET_TOL:
            return f"average regret {average!r}"
        return None

    return Op(label, run, check, lambda out: _digest(*out), rounds=rounds)


def _log_schedule(t):
    return LOG_SGD_STEP / (t + LOG_SGD_OFFSET)


def _market(ps, env, size):
    game = ps.MarketGame(ps.quadratic_rule(2), env, tuple([1.0 / size] * size))

    def run():
        return ps.market_equilibrium(game)

    def check(eq):
        bad = [i for i, (_, _, ok) in enumerate(ps.market_power_bound_check(eq, game)) if not ok]
        return f"traders {bad} outside the power bound" if bad else None

    def digest(eq):
        return _digest(*[p.probs for p in eq.predictions], eq.per_player_br_gap)

    return Op(f"market N={size}", run, check, digest)


def dynamics(ps, run_seed, sgd_rounds=SGD_ROUNDS, rga_rounds=RGA_ROUNDS,
             market_sizes=MARKET_SIZES):
    """Online SGD and RGA traces with regret, then the market set."""
    rng = np.random.default_rng([run_seed, 1])
    p_star = rng.uniform(0.2, 0.8)
    affine = ps.affine_binary(ps.binary_point(p_star), rng.uniform(0.1, 0.7))
    linear5 = ps.random_linear(5, rng)
    fp2 = np.array([p_star, 1.0 - p_star])
    fp5 = _linear_fixed_point(linear5.A)
    reference = ps.affine_binary(ps.binary_point(REFERENCE_MAP[0]), REFERENCE_MAP[1])
    reference_fp = np.array([REFERENCE_MAP[0], 1.0 - REFERENCE_MAP[0]])
    q2, q5, lg = ps.quadratic_rule(2), ps.quadratic_rule(5), ps.logarithmic_rule(2)
    seeds = [_solve_seed(run_seed, i) for i in range(4)]

    def sgd(rule, env, schedule, seed):
        return lambda: ps.online_sgd(
            rule, env, ps.uniform_point(env.n), schedule, sgd_rounds, seed
        )

    ops = [
        _online(ps, "sgd quadratic/affine", sgd(q2, affine, ps.inverse_schedule(1.0), seeds[0]),
                q2, affine, fp2, sgd_rounds),
        _online(ps, "sgd log/affine", sgd(lg, affine, _log_schedule, seeds[1]),
                lg, affine, fp2, sgd_rounds),
        _online(ps, "sgd quadratic/linear5", sgd(q5, linear5, ps.inverse_schedule(1.0), seeds[2]),
                q5, linear5, fp5, sgd_rounds),
        _online(ps, "rga quadratic/reference",
                lambda: ps.rga_policy_trace(q2, reference, ps.uniform_point(2), rga_rounds,
                                            seeds[3]),
                q2, reference, reference_fp, rga_rounds),
    ]
    return Workload(
        "dynamics",
        unit="online run",
        batch_unit="market_equilibrium for N in " + ",".join(map(str, market_sizes)),
        stream=_order(ops, run_seed),
        batch=[_market(ps, reference, n) for n in market_sizes],
        batch_cells=len(market_sizes),
        batch_reps=MARKET_REPS,
    )


BUILDERS = {"five_outcome": five_outcome, "binary": binary, "dynamics": dynamics}


def build(name: str, run_seed: int, ps) -> Workload:
    return BUILDERS[name](ps, run_seed)
