"""Acceptance suite: one test per shipped claim, with a PASS/FAIL line per
sub-check (run with ``pytest -s tests/test_acceptance.py -v`` to watch).

Shared heavyweight computations (the binary sweeps and the 1000-trial
random-matrix experiment) are cached at module scope and reused across
criteria.
"""

import functools
import math
import os
import time

import numpy as np
import pytest

from perfscore.bounds import design_exponential_rule, log_binary_bound
from perfscore.environment import (
    affine_binary,
    bank_run,
    find_fixed_points,
    random_linear,
)
from perfscore.games import (
    MarketGame,
    market_equilibrium,
    market_power_bound_check,
    regret_series,
)
from perfscore.harness import binary_sweep, many_outcome_experiment
from perfscore.scoring import logarithmic_rule, quadratic_rule
from perfscore.simplex import binary_point, l2_distance, uniform_point
from perfscore.solvers import (
    SolveConfig,
    constant_policy_trace,
    performative_optimum,
    repeated_gradient_ascent,
    repeated_risk_minimization,
)

Q2 = quadratic_rule(2)
ALPHAS = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
PSTAR_GRID = np.round(np.arange(0.0, 1.0 + 5e-4, 1e-3), 9)
SWEEP_RESOLUTION = 1e-6
# grid-oracle reports sit within half a resolution step of the true argmax,
# which perturbs the (tight) bound inequalities by up to ~2 resolution
GRID_QUANTIZATION_SLACK = 2.0 * SWEEP_RESOLUTION

EXPERIMENT_SEED = 1
EXPERIMENT_TRIALS = 1000
JOBS = min(2, os.cpu_count() or 1)


def check(lines, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"  [{status}] {name}" + (f" ({detail})" if detail else "")
    print(line)
    lines.append((name, bool(ok), detail))
    return ok


def finish(criterion, lines):
    failed = [name for name, ok, _ in lines if not ok]
    tag = "PASS" if not failed else "FAIL"
    print(f"criterion {criterion}: {tag}")
    assert not failed, f"criterion {criterion} failed sub-checks: {failed}"


@functools.lru_cache(maxsize=1)
def quadratic_sweep_records():
    per_alpha = {}
    for alpha in ALPHAS:
        per_alpha[alpha] = binary_sweep(
            Q2, [alpha], PSTAR_GRID, resolution=SWEEP_RESOLUTION
        )
    return per_alpha


@functools.lru_cache(maxsize=1)
def log_sweep_records():
    lg = logarithmic_rule(2)
    per_alpha = {}
    for alpha in (0.1, 0.2, 0.3, 0.4, 0.5):
        per_alpha[alpha] = binary_sweep(
            lg, [alpha], PSTAR_GRID, resolution=SWEEP_RESOLUTION
        )
    return per_alpha


@functools.lru_cache(maxsize=1)
def five_outcome_run():
    return many_outcome_experiment(
        n=5,
        trials=EXPERIMENT_TRIALS,
        seed=EXPERIMENT_SEED,
        jobs=JOBS,
    )


def test_criterion_01_bank_run_fixed_points():
    lines = []
    t0 = time.perf_counter()
    fps = find_fixed_points(bank_run())
    elapsed = time.perf_counter() - t0
    coords = fps.coordinates()
    check(lines, "three fixed points found", len(coords) == 3, f"{coords}")
    for target, got in zip((0.1, 0.6, 0.9), coords):
        check(lines, f"fixed point {target}", abs(got - target) <= 1e-8,
              f"got {got:.12f}")
    check(lines, "runtime < 1 s", elapsed < 1.0, f"{elapsed:.3f} s")
    finish(1, lines)


def test_criterion_02_binary_tightness():
    lines = []
    t0 = time.perf_counter()
    sweeps = quadratic_sweep_records()
    for alpha in (0.1, 0.2, 0.3, 0.4, 0.5):
        peak = max(r.inaccuracy for r in sweeps[alpha])
        bound = alpha / math.sqrt(2.0)
        check(lines, f"alpha={alpha:.1f} max inaccuracy = bound",
              abs(peak - bound) <= 2e-3, f"max {peak:.6f} vs {bound:.6f}")
    for alpha in (0.6, 0.7, 0.8, 0.9):
        peak = max(r.inaccuracy for r in sweeps[alpha])
        bound = alpha / math.sqrt(2.0)
        check(lines, f"alpha={alpha:.1f} strictly below bound",
              peak < bound - 2e-3, f"max {peak:.6f} vs {bound:.6f}")
    elapsed = time.perf_counter() - t0
    check(lines, "runtime < 2 min", elapsed < 120.0, f"{elapsed:.1f} s")
    finish(2, lines)


def test_criterion_03_closed_form_optimum():
    # quadratic rule S(p, q) = 2 p.q - ||p||^2, affine map with fixed point
    # (1/2, 1/2): f1(x) = 1/2 + alpha (x - 1/2).  With p = (x, 1 - x),
    #   2 p.q   = 1 + 4 alpha (x - 1/2)^2 = 1 + alpha - 4 alpha x(1 - x)
    #   ||p||^2 = 1 - 2 x(1 - x)
    # so phi(x) = alpha + 2(1 - 2 alpha) x(1 - x), a parabola in x:
    #   alpha < 1/2: unique optimum at the fixed point x = 1/2, phi = 1/2;
    #   alpha > 1/2: the vertices x = 0 and x = 1 tie at phi = alpha;
    #   alpha = 1/2: phi == 1/2 and every report is optimal.
    # The optimal value is max(1/2, alpha) for every alpha.  (The formula
    # p1 = 1/(2(1 - alpha)) is the optimum of the exponential rule with
    # K = 2, checked in test_solvers, not of this rule.)
    lines = []
    for alpha in ALPHAS:
        env = affine_binary(binary_point(0.5), alpha)
        res = performative_optimum(Q2, env, SolveConfig(grid_resolution=1e-6))
        got = res.report[0]
        value = max(0.5, alpha)
        ok = abs(res.objective - value) <= 1e-9
        detail = f"objective {res.objective:.12f} vs {value:.12f}"
        if alpha < 0.5:
            name = "report at fixed point 1/2"
            ok = ok and abs(got - 0.5) <= 1e-5
        elif alpha > 0.5:
            name = "report at a vertex"
            ok = ok and min(got, 1.0 - got) <= 1e-5
        else:
            name = "every report optimal"
        check(lines, f"alpha={alpha:.1f} {name}, objective max(1/2, alpha)",
              ok, f"solver p1 {got:.10f}, {detail}")
    finish(3, lines)


def test_criterion_04_five_outcome_reproduction():
    # Known shortfall: at seed 1, inaccuracy q3 is 0.1559 (window 0.138 +-
    # 0.012) and mean dist-to-fp 0.1749 (window [0.132, 0.172]); the other
    # eleven checks pass.  The solver is not the cause: the exact
    # support-enumeration oracle alone reproduces the seed-1 summary to 4
    # decimals.  The windows do not describe the population sampled here.
    # Over seeds 1-10 x 1000 trials (exact oracle, same per-trial streams)
    # the pooled values are mean inaccuracy 0.1087, q3 0.1518, mean
    # dist-to-fp 0.1746 and fit slope 0.310, each at or just past the upper
    # edge of its window, and every window holds at only 3 of seeds 1-20.
    # About 3.3% of trials have their optimum at a simplex vertex; dropping
    # those puts 13 of seeds 1-20 inside every window, which is suggestive
    # of an upstream selection but is not a documented protocol.  No filter,
    # re-seed or recentring is applied until the paper's description of the
    # simulation protocol is in the repository.
    lines = []
    t0 = time.perf_counter()
    records, summary = five_outcome_run()
    elapsed = time.perf_counter() - t0
    inacc = summary.inaccuracy
    check(lines, "mean inaccuracy in [0.090, 0.110]",
          0.090 <= inacc.mean <= 0.110, f"{inacc.mean:.4f}")
    check(lines, "std inaccuracy in [0.067, 0.087]",
          0.067 <= inacc.std <= 0.087, f"{inacc.std:.4f}")
    for name, got, target in (("q1", inacc.q1, 0.0419),
                              ("q2", inacc.q2, 0.0759),
                              ("q3", inacc.q3, 0.138)):
        check(lines, f"inaccuracy {name} within 0.012 of {target}",
              abs(got - target) <= 0.012, f"{got:.4f}")
    corr = summary.correlations["op_norm_vs_inaccuracy"]
    check(lines, "corr(op norm, inaccuracy) in [0.25, 0.37]",
          0.25 <= corr <= 0.37, f"{corr:.3f}")
    slope = summary.fits["inaccuracy_on_op_norm"].slope
    check(lines, "fit slope in [0.18, 0.29]", 0.18 <= slope <= 0.29,
          f"{slope:.3f}")
    dfp = summary.dist_to_fp
    check(lines, "mean dist-to-fp in [0.132, 0.172]",
          0.132 <= dfp.mean <= 0.172, f"{dfp.mean:.4f}")
    xcorr = summary.correlations["inaccuracy_vs_dist_to_fp"]
    check(lines, "corr(inaccuracy, dist-to-fp) >= 0.90", xcorr >= 0.90,
          f"{xcorr:.3f}")
    check(lines, "mean Lipschitz-bound slack in [0.37, 0.44]",
          0.37 <= summary.slack_Lf.mean <= 0.44, f"{summary.slack_Lf.mean:.4f}")
    check(lines, "mean pointwise-bound slack in [0.05, 0.08]",
          0.05 <= summary.slack_pointwise.mean <= 0.08,
          f"{summary.slack_pointwise.mean:.4f}")
    check(lines, "timeout accounting", summary.n_ok + summary.n_timeout
          == EXPERIMENT_TRIALS, f"ok={summary.n_ok}")
    check(lines, "runtime < 15 min", elapsed < 900.0, f"{elapsed:.0f} s")
    finish(4, lines)


def test_criterion_05_bound_inequality_suite():
    lines = []
    mult = 1.0 + 1e-6
    worst_ptw = worst_global = worst_fp = -1.0
    count = 0
    for alpha, records in quadratic_sweep_records().items():
        for r in records:
            count += 1
            worst_ptw = max(
                worst_ptw,
                r.inaccuracy - (r.bound_pointwise * mult + GRID_QUANTIZATION_SLACK),
            )
            worst_global = max(worst_global, r.bound_pointwise - r.bound_Lf * mult)
            if alpha < 1.0 and not math.isnan(r.dist_to_fp):
                thm4 = r.bound_pointwise / (1.0 - alpha)
                worst_fp = max(
                    worst_fp,
                    r.dist_to_fp - (thm4 * mult + GRID_QUANTIZATION_SLACK),
                )
    records, _ = five_outcome_run()
    for r in records:
        if r.status != "ok":
            continue
        count += 1
        worst_ptw = max(worst_ptw, r.inaccuracy - r.bound_pointwise * mult)
        worst_global = max(worst_global, r.bound_pointwise - r.bound_Lf * mult)
        if r.op_norm < 1.0:
            thm4 = r.bound_pointwise / (1.0 - r.op_norm)
            worst_fp = max(worst_fp, r.dist_to_fp - thm4 * mult)
    check(lines, f"inaccuracy <= pointwise bound over {count} optima",
          worst_ptw <= 0.0, f"worst gap {worst_ptw:.2e}")
    check(lines, "pointwise <= Lipschitz-form bound", worst_global <= 0.0,
          f"worst gap {worst_global:.2e}")
    check(lines, "dist-to-fp <= contraction bound when L_f < 1",
          worst_fp <= 0.0, f"worst gap {worst_fp:.2e}")
    finish(5, lines)


def _designed_rule_worst_inaccuracy(epsilon, trials, seed):
    rule = design_exponential_rule(1.0, epsilon)
    rng = np.random.default_rng(seed)
    worst = 0.0
    for i in range(trials):
        alpha = float(rng.uniform(-1.0, 1.0))
        lo, hi = (0.0, 1.0) if alpha >= 0 else (
            -alpha / (1.0 - alpha), 1.0 / (1.0 - alpha)
        )
        s = float(rng.uniform(lo, hi))
        env = affine_binary(binary_point(s), alpha)
        res = performative_optimum(rule, env, SolveConfig(grid_resolution=1e-6))
        worst = max(worst, l2_distance(env.eval(res.report), res.report))
    return worst


def test_criterion_06_designed_rule_achieves_epsilon():
    lines = []
    t0 = time.perf_counter()
    for epsilon, seed in ((0.1, 60), (0.02, 61)):
        worst = _designed_rule_worst_inaccuracy(epsilon, 200, seed)
        check(lines, f"epsilon={epsilon}: every optimum within epsilon",
              worst <= epsilon, f"worst {worst:.5f}")
    elapsed = time.perf_counter() - t0
    check(lines, "runtime < 1 min", elapsed < 60.0, f"{elapsed:.1f} s")
    finish(6, lines)


def test_criterion_07_log_rule_constant_and_tightness():
    lines = []
    bound, xmax = log_binary_bound(1.0)
    # published three-decimal values are truncations of 0.31660 / 0.82396
    check(lines, "recomputed constant 0.316 (3 decimals)",
          abs(bound - 0.316) <= 1e-3, f"{bound:.5f}")
    check(lines, "recomputed maximizer 0.824 (3 decimals)",
          abs(xmax - 0.824) <= 1e-3, f"{xmax:.5f}")
    for alpha, records in log_sweep_records().items():
        peak = max(r.inaccuracy for r in records)
        check(lines, f"alpha={alpha:.1f} log sweep max respects 0.316 alpha",
              abs(peak - 0.316 * alpha) <= 2e-3, f"max {peak:.6f}")
    finish(7, lines)


def test_criterion_08_stop_gradient_dynamics():
    lines = []
    env = affine_binary(binary_point(0.5), 0.5)
    rga = repeated_gradient_ascent(Q2, env, binary_point(0.9), tol=2e-8)
    residual = l2_distance(env.eval(rga.report), rga.report)
    check(lines, "frozen-belief ascent converges to the fixed point",
          rga.converged and residual <= 1e-8,
          f"residual {residual:.2e}, limit p1={rga.report[0]:.8f}")
    opt = performative_optimum(Q2, env, SolveConfig(grid_resolution=1e-6))
    gap = abs(rga.report[0] - opt.report[0])
    check(lines, "limit differs from the performative optimum by >= 0.1",
          gap >= 0.1, f"gap {gap:.3f} (optimum p1={opt.report[0]:.6f})")
    env8 = affine_binary(binary_point(0.8), 0.5)
    rrm = repeated_risk_minimization(Q2, env8, uniform_point(2), tol=1e-13)
    ok = True
    detail = ""
    target = env8.p_star.probs
    # the per-step ratio is checked down to the scale where coordinate
    # rounding (~1e-16 absolute) stays below the 1e-9 tolerance
    for a, b in zip(rrm.trajectory[:-1], rrm.trajectory[1:]):
        da = float(np.linalg.norm(a.probs - target))
        db = float(np.linalg.norm(b.probs - target))
        if da > 1e-6:
            ratio = db / da
            if abs(ratio - 0.5) > 1e-9:
                ok = False
                detail = f"ratio {ratio}"
                break
    check(lines, "fixed-point iteration contracts at exactly the slope", ok,
          detail)
    check(lines, "fixed-point iteration reaches the fixed point",
          l2_distance(rrm.report, env8.p_star) <= 1e-12)
    finish(8, lines)


def test_criterion_09_no_regret_equivalence():
    lines = []
    t0 = time.perf_counter()
    env = affine_binary(binary_point(0.7), 0.5)
    fp = binary_point(0.7)
    gap = 0.08  # || f(p) - p ||^2 at p1 = 0.3: f -> (0.5, 0.5), gap (0.2, -0.2)
    worst_fp = 0.0
    worst_const = 0.0
    for seed in range(10):
        s1 = regret_series(
            constant_policy_trace(Q2, env, fp, 100_000, seed), Q2, env
        )
        worst_fp = max(worst_fp, abs(s1.average_regret()))
        s2 = regret_series(
            constant_policy_trace(Q2, env, binary_point(0.3), 100_000, seed),
            Q2, env,
        )
        worst_const = max(worst_const, abs(s2.average_regret() - gap))
    check(lines, "fixed-point policy: |regret|/T <= 0.01 (seeds 0-9)",
          worst_fp <= 0.01, f"worst {worst_fp:.2e}")
    check(lines, "constant policy: regret/T within 10% of 0.08 (seeds 0-9)",
          worst_const <= 0.1 * gap, f"worst dev {worst_const:.4f}")
    elapsed = time.perf_counter() - t0
    check(lines, "runtime < 1 min", elapsed < 60.0, f"{elapsed:.1f} s")
    finish(9, lines)


def test_criterion_10_market_power_bound():
    # the fixed point is placed off-center (0.7): with a symmetric fixed
    # point the equilibrium collapses onto it for every N and the
    # decreasing-influence comparison degenerates to 0 = 0
    lines = []
    env = affine_binary(binary_point(0.7), 0.5)
    prev = None
    for N in (2, 5, 10, 50):
        game = MarketGame(Q2, env, tuple([1.0 / N] * N))
        eq = market_equilibrium(game)
        checks = market_power_bound_check(eq, game)
        ok_bounds = all(ok for _, _, ok in checks)
        worst = max(lhs for lhs, _, _ in checks)
        check(lines, f"N={N}: every trader inside the power bound", ok_bounds,
              f"max distance {worst:.5f}")
        if prev is not None:
            check(lines, f"N={N}: max distance decreased", worst < prev,
                  f"{worst:.5f} < {prev:.5f}")
        prev = worst
    finish(10, lines)


def test_criterion_11_optima_are_generically_not_fixed_points():
    lines = []
    hits = 0
    total = 500
    for i in range(total):
        n = 2 if i < 250 else 5
        rule = Q2 if n == 2 else quadratic_rule(5)
        env = random_linear(n, np.random.default_rng([11, i]))
        res = performative_optimum(rule, env, SolveConfig(seed=i))
        if l2_distance(env.eval(res.report), res.report) > 1e-6:
            hits += 1
    check(lines, "optima are non-fixed-points in >= 99% of 500 environments",
          hits >= 495, f"{hits}/500")
    finish(11, lines)


def test_criterion_12_cli_determinism(tmp_path):
    from perfscore.cli import main

    lines = []
    commands = {
        "sweep": ["sweep-binary", "--alphas", "0.3,0.7", "--pstar-step",
                  "0.01", "--resolution", "1e-4", "--seed", "5"],
        "many": ["many-outcome", "--n", "4", "--trials", "10", "--seed", "5",
                 "--jobs", str(JOBS)],
        "regret": ["regret", "--env", "affine:p1=0.7,alpha=0.5", "--policy",
                   "sgd", "--T", "2000", "--seed", "5"],
        "market": ["market", "--rule", "quadratic",
                   "--env", "affine:p1=0.7,alpha=0.5", "--weights",
                   "0.25,0.25,0.25,0.25", "--format", "json"],
        "stake": ["stake-profile", "--rule", "exp:K=28.3", "--lf", "1.0",
                  "--epsilon", "0.05", "--pl", "0.25", "--ph", "0.75"],
    }
    for name, argv in commands.items():
        out_a = tmp_path / f"{name}_a.out"
        out_b = tmp_path / f"{name}_b.out"
        assert main(argv + ["--out", str(out_a)]) == 0
        assert main(argv + ["--out", str(out_b)]) == 0
        check(lines, f"{name}: byte-identical reruns",
              out_a.read_bytes() == out_b.read_bytes())
    finish(12, lines)
