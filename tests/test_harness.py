import csv
import json
import math
import struct
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from perfscore.bounds import design_exponential_rule
from perfscore.environment import affine_binary, find_fixed_points, linear, random_linear
from perfscore.errors import InvalidArgumentError
from perfscore.harness import (
    CSV_COLUMNS,
    ExperimentRecord,
    binary_sweep,
    counterexample_demo,
    emit,
    many_outcome_experiment,
    max_curves,
    pstar_grid,
    ramp_distance_demo,
    records_to_csv,
    summarize_records,
    to_json,
    _TABLE_ROUNDING,
    _Grid,
    _cells_argmax,
    _rounding_slack,
)
from perfscore import scoring
from perfscore.scoring import (
    exponential_binary_rule,
    logarithmic_rule,
    quadratic_rule,
)
from perfscore.simplex import (
    SimplexPoint,
    binary_point,
    l2_distance,
    tangent_operator_norm,
    uniform_point,
)
from perfscore.solvers import _binary_grid, grid_optimum_binary, performative_optimum

Q2 = quadratic_rule(2)
# the scalar float fields of an ExperimentRecord, all written to CSV
FLOAT_FIELDS = (
    "op_norm", "inaccuracy", "dist_to_fp", "dist_fp_uniform", "dist_report_uniform",
    "bound_Lf", "bound_pointwise", "runtime_ms", "logit_inaccuracy",
)


class TestBinarySweep:
    def test_zero_slope_is_honest(self):
        records = binary_sweep(Q2, [0.0], [0.2, 0.5, 0.8], resolution=1e-4)
        for r in records:
            assert r.inaccuracy == pytest.approx(0.0, abs=2e-4)
            assert r.dist_to_fp == pytest.approx(0.0, abs=2e-4)

    def test_symmetric_case_honest_below_half_slope(self):
        # quadratic rule, fixed point 1/2: the optimum is the fixed point
        # itself for slopes below 1/2
        records = binary_sweep(Q2, [0.3], [0.5], resolution=1e-5)
        assert records[0].report[0] == pytest.approx(0.5, abs=1e-5)
        assert records[0].inaccuracy == pytest.approx(0.0, abs=2e-5)

    def test_exponential_closed_form_cell(self):
        ex = exponential_binary_rule(2.0)
        records = binary_sweep(ex, [0.3], [0.5], resolution=1e-6)
        assert records[0].report[0] == pytest.approx(5.0 / 7.0, abs=2e-6)
        assert records[0].inaccuracy == pytest.approx(0.3 / math.sqrt(2), abs=1e-5)

    @pytest.mark.parametrize(
        "rule", [Q2, logarithmic_rule(2), exponential_binary_rule(3.0)], ids=str
    )
    def test_matches_grid_oracle(self, rule):
        rng = np.random.default_rng(60)
        for _ in range(6):
            alpha = float(rng.uniform(0.0, 1.0))
            s = float(rng.uniform(0.0, 1.0))
            rec = binary_sweep(rule, [alpha], [s], resolution=1e-4)[0]
            oracle = grid_optimum_binary(
                rule, affine_binary(binary_point(s), alpha), 1e-4
            )
            assert rec.report[0] == pytest.approx(oracle.report[0], abs=1e-12)

    def test_fp_distance_suppressed_near_identity(self):
        records = binary_sweep(Q2, [0.99], [0.3], resolution=1e-4)
        assert math.isnan(records[0].dist_to_fp)

    def test_log_rule_logit_surface_finite(self):
        lg = logarithmic_rule(2)
        records = binary_sweep(
            lg, [0.1, 0.5, 0.9], np.linspace(0.0, 1.0, 21), resolution=1e-4
        )
        assert all(np.isfinite(r.logit_inaccuracy) for r in records)

    def test_bounds_hold_on_every_cell(self):
        for rule in (Q2, logarithmic_rule(2)):
            records = binary_sweep(
                rule, [0.2, 0.5, 0.8], np.linspace(0.0, 1.0, 11), resolution=1e-4
            )
            for r in records:
                assert r.inaccuracy <= r.bound_pointwise * (1 + 1e-6) + 5e-4
                assert r.bound_pointwise <= r.bound_Lf * (1 + 1e-6) + 1e-12

    def test_slope_validation(self):
        with pytest.raises(InvalidArgumentError):
            binary_sweep(Q2, [1.2], [0.5])
        with pytest.raises(InvalidArgumentError):
            binary_sweep(Q2, [float("nan")], [0.5])

    @pytest.mark.parametrize("resolution", [0.0, -1e-6, 2e-3, float("nan")])
    def test_resolution_validation(self, resolution):
        with pytest.raises(InvalidArgumentError):
            binary_sweep(Q2, [0.5], [0.5], resolution=resolution)

    @pytest.mark.parametrize("s", [1.5, -0.2, float("nan"), float("inf")])
    def test_fixed_point_validation(self, s):
        with pytest.raises(InvalidArgumentError):
            binary_sweep(Q2, [0.5], [0.2, s])

    def test_runtime_is_shared_evenly(self):
        t0 = time.perf_counter()
        records = binary_sweep(Q2, [0.2, 0.7], np.linspace(0.0, 1.0, 11), 1e-5)
        wall_ms = (time.perf_counter() - t0) * 1e3
        assert len({r.runtime_ms for r in records}) == 1
        assert 0.0 < records[0].runtime_ms * len(records) <= wall_ms

    @pytest.mark.parametrize(
        "rule", [Q2, logarithmic_rule(2), exponential_binary_rule(3.0)], ids=str
    )
    def test_chunked_cells_match_cells_alone(self, rule):
        # 3 x 101 cells span two chunks; no cell's windows touch another's
        alphas, pstars = [0.3, 0.5, 0.9], np.linspace(0.0, 1.0, 101)
        together = sweep_reports(rule, alphas, pstars, 1e-4)
        alone = [sweep_reports(rule, [a], [s], 1e-4)[0] for a in alphas for s in pstars]
        assert together == alone


def full_scan_reports(rule, alpha_grid, pstar_grid, resolution):
    """The sweep's reports by scanning every grid point of every cell:
    one table per slope, then the first point within 1e-12 of the cell's
    maximum."""
    xs = _binary_grid(rule, resolution)
    T0 = rule.binary_objective_grid(xs, 0.0)
    D = rule.binary_objective_grid(xs, 1.0) - T0
    reports = []
    for alpha in np.asarray(alpha_grid, dtype=float):
        base = T0 + (alpha * xs) * D
        for s in np.asarray(pstar_grid, dtype=float):
            phi = base + (s * (1.0 - alpha)) * D
            reports.append(float(xs[np.flatnonzero(phi >= phi.max() - 1e-12)[0]]))
    return reports


def sweep_reports(rule, alpha_grid, pstar_grid, resolution):
    return [r.report[0] for r in binary_sweep(rule, alpha_grid, pstar_grid, resolution)]


class TestSweepMatchesFullScan:
    """binary_sweep evaluates phi on windows of the grid only; its reports
    are the full scan's, bit for bit."""

    def test_all_tie_cell(self):
        # alpha = p* = 1/2: phi is 1/2 everywhere, so every grid point ties
        args = (Q2, [0.5], [0.5], 1e-6)
        assert sweep_reports(*args) == full_scan_reports(*args) == [0.0]

    @pytest.mark.parametrize("alpha, s", [(0.4, 0.45), (0.5, 0.5)])
    def test_log_flat_tops(self, alpha, s):
        # the objective stays within 1e-12 of its maximum over many grid
        # points, so the tie rule lands left of the maximizer
        args = (logarithmic_rule(2), [alpha], [s], 1e-6)
        assert sweep_reports(*args) == full_scan_reports(*args)

    def test_log_symmetric_maxima_take_the_left_one(self):
        args = (logarithmic_rule(2), [0.625095466604667], [0.5], 1e-4)
        reports = sweep_reports(*args)
        assert reports == full_scan_reports(*args)
        assert reports[0] == pytest.approx(0.1371, abs=1e-12)

    @pytest.mark.parametrize(
        "rule", [Q2, logarithmic_rule(2), exponential_binary_rule(3.0)], ids=str
    )
    def test_unit_and_zero_slopes(self, rule):
        args = (rule, [0.0, 1.0], np.linspace(0.0, 1.0, 11), 1e-5)
        assert sweep_reports(*args) == full_scan_reports(*args)

    @pytest.mark.parametrize(
        "rule",
        [Q2, logarithmic_rule(2), exponential_binary_rule(3.0),
         design_exponential_rule(1.0, 0.4)],
        ids=str,
    )
    def test_random_cells(self, rule):
        rng = np.random.default_rng(1806)
        args = (rule, rng.uniform(0.0, 1.0, 20), rng.uniform(0.0, 1.0, 20), 1e-4)
        assert sweep_reports(*args) == full_scan_reports(*args)


class TestSweepEffort:
    def test_all_tie_cell_stops_at_its_first_windows(self, monkeypatch):
        # alpha = p* = 1/2: every grid point ties, so the first point is
        # the answer as soon as the windows' maximum is known
        rule = quadratic_rule(2)
        sizes = []
        objective = rule.binary_objective_grid

        def counted(x, fx):
            sizes.append(np.size(x))
            return objective(x, fx)

        monkeypatch.setattr(rule, "binary_objective_grid", counted)
        assert sweep_reports(rule, [0.5], [0.5], 1e-6) == [0.0]
        assert sum(sizes) < 10_000
        assert max(sizes) < _binary_grid(rule, 1e-6).size

    def test_flat_top_before_the_first_tie_keeps_growing(self):
        # alpha just below 1/2: phi stays within 1e-12 of its maximum for
        # about 15 800 grid points left of the stationary point, so the
        # first tie lies in a gap before the window's first tie
        args = (Q2, [0.5 - 1e-9], [0.5], 1e-6)
        reports = sweep_reports(*args)
        assert reports == full_scan_reports(*args)
        assert reports[0] < 0.4842

    def test_first_tie_must_tie_with_the_gaps(self):
        # D = 0 and phi = T0 rises to 1 at the candidate 1/2, stays there,
        # and bumps by slack / 2 in a gap (as rounding may): the windows'
        # first tie 1/2 is not the grid's, which is the bump's first point
        class Plateau:
            def binary_objective_grid(self, x, fx):
                bump = (x >= 0.6) & (x <= 0.7)
                return np.where(x <= 0.5, 0.5 + x, np.where(bump, 1.0 + 5e-10, 1.0))

        xs = np.linspace(0.0, 1.0, 10_001)
        found = _cells_argmax(Plateau(), xs, np.zeros(1), np.zeros(1),
                              np.zeros(3, dtype=int), np.array([0.0, 0.5, 1.0]), 1e-9)
        assert found.tolist() == [6000]

    @pytest.mark.parametrize(
        "rule",
        [Q2, logarithmic_rule(2)]
        + [exponential_binary_rule(K) for K in (0.5, 3.0, 7.07, 20.0)]
        + [design_exponential_rule(1.0, eps) for eps in (0.2, 0.4)],
        ids=str,
    )
    def test_slack_from_the_ends_is_the_full_grid_slack(self, rule):
        for resolution in (1e-4, 1e-5, 1e-6):
            xs = _binary_grid(rule, resolution)
            T0 = rule.binary_objective_grid(xs, 0.0)
            D = rule.binary_objective_grid(xs, 1.0) - T0
            full = _TABLE_ROUNDING * max(1.0, float(np.abs(T0).max() + np.abs(D).max()))
            assert _rounding_slack(rule, xs) == full


# the perfbench batch's cells and rules, and the rules whose candidates
# are checked against the scalar enumeration
BATCH_ALPHAS = [round(0.1 * k, 1) for k in range(1, 10)]
BATCH_PSTARS = [round(0.05 * k, 2) for k in range(21)]
BATCH_RULES = [Q2, logarithmic_rule(2), design_exponential_rule(1.0, 0.2)]
SIX_RULES = BATCH_RULES + [
    design_exponential_rule(1.0, 0.4), exponential_binary_rule(3.0), exponential_binary_rule(20.0)
]
# points passed to binary_objective_grid by the batch's sweep of each rule;
# measured 160 236 (quadratic), 252 234 (log) and 166 918 (exp eps = 0.2).
# With no stationary points among the candidates the windows around the
# grid's ends grow until they cover the maxima: 27e6 points and more
SWEEP_POINT_BUDGET = 300_000


class TestSweepCandidates:
    """The sweep's candidates come from one stacked row kernel per rule,
    and none may go missing: ``_cells_argmax`` relies on phi being
    monotone between a cell's candidates."""

    @pytest.mark.parametrize("rule", SIX_RULES, ids=str)
    def test_stacked_candidates_are_the_scalar_ones(self, rule):
        # the CLI default cells: 9 slopes x fixed points 0, 1e-3, ..., 1 at 1e-6
        xs = _Grid(rule, 1e-6)
        lo, hi = xs[[0, xs.size - 1]].tolist()
        slopes = np.repeat(BATCH_ALPHAS, 1001)
        offsets = np.tile(pstar_grid(1e-3), 9) * (1.0 - slopes)
        cell, found = rule._line_critical_rows(slopes, offsets, lo, hi)
        for k, line in enumerate(zip(slopes, offsets)):
            scalar = sorted(rule._critical_points(np.array(line), lo, hi))
            stacked = np.sort(found[cell == k])
            assert stacked.size == len(scalar), (k, stacked, scalar)
            # far inside the _WINDOW_HALF = 128 grid steps of 1e-6 each
            assert np.all(np.abs(stacked - scalar) <= 1e-9), (k, stacked, scalar)

    @pytest.mark.parametrize("rule", BATCH_RULES, ids=str)
    def test_point_budget(self, rule, monkeypatch):
        spent = []
        objective = rule.binary_objective_grid

        def counted(x, fx):
            spent.append(np.size(x))
            # stop a run that lost its candidates before its windows get huge
            assert sum(spent) <= SWEEP_POINT_BUDGET
            return objective(x, fx)

        monkeypatch.setattr(rule, "binary_objective_grid", counted)
        binary_sweep(rule, BATCH_ALPHAS, BATCH_PSTARS, 1e-6)
        assert 0 < sum(spent) <= SWEEP_POINT_BUDGET

    @pytest.mark.parametrize("rule", SIX_RULES, ids=str)
    def test_sweep_does_no_per_cell_work(self, rule, monkeypatch):
        calls = []
        critical_points, brentq = rule._critical_points, scoring._brentq

        def counted_points(*args):
            calls.append("_critical_points")
            return critical_points(*args)

        def counted_brentq(*args, **kwargs):
            calls.append("_brentq")
            return brentq(*args, **kwargs)

        monkeypatch.setattr(rule, "_critical_points", counted_points)
        monkeypatch.setattr(scoring, "_brentq", counted_brentq)
        binary_sweep(rule, BATCH_ALPHAS, BATCH_PSTARS, 1e-6)
        assert calls == []
        # the counters do count: the exact solver enumerates per piece
        performative_optimum(rule, affine_binary(binary_point(0.3), 0.6))
        assert "_critical_points" in calls


class TestGrid:
    """``_Grid`` is ``_binary_grid`` computed from indices."""

    @pytest.mark.parametrize("rule", [Q2, logarithmic_rule(2)], ids=str)
    @pytest.mark.parametrize("resolution", [1e-3, 3e-4, 1e-4, 8.1e-6, 1e-6, 1 / 123457])
    def test_points_are_the_linspace_grid(self, rule, resolution):
        xs = _binary_grid(rule, resolution)
        grid = _Grid(rule, resolution)
        assert grid.size == xs.size
        assert grid[np.arange(grid.size)].tobytes() == xs.tobytes()
        probes = np.concatenate([
            xs[::97], np.nextafter(xs[::89], -1.0), np.nextafter(xs[::83], 2.0),
            [-1.0, 0.0, resolution, 0.5, 1.0 - resolution, 1.0, 2.0],
            np.random.default_rng(7).uniform(0.0, 1.0, 500),
        ])
        assert np.array_equal(grid.searchsorted(probes), np.searchsorted(xs, probes))


class TestMaxCurves:
    def test_quadratic_tight_then_slack(self):
        rows = max_curves(Q2, [0.4, 0.8], pstar_step=1e-3, resolution=1e-5)
        tight = rows[0]
        assert tight.max_inaccuracy == pytest.approx(0.4 / math.sqrt(2), abs=2e-3)
        slack = rows[1]
        assert slack.max_inaccuracy < slack.bound_inaccuracy - 0.1

    def test_distance_overlay(self):
        rows = max_curves(Q2, [0.5], pstar_step=1e-3, resolution=1e-5)
        assert rows[0].bound_dist == pytest.approx(
            0.5 / (0.5 * math.sqrt(2)), abs=1e-12
        )
        assert rows[0].max_dist_to_fp == pytest.approx(rows[0].bound_dist, abs=2e-3)

    def test_zero_slope_all_zero(self):
        rows = max_curves(Q2, [0.0], pstar_step=1e-3, resolution=1e-4)
        assert rows[0].max_inaccuracy == pytest.approx(0.0, abs=2e-4)
        assert rows[0].bound_inaccuracy == 0.0

    def test_rows_are_the_per_slope_maxima(self):
        # one sweep over both slopes gives each slope's own maxima
        lg = logarithmic_rule(2)
        low, high = max_curves(lg, [0.3, 0.97], pstar_step=1e-3, resolution=1e-4)
        records = binary_sweep(lg, [0.3], pstar_grid(1e-3), 1e-4)
        assert low.max_inaccuracy == max(r.inaccuracy for r in records)
        assert low.max_dist_to_fp == max(r.dist_to_fp for r in records)
        records = binary_sweep(lg, [0.97], pstar_grid(1e-3), 1e-4)
        assert high.max_inaccuracy == max(r.inaccuracy for r in records)
        assert math.isnan(high.max_dist_to_fp)

    @pytest.mark.parametrize("step", [0.0, -1e-3, 2e-3, float("nan"), float("inf")])
    def test_step_validation(self, step):
        with pytest.raises(InvalidArgumentError):
            max_curves(Q2, [0.5], pstar_step=step, resolution=1e-4)


class TestManyOutcome:
    def test_constant_uniform_matrix_gives_honest_optimum(self):
        # every column uniform: f is constant at the barycenter, so the
        # optimum is the barycenter and inaccuracy vanishes
        from perfscore.solvers import SolveConfig

        env = linear(np.full((5, 5), 0.2))
        res = performative_optimum(quadratic_rule(5), env, SolveConfig(seed=0))
        assert l2_distance(res.report, uniform_point(5)) <= 1e-6

    def test_small_run_accounting(self):
        records, summary = many_outcome_experiment(n=5, trials=24, seed=3)
        assert len(records) == 24
        assert summary.n_ok + summary.n_timeout == 24
        assert summary.n_ok == 24
        for r in records:
            # distances recomputable from the stored report and fixed point
            assert r.report is not None
            p = SimplexPoint(r.report)
            fp = SimplexPoint(r.fixed_point)
            assert l2_distance(p, fp) == pytest.approx(r.dist_to_fp, abs=1e-9)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_pointwise_bound_is_op_norm_times_distance_to_barycenter(self, n):
        # ||g(p)|| / gamma_p = ||p - u|| for the quadratic rule, bit for bit
        records, _ = many_outcome_experiment(n=n, trials=30, seed=1)
        for r in records:
            assert r.bound_pointwise == r.op_norm * r.dist_report_uniform

    def test_jobs_is_ignored(self):
        a, _ = many_outcome_experiment(n=4, trials=12, seed=5, jobs=1)
        b, _ = many_outcome_experiment(n=4, trials=12, seed=5, jobs=4)
        for r in a + b:
            r.runtime_ms = 0.0
        assert a == b

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 8])
    @pytest.mark.parametrize("seed", [1, 2305])
    def test_batch_matches_single_map_calls(self, n, seed):
        # each trial rebuilt from the public one-map calls, bit for bit
        records, _ = many_outcome_experiment(n=n, trials=20, seed=seed)
        rule = quadratic_rule(n)
        u = uniform_point(n)
        for i, r in enumerate(records):
            env = random_linear(n, np.random.default_rng(np.random.SeedSequence([seed, i])))
            fp = find_fixed_points(env).points[0]
            op_norm = tangent_operator_norm(env.A)
            p = performative_optimum(rule, env).report
            want = ExperimentRecord(
                env_descriptor=f"linear:seed={seed},trial={i},n={n}",
                op_norm=op_norm,
                inaccuracy=l2_distance(env.eval(p), p),
                dist_to_fp=l2_distance(p, fp),
                dist_fp_uniform=l2_distance(fp, u),
                dist_report_uniform=l2_distance(p, u),
                bound_Lf=op_norm * (rule.max_subgradient_norm() / rule.min_gamma()),
                bound_pointwise=op_norm * (rule.subgradient_norm(p) / rule.gamma_at(p)),
                runtime_ms=r.runtime_ms,
                status="ok",
                report=p.probs.tolist(),
                fixed_point=fp.probs.tolist(),
            )
            assert r == want, i

    def test_runtime_is_the_batch_time_shared_evenly(self):
        records, _ = many_outcome_experiment(n=4, trials=6, seed=2)
        assert len({r.runtime_ms for r in records}) == 1
        assert records[0].runtime_ms > 0.0

    def test_summary_windows_are_populated(self):
        records, summary = many_outcome_experiment(n=5, trials=40, seed=7)
        assert 0.0 < summary.inaccuracy.mean < 0.5
        assert "op_norm_vs_inaccuracy" in summary.correlations
        assert summary.fits["inaccuracy_on_op_norm"].slope != 0.0

    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            many_outcome_experiment(n=2, trials=5, seed=0)
        with pytest.raises(InvalidArgumentError):
            many_outcome_experiment(n=5, trials=0, seed=0)


class TestCounterexamples:
    def test_fixed_point_beaten_at_positive_shrink_rate(self):
        report = counterexample_demo(Q2, binary_point(0.5))
        assert report.alpha > 0.0
        assert report.score_gap > 0.0
        # verify the gap directly: p' scores above the honest fixed point
        from perfscore.environment import shrink_to

        env = shrink_to(binary_point(0.5), report.alpha)
        lhs = Q2.expected_score(report.p_prime, env.eval(report.p_prime))
        rhs = Q2.expected_score(binary_point(0.5), binary_point(0.5))
        assert lhs - rhs == pytest.approx(report.score_gap, abs=1e-12)

    def test_identity_limit_gap_is_potential_difference(self):
        from perfscore.environment import shrink_to

        report = counterexample_demo(Q2, binary_point(0.5))
        env0 = shrink_to(binary_point(0.5), 0.0)
        gap0 = Q2.expected_score(
            report.p_prime, env0.eval(report.p_prime)
        ) - Q2.expected_score(binary_point(0.5), binary_point(0.5))
        assert gap0 == pytest.approx(
            Q2.potential(report.p_prime) - Q2.potential(binary_point(0.5)),
            abs=1e-12,
        )

    def test_works_for_every_rule_and_higher_n(self):
        for rule in (logarithmic_rule(2), exponential_binary_rule(4.0)):
            rep = counterexample_demo(rule, binary_point(0.4))
            assert rep.score_gap > 0.0
        rep5 = counterexample_demo(quadratic_rule(5), uniform_point(5))
        assert rep5.score_gap > 0.0

    def test_requires_interior_fixed_point(self):
        with pytest.raises(InvalidArgumentError):
            counterexample_demo(Q2, binary_point(1.0))

    @pytest.mark.parametrize(
        "rule, p_star",
        [(Q2, binary_point(0.5)), (Q2, binary_point(0.2)),
         (logarithmic_rule(2), binary_point(0.4)),
         (exponential_binary_rule(4.0), binary_point(0.4)),
         (exponential_binary_rule(4.0), binary_point(0.3)),
         (quadratic_rule(5), uniform_point(5)), (logarithmic_rule(3), uniform_point(3))],
        ids=["quadratic-0.5", "quadratic-0.2", "log-0.4", "exp-0.4", "exp-0.3",
             "quadratic-n5", "log-n3"],
    )
    def test_gap_vanishes_at_the_crossing(self, rule, p_star):
        from perfscore.environment import shrink_to

        # phi(p') at rate a is (1 - a) G(p') + a S(p', p*): rounding scales
        # with the larger of the two terms
        rep = counterexample_demo(rule, p_star)
        env = shrink_to(p_star, rep.crossing_alpha)
        gap = rule.expected_score(rep.p_prime, env.eval(rep.p_prime)) - rule.potential(p_star)
        terms = (rule.potential(rep.p_prime), rule.expected_score(rep.p_prime, p_star))
        assert abs(gap) <= 1e-15 * max(1.0, *map(abs, terms))
        assert 0.0 < rep.crossing_alpha < 1.0 and rep.alpha == 0.5 * rep.crossing_alpha

    def test_symmetric_quadratic_crossing_is_one_half(self):
        # G(p') - G(p*) and G(p') - S(p', p*) are both 2 (p'_1 - 1/2)^2 here
        assert counterexample_demo(Q2, binary_point(0.5)).crossing_alpha == 0.5

    def test_ramp_demo_distance(self):
        rep = ramp_distance_demo(Q2, zeta=0.1, eps=0.01)
        assert rep.fixed_point[0] == pytest.approx(0.9)
        assert rep.dist_p1 >= rep.threshold
        assert rep.threshold == pytest.approx(1.0 - 0.1 - 2.0 * 0.01)


class TestEmission:
    def make_records(self, k):
        return [
            ExperimentRecord(
                env_descriptor=f"affine:p1=0.5,alpha=0.{i}",
                op_norm=0.1 * i,
                inaccuracy=0.01 * i,
                dist_to_fp=0.02 * i,
                dist_fp_uniform=0.0,
                dist_report_uniform=0.1,
                bound_Lf=0.2,
                bound_pointwise=0.15,
                runtime_ms=0.0,
                status="ok",
            )
            for i in range(k)
        ]

    def test_empty_records_header_only(self):
        text = emit([], "csv")
        assert text == ",".join(CSV_COLUMNS) + "\n"

    def test_three_records_four_lines(self):
        text = emit(self.make_records(3), "csv")
        assert len(text.strip().split("\n")) == 4

    def test_header_column_order(self):
        text = records_to_csv(self.make_records(1))
        assert text.split("\n")[0] == ",".join(CSV_COLUMNS)

    @given(scalars=st.lists(st.floats(), min_size=9, max_size=9),
           report=st.lists(st.floats(), min_size=2, max_size=2))
    @settings(max_examples=300, deadline=None)
    def test_floats_roundtrip(self, scalars, report):
        # every finite float comes back bit for bit from CSV and JSON;
        # JSON writes NaN and +-inf as null
        rec = self.make_records(1)[0]
        for name, value in zip(FLOAT_FIELDS, scalars):
            setattr(rec, name, value)
        rec.report = report
        rows = list(csv.reader(records_to_csv([rec]).strip().split("\n")))
        cells = dict(zip(rows[0], rows[1]))
        parsed = json.loads(to_json(rec))

        def same(a, b):
            return struct.pack("<d", a) == struct.pack("<d", b)

        for name, value in zip(FLOAT_FIELDS, scalars):
            if math.isfinite(value):
                assert same(float(cells[name]), value)
                assert same(parsed[name], value)
            else:
                assert parsed[name] is None
        for got, value in zip(parsed["report"], report):
            assert same(got, value) if math.isfinite(value) else got is None

    def test_json_stats_roundtrip(self):
        records, summary = many_outcome_experiment(n=4, trials=8, seed=2)
        text = to_json(summary)
        parsed = json.loads(text)
        assert parsed["n_ok"] == 8
        assert parsed["inaccuracy"]["mean"] == pytest.approx(
            summary.inaccuracy.mean
        )

    def test_unknown_format_rejected(self):
        with pytest.raises(InvalidArgumentError):
            emit(self.make_records(1), "tsv")

    def test_deterministic_repeated_render(self):
        records = binary_sweep(Q2, [0.3], np.linspace(0, 1, 11), resolution=1e-4)
        for r in records:
            r.runtime_ms = 0.0
        a = records_to_csv(records)
        records2 = binary_sweep(Q2, [0.3], np.linspace(0, 1, 11), resolution=1e-4)
        for r in records2:
            r.runtime_ms = 0.0
        assert a == records_to_csv(records2)

    def test_summary_stats_of(self):
        from perfscore.harness import SummaryStats

        s = SummaryStats.of(np.array([1.0, 2.0, 3.0, 4.0]))
        assert s.mean == pytest.approx(2.5)
        assert s.q2 == pytest.approx(2.5)

    def test_summarize_all_timeouts(self):
        recs = self.make_records(2)
        for r in recs:
            r.status = "timeout"
        summary = summarize_records(recs)
        assert (summary.n_ok, summary.n_timeout) == (0, 2)
        assert summary.inaccuracy is None and summary.fits is None
        parsed = json.loads(to_json({"records": recs, "summary": summary}))
        assert parsed["summary"]["correlations"] is None

    def test_summarize_one_ok_record(self):
        # one ok record leaves correlations and fits undefined; numpy would
        # warn on them (tier-1 turns RuntimeWarning into an error)
        recs = self.make_records(3)
        recs[0].status = recs[2].status = "timeout"
        summary = summarize_records(recs)
        assert (summary.n_ok, summary.n_timeout) == (1, 2)
        assert summary.inaccuracy.mean == 0.01 and summary.inaccuracy.std == 0.0
        assert set(summary.correlations.values()) == {None}
        assert set(summary.fits.values()) == {None}
