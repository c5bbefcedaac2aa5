"""perfscore command line: sweeps, experiments, bounds, markets, regret.

Exit codes: 0 success, 2 invalid arguments, 3 I/O failure.  Output files
are byte-identical across repeated runs with the same seed; the
runtime_ms column is zeroed unless --volatile-runtime is passed, since
wall-clock timings are the one nondeterministic field.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import harness
from .bounds import (
    FIXED_POINT_DISTANCE,
    INACCURACY,
    design_exponential_rule,
    inaccuracy_bound,
    stake_profile,
)
from .environment import find_fixed_points, parse_environment
from .errors import InvalidArgumentError, PerfscoreError
from .games import (
    MarketGame,
    market_equilibrium,
    market_power_bound_check,
    regret_series,
)
from .scoring import parse_rule
from .simplex import binary_point, uniform_point
from .solvers import (
    SolveConfig,
    constant_policy_trace,
    inverse_schedule,
    online_sgd,
    performative_optimum,
    rga_policy_trace,
)


def _parse_float_list(text: str) -> list:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise InvalidArgumentError(f"bad numeric list {text!r}") from exc


def _add_common(sub, rule=True, env=True):
    if rule:
        sub.add_argument("--rule", default="quadratic",
                         help="quadratic | log | exp:K=<float>")
    if env:
        sub.add_argument("--env", default="affine:p1=0.5,alpha=0.3",
                         help="affine:p1=,alpha= | bankrun | linear:seed=[,n=] "
                              "| linear:file= | ramp:zeta=,eps=[,start=]")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--timeout-secs", type=float, default=120.0,
                     help="accepted and ignored: no solve has a wall-clock budget")
    sub.add_argument("--jobs", type=int, default=1,
                     help="accepted and ignored: many-outcome runs as one batch")
    sub.add_argument("--volatile-runtime", action="store_true",
                     help="emit real wall-clock runtime_ms (breaks byte determinism)")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="perfscore", description=__doc__)
    subs = ap.add_subparsers(dest="command", required=True)

    sweep = subs.add_parser("sweep-binary", help="affine binary sweep over (alpha, p*)")
    _add_common(sweep, env=False)
    sweep.add_argument("--alphas", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    sweep.add_argument("--pstar-step", type=float, default=1e-3)
    sweep.add_argument("--resolution", type=float, default=1e-6)

    curves = subs.add_parser("max-curves", help="worst-case accuracy curves vs slope")
    _add_common(curves, env=False)
    curves.add_argument("--alphas", default="0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9")
    curves.add_argument("--pstar-step", type=float, default=1e-3)
    curves.add_argument("--resolution", type=float, default=1e-6)

    many = subs.add_parser("many-outcome", help="random linear environments, quadratic rule")
    _add_common(many, rule=False, env=False)
    many.add_argument("--n", type=int, default=5)
    many.add_argument("--trials", type=int, default=1000)

    ce = subs.add_parser("counterexample", help="fixed points need not be optimal")
    _add_common(ce, env=False)
    ce.add_argument("--family", choices=("shrink", "ramp"), default="shrink")
    ce.add_argument("--p1", type=float, default=0.5)
    ce.add_argument("--n", type=int, default=2)
    ce.add_argument("--zeta", type=float, default=0.1)
    ce.add_argument("--eps", type=float, default=0.01)

    bound = subs.add_parser("bound", help="accuracy bounds at a report")
    _add_common(bound)
    bound.add_argument("--at", default=None, help="p1=<float>: evaluate here "
                       "instead of at the computed optimum")

    market = subs.add_parser("market", help="weighted market equilibrium + power bound")
    _add_common(market)
    market.add_argument("--weights", required=True, help="comma-separated, sums to 1")

    regret = subs.add_parser("regret", help="regret series for a policy")
    _add_common(regret)
    regret.add_argument("--policy", default="fixedpoint",
                        help="fixedpoint | constant:p1=<f> | rga | sgd")
    regret.add_argument("--T", type=int, default=10_000)

    design = subs.add_parser("design-exp-rule", help="exponent achieving a target bound")
    _add_common(design, rule=False, env=False)
    design.add_argument("--lf", type=float, required=True)
    design.add_argument("--epsilon", type=float, required=True)
    design.add_argument("--target", choices=(INACCURACY, FIXED_POINT_DISTANCE),
                        default=INACCURACY)

    stake = subs.add_parser("stake-profile", help="misreporting-cost spread across [p_l, p_h]")
    _add_common(stake, env=False)
    stake.add_argument("--lf", type=float, required=True)
    stake.add_argument("--epsilon", type=float, required=True)
    stake.add_argument("--pl", type=float, required=True)
    stake.add_argument("--ph", type=float, required=True)
    stake.add_argument("--grid-step", type=float, default=1e-3)
    return ap


def _freeze_runtime(records, volatile):
    if not volatile:
        for r in records:
            r.runtime_ms = 0.0


def _write(text: str, path):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _regret_csv(series) -> str:
    lines = ["t,cumulative_regret,prediction_error_cumsum"]
    for t in range(series.T):
        lines.append(
            f"{t + 1},{format(series.cumulative_regret[t], '.17g')},"
            f"{format(series.prediction_error_cumsum[t], '.17g')}"
        )
    return "\n".join(lines) + "\n"


def _run(args) -> int:
    cmd = args.command
    if cmd in ("sweep-binary", "max-curves"):
        rule = parse_rule(args.rule, 2)
        alphas = _parse_float_list(args.alphas)
        if cmd == "sweep-binary":
            records = harness.binary_sweep(rule, alphas, harness.pstar_grid(args.pstar_step),
                                           args.resolution)
            _freeze_runtime(records, args.volatile_runtime)
            _write(harness.emit(records, args.format), args.out)
        else:
            rows = harness.max_curves(rule, alphas, args.pstar_step, args.resolution)
            if args.format == "csv":
                _write(harness.max_curves_to_csv(rows), args.out)
            else:
                _write(harness.to_json(rows), args.out)
        return 0

    if cmd == "many-outcome":
        records, summary = harness.many_outcome_experiment(
            n=args.n, trials=args.trials, seed=args.seed, jobs=args.jobs,
        )
        _freeze_runtime(records, args.volatile_runtime)
        payload = records if args.format == "csv" else {"records": records, "summary": summary}
        _write(harness.emit(payload, args.format), args.out)
        return 0

    if cmd == "counterexample":
        if args.family == "shrink":
            rule = parse_rule(args.rule, args.n)
            if args.n == 2:
                p_star = binary_point(args.p1)
            else:
                p_star = uniform_point(args.n)
            report = harness.counterexample_demo(rule, p_star)
        else:
            rule = parse_rule(args.rule, 2)
            report = harness.ramp_distance_demo(rule, args.zeta, args.eps)
        _write(harness.to_json(report), args.out)
        return 0

    if cmd == "bound":
        env = parse_environment(args.env, args.seed)
        rule = parse_rule(args.rule, env.n)
        if args.at is not None:
            key, _, val = args.at.partition("=")
            if key != "p1" or env.n != 2:
                raise InvalidArgumentError("--at expects p1=<float> on binary environments")
            point = binary_point(float(val))
        else:
            cfg = SolveConfig(seed=args.seed)
            point = performative_optimum(rule, env, cfg).report
        rep = inaccuracy_bound(rule, env, point)
        payload = dataclasses.asdict(rep)
        payload["at"] = [float(v) for v in point.probs]
        _write(harness.to_json(payload), args.out)
        return 0

    if cmd == "market":
        env = parse_environment(args.env, args.seed)
        rule = parse_rule(args.rule, env.n)
        weights = tuple(_parse_float_list(args.weights))
        game = MarketGame(rule, env, weights)
        eq = market_equilibrium(game)
        checks = market_power_bound_check(eq, game)
        payload = {
            "predictions": [p for p in eq.predictions],
            "market_prediction": eq.market_prediction,
            "per_player_br_gap": eq.per_player_br_gap,
            "rounds": eq.rounds,
            "power_bound": [
                {"lhs": lhs, "rhs": rhs, "ok": ok} for lhs, rhs, ok in checks
            ],
        }
        _write(harness.to_json(payload), args.out)
        return 0

    if cmd == "regret":
        env = parse_environment(args.env, args.seed)
        rule = parse_rule(args.rule, env.n)
        policy = args.policy
        if policy == "fixedpoint":
            fp = find_fixed_points(env).points[0]
            trace = constant_policy_trace(rule, env, fp, args.T, args.seed)
        elif policy.startswith("constant:p1="):
            p = binary_point(float(policy.split("=", 1)[1]))
            trace = constant_policy_trace(rule, env, p, args.T, args.seed)
        elif policy == "rga":
            trace = rga_policy_trace(rule, env, uniform_point(env.n), args.T, args.seed)
        elif policy == "sgd":
            trace = online_sgd(rule, env, uniform_point(env.n),
                               inverse_schedule(1.0), args.T, args.seed)
        else:
            raise InvalidArgumentError(f"unknown policy {policy!r}")
        series = regret_series(trace, rule, env)
        if args.format == "json":
            _write(harness.to_json({
                "T": series.T,
                "average_regret": series.average_regret(),
                "average_prediction_error": series.average_prediction_error(),
            }), args.out)
        else:
            _write(_regret_csv(series), args.out)
        return 0

    if cmd == "design-exp-rule":
        rule = design_exponential_rule(args.lf, args.epsilon, args.target)
        _write(harness.to_json({
            "kind": rule.kind, "K": rule.K,
            "L_f": args.lf, "epsilon": args.epsilon, "target": args.target,
        }), args.out)
        return 0

    if cmd == "stake-profile":
        rule = parse_rule(args.rule, 2)
        profile = stake_profile(rule, args.lf, args.epsilon, args.pl, args.ph,
                                args.grid_step)
        _write(harness.to_json(profile), args.out)
        return 0

    raise InvalidArgumentError(f"unknown command {cmd!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _run(args)
    except InvalidArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except PerfscoreError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
