"""perfscore benchmark entry point.

    python3 perfbench/run.py --workload five_outcome --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --out result.json

Runs one workload (or ``all`` three, in this one process) as a closed loop
with one caller and BLAS/OpenMP pinned to one thread, checks every op's
output, prints each metric by name with its unit, and ends with one JSON
line.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs the
same ops untraced and then traced by wrappers installed from outside the
library, and reports the per-layer metrics.  ``--out`` also writes the run
record, the static code record and the CLI behaviour record.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("five_outcome", "binary", "dynamics")
SETUP_SAMPLES = 5  # this process plus four fresh interpreters
BLAS_THREADS = "1"
BLAS_VARIABLES = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

# end-to-end metrics reported in the final JSON line, with units
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "batch_s": "s",
}
# the same numbers under the names each workload gives them
ALIASES = {
    "five_outcome": {"ops_per_s": "trials_per_s", "op_ms_p50": "trial_ms_p50",
                     "op_ms_p90": "trial_ms_p90", "batch_s": "many_outcome_s"},
    "binary": {"ops_per_s": "solves_per_s", "op_ms_p50": "solve_ms_p50",
               "op_ms_p90": "solve_ms_p90", "batch_s": "sweep_s"},
    "dynamics": {"ops_per_s": "online_runs_per_s", "op_ms_p50": "online_run_ms_p50",
                 "batch_s": "market_s"},
}


def pin_threads():
    for name in BLAS_VARIABLES:
        os.environ[name] = BLAS_THREADS


def import_library():
    """Import perfscore from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import perfscore

    if not Path(perfscore.__file__).resolve().is_relative_to(src.resolve()):
        raise ImportError(f"perfscore imported from {perfscore.__file__}, not {src}")
    return perfscore


def setup(name, seed):
    """Import the library and build the workload; returns (ps, workload, s)."""
    t0 = time.perf_counter()
    ps = import_library()
    import workloads

    wl = workloads.build(name, seed, ps)
    return ps, wl, time.perf_counter() - t0


def setup_seconds(name, seed, own=None):
    """Median set-up time over this process (``own``, when it imported the
    library for this workload) and fresh interpreters."""
    samples = [] if own is None else [own]
    while len(samples) < SETUP_SAMPLES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples), samples


# -- running ops ------------------------------------------------------------------


class Outcome:
    """What one op did: latency, output, its digest, failure reason."""

    __slots__ = ("op", "seconds", "output", "error", "digest", "reason")

    def __init__(self, op, seconds, output, error):
        self.op = op
        self.seconds = seconds
        self.output = output
        self.error = error
        self.digest = None
        self.reason = None

    def seal(self):
        self.digest = self.op.digest(self.output) if self.error is None else self.error.encode()

    def settle(self):
        """Check the kept output, then drop it."""
        if self.output is not None:
            self.reason = self.op.check(self.output)
            self.output = None

    @property
    def failed(self):
        return self.error is not None or self.reason is not None


def execute(op):
    t0 = time.perf_counter()
    try:
        output = op.run()
        error = None
    except Exception as exc:  # an op that raises is recorded as failed
        output = None
        error = traceback.format_exception_only(exc)[-1].strip()
    return Outcome(op, time.perf_counter() - t0, output, error)


class Measurement:
    def __init__(self, stream, batch, reps, passes):
        self.stream = stream
        self.batch = batch  # the batch's outcomes, repetition after repetition
        self.passes = passes
        self.stream_s = sum(o.seconds for o in stream)
        size = len(batch) // reps
        self.rep_s = [sum(o.seconds for o in batch[r * size:(r + 1) * size])
                      for r in range(reps)]

    @property
    def outcomes(self):
        return self.stream + self.batch

    @property
    def batch_s(self):
        return statistics.median(self.rep_s)

    @property
    def wall_s(self):
        return self.stream_s + sum(self.rep_s)

    def failed(self):
        return sum(o.failed for o in self.outcomes)

    def fail_frac(self):
        return self.failed() / len(self.outcomes)


def run_checked(op, first, keep):
    """Run ``op``.  A repeat (``first`` is the op's first outcome) must
    reproduce its digest; a first run is checked right away and its output
    dropped, unless ``keep`` keeps it for ``settle`` later."""
    o = execute(op)
    o.seal()
    if first is not None:
        o.output = None
        if o.digest != first.digest:
            o.reason = "output differs from the first run"
    elif not keep:
        o.settle()
    return o


def measure(wl, seconds=None, keep=False, reps=None):
    """Whole passes over the stream, with the batch repeated in the first.

    The first pass runs ``reps`` (by default ``wl.batch_reps``) repetitions
    of the batch spread evenly between its ops, the last one after its last
    op, so that the batch's median spans the same stretch of the run as the
    stream does.  With ``seconds`` another stream pass starts only if one
    more pass of the last pass's length still ends within the budget,
    counted over stream and batch; without, one pass.  Stream time is the
    time spent inside ops.  Each op is checked right after its first run,
    outside its timing, and its output dropped, so memory does not grow
    with the run; repeats must reproduce the first run's digests.
    """
    reps = wl.batch_reps if reps is None else reps
    n = len(wl.stream)
    due = [round(k * n / reps) for k in range(1, reps + 1)]  # stream ops before each rep
    stream, batch = [], []

    def run_batch():
        first = batch[:len(wl.batch)] or [None] * len(wl.batch)
        batch.extend(run_checked(op, f, keep) for op, f in zip(wl.batch, first))

    for i, op in enumerate(wl.stream):
        while due and due[0] == i:
            run_batch()
            due.pop(0)
        stream.append(run_checked(op, None, keep))
    for _ in due:
        run_batch()
    passes = 1
    while seconds is not None:
        spent = sum(o.seconds for o in stream + batch)
        if spent + sum(o.seconds for o in stream[-n:]) > seconds:
            break
        stream.extend([run_checked(op, stream[i], keep) for i, op in enumerate(wl.stream)])
        passes += 1
    return Measurement(stream, batch, reps, passes)


def wrong_outputs(m):
    return [f"{o.op.label}: {o.reason}" for o in m.outcomes if o.reason is not None]


def failures(m):
    """Failure causes with their counts, by op label."""
    causes = {}
    for o in m.outcomes:
        if o.failed:
            key = f"{o.op.label}: {o.error or o.reason}"
            causes[key] = causes.get(key, 0) + 1
    return causes


def percentile(values, q):
    # numpy is first imported by perfscore inside setup(), so that set-up
    # time includes it; this module does not import it at load time
    import numpy as np

    return float(np.percentile(values, q))


def end_to_end(wl, m, setup_s):
    ok = [o for o in m.stream if not o.failed]
    if not ok:
        raise SystemExit(f"perfbench: no {wl.unit} op of {wl.name} completed")
    latencies = [o.seconds * 1e3 for o in ok]
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ops_per_s": len(ok) / m.stream_s,
        "op_ms_p50": percentile(latencies, 50),
        "batch_s": m.batch_s,
    }
    extra = {"fail_frac": (m.fail_frac(), "ratio")}
    if len(latencies) >= 100:
        extra["op_ms_p90"] = (percentile(latencies, 90), "ms")
    if wl.name == "binary":
        extra["sweep_cells_per_s"] = (wl.batch_cells / m.batch_s, "1/s")
    if wl.name == "dynamics":
        rounds = sum(o.op.rounds for o in ok)
        online_s = sum(o.seconds for o in ok)
        extra["online_steps_per_s"] = (rounds / online_s, "1/s")
    return metrics, extra, len(latencies)


# -- traced run -------------------------------------------------------------------

PER_LAYER_SPANS = {
    "simplex.SimplexPoint.calls": ("simplex.SimplexPoint", "calls"),
    "simplex.SimplexPoint.self_s": ("simplex.SimplexPoint", "self_s"),
    "simplex.TangentVector.calls": ("simplex.TangentVector", "calls"),
    "simplex.project_to_simplex.calls": ("simplex.project_to_simplex", "calls"),
    "simplex.project_raw.self_s": ("simplex.project_raw", "self_s"),
    "solvers.performative_optimum.calls": ("solvers.performative_optimum", "calls"),
    "solvers.performative_optimum.s": ("solvers.performative_optimum", "s"),
    "solvers.performative_gradient.calls": ("solvers.performative_gradient", "calls"),
    "solvers.performative_gradient.self_s": ("solvers.performative_gradient", "self_s"),
    "solvers.grid_optimum_binary.calls": ("solvers.grid_optimum_binary", "calls"),
    "solvers.grid_optimum_binary.s": ("solvers.grid_optimum_binary", "s"),
    "solvers.quadratic_linear_exact_optimum.s": ("solvers.quadratic_linear_exact_optimum", "s"),
    "solvers.online_sgd.s": ("solvers.online_sgd", "s"),
    "scoring.expected_score.calls": ("scoring.expected_score", "calls"),
    "environment.eval.calls": ("environment.eval", "calls"),
    "environment.jacobian.calls": ("environment.jacobian", "calls"),
    "environment.find_fixed_points.s": ("environment.find_fixed_points", "s"),
    "bounds.inaccuracy_bound.s": ("bounds.inaccuracy_bound", "s"),
    "games.market_equilibrium.s": ("games.market_equilibrium", "s"),
    "harness.binary_sweep.s": ("harness.binary_sweep", "s"),
}


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(tr, overhead_frac):
    metrics = {}
    for layer, (calls, self_s) in tr.layer_totals().items():
        metrics[f"{layer}.calls"] = (calls, "count")
        metrics[f"{layer}.self_s"] = (self_s, "s")
    read = {"calls": tr.calls, "s": tr.inclusive_s, "self_s": tr.self_s}
    for metric, (span, kind) in PER_LAYER_SPANS.items():
        metrics[metric] = (read[kind](span), "count" if kind == "calls" else "s")
    gradients = tr.calls("solvers.performative_gradient")
    metrics["simplex.points_per_gradient"] = (
        _ratio(tr.calls("simplex.SimplexPoint"), gradients), "ratio")
    metrics["solvers.gradients_per_solve"] = (
        _ratio(gradients, tr.calls("solvers.performative_optimum")), "ratio")
    metrics["solvers.evals_per_gradient"] = (
        _ratio(tr.calls("scoring.expected_score"), gradients), "ratio")
    metrics["trace.overhead_frac"] = (overhead_frac, "ratio")
    return metrics


class TraceReport:
    """Untraced and traced measurements of one pass, and the tracer."""

    def __init__(self, untraced, traced, tr):
        self.untraced = untraced
        self.traced = traced
        self.tracer = tr
        self.self_sum = sum(row[2] for row in tr.stats.values())

    def problems(self):
        out = []
        unrestored = self.tracer.unrestored()
        if unrestored:
            out.append(f"bindings not restored: {unrestored}")
        if self.self_sum > self.traced.wall_s:
            out.append(f"self times {self.self_sum} exceed traced wall {self.traced.wall_s}")
        if [o.digest for o in self.untraced.outcomes] != [o.digest for o in self.traced.outcomes]:
            out.append("traced and untraced op results differ")
        if self.untraced.fail_frac() != self.traced.fail_frac():
            out.append("traced and untraced fail_frac differ")
        return out

    def overhead_frac(self):
        return (self.traced.wall_s - self.untraced.wall_s) / self.untraced.wall_s


def traced_comparison(ps, wl):
    """One untraced pass with one batch, then the same ops traced from
    outside the library."""
    import tracer

    untraced = measure(wl, reps=1)
    tr = tracer.Tracer(ps)
    with tr:
        traced = measure(wl, keep=True, reps=1)
    # the traced outputs are checked after the tracer is gone
    for o in traced.outcomes:
        o.settle()
    return TraceReport(untraced, traced, tr)


# -- reporting ----------------------------------------------------------------------


def _print_metric(workload, name, value, unit, note=""):
    print(f"{workload:13s} {name:40s} {value:14.6g} {unit}{note}")


def run_workload(name, seed, seconds, trace, ps, wl, own_setup_s):
    print(f"# workload {name}: stream of {len(wl.stream)} {wl.unit} ops per pass, "
          f"batch: {wl.batch_unit}, run {wl.batch_reps} times untraced")
    if trace:
        report = traced_comparison(ps, wl)
        problems = report.problems()
        for p in problems:
            print(f"# TRACE PROBLEM: {p}")
        m = report.untraced
        wrong = wrong_outputs(m)
        metrics = per_layer(report.tracer, report.overhead_frac())
        for metric, (value, unit) in metrics.items():
            _print_metric(name, metric, value, unit)
        print(f"# traced wall {report.traced.wall_s:.3f} s, untraced wall "
              f"{report.untraced.wall_s:.3f} s, self-time sum {report.self_sum:.3f} s")
        write_trace(name, seed, report)
        correct = not wrong and not problems
        values = metrics
    else:
        m = measure(wl, seconds)
        wrong = wrong_outputs(m)
        setup_s, samples = setup_seconds(name, seed, own_setup_s)
        metrics, extra, n_lat = end_to_end(wl, m, setup_s)
        aliases = ALIASES[name]
        for metric, value in metrics.items():
            alias = aliases.get(metric)
            _print_metric(name, metric, value, END_TO_END[metric],
                          f"   ({alias})" if alias else "")
        for metric, (value, unit) in extra.items():
            alias = aliases.get(metric)
            _print_metric(name, alias or metric, value, unit, "   (not gated)")
        print(f"# {m.passes} pass(es), {n_lat} timed ok stream ops in {m.stream_s:.3f} s; "
              f"batch repetitions {[round(s, 4) for s in m.rep_s]} s; "
              f"setup samples {[round(s, 4) for s in samples]}")
        correct = not wrong
        values = {k: (v, END_TO_END[k]) for k, v in metrics.items()}
    for w in wrong:
        print(f"# WRONG OUTPUT: {w}")
    for cause, count in failures(m).items():
        print(f"# failed x{count}: {cause}")
    return {
        "correct": correct,
        "attempted": len(m.outcomes),
        "failed": m.failed(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }


def write_trace(name, seed, report):
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"trace-{name}-seed{seed}.json"
    with open(path, "w") as fh:
        json.dump({"workload": name, "seed": seed, "traced_wall_s": report.traced.wall_s,
                   "untraced_wall_s": report.untraced.wall_s,
                   "spans": report.tracer.table()}, fh, indent=1)
    print(f"# span table written to {path.relative_to(ROOT)}")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0,
                    help="stream budget; whole passes only, at least one")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None,
                    help="also write results, run, code and behaviour records here")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    pin_threads()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        ps, wl, own = setup(names[0], args.seed)
    except ImportError as exc:
        print(f"perfbench: cannot import the library: {exc}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(own)
        return 0
    import records
    import workloads

    run_record = records.run_record(ROOT, BLAS_VARIABLES)
    print(f"# run record: {json.dumps(run_record, sort_keys=True)}")
    results = {}
    for i, name in enumerate(names):
        if i:
            # the library is already imported: set-up is timed by probes only
            wl, own = workloads.build(name, args.seed, ps), None
        results[name] = run_workload(name, args.seed, args.seconds, args.trace, ps, wl, own)
    if args.out:
        payload = {"args": vars(args), "run": run_record,
                   "code": records.static_record(ROOT),
                   "behaviour": records.behaviour_record(HERE / "out"),
                   "results": results}
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                          "attempted": sum(r["attempted"] for r in results.values()),
                          "failed": sum(r["failed"] for r in results.values()),
                          "metrics": {f"{n}/{k}": v for n, r in results.items()
                                      for k, v in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
