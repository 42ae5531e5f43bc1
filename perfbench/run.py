"""Benchmark for the dualnets CLI and library.

    python3 perfbench/run.py --workload ladder --seed 1 --seconds 30 --trace 0

Run it from the root of a source checkout: it imports and runs the program
from src/.  Each workload is a closed loop with one client: one CLI process
(or, for latin, one library call sequence) at a time.

--trace 0 times the ops end to end and prints the end-to-end metrics.
--trace 1 runs the same ops once in-process, without and then with the
tracer installed, and prints the per-layer metrics; the spans go to
perfbench/out/.  Either way every output is checked, and the last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

import argparse
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("ladder", "algebraic", "latin")
# Set-up runs at least this often, spread over the passes, and its median
# is reported: the machine's speed drifts within a run.
SETUP_REPEATS = 3
# Seconds one pass over a workload's ops takes at the baseline on a 2-core
# x86 VM.  A run makes the whole number of passes nearest to --seconds at
# that speed, at least one, so every run of a workload times the same ops,
# each one equally often.  At the run_seconds of BENCHMARK.json (30) that is
# 4, 6 and 8 passes, so every op has several times to take the median of.
PASS_SECONDS = {"ladder": 7.5, "algebraic": 5, "latin": 3.8}
# The shared host's speed drifts by a fifth or more between runs, the same
# for the program as for any pure-Python loop.  So a run also times a fixed
# reference loop before every op, and the end-to-end times are scaled to the
# speed at which that loop takes REFERENCE_S (its time on the baseline VM).
REFERENCE_LOOP = 50000
REFERENCE_S = 0.004
IMPORT_REPEATS = 7
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))
# What the installed `dualnets` console script runs.
ENTRY = "import sys; from dualnets.cli import main; sys.exit(main())"
CHILD_TIMEOUT = 150


class SetupError(Exception):
    pass


def run_child(argv, stdin=None):
    t0 = perf_counter()
    proc = subprocess.run([sys.executable] + argv, input=stdin, capture_output=True,
                          text=True, env=CHILD_ENV, cwd=ROOT, timeout=CHILD_TIMEOUT)
    return proc.returncode, proc.stdout, proc.stderr, perf_counter() - t0


def run_cli(argv, stdin=None):
    return run_child(["-c", ENTRY] + argv, stdin)


def call_main(cli, argv, stdin=None):
    """dualnets.cli.main(argv) in-process with stdin and stdout redirected."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    except Exception:
        code = 1
        err.write(traceback.format_exc())
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def tail(values):
    """The highest whole percentile with at least ten samples beyond it
    (nearest rank), as (percentile, value)."""
    xs = sorted(values)
    n = len(xs)
    pct = max(0, (100 * (n - 10)) // n)
    return pct, xs[max(0, math.ceil(pct * n / 100) - 1)]


def reference_loop():
    """Seconds of a fixed pure-Python loop that never touches the program."""
    t0 = perf_counter()
    x = 0
    for i in range(REFERENCE_LOOP):
        x += i * i % 7
    return perf_counter() - t0


def timed_passes(workload, seconds, ops, run_op, setup):
    """Run whole passes over ops, with set-up runs spread between them.

    setup() returns its own duration.  Returns [(op, output)] for every op
    run, the seconds of each op in each pass (one list per op), the set-up
    times, and the factor that scales this run's times to reference speed.
    """
    passes = max(1, round(seconds / PASS_SECONDS[workload]))
    repeats = max(SETUP_REPEATS, passes)
    outputs, times, setups, reference = [], [[] for _ in ops], [], []
    for i in range(passes):
        while len(setups) < repeats * (i + 1) // passes:
            setups.append(setup())
        for op, op_times in zip(ops, times):
            reference.append(reference_loop())
            t0 = perf_counter()
            outputs.append((op, run_op(op)))
            op_times.append(perf_counter() - t0)
    return outputs, times, setups, REFERENCE_S / statistics.median(reference)


def timed_metrics(times, setups, scale, peak_mib):
    """The end-to-end metrics, and report lines naming the tail percentile.

    Every time is multiplied by scale, the reference loop's REFERENCE_S over
    its median time in this run.  Within a run the speed swings too, so each
    op's latency is its median over the passes, which lie seconds apart.
    Each op still counts once per pass: the latency samples are every op's
    median, repeated as often as the op ran.
    """
    medians = [statistics.median(t) for t in times]
    passes = len(times[0])
    samples = medians * passes
    pct, tail_s = tail(samples)
    timed_s = sum(map(sum, times))
    metrics = {
        "setup_s": (statistics.median(setups) * scale, "s"),
        "ops_per_s": (len(samples) / (timed_s * scale), "1/s"),
        "op_s.p50": (statistics.median(medians) * scale, "s"),
        "op_s.tail": (tail_s * scale, "s"),
        "peak_rss_mib": (peak_mib, "MiB"),
    }
    report = ["%d passes of %d ops, %.2f s timed; host at %.3f of reference speed"
              % (passes, len(medians), timed_s, scale),
              "unscaled: setup_s %.4f, ops_per_s %.4f, op_s.p50 %.4f, op_s.tail %.4f"
              % (statistics.median(setups), len(samples) / timed_s,
                 statistics.median(medians), tail_s),
              "op_s.tail is p%d over %d samples" % (pct, len(samples))]
    return metrics, report


class Checker:
    """Counts ops and failures; identical outputs of one op are checked once."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.reasons = []
        self._seen = {}

    def record(self, key, output, check):
        self.attempted += 1
        memo = (key, output)
        if memo not in self._seen:
            self._seen[memo] = check()
        why = self._seen[memo]
        if why is not None:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append("%s: %s" % (key, why))


# ---- CLI workloads (ladder, algebraic) --------------------------------------

def setup_cli(docs, construct):
    """Construct every document; returns the seconds taken."""
    t0 = perf_counter()
    results = [construct(d.construct_argv()) for d in docs]
    seconds = perf_counter() - t0
    for d, (code, out, _) in zip(docs, results):
        why = W.accept_document(d, code, out)
        if why:
            raise SetupError(why)
    return seconds


def measure_cli(workload, seed, seconds):
    docs = W.make_docs(workload, seed)
    run_cli(["construct", "triangular", "--n", "3", "--p", "7"])  # fills bytecode caches
    ops = W.cli_ops(workload, docs)
    outputs, times, setups, scale = timed_passes(
        workload, seconds, ops,
        lambda op: run_cli(W.op_argv(op[0]), W.op_input(*op))[:3],
        lambda: setup_cli(docs, lambda argv: run_cli(argv)[:3]))
    checker = Checker()
    for (kind, doc), (code, out, err) in outputs:
        checker.record((kind, doc.label), (code, out, err),
                       lambda: W.check_cli(kind, doc, code, out, err))
    by_kind = {}
    for (kind, _), op_times in zip(ops, times):
        by_kind.setdefault(kind, []).append(statistics.median(op_times) * scale)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    metrics, report = timed_metrics(times, setups, scale, peak)
    report += ["%s_s.p50 = %.4f s over %d ops (median of each, scaled)"
               % (k, statistics.median(v), len(v)) for k, v in by_kind.items()]
    return checker, metrics, report


def traced_cli(workload, seed):
    import dualnets.cli as cli
    docs = W.make_docs(workload, seed)
    ops = W.cli_ops(workload, docs)
    checker = Checker()

    def one_pass(tracer=None):
        def construct(argv):
            if tracer:
                tracer.op += 1
            return call_main(cli, argv)
        t0 = perf_counter()
        setup_cli(docs, construct)
        for kind, doc in ops:
            if tracer:
                tracer.op += 1
            code, out, err = call_main(cli, W.op_argv(kind), W.op_input(kind, doc))
            checker.record((kind, doc.label), (code, out, err),
                           lambda: W.check_cli(kind, doc, code, out, err))
        return perf_counter() - t0

    return checker, one_pass


# ---- latin workload -----------------------------------------------------------

def setup_latin():
    from dualnets import constructors, latin
    t0 = perf_counter()
    catalog = latin.group_catalog(16)
    squares = [latin.from_net(constructors.triangular_cyclic(n, p)) for n, p in W.LATIN_SQUARES]
    seconds = perf_counter() - t0
    why = W.check_latin_setup(catalog, squares)
    if why:
        raise SetupError(why)
    return seconds, catalog, squares


def measure_latin(workload, seed, seconds):
    from dualnets import latin
    _, catalog, squares = setup_latin()  # fills caches; untimed
    ops = W.latin_inputs(catalog, squares, seed)
    outputs, times, setups, scale = timed_passes(workload, seconds, ops,
                                                 lambda op: W.run_latin_op(latin, op),
                                                 lambda: setup_latin()[0])
    checker = Checker()
    for op, result in outputs:
        checker.record(op[1], repr(result), lambda: W.check_latin(op, result))
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics, report = timed_metrics(times, setups, scale, peak)
    return checker, metrics, report


def traced_latin(workload, seed):
    from dualnets import latin
    checker = Checker()

    def one_pass(tracer=None):
        t0 = perf_counter()
        _, catalog, squares = setup_latin()
        for op in W.latin_inputs(catalog, squares, seed):
            if tracer:
                tracer.op += 1
            result = W.run_latin_op(latin, op)
            checker.record(op[1], repr(result), lambda: W.check_latin(op, result))
        return perf_counter() - t0

    return checker, one_pass


# ---- traced run -----------------------------------------------------------------

def import_seconds():
    """A fresh interpreter's `import dualnets.cli` minus a bare start."""
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        bare.append(run_child(["-c", "pass"])[3])
        full.append(run_child(["-c", "import dualnets.cli"])[3])
    return statistics.median(full) - statistics.median(bare)


def traced(workload, seed):
    import dualnets.cli  # loads every layer
    from tracing import Tracer
    import_s = import_seconds()
    checker, one_pass = (traced_latin if workload == "latin" else traced_cli)(workload, seed)
    plain_s = one_pass()
    tracer = Tracer(dualnets)
    tracer.install()
    try:
        traced_s = one_pass(tracer)
    finally:
        tracer.uninstall()
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / ("trace_%s_%d.json" % (workload, seed)))
    metrics = {}
    for name, value in tracer.metrics().items():
        metrics[name] = (value, unit_of(name))
    metrics["cli.import_s"] = (import_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
    report = ["untraced pass %.2f s, traced pass %.2f s, %d spans"
              % (plain_s, traced_s, len(tracer.spans))]
    return checker, metrics, report


def unit_of(name):
    if name.endswith((".calls", ".points")):
        return "count"
    if name.endswith("_ratio"):
        return "ratio"
    return "s"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "dualnets" / "cli.py").is_file():
        print("error: no dualnets sources under %s; run from a source checkout" % SRC,
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.trace:
            checker, metrics, report = traced(args.workload, args.seed)
        elif args.workload == "latin":
            checker, metrics, report = measure_latin(args.workload, args.seed, args.seconds)
        else:
            checker, metrics, report = measure_cli(args.workload, args.seed, args.seconds)
    except SetupError as exc:
        print("error: set-up failed: %s" % exc, file=sys.stderr)
        return 1
    print("workload %s, seed %d, trace %d" % (args.workload, args.seed, args.trace))
    for line in report + checker.reasons:
        print("  " + line)
    for name, (value, unit) in metrics.items():
        print("  %-40s %14.6g %s" % (name, value, unit))
    print(json.dumps({
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
