"""Layer ladder: time and count the curve kernel and classify on fixed sizes.

    python3 bench/ladder.py                            # print one entry
    python3 bench/ladder.py --append BENCH_layers.json # and add it to the file
    python3 bench/ladder.py --quick                    # smallest rung per layer

It runs the program from the src/ next to this directory and takes its work
counters from perfbench/tracing.py, which it imports and does not change.
Each rung is timed untraced as the best of k runs, then run once more under
perfbench's Tracer to record its counters: a tracer key that names a
function counts its calls (curves.restrict is perfbench's
curves.restrict.calls), and plane.all_points.points counts listed points.
Counts do not drift with the host; the times do.  Standard library only.

The entry is one JSON object: the commit and host it was measured on and,
per rung, its layer, name, size, k, min_s and counts.  BENCH_layers.json is
a list of such entries, oldest first; a change that claims speed appends
its parent's entry and its own, measured in one session.
"""

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import dualnets  # noqa: E402
from dualnets import constructors, curves, nets  # noqa: E402
from tracing import Tracer  # noqa: E402

K = 5  # untraced runs per rung; the best is kept


def _curve_points(p):
    F = curves.fermat_cubic(p)
    return lambda: curves.curve_points(F)


def _classify_hesse(p):
    hesse = constructors.hesse_4net(p)
    derived = [nets.derived_net(hesse, i) for i in range(hesse.k)]
    return lambda: [nets.classify(net) for net in derived]


# (layer, name, setup, sizes); --quick keeps the first size of each layer
RUNGS = (
    ("curves", "curve_points(fermat_cubic(p))", _curve_points, (101, 1009)),
    ("nets", "classify(derived nets of hesse_4net(p))", _classify_hesse, (13, 61, 97)),
)


def measure(run, k):
    """(best untraced seconds of k runs, tracer counters of one more run)."""
    best = float("inf")
    for _ in range(k):
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    tracer = Tracer(dualnets)
    tracer.install()
    try:
        run()
    finally:
        tracer.uninstall()
    return best, dict(sorted(tracer.counts.items()))


def _git(*args):
    try:
        done = subprocess.run(["git", "-C", ROOT] + list(args), capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def entry(quick=False):
    rungs = []
    for layer, name, setup, sizes in RUNGS:
        for p in sizes[:1] if quick else sizes:
            min_s, counts = measure(setup(p), K)
            rungs.append({"layer": layer, "name": name, "size": {"p": p}, "k": K,
                          "min_s": round(min_s, 6), "counts": counts})
    status = _git("status", "--porcelain", "--", "src")
    return {
        "commit": _git("rev-parse", "--short", "HEAD"),
        "src_modified": bool(status) if status is not None else None,
        "utc": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
        "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                 "python": platform.python_version()},
        "quick": quick,
        "rungs": rungs,
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--quick", action="store_true", help="the smallest rung of each layer")
    ap.add_argument("--append", metavar="PATH",
                    help="add the entry to this JSON list (created when missing)")
    args = ap.parse_args(argv)
    result = entry(quick=args.quick)
    if args.append:
        history = []
        if os.path.exists(args.append):
            with open(args.append) as fh:
                history = json.load(fh)
        history.append(result)
        with open(args.append, "w") as fh:
            json.dump(history, fh, indent=1)
            fh.write("\n")
    print(json.dumps(result, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
