"""Layer ladder: time and count the curve kernel, the verifier, the center
search, classify, and the latin searches and group test on fixed sizes.

    python3 bench/ladder.py                            # print one entry
    python3 bench/ladder.py --append BENCH_layers.json # and add it to the file
    python3 bench/ladder.py --quick                    # smallest size of each rung

It runs the program from the src/ next to this directory and takes its work
counters from perfbench/tracing.py, which it imports and does not change.
Every rung runs in this process.  It is timed untraced as the best of k
runs, with perfbench's reference_loop, a fixed pure-Python loop, run
before each and the best of those k times recorded (ref_s), so min_s /
ref_s can be compared between sessions on hosts of different speed.  Then
it runs once more under perfbench's Tracer to record its counters: a
tracer key that names a function counts its calls (curves.restrict is
perfbench's curves.restrict.calls), and plane.all_points.points counts
listed points.  A counter that stays 0 is left out: the center search on
a triangular net finds no center, so its rungs carry no
nets.find_centers.found.  Standard library only.

CLI start-up is not a rung.  perfbench times each command in a fresh
interpreter, and its traced run records cli.import_s, the import of
dualnets.cli in a fresh interpreter less a bare start;
`python -X importtime -c "import dualnets.cli"` splits that import by
module; and tests/test_cli.py asserts which modules each command loads.

The entry is one JSON object: the commit and host it was measured on and,
per rung, its layer, name, size, k, min_s, ref_s and counts.
BENCH_layers.json is a list of such entries, oldest first; a change that
claims speed appends its parent's entry and its own, measured in one
session.  Older entries also carry rungs of a cli layer, one dualnets
command each, timed in fresh interpreters: some hold in-process times of
the import and main, others whole-process wall times, some also the
children's CPU time (min_cpu_s), and some count the standard library
modules the command loaded (python.modules).
"""

import argparse
import datetime
import json
import os
import platform
import random
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

import dualnets  # noqa: E402
from dualnets import constructors, curves, latin, nets  # noqa: E402
from dualnets.gf import find_prime  # noqa: E402
from run import reference_loop  # noqa: E402
from tracing import Tracer  # noqa: E402

K = 5  # untraced runs per rung; the best is kept


def _curve_points(p):
    F = curves.fermat_cubic(p)
    return lambda: curves.curve_points(F)


def _classify_hesse(p):
    hesse = constructors.hesse_4net(p)
    derived = [nets.derived_net(hesse, i) for i in range(hesse.k)]
    return lambda: [nets.classify(net) for net in derived]


def _verify_triangular(n):
    net = constructors.triangular_cyclic(n, find_prime(n))
    return lambda: nets.verify(net.components, net.p)


def _centers_triangular(n):
    net = constructors.triangular_cyclic(n, find_prime(n))
    return lambda: nets.find_centers(net)


def _classify_tetrahedron(m):
    # the net is built here, so the constructor's verify is not counted
    net = constructors.tetrahedron(m, {6: 61, 12: 193}[m])
    return lambda: nets.classify(net)


def _transversal(group):
    Z = latin.cyclic_group
    table = {"D10": latin.dihedral_group(10),
             "Z2xZ10": latin.direct_product(Z(2), Z(10)),
             "D12": latin.dihedral_group(12),
             "Z4xZ6": latin.direct_product(Z(4), Z(6))}[group]
    return lambda: latin.transversal_search(table)


def _complete_mappings(max_order):
    tables = list(latin.group_catalog(max_order).values())
    return lambda: [latin.complete_mapping_exists(table) for table in tables]


def _group_test(max_order):
    # an isotope of each catalog table, rows, columns and symbols permuted
    # from a fixed seed
    rng = random.Random(max_order)
    isotopes = []
    for table in latin.group_catalog(max_order).values():
        rows, cols, syms = (rng.sample(range(len(table)), len(table)) for _ in range(3))
        isotopes.append(tuple(tuple(syms[table[r][c]] for c in cols) for r in rows))
    return lambda: [latin.is_group_coordinatizable(square) for square in isotopes]


# (layer, name, setup, size key, sizes); --quick keeps the first size of
# each rung
RUNGS = (
    ("curves", "curve_points(fermat_cubic(p))", _curve_points, "p", (101, 1009)),
    ("nets", "classify(derived nets of hesse_4net(p))", _classify_hesse, "p", (13, 61, 97)),
    ("nets", "verify(triangular_cyclic(n, find_prime(n)))", _verify_triangular, "n",
     (15, 63, 251)),
    ("nets", "find_centers(triangular_cyclic(n, find_prime(n)))", _centers_triangular, "n",
     (15, 63, 251)),
    ("nets", "classify(tetrahedron(m, p)), (m, p) = (6, 61), (12, 193)", _classify_tetrahedron,
     "m", (6, 12)),
    ("latin", "transversal_search(table)", _transversal, "group",
     ("D10", "Z2xZ10", "D12", "Z4xZ6")),
    ("latin", "complete_mapping_exists(table) for each table of group_catalog(max_order)",
     _complete_mappings, "max_order", (16,)),
    ("latin", "is_group_coordinatizable(isotope) for each table of group_catalog(max_order)",
     _group_test, "max_order", (16,)),
)


def measure(run, k):
    """(best untraced seconds of k runs, best seconds of the k reference
    loops run one before each, tracer counters of one more run)."""
    best = best_ref = float("inf")
    for _ in range(k):
        best_ref = min(best_ref, reference_loop())
        start = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - start)
    tracer = Tracer(dualnets)
    tracer.install()
    try:
        run()
    finally:
        tracer.uninstall()
    return best, best_ref, {key: v for key, v in sorted(tracer.counts.items()) if v}


def _git(*args):
    try:
        done = subprocess.run(["git", "-C", ROOT] + list(args), capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def entry(quick=False):
    rungs = []
    for layer, name, setup, key, sizes in RUNGS:
        for size in sizes[:1] if quick else sizes:
            min_s, ref_s, counts = measure(setup(size), K)
            rungs.append({"layer": layer, "name": name, "size": {key: size}, "k": K,
                          "min_s": round(min_s, 6), "ref_s": round(ref_s, 6),
                          "counts": counts})
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
    ap.add_argument("--quick", action="store_true",
                    help="only the smallest size of each rung")
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
