"""Layer ladder: time and count the curve kernel, the verifier, the center
search, classify, the latin searches and CLI start-up on fixed sizes.

    python3 bench/ladder.py                            # print one entry
    python3 bench/ladder.py --append BENCH_layers.json # and add it to the file
    python3 bench/ladder.py --quick                    # smallest sizes, first cli rung

It runs the program from the src/ next to this directory and takes its work
counters from perfbench/tracing.py, which it imports and does not change.
Each in-process rung is timed untraced as the best of k runs, with
perfbench's reference_loop, a fixed pure-Python loop, run before each and
the best of those k times recorded (ref_s), so min_s / ref_s can be
compared between sessions on hosts of different speed.  Then it runs once
more under perfbench's Tracer to record its counters: a tracer key that
names a function counts its calls (curves.restrict is perfbench's
curves.restrict.calls), and plane.all_points.points counts listed points.
A counter that stays 0 is left out: the center search on a triangular net
finds no center, so its rungs carry no nets.find_centers.found.

The cli layer runs one dualnets command in each of k fresh interpreters.
Each child runs perfbench's reference_loop and then times
`from dualnets.cli import main; main(argv)`, so a cli rung's min_s and
ref_s are in-process times of the best of k children, as on every other
rung; the interpreter's own start-up is not in them.  The modules that
importing perfbench loaded are dropped from sys.modules before the
command, so that it starts from the modules of a fresh interpreter.  The
package is copied without bytecode and run with PYTHONDONTWRITEBYTECODE=1,
so every process compiles the modules it imports, as in a fresh source
checkout.  Each child also counts the dualnets modules it loaded
(dualnets.modules), their bytes of source (dualnets.source_bytes), and
the other modules that importing dualnets.cli and running main added to
sys.modules (python.modules), which is standard library the command
loads.  Counts do not drift with the host; the times do.  Standard
library only.

The entry is one JSON object: the commit and host it was measured on and,
per rung, its layer, name, size, k, min_s, ref_s and counts.  The cli
rungs of older entries hold whole-process wall times instead, min_s of
the children and ref_s of a reference loop run in this process before
each, and some also min_cpu_s, the children's CPU time.
BENCH_layers.json is a list of such entries, oldest first; a change that
claims speed appends its parent's entry and its own, measured in one
session.
"""

import argparse
import contextlib
import datetime
import io
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path[:0] = [os.path.join(ROOT, "src"), PERFBENCH]

import dualnets  # noqa: E402
from dualnets import cli, constructors, curves, latin, nets  # noqa: E402
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
)


# cli rungs: (argv, the construct argv whose document is the standard
# input, or None); --quick keeps the first
CLI_RUNGS = (
    ("construct triangular --n 15 --p 181", None),
    ("construct fermat --n 7 --p 61", None),
    ("verify -", "construct triangular --n 15 --p 181"),
    ("classify -", "construct tetrahedron --m 6 --p 61"),
    ("classify -", "construct hesse4 --p 13"),
)
# One timed cli run: `python -c CHILD PERFBENCH argv...` runs perfbench's
# reference loop, then the command, and prints both times and the command's
# footprint as one JSON object.
CHILD = """
import contextlib, io, json, os, sys, time
before = set(sys.modules)
sys.path.insert(0, sys.argv.pop(1))
from run import reference_loop
del sys.path[0]
for name in set(sys.modules) - before:
    del sys.modules[name]
ref_s = reference_loop()
start = time.perf_counter()
from dualnets.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
min_s = time.perf_counter() - start
mods = [m for name, m in sys.modules.items() if name.split(".")[0] == "dualnets"]
python = [name for name in sys.modules if name not in before and name.split(".")[0] != "dualnets"]
print(json.dumps({"min_s": min_s, "ref_s": ref_s, "counts": {
    "dualnets.modules": len(mods),
    "dualnets.source_bytes": sum(os.path.getsize(m.__file__) for m in mods),
    "python.modules": len(python)}}))
sys.exit(code)
"""


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


def measure_cli(argv, stdin, env, k):
    """(best seconds of `dualnets argv` in k fresh interpreters, best seconds
    of the reference loop each ran before it, the footprint of the last)."""
    best = best_ref = float("inf")
    for _ in range(k):
        done = subprocess.run([sys.executable, "-c", CHILD, PERFBENCH] + argv, input=stdin,
                              capture_output=True, text=True, env=env, timeout=300)
        if done.returncode != 0:
            raise RuntimeError("dualnets %s failed: %s" % (" ".join(argv), done.stderr))
        child = json.loads(done.stdout)
        best, best_ref = min(best, child["min_s"]), min(best_ref, child["ref_s"])
    return best, best_ref, child["counts"]


def cli_rungs(quick):
    """The cli rungs, run on a bytecode-free copy of the package."""
    rungs = []
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(os.path.join(ROOT, "src", "dualnets"), os.path.join(tmp, "dualnets"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ, PYTHONPATH=tmp, PYTHONDONTWRITEBYTECODE="1")
        for command, document in CLI_RUNGS[:1] if quick else CLI_RUNGS:
            stdin = None
            if document is not None:
                with contextlib.redirect_stdout(io.StringIO()) as out:
                    if cli.main(document.split()) != 0:
                        raise RuntimeError("dualnets %s failed" % document)
                stdin = out.getvalue()
            min_s, ref_s, counts = measure_cli(command.split(), stdin, env, K)
            size = {"argv": command} if document is None else {"argv": command,
                                                              "stdin": document}
            rungs.append({"layer": "cli", "name": "dualnets CLI in a fresh interpreter",
                          "size": size, "k": K, "min_s": round(min_s, 6),
                          "ref_s": round(ref_s, 6), "counts": counts})
    return rungs


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
    rungs += cli_rungs(quick)
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
                    help="the smallest size of each in-process rung and the first cli rung")
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
