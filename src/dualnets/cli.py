"""Command line front end: construct nets, inspect them, run demos.

Net documents are JSON: {"p": int, "components": [[[x,y,z], ...], ...]}
with an optional "meta" object (constructor name and parameters; a
boolean "char_exception" marks the deliberate n = p construction).  Documents
are re-verified on every load; nothing trusts a stored flag.

Exit codes: 0 success, 1 mathematical failure, 2 usage or parameter
errors.  Commands raise instead of printing errors, and main alone turns
an exception into an exit code: NetViolation exits 1 with the violation
report on stdout, ValueError and OSError exit 2 with "error: ..." on
stderr.  A demo that prints a FAIL line also exits 1.

A process runs one command, and it imports and compiles only the layers
that command runs beyond nets, gf and plane: construct loads constructors,
and cubic_group and curves for the fermat family only; of the inspection
commands only classify loads curves, and only when the net's points lie on
a cubic; only demo loads the demos module.
"""

import argparse
import json
import sys

from . import nets
from .gf import is_prime
from .plane import PValue


def to_jsonable(obj):
    if isinstance(obj, PValue):
        return repr(obj)
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, set, frozenset)):
        seq = sorted(obj) if isinstance(obj, (set, frozenset)) else obj
        return [to_jsonable(v) for v in seq]
    return obj


def net_document(net):
    doc = {
        "p": net.p,
        "components": [[list(P) for P in comp] for comp in net.components],
    }
    meta = to_jsonable(net.meta)
    if net.char_exception:
        meta["char_exception"] = True
    if meta:
        doc["meta"] = meta
    return doc


def load_document(text):
    """Parse a net document and re-verify it.

    Raises ValueError on malformed JSON or missing fields (usage error)
    and lets NetViolation from the verifier propagate (mathematical
    failure).
    """
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError("invalid JSON: %s" % exc)
    if not isinstance(doc, dict) or "p" not in doc or "components" not in doc:
        raise ValueError('a net document needs "p" and "components"')
    p = doc["p"]
    if not isinstance(p, int) or not is_prime(p):
        raise ValueError("p must be a prime integer")
    comps = doc["components"]
    meta = doc.get("meta")
    if meta is None:
        meta = {}
    if not isinstance(meta, dict):
        raise ValueError('"meta" must be an object')
    char_exception = meta.get("char_exception", False)
    if not isinstance(char_exception, bool):
        raise ValueError('"char_exception" must be true or false')
    # exact ints only: int() would truncate 1.9 and accept "1" and true
    try:
        comps = [[tuple(P) for P in comp] for comp in comps]
    except TypeError:
        raise ValueError("components must be lists of integer triples")
    if any(type(x) is not int for comp in comps for P in comp for x in P):
        raise ValueError("components must be lists of integer triples")
    if any(len(P) != 3 for comp in comps for P in comp):
        raise ValueError("points must be coordinate triples")
    return nets.verify(comps, p, allow_char_exception=char_exception, meta=meta)


def _read_input(path):
    if path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _emit(obj):
    print(json.dumps(to_jsonable(obj), sort_keys=True))


def _violation_report(exc):
    report = {"verified": False, "error": str(exc)}
    if exc.line is not None:
        report["line"] = list(exc.line)
    if exc.component is not None:
        report["component"] = exc.component
    if exc.count is not None:
        report["count"] = exc.count
    return report


# family -> (builder in constructors, the options passed to it in order).
# cmd_construct imports constructors and looks the builder up by name at
# call time, so a rebound one is used.
FAMILIES = {
    "triangular": ("triangular_cyclic", ("n", "p", "c")),
    "pencil": ("pencil_char_p", ("p",)),
    "conic-line": ("conic_line", ("n", "p", "c")),
    "fermat": ("algebraic_fermat", ("n", "p")),
    "tetrahedron": ("tetrahedron", ("m", "p")),
    "hesse4": ("hesse_4net", ("p",)),
}


def cmd_construct(args):
    from . import constructors

    builder, params = FAMILIES[args.family]
    missing = [name for name in params if getattr(args, name) is None]
    if missing:
        raise ValueError("%s requires --%s" % (args.family, " --".join(missing)))
    if not is_prime(args.p):
        raise ValueError("p=%d is not prime" % args.p)
    net = getattr(constructors, builder)(*(getattr(args, name) for name in params))
    _emit(net_document(net))
    return 0


def cmd_verify(net):
    _emit({"verified": True, "p": net.p, "k": net.k, "n": net.n,
           "char_exception": net.char_exception})
    return 0


def cmd_classify(net):
    if net.k > 4:
        raise ValueError("classify needs a 3-net or a 4-net, got k = %d" % net.k)
    if net.k == 3:
        _emit(nets.classify(net))
    else:
        derived = [nets.classify(nets.derived_net(net, i))
                   for i in range(net.k)]
        _emit({"k": net.k, "derived": derived})
    return 0


def cmd_centers(net):
    centers = sorted(nets.find_centers(net))
    _emit({"centers": [list(T) for T in centers], "count": len(centers)})
    return 0


def _kappa_entry(kappa, p):
    v = kappa.value  # finite: a cross-ratio of four distinct collinear points
    return {"kappa": repr(kappa),
            "kappa_squared_minus_kappa_plus_one_zero": (v * v - v + 1) % p == 0,
            "kappa_plus_one_zero": (v + 1) % p == 0}


def cmd_crossratio(net):
    if net.k > 4:
        raise ValueError("crossratio needs a 3-net or a 4-net, got k = %d" % net.k)
    if net.k == 3:
        centers = sorted(nets.find_centers(net))
        rows = []
        for T in centers:
            entry = _kappa_entry(nets.constant_cross_ratio(net, T), net.p)
            entry["center"] = list(T)
            rows.append(entry)
        _emit({"centers": rows})
    else:
        entry = _kappa_entry(nets.crossratio_4net(net), net.p)
        _emit(entry)
    return 0


# The demo walk-throughs, by name.  Each is the function in dualnets.demos
# named with "_" for "-"; only cmd_demo imports that module.
DEMOS = ("pencil", "conic-line", "fermat", "j0-identities", "negative-sweeps")


def cmd_demo(args):
    from . import demos

    checks = demos.run(args.name)
    all_passed = True
    for claim, passed in checks:
        print("%s %s" % ("PASS" if passed else "FAIL", claim))
        all_passed = all_passed and passed
    return 0 if all_passed else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dualnets",
        description="construct and inspect dual nets in PG(2,p)")
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("construct", help="build a net and print its JSON")
    pc.add_argument("family", choices=list(FAMILIES))
    pc.add_argument("--n", type=int, help="net order")
    pc.add_argument("--p", type=int, help="field prime")
    pc.add_argument("--c", type=int, default=1, help="family parameter (default 1)")
    pc.add_argument("--m", type=int, help="tetrahedron subgroup order")
    pc.set_defaults(func=cmd_construct)

    for name, func, help_text in [
            ("verify", cmd_verify, "re-verify a net document"),
            ("classify", cmd_classify, "classification report"),
            ("centers", cmd_centers, "list all perspective centers"),
            ("crossratio", cmd_crossratio, "kappa at each center")]:
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("netfile", help="net JSON file, or - for stdin")
        sp.set_defaults(func=func)

    pd = sub.add_parser("demo", help="run a PASS/FAIL walk-through")
    pd.add_argument("name", choices=sorted(DEMOS))
    pd.set_defaults(func=cmd_demo)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if hasattr(args, "netfile"):
            return args.func(load_document(_read_input(args.netfile)))
        return args.func(args)
    except nets.NetViolation as exc:
        _emit(_violation_report(exc))
        return 1
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
