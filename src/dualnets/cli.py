"""Command line front end: construct nets, inspect them, run demos.

Net documents are JSON: {"p": int, "components": [[[x,y,z], ...], ...]}
with an optional "meta" object (constructor name and parameters; a
boolean "char_exception" marks the deliberate n = p construction).  Documents
are re-verified on every load; nothing trusts a stored flag.

Exit codes: 0 success, 1 mathematical failure (a net fails verification,
or a demo prints a FAIL line), 2 usage or parameter errors.
"""

import argparse
import json
import random
import sys

from . import constructors, latin, nets
from .curves import cubic_j0_identities
from .gf import is_prime
from .plane import PValue, apply_point, normalize, perspectivity


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
    except json.JSONDecodeError as exc:
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
    try:
        comps = [[tuple(int(x) for x in P) for P in comp] for comp in comps]
    except (TypeError, ValueError):
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


def _load_net(args):
    """Shared loader for the inspection commands.

    Returns (net, exit_code); exactly one of the two is None.
    """
    try:
        text = _read_input(args.netfile)
    except OSError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return None, 2
    try:
        net = load_document(text)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return None, 2
    except nets.NetViolation as exc:
        _emit(_violation_report(exc))
        return None, 1
    return net, None


# family -> (builder in constructors, the options passed to it in order).
# Builders are looked up by name at call time, so a rebound one is used.
FAMILIES = {
    "triangular": ("triangular_cyclic", ("n", "p", "c")),
    "pencil": ("pencil_char_p", ("p",)),
    "conic-line": ("conic_line", ("n", "p", "c")),
    "fermat": ("algebraic_fermat", ("n", "p")),
    "tetrahedron": ("tetrahedron", ("m", "p")),
    "hesse4": ("hesse_4net", ("p",)),
}


def cmd_construct(args):
    builder, params = FAMILIES[args.family]
    missing = [name for name in params if getattr(args, name) is None]
    if missing:
        print("error: %s requires --%s" % (args.family, " --".join(missing)),
              file=sys.stderr)
        return 2
    try:
        if not is_prime(args.p):
            print("error: p=%d is not prime" % args.p, file=sys.stderr)
            return 2
        net = getattr(constructors, builder)(*(getattr(args, name) for name in params))
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    _emit(net_document(net))
    return 0


def cmd_verify(args):
    net, code = _load_net(args)
    if net is None:
        return code
    _emit({"verified": True, "p": net.p, "k": net.k, "n": net.n,
           "char_exception": net.char_exception})
    return 0


def cmd_classify(args):
    net, code = _load_net(args)
    if net is None:
        return code
    if net.k == 3:
        _emit(nets.classify(net))
    else:
        derived = [nets.classify(nets.derived_net(net, i))
                   for i in range(net.k)]
        _emit({"k": net.k, "derived": derived})
    return 0


def cmd_centers(args):
    net, code = _load_net(args)
    if net is None:
        return code
    centers = sorted(nets.find_centers(net))
    _emit({"centers": [list(T) for T in centers], "count": len(centers)})
    return 0


def _kappa_entry(kappa, p):
    entry = {"kappa": repr(kappa)}
    if kappa.is_infinity:
        entry["kappa_squared_minus_kappa_plus_one_zero"] = False
        entry["kappa_plus_one_zero"] = False
    else:
        v = kappa.value
        entry["kappa_squared_minus_kappa_plus_one_zero"] = (v * v - v + 1) % p == 0
        entry["kappa_plus_one_zero"] = (v + 1) % p == 0
    return entry


def cmd_crossratio(args):
    net, code = _load_net(args)
    if net is None:
        return code
    if net.k == 3:
        rows = []
        for T in sorted(nets.find_centers(net)):
            entry = _kappa_entry(nets.constant_cross_ratio(net, T), net.p)
            entry["center"] = list(T)
            rows.append(entry)
        _emit({"centers": rows})
    else:
        entry = _kappa_entry(nets.crossratio_4net(net), net.p)
        _emit(entry)
    return 0


def _demo_pencil():
    checks = []
    net = constructors.pencil_char_p(5)
    checks.append(("pencil net of order 5 verifies with the characteristic "
                   "exception", net.verified and net.char_exception))
    checks.append(("classifies as pencil", nets.classify(net)["tag"] == "pencil"))
    centers = nets.find_centers(net)
    checks.append(("a perspective center exists", len(centers) >= 1))
    constant = bool(centers)
    for T in sorted(centers):
        try:
            nets.constant_cross_ratio(net, T)
        except (ValueError, AssertionError):
            constant = False
    checks.append(("cross-ratio is constant at every center", constant))
    return checks


def _demo_conic_line():
    checks = []
    net = constructors.conic_line(5, 11, 1)
    p = net.p
    checks.append(("conic-line net (n=5, p=11) verifies", net.verified))
    T = (0, 0, 1)
    centers = nets.find_centers(net)
    checks.append(("center (0,0,1) found", T in centers))
    kappa = nets.constant_cross_ratio(net, T)
    checks.append(("kappa = -1", kappa == PValue.of(p - 1, p)))
    M = perspectivity(T, (0, 0, 1), p - 1, p)
    image = {normalize(apply_point(M, P, p), p) for P in net.components[1]}
    checks.append(("the ratio -1 homology carries the second component onto "
                   "the third", image == set(net.components[2])))
    square = latin.from_net(net)
    checks.append(("latin square has a transversal",
                   latin.transversal_search(square) is not None))
    return checks


def _demo_fermat():
    checks = []
    net = constructors.algebraic_fermat(3, 19)
    p = net.p
    checks.append(("coset net on the Fermat cubic (n=3, p=19) verifies",
                   net.verified))
    centers = nets.find_centers(net)
    checks.append(("center (0,0,1) is a perspective center",
                   (0, 0, 1) in centers))
    corners = {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    checks.append(("all centers are corners of the coordinate triangle",
                   centers <= corners and len(centers) <= 3))
    good = bool(centers)
    for T in sorted(centers):
        kappa = nets.constant_cross_ratio(net, T)
        if kappa.is_infinity or (kappa.value ** 2 - kappa.value + 1) % p != 0:
            good = False
    checks.append(("kappa^2 - kappa + 1 = 0 at every center", good))
    checks.append(("classifies as proper-algebraic",
                   nets.classify(net)["tag"] == "proper-algebraic"))
    return checks


def _demo_j0_identities():
    checks = []
    p = 101
    rng = random.Random(20260818)
    ok1 = ok2 = True
    for _ in range(50):
        a, b, c, m = (rng.randrange(p) for _ in range(4))
        report = cubic_j0_identities(a, b, c, m, p)
        ok1 = ok1 and report["identity1"]
        ok2 = ok2 and report["identity2"]
    checks.append(("identity (1) holds at 50 random samples over GF(101)", ok1))
    checks.append(("identity (2) holds at 50 random samples over GF(101)", ok2))
    return checks


def _demo_negative_sweeps():
    checks = []
    cases = [
        ("triangular cyclic n=5, p=11", constructors.triangular_cyclic(5, 11)),
        ("triangular cyclic n=7, p=29", constructors.triangular_cyclic(7, 29)),
        ("tetrahedron m=2, p=13", constructors.tetrahedron(2, 13)),
    ]
    for desc, net in cases:
        checks.append(("no perspective center for %s" % desc,
                       len(nets.find_centers(net)) == 0))
    return checks


DEMOS = {
    "pencil": _demo_pencil,
    "conic-line": _demo_conic_line,
    "fermat": _demo_fermat,
    "j0-identities": _demo_j0_identities,
    "negative-sweeps": _demo_negative_sweeps,
}


def cmd_demo(args):
    checks = DEMOS[args.name]()
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
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
