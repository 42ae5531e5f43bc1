"""Command line front end: construct nets, inspect them, run demos.

Net documents are JSON: {"p": int, "components": [[[x,y,z], ...], ...]}
with an optional "meta" object (constructor name and parameters; a
boolean "char_exception" marks the deliberate n = p construction).  Documents
are re-verified on every load; nothing trusts a stored flag.

Exit codes: 0 success, 1 mathematical failure, 2 usage or parameter
errors.  parse_args and the commands never print: a command returns its
report (a demo its (claim, passed) checks) or raises, and main alone
writes the report and picks the exit code.  A demo with a FAIL line exits
1, NetViolation exits 1 with the violation report on stdout, ValueError
and OSError exit 2 with one "error: ..." line on stderr.  A command whose
stdout the reader closed exits 141, as a shell reports a process that
SIGPIPE ended, and prints nothing more.

A process runs one command, and it imports and compiles only the layers
that command runs beyond nets, gf and plane, and no argparse: construct
loads constructors, and cubic_group and curves for the fermat family only;
of the inspection commands only classify loads classification, and curves
only when the net's points lie on a cubic; only demo loads the demos module.
"""

import io
import json
import os
import re
import sys

from . import nets
from .gf import is_prime

# the longest net document read; the largest net verify admits, an order-1
# net of 750000 collinear points with 64-bit coordinates, is about 39 million
MAX_DOCUMENT_CHARS = 2 ** 26


def net_document(net):
    doc = {
        "p": net.p,
        "components": [[list(P) for P in comp] for comp in net.components],
    }
    meta = dict(net.meta)
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
    # the point and component lists of the largest net verify admits (k =
    # VERIFY_MAX_PAIRS of order 1) and the outer list, counted before any is built
    arrays = 2 * nets.VERIFY_MAX_PAIRS + 1
    if text.count("[") > arrays:
        raise ValueError("the document opens more than 2 VERIFY_MAX_PAIRS + 1 = %d arrays"
                         % arrays)
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
        # the verifier's limit, from the shape alone: no point is built past it
        nets._check_pairs(len(comps), max(map(len, comps), default=0))
        comps = [[tuple(P) for P in comp] for comp in comps]
    except TypeError:
        raise ValueError("components must be lists of integer triples")
    if any(type(x) is not int for comp in comps for P in comp for x in P):
        raise ValueError("components must be lists of integer triples")
    if any(len(P) != 3 for comp in comps for P in comp):
        raise ValueError("points must be coordinate triples")
    return nets.verify(comps, p, allow_char_exception=char_exception, meta=meta)


def _read_input(path):
    if path != "-":
        with open(path, "rb") as raw:
            text = _decode(raw)
    elif sys.stdin is None:
        raise ValueError("there is no stdin to read the document from")
    elif hasattr(sys.stdin, "buffer"):
        text = _decode(sys.stdin.buffer)
    else:  # a text stream a caller put in place of stdin: nothing to decode
        text = sys.stdin.read(MAX_DOCUMENT_CHARS + 1)
    if len(text) > MAX_DOCUMENT_CHARS:
        raise ValueError("the document is longer than MAX_DOCUMENT_CHARS = %d characters"
                         % MAX_DOCUMENT_CHARS)
    return text


def _decode(raw):
    # one rule for the bytes of a file and of stdin: strict UTF-8 whatever
    # the locale or PYTHONIOENCODING, read up to one character past the limit
    text = io.TextIOWrapper(raw, encoding="utf-8")
    try:
        return text.read(MAX_DOCUMENT_CHARS + 1)
    finally:
        text.detach()  # the caller closes raw


def _emit(obj):
    print(json.dumps(obj, sort_keys=True))


def _violation_report(exc):
    report = {"verified": False, "error": str(exc)}
    if exc.line is not None:
        report["line"] = exc.line
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


def cmd_construct(options):
    from . import constructors

    builder, params = FAMILIES[options["family"]]
    missing = [name for name in params if options[name] is None]
    if missing:
        raise ValueError("%s requires --%s" % (options["family"], " --".join(missing)))
    if not is_prime(options["p"]):
        raise ValueError("p=%d is not prime" % options["p"])
    return net_document(getattr(constructors, builder)(*(options[name] for name in params)))


def cmd_verify(net):
    return {"verified": True, "p": net.p, "k": net.k, "n": net.n,
            "char_exception": net.char_exception}


def cmd_classify(net):
    if net.k > 4:
        raise ValueError("classify needs a 3-net or a 4-net, got k = %d" % net.k)
    if net.k == 3:
        return nets.classify(net)
    return {"k": net.k, "derived": [nets.classify(nets.derived_net(net, i)) for i in range(net.k)]}


def cmd_centers(net):
    centers = sorted(nets.find_centers(net))
    return {"centers": centers, "count": len(centers)}


def _kappa_entry(kappa):
    v, p = kappa.value, kappa.p  # finite: a cross-ratio of four distinct collinear points
    return {"kappa": repr(kappa),
            "kappa_squared_minus_kappa_plus_one_zero": (v * v - v + 1) % p == 0,
            "kappa_plus_one_zero": (v + 1) % p == 0}


def cmd_crossratio(net):
    if net.k > 4:
        raise ValueError("crossratio needs a 3-net or a 4-net, got k = %d" % net.k)
    if net.k == 3:
        return {"centers": [dict(_kappa_entry(nets.constant_cross_ratio(net, T)), center=T)
                            for T in sorted(nets.find_centers(net))]}
    return _kappa_entry(nets.crossratio_4net(net))


# The demo walk-throughs, by name.  Each is the function in dualnets.demos
# named with "_" for "-"; only cmd_demo imports that module.
DEMOS = ("pencil", "conic-line", "fermat", "j0-identities", "negative-sweeps")


def cmd_demo(name):
    from . import demos

    return demos.run(name)


# The commands that read a net document; main passes them the verified net.
INSPECT = {"verify": cmd_verify, "classify": cmd_classify, "centers": cmd_centers,
           "crossratio": cmd_crossratio}
# command -> the words its operand may be (None: any NETFILE)
OPERANDS = {"construct": FAMILIES, **dict.fromkeys(INSPECT), "demo": DEMOS}
# construct's options: every name a family takes; c defaults to 1
OPTIONS = tuple(dict.fromkeys("--" + name for _, params in FAMILIES.values() for name in params))
HELP = ("-h", "--help")
USAGE = """usage: dualnets construct FAMILY [--n N] [--p P] [--c C] [--m M]
       dualnets {%s} NETFILE
       dualnets demo NAME

FAMILY: %s
NETFILE: a net document, or - for stdin
NAME: %s

Exit codes: 0 success, 1 mathematical failure, 2 usage or parameter errors.""" % (
    ",".join(INSPECT), ", ".join(FAMILIES), ", ".join(DEMOS))


def _is_option(word, names):
    # as argparse: "-", "--", negative numbers and words with a space are values
    return word.partition("=")[0] in names or (
        word[:1] == "-" and word not in ("-", "--") and " " not in word
        and not re.match(r"-\d+$|-\d*\.\d+$", word))


def parse_args(argv):
    """(command, operand), or (None, None) for -h; construct's operand is a
    dict of its family and options.  Reads a line as the argparse parser in
    tests/util.py did, but for abbreviations of --help and "--n=--" (which
    argparse read as n = []), and raises ValueError on a usage error."""
    command = operand = None
    options = dict(dict.fromkeys(name[2:] for name in OPTIONS), c=1)
    names, extra, words = HELP, [], iter(argv)
    dashed = last = False  # past "--"; the word before was the operand
    for word in words:
        follows, last = last, False
        if command and word == "--" and not dashed:
            dashed = True  # argparse kept it as a surplus word after another
            if operand is not None and not follows:
                extra.append(word)
        elif not dashed and _is_option(word, names):
            name, eq, value = word.partition("=")
            if name in HELP:
                if eq:
                    raise ValueError(name + " takes no value")
                return None, None
            if name not in names:
                extra.append(word)
                continue
            if not eq:
                value = next(words, "--")
            if value == "--" or _is_option(value, names):
                raise ValueError(name + " needs a value")
            try:
                options[name[2:]] = int(value)
            except ValueError:
                raise ValueError("%s needs an integer, not %r" % (name, value))
        elif command is None or operand is None:
            choices = OPERANDS[command] if command else OPERANDS
            if choices is not None and word not in choices:
                raise ValueError("%r is not one of %s" % (word, ", ".join(choices)))
            if command:
                operand, last = word, True
            else:
                command, names = word, HELP + OPTIONS if word == "construct" else HELP
        else:
            extra.append(word)
    if operand is None:
        raise ValueError(command + " needs an operand" if command else "no command")
    if extra:
        raise ValueError("unrecognized arguments: " + " ".join(extra))
    return command, dict(options, family=operand) if command == "construct" else operand


def main(argv=None):
    try:
        command, operand = parse_args(sys.argv[1:] if argv is None else argv)
        if command is None:
            print(USAGE)
            return 0
        if command == "demo":
            checks = cmd_demo(operand)
            for claim, passed in checks:
                print("%s %s" % ("PASS" if passed else "FAIL", claim))
            return 0 if all(passed for _, passed in checks) else 1
        if command == "construct":
            report = cmd_construct(operand)
        else:
            report = INSPECT[command](load_document(_read_input(operand)))
        _emit(report)
        return 0
    except nets.NetViolation as exc:
        _emit(_violation_report(exc))
        return 1
    except BrokenPipeError:
        # the reader closed stdout: point fd 1 at devnull so the final flush
        # stays quiet, and exit as a shell reports a process SIGPIPE ended
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (OSError, ValueError) as exc:  # UnicodeDecodeError is a ValueError
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
