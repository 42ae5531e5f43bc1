"""Seeded inputs, operations and output checks for each workload.

The seed picks the family parameter c of the triangular and conic-line
documents, the point each mutated document replaces, and the relabelling
and isotopy permutations of the latin workload.  Sizes never depend on the
seed, and no check reads the seed: every expected value comes from the
mathematics of the family, verified by oracle.py.
"""

import json
import random

import oracle

# (family, n, p, m): p is dualnets.gf.find_prime(n) unless stated, so the
# ladder climbs in n at the smallest field that carries an order-n net.
# (15, 181) lies past find_centers' full-plane sweep bound, the rest inside.
LADDER = (
    [("triangular", n, p, None) for n, p in ((5, 11), (15, 181))]
    + [("conic-line", n, p, None) for n, p in ((5, 11), (15, 31))]
    + [("pencil", 19, 19, None)]
    + [("tetrahedron", 2 * m, p, m) for m, p in ((3, 13), (6, 61))]
)
ALGEBRAIC = (
    [("fermat", n, p, None) for n, p in ((3, 19), (7, 61))]
    + [("hesse4", 3, p, None) for p in (7, 13)]
)
# (n, find_prime(n)) for the cyclic latin squares.
LATIN_SQUARES = ((5, 11), (6, 7), (7, 29), (8, 17), (9, 19), (10, 11), (11, 23), (12, 13))
LATIN_GROUPS = 33  # len(group_catalog(16))
# Seeded relabellings and isotopes per group, so the median op averages over
# several draws of the permutations whatever the seed.
LATIN_VARIANTS = 3

LADDER_KINDS = ("verify", "reject", "centers", "crossratio", "classify")
ALGEBRAIC_KINDS = ("verify", "centers", "crossratio", "classify")
CLASSIFY_TAG = {"triangular": "triangular", "conic-line": "conic-line",
                "pencil": "pencil", "tetrahedron": "tetrahedron",
                "fermat": "proper-algebraic"}
PARAMETRIZED = ("triangular", "conic-line")


class Doc:
    """One net document: how to construct it and what it must satisfy."""

    def __init__(self, family, n, p, m, c, seed):
        self.family, self.n, self.p, self.m, self.c = family, n, p, m, c
        self.k = 4 if family == "hesse4" else 3
        self.mutant_rng = random.Random("%s:%d:mutant" % (self.label, seed))
        self.text = self.comps = self.mutant = self.mutant_comps = None
        self.kappas = {}  # center -> oracle.center_kappas, shared by centers and crossratio

    @property
    def label(self):
        return "%s(n=%d,p=%d)" % (self.family, self.n, self.p)

    def construct_argv(self):
        argv = ["construct", self.family, "--p", str(self.p)]
        if self.family in PARAMETRIZED or self.family == "fermat":
            argv += ["--n", str(self.n)]
        if self.m is not None:
            argv += ["--m", str(self.m)]
        if self.c is not None:
            argv += ["--c", str(self.c)]
        return argv


def make_docs(workload, seed):
    rng = random.Random("%s:%d" % (workload, seed))
    specs = LADDER if workload == "ladder" else ALGEBRAIC
    return [Doc(f, n, p, m, rng.randrange(1, p) if f in PARAMETRIZED else None, seed)
            for f, n, p, m in specs]


def accept_document(doc, code, out):
    """Check a construct result, store it in doc and derive the mutant.

    Returns an error string, or None when the document is a genuine net of
    the requested shape.
    """
    if code != 0:
        return "construct %s exited %d" % (doc.label, code)
    try:
        parsed = json.loads(out)
        comps = [[tuple(P) for P in comp] for comp in parsed["components"]]
    except (ValueError, KeyError, TypeError):
        return "construct %s printed no net document" % doc.label
    if parsed.get("p") != doc.p or len(comps) != doc.k or any(len(c) != doc.n for c in comps):
        return "construct %s has the wrong shape" % doc.label
    if not oracle.is_dual_net(comps, doc.p):
        return "construct %s is not a dual net" % doc.label
    if doc.text is not None:
        return None if out == doc.text else "construct %s is not deterministic" % doc.label
    doc.text, doc.comps = out, comps
    doc.mutant_comps = mutate(comps, doc.p, doc.mutant_rng)
    doc.mutant = json.dumps(dict(parsed, components=doc.mutant_comps), sort_keys=True)
    return None


def mutate(comps, p, rng):
    """Replace one point of component i by a third point on the join of two
    points of another component j.  That join then meets j twice and i
    once, so the result breaks the net axiom whatever the choices."""
    k = len(comps)
    i = rng.randrange(k)
    j = rng.choice([x for x in range(k) if x != i])
    A, B = rng.sample(comps[j], 2)
    taken = {P for comp in comps for P in comp}
    free = [X for X in oracle.points_on_line(oracle.line_through(A, B, p), p) if X not in taken]
    out = [list(comp) for comp in comps]
    out[i][rng.randrange(len(out[i]))] = rng.choice(free)
    return out


def cli_ops(workload, docs):
    kinds = LADDER_KINDS if workload == "ladder" else ALGEBRAIC_KINDS
    return [(kind, d) for d in docs for kind in kinds]


def op_argv(kind):
    return ["verify" if kind == "reject" else kind, "-"]


def op_input(kind, doc):
    return doc.mutant if kind == "reject" else doc.text


def check_cli(kind, doc, code, out, err):
    """None when the output of one CLI op is right, else the reason."""
    if "Traceback" in err:
        return "traceback"
    want = 1 if kind == "reject" else 0
    if code != want:
        return "exit %s, expected %d" % (code, want)
    try:
        res = json.loads(out)
    except ValueError:
        return "output is not JSON"
    try:
        return CHECKS[kind](doc, res)
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        return "malformed output: %r" % (exc,)


def _check_verify(doc, res):
    want = {"verified": True, "k": doc.k, "n": doc.n, "p": doc.p,
            "char_exception": doc.family == "pencil"}
    return None if res == want else "verify echoed %r" % (res,)


def _check_reject(doc, res):
    if res.get("verified") is not False or "line" not in res:
        return "rejection carries no line"
    line, p, comps = tuple(res["line"]), doc.p, doc.mutant_comps
    on = [sum(oracle.on_line(P, line, p) for P in comp) for comp in comps]
    if sum(1 for x in on if x) < 2:
        return "reported line %r meets fewer than two components" % (line,)
    m = res["component"]
    if on[m] != res["count"] or on[m] == 1:
        return "reported line %r meets component %d in %d points" % (line, m, on[m])
    return None


def _kappas(doc, T):
    if T not in doc.kappas:
        doc.kappas[T] = oracle.center_kappas(T, doc.comps, doc.p)
    return doc.kappas[T]


def _centers_ok(doc, centers):
    p = doc.p
    if centers != sorted(set(centers)):
        return "centers not sorted and distinct"
    bad = [T for T in centers if _kappas(doc, T) is None]
    if bad:
        return "%d listed centers are not perspective centers" % len(bad)
    if doc.family in ("triangular", "tetrahedron") and centers:
        return "%s net has %d centers, expected none" % (doc.family, len(centers))
    if doc.family in ("conic-line", "fermat") and (0, 0, 1) not in centers:
        return "center (0,0,1) missing"
    if doc.family == "pencil" and len(centers) != p * (p - 2):
        return "pencil has %d centers, expected p(p-2) = %d" % (len(centers), p * (p - 2))
    return None


def _check_centers(doc, res):
    centers = [tuple(T) for T in res["centers"]]
    if res["count"] != len(centers):
        return "count disagrees with the list"
    return _centers_ok(doc, centers)


def _kappa_flags_ok(entry, kappa, p):
    return (entry["kappa"] == oracle.kappa_string(kappa)
            and entry["kappa_squared_minus_kappa_plus_one_zero"] == oracle.is_hexagonal(kappa, p)
            and entry["kappa_plus_one_zero"] == (kappa is not None and (kappa + 1) % p == 0))


def _check_crossratio(doc, res):
    p = doc.p
    if doc.k == 4:
        kappas = oracle.kappa_4net(doc.comps, p)
        if len(kappas) != 1:
            return "4-net cross-ratio is not constant"
        kappa = kappas.pop()
        if not _kappa_flags_ok(res, kappa, p) or not oracle.is_hexagonal(kappa, p):
            return "4-net kappa %r, expected a root of k^2 - k + 1" % (res["kappa"],)
        return None
    rows = res["centers"]
    centers = [tuple(r["center"]) for r in rows]
    why = _centers_ok(doc, centers)
    if why:
        return why
    for r, T in zip(rows, centers):
        kappas = set(_kappas(doc, T))
        if len(kappas) != 1:
            return "cross-ratio at %r is not constant" % (T,)
        kappa = kappas.pop()
        if not _kappa_flags_ok(r, kappa, p):
            return "kappa at %r reads %r" % (T, r["kappa"])
        if T == (0, 0, 1) and doc.family == "conic-line" and kappa != p - 1:
            return "conic-line kappa is %r, expected p - 1" % (kappa,)
        if T == (0, 0, 1) and doc.family == "fermat" and not oracle.is_hexagonal(kappa, p):
            return "Fermat kappa %r is not a root of k^2 - k + 1" % (kappa,)
    return None


def _classify_witness(family, comps, res, p):
    tag = res["tag"]
    if tag != CLASSIFY_TAG[family]:
        return "classified as %r" % (tag,)
    if tag in ("triangular", "pencil"):
        lines = [tuple(l) for l in res["carrier_lines"]]
        if not all(oracle.on_line(P, l, p) for l, comp in zip(lines, comps) for P in comp):
            return "carrier lines miss their components"
    elif tag == "conic-line":
        li, line = res["line_component"], tuple(res["line"])
        conic = list(zip(oracle.CONIC_MONOMIALS, res["conic"]))
        rest = [P for i, comp in enumerate(comps) if i != li for P in comp]
        if (not any(res["conic"]) or not all(oracle.on_line(P, line, p) for P in comps[li])
                or any(oracle.eval_form(conic, P, p) for P in rest)):
            return "conic-line witness does not fit the net"
    elif tag == "proper-algebraic":
        cubic = res["cubic"]
        if not cubic or any(oracle.eval_form(cubic, P, p) for comp in comps for P in comp):
            return "cubic does not vanish on the net"
    else:
        for (g, d), (lg, ld), comp in zip(res["halves"], res["lines"], comps):
            if sorted(map(tuple, g + d)) != sorted(comp):
                return "tetrahedron halves do not split the component"
            if not (all(oracle.on_line(P, lg, p) for P in g)
                    and all(oracle.on_line(P, ld, p) for P in d)):
                return "tetrahedron halves are not on their lines"
    return None


def _check_classify(doc, res):
    if doc.k == 3:
        return _classify_witness(doc.family, doc.comps, res, doc.p)
    if res.get("k") != 4 or len(res["derived"]) != 4:
        return "4-net classify lists %r derived nets" % (res.get("k"),)
    for i, sub in enumerate(res["derived"]):
        rest = [c for j, c in enumerate(doc.comps) if j != i]
        why = _classify_witness("fermat", rest, sub, doc.p)
        if why:
            return "derived net %d: %s" % (i, why)
    return None


CHECKS = {"verify": _check_verify, "reject": _check_reject, "centers": _check_centers,
          "crossratio": _check_crossratio, "classify": _check_classify}


# ---- latin ------------------------------------------------------------------

def _perm(rng, n, fix_zero=False):
    rest = list(range(1 if fix_zero else 0, n))
    rng.shuffle(rest)
    return [0] + rest if fix_zero else rest


def latin_inputs(catalog, squares, seed):
    """LATIN_VARIANTS ops per group table and one per cyclic square.

    A group op carries G, a relabelling H of G fixing the identity, and an
    isotope L of G; a square op carries the square and its order.
    """
    rng = random.Random("latin:%d" % seed)
    ops = []
    for name in sorted(catalog):
        G = catalog[name]
        n = len(G)
        for v in range(LATIN_VARIANTS):
            pi = _perm(rng, n, fix_zero=True)
            H = [[0] * n for _ in range(n)]
            for a in range(n):
                for b in range(n):
                    H[pi[a]][pi[b]] = pi[G[a][b]]
            rows, cols, syms = _perm(rng, n), _perm(rng, n), _perm(rng, n)
            L = [[syms[G[rows[i]][cols[j]]] for j in range(n)] for i in range(n)]
            ops.append(("group", "%s#%d" % (name, v),
                        (G, tuple(map(tuple, H)), tuple(map(tuple, L)))))
    for (n, _), square in zip(LATIN_SQUARES, squares):
        ops.append(("square", "cyclic%d" % n, square))
    return ops


def run_latin_op(latin, op):
    """The library calls of one op; latin is the dualnets.latin module."""
    kind, _, data = op
    if kind == "group":
        G, H, L = data
        return (latin.complete_mapping_exists(G), latin.isomorphic(G, H),
                latin.is_group_coordinatizable(L))
    return latin.transversal_search(data), latin.is_group_coordinatizable(data)


def check_latin(op, result):
    """None when the results of one latin op are right, else the reason."""
    try:
        return _check_latin(op, result)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return "%s: malformed result: %r" % (op[1], exc)


def _check_latin(op, result):
    kind, name, data = op
    if kind == "group":
        G, H, _ = data
        (exists, theta), phi, coord = result
        if exists == oracle.sylow2_is_cyclic_nontrivial(G):
            return "%s: complete mapping verdict contradicts Hall-Paige" % name
        if exists and not oracle.is_complete_mapping(G, theta):
            return "%s: witness is not a complete mapping" % name
        if phi is None or not oracle.is_isomorphism(G, H, [phi[g] for g in range(len(G))]):
            return "%s: no valid isomorphism to its relabelling" % name
        reference = G
    else:
        cells, coord = result
        n = len(data)
        if (cells is None) != (n % 2 == 0):
            return "%s: transversal verdict is wrong" % name
        if cells is not None and not oracle.is_transversal(data, cells):
            return "%s: witness is not a transversal" % name
        reference = [[(i + j) % n for j in range(n)] for i in range(n)]
    if coord is None or not oracle.is_group_table(coord):
        return "%s: coordinatization is not a group table" % name
    if sorted(oracle.element_orders(coord)) != sorted(oracle.element_orders(reference)):
        return "%s: coordinatizing group has the wrong element orders" % name
    return None


def check_latin_setup(catalog, squares):
    if len(catalog) != LATIN_GROUPS or not all(oracle.is_group_table(G) for G in catalog.values()):
        return "group catalog is not %d group tables" % LATIN_GROUPS
    if len(squares) != len(LATIN_SQUARES) or not all(
            len(s) == n and oracle.is_latin(s) for (n, _), s in zip(LATIN_SQUARES, squares)):
        return "from_net did not give the cyclic latin squares"
    return None
