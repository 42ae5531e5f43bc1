"""Dual k-nets as point sets in PG(2,p): verification, perspective centers,
constant cross-ratio, classification, and 4-net assembly.

A dual k-net of order n is k >= 3 pairwise disjoint components of n points
each such that every line meeting two distinct components meets each
component in exactly one point.  The verifier checks the definition by
exhaustive pair scan; everything downstream requires a verified net.

A perspective center T is a point whose lines split the kn net points into
n full net lines.  For n >= 2 fix two points A, B of component 0: T lies on
the net line through A and on the net line through B, and these differ,
because a net line holds one point of component 0 only.  The net lines
through A are the n joins of A with component 1, and likewise for B, so
find_centers tests only the n^2 meets of one with the other.  The tests
keep the whole-plane sweep of the definition as the oracle for that search.
"""

from itertools import combinations

from . import curves
from .plane import (all_points, cross_ratio, det3, incident, join, meet,
                    normalize)


class NetViolation(Exception):
    """Verification failure with the offending line/component/count."""

    def __init__(self, message, line=None, component=None, count=None):
        super().__init__(message)
        self.line = line
        self.component = component
        self.count = count


class DualNet:
    """A verified dual k-net; construct through verify() only."""

    __slots__ = ("p", "components", "k", "n", "verified", "char_exception", "meta")

    def __init__(self, p, components, char_exception, meta=None):
        self.p = p
        self.components = components
        self.k = len(components)
        self.n = len(components[0])
        self.verified = True
        self.char_exception = char_exception
        self.meta = dict(meta or {})

    def all_net_points(self):
        return [P for comp in self.components for P in comp]

    def __repr__(self):
        return "DualNet(k=%d, n=%d, p=%d)" % (self.k, self.n, self.p)


def verify(components, p, allow_char_exception=False, meta=None):
    """Check the dual k-net axioms exhaustively and return a DualNet.

    components: k >= 3 iterables of point triples (normalized here).
    Raises NetViolation with the offending line and component on failure.
    The convention p > n models nets over characteristic bigger than the
    order; pass allow_char_exception=True for the deliberate n = p
    construction.
    """
    comps = [tuple(sorted(normalize(P, p) for P in comp)) for comp in components]
    if len(comps) < 3:
        raise NetViolation("a dual net needs at least 3 components")
    n = len(comps[0])
    if n == 0:
        raise NetViolation("empty component")
    for i, comp in enumerate(comps):
        if len(comp) != n:
            raise NetViolation("component %d has size %d, expected %d" % (i, len(comp), n),
                               component=i, count=len(comp))
        if len(set(comp)) != n:
            raise NetViolation("component %d has repeated points" % i, component=i)
    seen = {}
    for i, comp in enumerate(comps):
        for P in comp:
            if P in seen:
                raise NetViolation(
                    "components %d and %d are not disjoint at %r" % (seen[P], i, P),
                    component=i)
            seen[P] = i
    if not allow_char_exception and p <= n:
        raise NetViolation("p=%d must exceed the order n=%d" % (p, n))

    comp_sets = [set(c) for c in comps]
    lines_between = set()
    for i, j in combinations(range(len(comps)), 2):
        for P in comps[i]:
            for Q in comps[j]:
                line = join(P, Q, p)
                for m, cs in enumerate(comp_sets):
                    count = sum(1 for R in cs if incident(R, line, p))
                    if count != 1:
                        raise NetViolation(
                            "line %r through components %d,%d meets component %d "
                            "in %d points" % (line, i, j, m, count),
                            line=line, component=m, count=count)
                if i == 0 and j == 1:
                    lines_between.add(line)
    if len(lines_between) != n * n:
        raise NetViolation(
            "expected %d distinct net lines, found %d" % (n * n, len(lines_between)),
            count=len(lines_between))
    return DualNet(p, tuple(comps), allow_char_exception and p <= n, meta)


def net_lines(net):
    """The n^2 lines of the net, each meeting every component once."""
    p = net.p
    lines = sorted({join(P, Q, p) for P in net.components[0] for Q in net.components[1]})
    assert len(lines) == net.n * net.n
    return lines


def lines_through_center(net, T):
    """The n net lines through a perspective center T, each mapped to its
    points {component index: point}; None when T is not a center.

    T must be off the components, and each line through T then has to
    contain exactly one point of every component.
    """
    p = net.p
    classes = {}
    for ci, comp in enumerate(net.components):
        for P in comp:
            if P == T:
                return None
            got = classes.setdefault(join(T, P, p), {})
            if ci in got or len(classes) > net.n:
                return None
            got[ci] = P
    # n lines with at most one point per component hold all kn points only
    # when each holds exactly k
    return classes if len(classes) == net.n else None


def is_perspective_center(net, T):
    """True iff the lines through T partition the kn net points into n full lines."""
    return lines_through_center(net, T) is not None


def find_centers(net):
    """All perspective centers of the net.

    For n >= 2 a center T lies on the net line through A and on the net
    line through B, for the first two points A, B of component 0; the two
    lines differ, since no net line holds two points of one component.
    Each is a join with a point of component 1, so the n^2 meets of the n
    lines through A with the n lines through B are a complete candidate
    set.  Only n = 1 needs the whole plane.  The tests compare the result
    with a whole-plane sweep of the definition.
    """
    p = net.p
    if net.n == 1:
        candidates = all_points(p)
    else:
        A, B = net.components[0][:2]
        through_a = [join(A, Q, p) for Q in net.components[1]]
        through_b = [join(B, Q, p) for Q in net.components[1]]
        candidates = {meet(la, lb, p) for la in through_a for lb in through_b}
    return {T for T in candidates if is_perspective_center(net, T)}


def constant_cross_ratio(net, T):
    """The common cross-ratio (T, l^Lambda1, l^Lambda2, l^Lambda3) over the
    n net lines l through the center T; raises if T is not a center or the
    value fails to be constant (which would be an internal inconsistency)."""
    if net.k != 3:
        raise ValueError("constant cross-ratio is defined for 3-nets")
    classes = lines_through_center(net, T)
    if classes is None:
        raise ValueError("%r is not a perspective center" % (T,))
    p = net.p
    kappa = None
    witness = None
    for line, pts in classes.items():
        k = cross_ratio(T, pts[0], pts[1], pts[2], p)
        if kappa is None:
            kappa, witness = k, line
        elif k != kappa:
            raise AssertionError(
                "non-constant cross-ratio: %r on %r vs %r on %r" % (kappa, witness, k, line))
    return kappa


def _nullspace(rows, ncols, p):
    """Basis of the right nullspace of the matrix mod p (row reduction)."""
    mat = [list(r) for r in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] % p != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][c], -1, p)
        mat[r] = [x * inv % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] % p != 0:
                f = mat[i][c]
                mat[i] = [(x - f * y) % p for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        v = [0] * ncols
        v[fc] = 1
        for ri, pc in enumerate(pivots):
            v[pc] = (-mat[ri][fc]) % p
        basis.append(tuple(v))
    return basis


def _proj_combinations(basis, p):
    """All projective combinations of a nullspace basis of dimension <= 2."""
    if len(basis) == 1:
        return [basis[0]]
    if len(basis) == 2:
        out = [tuple((x + t * y) % p for x, y in zip(basis[0], basis[1])) for t in range(p)]
        out.append(basis[1])
        return out
    return []


_CONIC_MONOMIALS = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]


def _fit_forms(points, monomials, p):
    rows = [[pow(P[0], i, p) * pow(P[1], j, p) * pow(P[2], k, p) % p
             for (i, j, k) in monomials] for P in points]
    return _nullspace(rows, len(monomials), p)


def _conic_is_nonsingular(v, p):
    a, b, c, d, e, f = v
    M = ((2 * a, b, c), (b, 2 * d, e), (c, e, 2 * f))
    return det3(M, p) != 0


def _component_line(comp, p):
    if len(comp) < 2:
        return None
    line = join(comp[0], comp[1], p)
    if all(incident(P, line, p) for P in comp):
        return line
    return None


def _collinear_splits(comp, p):
    """All partitions of a component into two collinear halves of equal size."""
    n = len(comp)
    if n % 2:
        return []
    m = n // 2
    out = []
    rest_all = set(comp)
    first = comp[0]
    for half in combinations(comp, m):
        if first not in half:
            continue
        l1 = _component_line(list(half), p)
        if l1 is None:
            continue
        other = tuple(sorted(rest_all - set(half)))
        l2 = _component_line(list(other), p)
        if l2 is None or l1 == l2:
            continue
        out.append(((tuple(sorted(half)), l1), (other, l2)))
    return out


def _try_tetrahedron(net):
    """Greedy check of the two-halves-per-component structure.

    Looks for a split of every component into two collinear halves and a
    labeling (G_i, D_i) such that the four triples (G1,G2,G3), (G1,D2,D3),
    (D1,G2,D3), (D1,D2,G3) each verify as dual 3-nets of order n/2.
    """
    if net.n % 2 or net.n < 4:
        return None
    p = net.p
    all_splits = [_collinear_splits(comp, p) for comp in net.components]
    if any(not s for s in all_splits):
        return None

    def faces_ok(halves):
        (g1, d1), (g2, d2), (g3, d3) = halves
        for triple in ((g1, g2, g3), (g1, d2, d3), (d1, g2, d3), (d1, d2, g3)):
            try:
                verify(triple, p)
            except NetViolation:
                return False
        return True

    for s1 in all_splits[0]:
        for s2 in all_splits[1]:
            for s3 in all_splits[2]:
                for o1 in (0, 1):
                    for o2 in (0, 1):
                        for o3 in (0, 1):
                            halves = ((s1[o1][0], s1[1 - o1][0]),
                                      (s2[o2][0], s2[1 - o2][0]),
                                      (s3[o3][0], s3[1 - o3][0]))
                            if faces_ok(halves):
                                return {
                                    "halves": halves,
                                    "lines": ((s1[o1][1], s1[1 - o1][1]),
                                              (s2[o2][1], s2[1 - o2][1]),
                                              (s3[o3][1], s3[1 - o3][1])),
                                }
    return None


def classify(net):
    """Classification into the net families, by decision procedure.

    1. all components linear: triangular (carrier triangle) or pencil
       (concurrent carriers);
    2. one component linear, the other 2n points on a common nonsingular
       conic: conic-line;
    3. all kn points on a common irreducible cubic: proper-algebraic,
       annotated with the singular points and j-invariant data;
    4. every component a union of two collinear halves with the four-face
       incidence: tetrahedron;
    5. otherwise unknown.
    """
    if net.k != 3:
        raise ValueError("classification is defined for 3-nets")
    p = net.p
    comp_lines = [_component_line(list(c), p) for c in net.components]
    if all(l is not None for l in comp_lines):
        if len(set(comp_lines)) < 3:
            return {"tag": "unknown", "reason": "repeated carrier lines"}
        vertex = meet(comp_lines[0], comp_lines[1], p)
        if incident(vertex, comp_lines[2], p):
            return {"tag": "pencil", "carrier_lines": comp_lines, "vertex": vertex}
        return {"tag": "triangular", "carrier_lines": comp_lines}

    linear_idx = [i for i, l in enumerate(comp_lines) if l is not None]
    if len(linear_idx) == 1:
        li = linear_idx[0]
        others = [P for i, c in enumerate(net.components) if i != li for P in c]
        basis = _fit_forms(others, _CONIC_MONOMIALS, p)
        if len(basis) > 2:
            return {"tag": "unknown", "reason": "conic fit dimension %d" % len(basis)}
        for v in _proj_combinations(basis, p):
            if _conic_is_nonsingular(v, p):
                return {
                    "tag": "conic-line",
                    "line": comp_lines[li],
                    "line_component": li,
                    "conic": v,
                }

    pts = net.all_net_points()
    basis = _fit_forms(pts, [m for m in curves.monomials(3)], p)
    if len(basis) > 2:
        return {"tag": "unknown", "reason": "cubic fit dimension %d" % len(basis)}
    irreducible = []
    for v in _proj_combinations(basis, p):
        F = curves.HomPoly(3, dict(zip(curves.monomials(3), v)), p)
        if F.is_zero:
            continue
        if not curves.rational_lines(F):
            irreducible.append(F)
    if irreducible:
        F = irreducible[0]
        sing = sorted(curves.singular_points(F))
        info = {
            "tag": "proper-algebraic",
            "cubic": sorted(F.coeffs.items()),
            "cubic_space_dim": len(basis),
            "singular": sing,
            "j_values": sorted({str(j) for j in
                                (curves.j_of_cubic(G) for G in irreducible)
                                if j is not None}),
        }
        j = curves.j_of_cubic(F)
        if j is not None:
            info["j"] = j
        if len(sing) == 1:
            info["singular_type"] = curves.singular_type(F, sing[0])
        return info

    tet = _try_tetrahedron(net)
    if tet is not None:
        return {"tag": "tetrahedron", "halves": tet["halves"], "lines": tet["lines"]}
    return {"tag": "unknown"}


def extend_to_4net(net):
    """4-net assembly: succeeds when there are exactly n centers and every
    line through two of them avoids the net points; None otherwise."""
    if net.k != 3:
        raise ValueError("extension starts from a 3-net")
    centers = find_centers(net)
    if len(centers) != net.n:
        return None
    p = net.p
    pts = set(net.all_net_points())
    for T1, T2 in combinations(sorted(centers), 2):
        line = join(T1, T2, p)
        if any(incident(P, line, p) for P in pts):
            return None
    comps = list(net.components) + [tuple(sorted(centers))]
    return verify(comps, p, allow_char_exception=net.char_exception)


def derived_net(net, drop):
    """Remove one component of a k >= 4 net and re-verify the rest."""
    if net.k < 4:
        raise ValueError("derived nets need k >= 4")
    if not 0 <= drop < net.k:
        raise ValueError("component index %d out of range" % drop)
    comps = [c for i, c in enumerate(net.components) if i != drop]
    return verify(comps, net.p, allow_char_exception=net.char_exception)


def crossratio_4net(net):
    """The constant cross-ratio (l^L1, l^L2, l^L3, l^L4) over all net lines."""
    if net.k != 4:
        raise ValueError("needs a verified 4-net")
    p = net.p
    comp_sets = [set(c) for c in net.components]
    kappa = None
    witness = None
    for line in net_lines(net):
        pts = []
        for cs in comp_sets:
            pts.append(next(P for P in cs if incident(P, line, p)))
        k = cross_ratio(pts[0], pts[1], pts[2], pts[3], p)
        if kappa is None:
            kappa, witness = k, line
        elif k != kappa:
            raise AssertionError(
                "non-constant 4-net cross-ratio: %r on %r vs %r on %r"
                % (kappa, witness, k, line))
    return kappa
