"""Dual k-nets as point sets in PG(2,p): verification, perspective centers,
constant cross-ratio, classification, and 4-net assembly.

A dual k-net of order n is k >= 3 pairwise disjoint components of n points
each such that every line meeting two distinct components meets each
component in exactly one point.  The verifier groups the other net points
by their join with each point of component 0 and checks only the lines
from component 0 to component 1; a counting argument (in verify) covers
every other line.  The same pass yields the net-line table, each of the
n^2 net lines with its k points, which lines_through_center,
crossratio_4net, classify's tetrahedral step and latin.from_net read
instead of joining again.

A perspective center T is a point whose lines split the kn net points into
n full net lines.  For n >= 2 fix two points A, B of component 0: T lies on
the net line through A and on the net line through B, and these differ,
because a net line holds one point of component 0 only.  The net lines
through A are the n joins of A with component 1, and likewise for B, so
find_centers tests only the n^2 meets of one with the other.  For n = 1
the centers are the points of the one net line off the net.  The tests
keep the whole-plane sweep of the definition as the oracle for both.
"""

from itertools import product

from .plane import cross_ratio, det3, incident, join, line_points, meet, monomials, normalize


_MAX_CENTERS = 10 ** 6  # the most centers find_centers lists for an order-1 net
VERIFY_MAX_JOINS = 3 * 500 ** 2  # the k n^2 joins verify makes at most: an order-500 3-net


class NetViolation(Exception):
    """Verification failure with the offending line/component/count."""

    def __init__(self, message, line=None, component=None, count=None):
        super().__init__(message)
        self.line = line
        self.component = component
        self.count = count


class DualNet:
    """A verified dual k-net; construct through verify() only.

    lines maps each of the n^2 net lines to its k points, one per
    component in component order.
    """

    __slots__ = ("p", "components", "k", "n", "lines", "meta")

    def __init__(self, p, components, lines, meta=None):
        self.p = p
        self.components = components
        self.k = len(components)
        self.n = len(components[0])
        self.lines = lines
        self.meta = dict(meta or {})

    @property
    def char_exception(self):
        """The deliberate n = p construction: verify admits p <= n only when allowed."""
        return self.p <= self.n

    def all_net_points(self):
        return [P for comp in self.components for P in comp]


def _check_joins(k, n):
    """Raise ValueError when verifying a k-net of order n would take more
    than VERIFY_MAX_JOINS joins.  The constructors call it before they build
    anything; a non-positive order passes, for their own checks to refuse."""
    if n > 0 and k * n * n > VERIFY_MAX_JOINS:
        raise ValueError("k = %d, n = %d: k n^2 = %d joins exceed the verifier limit "
                         "VERIFY_MAX_JOINS = %d" % (k, n, k * n * n, VERIFY_MAX_JOINS))


def verify(components, p, allow_char_exception=False, meta=None):
    """Check the dual k-net axioms and return a DualNet with its line table.

    components: k >= 3 iterables of point triples (normalized here).
    Raises NetViolation with the offending line and component on failure.
    The convention p > n models nets over characteristic bigger than the
    order; pass allow_char_exception=True for the deliberate n = p
    construction.

    Each point P of component 0 groups the other net points by their join
    with P, in component order; a line through P passes when its group
    reads components 0, 1, ..., k-1, P counted in component 0, and is then
    stored as it stands.  That is at most k n^2 joins and no incidence
    test; a net with k n^2 > VERIFY_MAX_JOINS raises ValueError before the
    first join.

    Only the lines PQ with Q in component 1 are checked.  That suffices:
    if they all pass, the n of them through one P are distinct and meet
    component j in n distinct points (two of them share only P), so all of
    component j lies on them.  Hence each point Q of a component i >= 1
    lies on one checked line through every P, and these n lines through Q
    again hold all of component j.  Every line through points of two
    components is thus a checked line.  A violation anywhere therefore
    shows on some line PQ, and the first one in (P, Q, component) order is
    the first that a scan over the pairs of components (0,1), (0,2), ...,
    (1,2), ... with sorted points meets: that one is reported.
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
    _check_joins(len(comps), n)

    lines = {}
    order = list(range(len(comps)))
    for P in comps[0]:
        # the line through P of every other net point, and the net points
        # of each such line, in component order
        line_of = {Q: join(P, Q, p) for Q in seen if Q != P}
        on = {}
        for Q, line in line_of.items():
            on.setdefault(line, [P]).append(Q)
        for Q in comps[1]:
            line = line_of[Q]
            pts = on[line]
            if [seen[R] for R in pts] != order:
                held = [[R for R in pts if seen[R] == m] for m in order]
                m = next(m for m in order if len(held[m]) != 1)
                raise NetViolation(
                    "line %r through components 0,1 meets component %d in %d points"
                    % (line, m, len(held[m])), line=line, component=m, count=len(held[m]))
            lines[line] = tuple(pts)
    return DualNet(p, tuple(comps), lines, meta)


def lines_through_center(net, T):
    """The n net lines through a perspective center T, each mapped to its
    points in component order, as in the line table; None when T is not a
    center.

    T is a center exactly when, for each point P of component 0, the join
    TP is a net line that does not hold T.  These n lines are distinct,
    since a net line holds one point of component 0, and meet only in T,
    so their kn points are all the net points.  The first two points of
    component 0 are walked last, since a find_centers candidate lies on
    net lines through both, and the lines come back in component-0 order.
    """
    comp = net.components[0]
    classes = []
    for P in comp[2:] + comp[:2]:
        if P == T:
            return None
        line = join(T, P, net.p)
        pts = net.lines.get(line)
        if pts is None or T in pts:
            return None
        classes.append((line, pts))
    return dict(classes[-2:] + classes[:-2])


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
    set.  lines_through_center tests each with at most n joins, those with
    A and B last, since for a candidate off the net they are net lines.
    For n = 1 the k net points span the one net line, and every other
    point of that line is a center; more than _MAX_CENTERS of them raise
    ValueError before any is listed.  The tests compare the result with a
    whole-plane sweep of the definition.
    """
    p = net.p
    if net.n == 1:
        count = p + 1 - net.k
        if count > _MAX_CENTERS:
            raise ValueError("an order-1 net over GF(%d) has %d centers, more than the "
                             "limit of %d" % (p, count, _MAX_CENTERS))
        (line,) = net.lines
        return set(line_points(line, p)) - set(net.all_net_points())
    A, B = net.components[0][:2]
    through_a = [join(A, Q, p) for Q in net.components[1]]
    through_b = [join(B, Q, p) for Q in net.components[1]]
    candidates = {meet(la, lb, p) for la in through_a for lb in through_b}
    return {T for T in candidates if is_perspective_center(net, T)}


def constant_cross_ratio(net, T):
    """The cross-ratio (T, l^Lambda1, l^Lambda2, l^Lambda3) on the net lines
    l through the center T, read on the first of them; raises ValueError if
    T is not a center.  The value is the same on every such line, and the
    tests compare it with all of them."""
    if net.k != 3:
        raise ValueError("constant cross-ratio is defined for 3-nets")
    classes = lines_through_center(net, T)
    if classes is None:
        raise ValueError("%r is not a perspective center" % (T,))
    return cross_ratio(T, *next(iter(classes.values())), net.p)


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


_CONIC_MONOMIALS = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]
_CUBIC_MONOMIALS = monomials(3)


def _fit_forms(points, exponents, p):
    rows = [[pow(P[0], i, p) * pow(P[1], j, p) * pow(P[2], k, p) % p
             for (i, j, k) in exponents] for P in points]
    return _nullspace(rows, len(exponents), p)


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
    """All partitions of a sorted component into two collinear halves of
    equal size, sorted.

    The half holding comp[0] lies on a line l1 through comp[0] and another
    point of the component.  The other half lies on a line l2 != l1, so it
    holds at most one point of l1, their meet.  Hence l1 holds m or m + 1
    points of the component, m = n/2, and in the second case the half is
    those points but one other than comp[0].  That is at most n - 1 lines
    and n candidate halves, against C(n - 1, m - 1) subsets holding comp[0].
    """
    n = len(comp)
    if n % 2:
        return []
    m = n // 2
    out = []
    for l1 in {join(comp[0], Q, p) for Q in comp[1:]}:
        on = [P for P in comp if incident(P, l1, p)]
        off = [P for P in comp if not incident(P, l1, p)]
        if len(on) == m:
            splits = [(on, off)]
        elif len(on) == m + 1:
            splits = [([P for P in on if P != X], sorted(off + [X])) for X in on[1:]]
        else:
            continue
        # other holds a point off l1 once it has two, so its line is never l1
        for half, other in splits:
            l2 = _component_line(other, p)
            if l2 is not None:
                out.append(((tuple(half), l1), (tuple(other), l2)))
    return sorted(out)


def _try_tetrahedron(net):
    """The first split of each component into two collinear halves, and
    labelling (G_i, D_i), whose faces (G1,G2,G3), (G1,D2,D3), (D1,G2,D3),
    (D1,D2,G3) are dual 3-nets of order n/2, as classify reports it; else
    None.  Reads the line table and verifies nothing.

    Label a point 0 in G_i and 1 in D_i: the faces are the label triples
    of even sum.  If every net line has an even sum, the line through
    points of two components of a face is a net line, so it meets each
    component once, and its third point lies in the same face: the faces
    are nets.  If the faces are nets, the face holding the first two points
    of a net line meets the line in a point of the third component, which
    can only be its third point: the sum is even.  Swapping G and D in one
    component flips every sum, so a split triple works when the sums over
    the line table all agree, as labelled when even and with the halves of
    the third component swapped when odd.  That is the first labelling that
    face verification in the order (0,0,0), (0,0,1), ... accepts.  No face
    fails on p > n/2: the n^2 net lines are distinct, so p^2 + p + 1 >= n^2
    and p >= n.  Only an even n >= 4 has splits.
    """
    p = net.p
    for splits in product(*(_collinear_splits(comp, p) for comp in net.components)):
        ones = [set(s[1][0]) for s in splits]  # the points labelled 1
        parities = {sum(P in d for P, d in zip(pts, ones)) % 2 for pts in net.lines.values()}
        if len(parities) == 1:
            if parities == {1}:
                splits = splits[:2] + (splits[2][::-1],)
            return {"tag": "tetrahedron", "halves": tuple((g[0], d[0]) for g, d in splits),
                    "lines": tuple((g[1], d[1]) for g, d in splits)}
    return None


def classify(net):
    """Classification into the net families, by decision procedure.

    1. all components linear: triangular (carrier triangle) or pencil
       (concurrent carriers);
    2. one component linear, the other 2n points on a common nonsingular
       conic: conic-line.  Here n >= 3 (for n = 2 every component is
       linear, for n = 1 none is), so the conic fit passes through
       2n >= 6 points.  Were its dimension 2, two independent conics of
       it would share these 2n > 4 points, hence a component, a line L;
       the fit would be L times a pencil of lines through one point Q, so
       all the 2n points but Q would lie on L, and with them a whole
       component that is not linear.  So the fit has dimension 0 or 1,
       and its one basis conic is the only candidate;
    3. all kn points on a common irreducible cubic: proper-algebraic,
       annotated with the singular points and j-invariant data;
    4. every component a union of two collinear halves whose four faces
       are dual nets: tetrahedron.  The halves of a component are found
       from the at most n - 1 lines through its first point
       (_collinear_splits), not from its subsets.  With the points of one
       half labelled 0 and of the other 1, the faces of a split triple are
       nets exactly when all net lines have label sums of one parity, so
       one pass over the line table decides it (_try_tetrahedron);
    5. otherwise unknown.
    """
    if net.k != 3:
        raise ValueError("classification is defined for 3-nets")
    p = net.p
    comp_lines = [_component_line(c, p) for c in net.components]
    if all(l is not None for l in comp_lines):
        vertex = meet(comp_lines[0], comp_lines[1], p)
        if incident(vertex, comp_lines[2], p):
            return {"tag": "pencil", "carrier_lines": comp_lines, "vertex": vertex}
        return {"tag": "triangular", "carrier_lines": comp_lines}

    linear_idx = [i for i, l in enumerate(comp_lines) if l is not None]
    if len(linear_idx) == 1:
        li = linear_idx[0]
        others = [P for i, c in enumerate(net.components) if i != li for P in c]
        conics = _fit_forms(others, _CONIC_MONOMIALS, p)
        if conics and _conic_is_nonsingular(conics[0], p):
            return {
                "tag": "conic-line",
                "line": comp_lines[li],
                "line_component": li,
                "conic": conics[0],
            }

    basis = _fit_forms(net.all_net_points(), _CUBIC_MONOMIALS, p)
    if len(basis) > 2:
        return {"tag": "unknown", "reason": "cubic fit dimension %d" % len(basis)}
    if basis:
        from . import curves  # only a fitted cubic needs the curve layer

        # the pencil members F0 + t F1 for t in GF(p), then F1
        members = basis if len(basis) == 1 else [
            tuple((x + t * y) % p for x, y in zip(*basis)) for t in range(p)] + [basis[1]]
        forms = (curves.HomPoly(3, dict(zip(_CUBIC_MONOMIALS, v)), p) for v in members)
        irreducible = [F for F in forms if not curves.rational_lines(F)]
        if irreducible:
            F = irreducible[0]
            sing = sorted(curves.singular_points(F))
            js = [curves.j_of_cubic(G) for G in irreducible]
            info = {
                "tag": "proper-algebraic",
                "cubic": sorted(F.coeffs.items()),
                "cubic_space_dim": len(basis),
                "singular": sing,
                "j_values": sorted({str(j) for j in js if j is not None}),
            }
            if js[0] is not None:
                info["j"] = js[0]
            if len(sing) == 1:
                info["singular_type"] = curves.singular_type(F, sing[0])
            return info

    return _try_tetrahedron(net) or {"tag": "unknown"}


def extend_to_4net(net):
    """4-net assembly: the centers as a fourth component, else None.

    verify decides; it accepts them exactly when there are n of them and
    no line through two of them meets a net point."""
    if net.k != 3:
        raise ValueError("extension starts from a 3-net")
    try:
        return verify([*net.components, find_centers(net)], net.p,
                      allow_char_exception=net.char_exception)
    except NetViolation:
        return None


def derived_net(net, drop):
    """Remove one component of a k >= 4 net and re-verify the rest."""
    if net.k < 4:
        raise ValueError("derived nets need k >= 4")
    if not 0 <= drop < net.k:
        raise ValueError("component index %d out of range" % drop)
    comps = [c for i, c in enumerate(net.components) if i != drop]
    return verify(comps, net.p, allow_char_exception=net.char_exception)


def crossratio_4net(net):
    """The cross-ratio (l^L1, l^L2, l^L3, l^L4) of a 4-net, read on its least
    net line; the value is the same on every net line, and the tests compare
    it with all of them."""
    if net.k != 4:
        raise ValueError("needs a verified 4-net")
    return cross_ratio(*net.lines[min(net.lines)], net.p)
