"""Dual k-nets as point sets in PG(2,p): verification, perspective centers,
constant cross-ratio and 4-net assembly; classify hands the net to the
classification module.

A dual k-net of order n is k >= 3 pairwise disjoint components of n points
each such that every line meeting two distinct components meets each
component in exactly one point.  The verifier groups the other net points
by the line through them and each point P of component 0, keyed by one
residue mod p per pair (_line_keys) rather than a join, and checks only
the lines from component 0 to component 1, joining P with each point of
component 1: n^2 joins in all.  A counting argument (in verify) covers
every other line.  The same pass yields the net-line table, each of the
n^2 net lines with its k points, which lines_through_center,
crossratio_4net, latin.from_net and the tetrahedral step of
classification read instead of joining again.

A perspective center T is a point whose lines split the kn net points into
n full net lines.  For n >= 2 fix two points A, B of component 0: T lies on
the net line through A and on the net line through B, and these differ,
because a net line holds one point of component 0 only.  The net lines
through A are the n joins of A with component 1, and likewise for B, so
find_centers tests only the n^2 meets of one with the other.  For n = 1
the centers are the points of the one net line off the net.  The tests
keep the whole-plane sweep of the definition as the oracle for both.
"""

from .plane import cross_ratio, join, line_points, meet, normalize


_MAX_CENTERS = 10 ** 6  # find_centers' bound on its centers times the order
VERIFY_MAX_PAIRS = 3 * 500 ** 2  # the k n^2 point pairs verify groups at most: an order-500 3-net


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


def _check_pairs(k, n):
    """Raise ValueError when verifying a k-net of order n would group more
    than VERIFY_MAX_PAIRS point pairs.  The constructors call it before they
    build anything; a non-positive order passes, for their own checks to
    refuse."""
    if n > 0 and k * n * n > VERIFY_MAX_PAIRS:
        raise ValueError("k = %d, n = %d: k n^2 = %d point pairs exceed the verifier limit "
                         "VERIFY_MAX_PAIRS = %d" % (k, n, k * n * n, VERIFY_MAX_PAIRS))


def _inverter(p, pairs):
    """c -> c^-1 mod p for 0 < c < p.  When p <= pairs, a table built by
    inv[a] = -(p // a) inv[p mod a] (from p = (p // a) a + p mod a), which
    then costs no more than the pairs it serves; otherwise pow, which works
    for every p up to 2^64."""
    if p > pairs:
        return lambda c: pow(c, -1, p)
    inv = [0, 1] + [0] * (p - 2)
    for a in range(2, p):
        inv[a] = -(p // a) * inv[p % a] % p
    return inv.__getitem__


def _line_keys(P, points, p, inv):
    """For a normalized point P = (x, y, z) and normalized points
    Q = (u, v, w) != P, a key of the line PQ.

    Let P_i = 1 be the first nonzero entry of P and j < k the other two
    indices.  The line l = P x Q has l . P = 0, so l_i = -(l_j P_j + l_k P_k)
    and l is fixed by (l_j : l_k), which is nonzero since Q != P.  The key
    l_j / l_k mod p, or p when l_k = 0, is thus equal for Q and R exactly
    when PQ = PR.  With P x Q = (y w - z v, z u - x w, x v - y u), one
    branch per pivot i spells out l_j and l_k; inv inverts mod p."""
    x, y, z = P
    if x:  # P = (1, y, z)
        return [(z * u - w) * inv(d) % p if (d := (v - y * u) % p) else p for u, v, w in points]
    if y:  # P = (0, 1, z)
        return [(w - z * v) * inv(p - u) % p if u else p for u, v, w in points]
    return [-v * inv(u) % p if u else p for u, v, w in points]  # P = (0, 0, 1)


def verify(components, p, allow_char_exception=False, meta=None):
    """Check the dual k-net axioms and return a DualNet with its line table.

    components: k >= 3 iterables of point triples (normalized here).
    Raises NetViolation with the offending line and component on failure.
    The convention p > n models nets over characteristic bigger than the
    order; pass allow_char_exception=True for the deliberate n = p
    construction.

    Each point P of component 0 groups the other net points, in component
    order, by the key of their line with P (_line_keys: one residue per
    pair, no join); a line through P passes when its group reads
    components 0, 1, ..., k-1, P counted in component 0, and is then
    stored, as the join of P with its point of component 1, as it stands.
    That is k n^2 keys, n^2 joins and no incidence test; a net with
    k n^2 > VERIFY_MAX_PAIRS raises ValueError before the first key.

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
    k = len(comps)
    _check_pairs(k, n)

    points = list(seen)
    inv = _inverter(p, k * n * n)
    lines = {}
    order = list(range(k))
    for r, P in enumerate(comps[0]):
        # the other net points and the key of each one's line through P;
        # the net points of each such line, in component order; component
        # 1 is others[n - 1:2 n - 1]
        others = points[:r] + points[r + 1:]
        keys = _line_keys(P, others, p, inv)
        on = {}
        for key, Q in zip(keys, others):
            on.setdefault(key, [P]).append(Q)
        for key, Q in zip(keys[n - 1:2 * n - 1], comps[1]):
            pts = on[key]
            line = join(P, Q, p)
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
    A center costs all n, so the search raises ValueError once its centers
    times n pass _MAX_CENTERS: a net with about p^2 centers, such as the
    pencil, would cost O(p^3).  For n = 1 the k net points span the one
    net line, and every other point of that line is a center; more than
    _MAX_CENTERS of them raise ValueError before any is listed.  The tests
    compare the result with a whole-plane sweep of the definition.
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
    centers = set()
    for T in candidates:
        if is_perspective_center(net, T):
            centers.add(T)
            if len(centers) * net.n > _MAX_CENTERS:
                raise ValueError("an order-%d net over GF(%d) has more than %d centers, past the "
                                 "limit _MAX_CENTERS = %d on centers times the order"
                                 % (net.n, p, _MAX_CENTERS // net.n, _MAX_CENTERS))
    return centers


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


def classify(net):
    """Classification into the net families: the decision procedure of
    classification.classify, whose module only this function loads."""
    from . import classification

    return classification.classify(net)


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
