"""A census of the dual 3-nets of order 3 and 4 with a perspective center,
for the tests: every such net in PG(2,p) with center T = (0,0,1), up to the
projectivities that fix T, in one normal form.

Normal form.  The projectivities fixing T act on the lines through T as
PGL(2,p), which is sharply 3-transitive, so three of the n net lines through
T are l1: X = 0, l2: Y = 0 and l3: X = Y, and a fourth is Y = vX with v not
0 or 1.  The maps (x, y, z) -> (x, y, cx + dy + ez) fix every line through
T; they move the first point of component A on l1 to A1 = (0,1,0), the
first of B on l1 to B1 = (0,1,1) and the first of A on l2 to A2 = (1,0,0).
What is left free is C1 = (0,1,c1), B2 = (1,0,b2), C2 = (1,0,c2) and, for
order 4, v.

Each point on l3 and l4 is then forced up to a choice of two.  The net
lines through Aj other than lj meet Bi and C(s(i)) for each i != j, where
s is a derangement of the other n - 1 indices: C(s(i)) is neither Ci nor
Cj, since the line meets li and lj only in Bi and Aj.  For n <= 4 that
leaves s(1) = 2 or s(2) = 1, so Aj is the meet of lj with B1C2 or with
B2C1; Bj and Cj follow in the same way.  The verifier makes the final
decision, and the nets are deduplicated on their components.

At order 3 the census is the closed form N3(kappa, p) of order3_net, one
net for each kappa not 0 or 1, with c1 = c2 = kappa and b2 = 1.
"""

from itertools import product

from dualnets.nets import NetViolation, verify
from dualnets.plane import join, meet

CENTER = (0, 0, 1)


def census(n, p):
    """The dual 3-nets of order n in {3, 4} over GF(p) in the normal form,
    one per component tuple, sorted by components."""
    if n not in (3, 4):
        raise ValueError("the normal form forces the points of orders 3 and 4 only")
    # the fourth line's slope v; order 3 has none
    slopes = [(v,) for v in range(2, p)] if n == 4 else [()]
    found = {}
    for c1, b2, c2, extra in product(range(2, p), range(1, p), range(1, p), slopes):
        if c2 != b2:
            for net in _forced_nets(c1, b2, c2, extra, p):
                found[net.components] = net
    return [found[key] for key in sorted(found)]


def order3_net(kappa, p):
    """N3(kappa, p): the one order-3 net in the normal form with c1 = kappa,
    b2 = 1 and c2 = kappa, for kappa not 0 or 1."""
    (net,) = _forced_nets(kappa, 1, kappa, (), p)
    return net


def _forced_nets(c1, b2, c2, extra, p):
    """The nets in the normal form with these parameters, extra holding the
    fourth line's slope at order 4: each choice of forced points that
    verifies."""
    A1, B1, A2 = (0, 1, 0), (0, 1, 1), (1, 0, 0)
    C1, B2, C2 = (0, 1, c1), (1, 0, b2), (1, 0, c2)
    # the two lines that each forced point of component A, B, C lies on
    pairs = [(join(B1, C2, p), join(B2, C1, p)), (join(A1, C2, p), join(A2, C1, p)),
             (join(A1, B2, p), join(A2, B1, p))]
    options = [{meet(l, join(CENTER, (1, v, 0), p), p) for l in pair}
               for v in (1, *extra) for pair in pairs]
    for forced in product(*options):
        # forced holds (Aj, Bj, Cj) for j = 3, then for j = 4
        comps = [[A1, A2, *forced[0::3]], [B1, B2, *forced[1::3]], [C1, C2, *forced[2::3]]]
        try:
            yield verify(comps, p)
        except NetViolation:
            continue
