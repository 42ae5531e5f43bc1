"""Classification of a verified dual 3-net into the net families; only
nets.classify loads this module.  It calls plane and curves through their
module attributes (plane.join, curves.restrict), which perfbench's tracer
rebinds and counts; a name bound by a from-import is not counted.
"""

from itertools import product

from . import plane


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
_CUBIC_MONOMIALS = plane.monomials(3)


def _fit_forms(points, exponents, p):
    rows = [[pow(P[0], i, p) * pow(P[1], j, p) * pow(P[2], k, p) % p
             for (i, j, k) in exponents] for P in points]
    return _nullspace(rows, len(exponents), p)


def _conic_is_nonsingular(v, p):
    a, b, c, d, e, f = v
    M = ((2 * a, b, c), (b, 2 * d, e), (c, e, 2 * f))
    return plane.det3(M, p) != 0


def _component_line(comp, p):
    if len(comp) < 2:
        return None
    line = plane.join(comp[0], comp[1], p)
    if all(plane.incident(P, line, p) for P in comp):
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
    for l1 in {plane.join(comp[0], Q, p) for Q in comp[1:]}:
        on = [P for P in comp if plane.incident(P, l1, p)]
        off = [P for P in comp if not plane.incident(P, l1, p)]
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
        vertex = plane.meet(comp_lines[0], comp_lines[1], p)
        if plane.incident(vertex, comp_lines[2], p):
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
