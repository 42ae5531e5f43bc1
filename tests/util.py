"""Shared independent oracles for the test suite, and its two program
runners: run_main in this process and run_child in a fresh interpreter."""

import argparse
import contextlib
import io
import os
import resource
import subprocess
import sys
from itertools import combinations, permutations, product

from dualnets import classification
from dualnets.cli import (DEMOS, FAMILIES, cmd_centers, cmd_classify, cmd_construct,
                          cmd_crossratio, cmd_demo, cmd_verify, main)
from dualnets.curves import HomPoly, inflection_points, restrict, tangent_line
from dualnets.latin import _generators, element_orders
from dualnets.nets import NetViolation, verify
from dualnets.plane import (PValue, _base_points, all_points, cross, det3, incident, join,
                            line_points, meet, normalize)


CLI = ("-m", "dualnets.cli")  # run_child's arguments that start the command line
TIMEOUT = 10  # seconds a child runs unless its test gives it more


def run_main(*argv, stdin=b""):
    """(exit code, stdout, stderr) of dualnets.cli.main(argv) in this
    process.  stdin is bytes behind the text stream an interpreter in UTF-8
    mode hands over, so main decodes them itself; None is a closed fd 0,
    and text a bare text stream, as perfbench's in-process runs set."""
    out, err, saved = io.StringIO(), io.StringIO(), sys.stdin
    if isinstance(stdin, bytes):
        stdin = io.TextIOWrapper(io.BytesIO(stdin), encoding="utf-8", errors="surrogateescape")
    sys.stdin = io.StringIO(stdin) if isinstance(stdin, str) else stdin
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


def child_env(**changes):
    """os.environ with src first on PYTHONPATH, and the changes."""
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **changes)


def run_child(*args, stdin=b"", timeout=TIMEOUT, max_bytes=None, env=None):
    """The CompletedProcess, stdout and stderr as text, of `python args...`
    on src, killed after timeout seconds.  stdin is bytes or text (None: fd
    0 closed), env changes child_env, and max_bytes caps the address space,
    so that a runaway allocation fails in the child alone."""
    def setup():
        if stdin is None:
            os.close(0)
        if max_bytes is not None:
            resource.setrlimit(resource.RLIMIT_AS, (max_bytes, max_bytes))

    done = subprocess.run([sys.executable, *args], capture_output=True, timeout=timeout,
                          input=stdin.encode() if isinstance(stdin, str) else stdin,
                          env=child_env(**(env or {})),
                          preexec_fn=setup if stdin is None or max_bytes is not None else None)
    done.stdout, done.stderr = (s.decode("utf-8", "replace") for s in (done.stdout, done.stderr))
    return done


def is_latin(square):
    """Every row and every column of the n x n square holds 0..n-1 once."""
    n = len(square)
    syms = set(range(n))
    if any(len(row) != n or set(row) != syms for row in square):
        return False
    return all({row[j] for row in square} == syms for j in range(n))


def quadrangle_criterion(square):
    """Frolov's quadrangle criterion: a latin square is isotopic to a group
    table iff whenever two quadrangles agree in three cells they agree in
    the fourth.  Exhaustive, only sane for small n."""
    n = len(square)
    rows = range(n)
    for a1 in rows:
        for a2 in rows:
            for d1 in rows:
                for d2 in rows:
                    for b1 in rows:
                        for b2 in rows:
                            if square[a1][b1] != square[a2][b2]:
                                continue
                            if square[d1][b1] != square[d2][b2]:
                                continue
                            for c1 in rows:
                                for c2 in rows:
                                    if square[a1][c1] != square[a2][c2]:
                                        continue
                                    if square[d1][c1] != square[d2][c2]:
                                        return False
    return True


def principal_isotope_brute(square):
    """The principal loop isotope of a latin square with identity
    e = square[0][0], relabelled so that e becomes 0: entry (i, j) is
    sw(square[a^-1(sw(i))][b^-1(sw(j))]) with a, b the first column and
    first row and sw the swap of 0 and e."""
    n = len(square)
    a = [square[i][0] for i in range(n)]
    b = [square[0][j] for j in range(n)]
    ainv = [a.index(x) for x in range(n)]
    binv = [b.index(x) for x in range(n)]
    e = square[0][0]

    def sw(x):
        return 0 if x == e else e if x == 0 else x

    return tuple(tuple(sw(square[ainv[sw(i)]][binv[sw(j)]]) for j in range(n))
                 for i in range(n))


def is_associative_brute(table):
    """(x*y)*z = x*(y*z) on all n^3 triples."""
    n = len(table)
    return all(table[table[x][y]][z] == table[x][table[y][z]]
               for x in range(n) for y in range(n) for z in range(n))


def count_transversals_brute(square):
    """Transversal count by scanning all column permutations."""
    n = len(square)
    count = 0
    for perm in permutations(range(n)):
        symbols = {square[i][perm[i]] for i in range(n)}
        if len(symbols) == n:
            count += 1
    return count


def transversal_search_brute(square):
    """The first transversal in column order, as cells (i, j) in row order,
    or None: exhaustive backtracking over rows, with no shortcut."""
    n = len(square)
    cols_used = [False] * n
    syms_used = [False] * n
    col = [None] * n

    def rec(i):
        if i == n:
            return True
        for j in range(n):
            if cols_used[j]:
                continue
            s = square[i][j]
            if syms_used[s]:
                continue
            cols_used[j] = syms_used[s] = True
            col[i] = j
            if rec(i + 1):
                return True
            cols_used[j] = syms_used[s] = False
        return False

    return list(enumerate(col)) if rec(0) else None


def index2_subgroups_brute(table):
    """Every subgroup of index 2 of a group table with identity 0: each
    subset of size n/2 holding 0 and closed under the product."""
    n = len(table)
    if n % 2:
        return []
    found = []
    for rest in combinations(range(1, n), n // 2 - 1):
        sub = {0, *rest}
        if all(table[x][y] in sub for x in sub for y in sub):
            found.append(frozenset(sub))
    return found


def abelianized_product_nonzero_brute(table):
    """The product of all elements of a group table with identity 0, taken
    in row order, is not in the commutator subgroup G'.  Then the table has
    no complete mapping: in G/G' the image s of that product satisfies
    s + s = s.  G' is closed from the commutators by multiplying until
    nothing new appears."""
    n = len(table)
    inv = [table[g].index(0) for g in range(n)]
    comm = {table[table[table[g][h]][inv[g]]][inv[h]] for g in range(n) for h in range(n)}
    while True:
        grown = comm | {table[a][b] for a in comm for b in comm}
        if grown == comm:
            break
        comm = grown
    acc = 0
    for g in range(n):
        acc = table[acc][g]
    return acc not in comm


def cross_normalized_brute(u, v, p):
    """join and meet as first written: the cross product, then normalize.
    Every zero product raises ValueError("zero triple is not projective")."""
    return normalize(cross(u, v, p), p)


def collinear_brute(P, Q, R, p):
    """Three points of PG(2,p) are collinear iff their determinant vanishes."""
    det = (P[0] * (Q[1] * R[2] - Q[2] * R[1])
           - P[1] * (Q[0] * R[2] - Q[2] * R[0])
           + P[2] * (Q[0] * R[1] - Q[1] * R[0]))
    return det % p == 0


def cross_ratio_brute(A, B, C, D, p):
    """Cross-ratio of four collinear points, at most two coincident, by the
    pinned formula on line parameters: over two distinct points B1, B2 of
    the quadruple, each point P = lam*B1 + mu*B2 gets the pair (mu, lam),
    solved by Cramer's rule on two coordinates where B1, B2 are
    independent."""
    pts = [normalize(P, p) for P in (A, B, C, D)]
    distinct = list(dict.fromkeys(pts))
    if len(distinct) < 2:
        raise ValueError("cross-ratio needs at least two distinct points")
    B1, B2 = distinct[:2]
    if not all(collinear_brute(B1, B2, P, p) for P in pts):
        raise ValueError("points are not collinear")
    i, j = next((i, j) for i in range(3) for j in range(i + 1, 3)
                if (B1[i] * B2[j] - B1[j] * B2[i]) % p)
    t1, t2, t3, t4 = [(B1[i] * P[j] - B1[j] * P[i], P[i] * B2[j] - P[j] * B2[i])
                      for P in pts]

    def d(u, v):
        return u[0] * v[1] - v[0] * u[1]

    num = d(t3, t1) * d(t2, t4) % p
    den = d(t2, t3) * d(t4, t1) % p
    if num == 0 and den == 0:
        raise ValueError("cross-ratio undefined: three coincident points")
    return PValue(num, den, p)


def cross_ratio_lines_brute(l1, l2, l3, l4, p):
    """Cross-ratio of four concurrent lines, at most two coincident, by an
    auxiliary transversal: the reciprocal of the point cross-ratio of their
    meets with the coordinate line dual to the leading coordinate of the
    normalized common point, which misses that point."""
    lines = [normalize(l, p) for l in (l1, l2, l3, l4)]
    distinct = list(dict.fromkeys(lines))
    if len(distinct) < 2:
        raise ValueError("need at least two distinct lines")
    V = meet(distinct[0], distinct[1], p)
    if not all(incident(V, l, p) for l in lines):
        raise ValueError("lines are not concurrent")
    lead = next(i for i in range(3) if V[i])
    aux = tuple(int(i == lead) for i in range(3))
    return cross_ratio_brute(*(meet(l, aux, p) for l in lines), p).reciprocal()


def fermat_points_brute(p):
    """The points of X^3 + Y^3 = Z^3 over GF(p), by direct evaluation."""
    return [P for P in all_points(p)
            if (P[0] ** 3 + P[1] ** 3 - P[2] ** 3) % p == 0]


def partitions_brute(points, k):
    """Every partition of points into k unordered blocks of equal size.

    The first unused point always opens the next block, so each partition
    comes out exactly once.
    """
    if k == 0:
        yield []
        return
    n = len(points) // k
    first, rest = points[0], points[1:]
    for others in combinations(rest, n - 1):
        remaining = [P for P in rest if P not in others]
        for tail in partitions_brute(remaining, k - 1):
            yield [(first,) + others] + tail


def collinear_splits_brute(comp, p):
    """Every split of a sorted component into two halves of equal size on
    two distinct lines, as ((half, line), (other half, line)): each subset
    of size n/2 holding comp[0], in combinations order."""
    n = len(comp)
    if n % 2 or n < 4:
        return []
    out = []
    for rest in combinations(comp[1:], n // 2 - 1):
        half = (comp[0],) + rest
        l1 = join(half[0], half[1], p)
        if not all(incident(P, l1, p) for P in half):
            continue
        other = tuple(sorted(set(comp) - set(half)))
        l2 = join(other[0], other[1], p)
        if l1 != l2 and all(incident(P, l2, p) for P in other):
            out.append(((half, l1), (other, l2)))
    return out


def tetrahedron_faces_verify(halves, p):
    """The four faces (G1,G2,G3), (G1,D2,D3), (D1,G2,D3), (D1,D2,G3) of the
    halves ((G1, D1), (G2, D2), (G3, D3)) all verify as dual 3-nets."""
    (g1, d1), (g2, d2), (g3, d3) = halves
    try:
        for face in ((g1, g2, g3), (g1, d2, d3), (d1, g2, d3), (d1, d2, g3)):
            verify(face, p)
    except NetViolation:
        return False
    return True


def tetrahedron_faces_brute(net):
    """classify's tetrahedral step by face verification: for every split
    triple from classification._collinear_splits (itself checked against
    collinear_splits_brute) and every labelling (o1, o2, o3) in the order
    (0,0,0), (0,0,1), ..., G_i is the half o_i of split i and D_i the
    other.  The first split triple and labelling whose four faces verify,
    as classify reports it, or None."""
    p = net.p
    all_splits = [classification._collinear_splits(comp, p) for comp in net.components]
    for s1, s2, s3, o1, o2, o3 in product(*all_splits, (0, 1), (0, 1), (0, 1)):
        ordered = [(s[o], s[1 - o]) for s, o in ((s1, o1), (s2, o2), (s3, o3))]
        halves = tuple((g[0], d[0]) for g, d in ordered)
        if tetrahedron_faces_verify(halves, p):
            return {"tag": "tetrahedron", "halves": halves,
                    "lines": tuple((g[1], d[1]) for g, d in ordered)}
    return None


def is_dual_net_brute(comps, p):
    """The dual-net axiom as stated: every line through points of two
    distinct components meets every component in exactly one point."""
    for i, j in combinations(range(len(comps)), 2):
        for P in comps[i]:
            for Q in comps[j]:
                for comp in comps:
                    if sum(1 for R in comp if collinear_brute(P, Q, R, p)) != 1:
                        return False
    return True


def verify_pairs_brute(comps, p):
    """The first violation of the dual-net axiom that a scan over all pairs
    of components meets, as (message, line, component, count), or None.
    Pairs (i, j), i < j, in order, P of component i and Q of component j
    in sorted order, every component counted on the line PQ: O(k^3 n^3)
    incidence tests.  Takes components that pass verify's size and
    disjointness checks."""
    comps = [sorted(normalize(P, p) for P in comp) for comp in comps]
    for i, j in combinations(range(len(comps)), 2):
        for P in comps[i]:
            for Q in comps[j]:
                line = join(P, Q, p)
                for m, comp in enumerate(comps):
                    count = sum(1 for R in comp if incident(R, line, p))
                    if count != 1:
                        return ("line %r through components %d,%d meets component %d "
                                "in %d points" % (line, i, j, m, count), line, m, count)
    return None


def is_center_brute(comps, T, p):
    """T is a perspective center: T is no net point, and the line through T
    and any net point meets every component in exactly one point."""
    if any(T in comp for comp in comps):
        return False
    for comp in comps:
        for P in comp:
            for other in comps:
                if sum(1 for R in other if collinear_brute(T, P, R, p)) != 1:
                    return False
    return True


def _points_on_line_brute(comps, A, B, p):
    """The one point of each component on the line AB, by an incidence scan
    of every component; ValueError when a component holds none or several."""
    out = []
    for comp in comps:
        on = [R for R in comp if collinear_brute(A, B, R, p)]
        if len(on) != 1:
            raise ValueError("the line through %r and %r meets a component in %d points"
                             % (A, B, len(on)))
        out.append(on[0])
    return out


def kappas_at_center_brute(comps, T, p):
    """The set of cross-ratios (T, l^1, l^2, l^3) over every line l through
    T and a point of the first component, each line's points found by an
    incidence scan, not read from a line table.  One value when the
    cross-ratio is constant at T."""
    return {cross_ratio_brute(T, *_points_on_line_brute(comps, T, P, p), p) for P in comps[0]}


def kappas_4net_brute(comps, p):
    """The set of cross-ratios (l^1, l^2, l^3, l^4) over every line l through
    a point of the first component and one of the second, by incidence scan."""
    return {cross_ratio_brute(*_points_on_line_brute(comps, P, Q, p), p)
            for P in comps[0] for Q in comps[1]}


def dual_net_partitions_brute(points, k, p):
    """Every partition of points into k components that is a dual k-net.
    Exhaustive over partitions, only sane for a dozen points or so."""
    return [comps for comps in partitions_brute(points, k)
            if is_dual_net_brute(comps, p)]


def compose(F, M):
    """Substitution F(M * (X,Y,Z)^T): each variable replaced by a row of M."""
    p = F.p
    rows = [HomPoly(1, {(1, 0, 0): M[v][0], (0, 1, 0): M[v][1], (0, 0, 1): M[v][2]}, p)
            for v in range(3)]
    one = HomPoly(0, {(0, 0, 0): 1}, p)
    out = HomPoly(F.degree, {}, p)
    for (i, j, k), c in F.coeffs.items():
        term = one * c
        for v, e in ((0, i), (1, j), (2, k)):
            for _ in range(e):
                term = term * rows[v]
        out = out + term
    return out


def j_of_cubic_weierstrass(F):
    """j of a cubic over GF(p), p >= 5, by a change of frame: an inflection
    is moved to (0,1,0) with tangent Z = 0, the Weierstrass coefficients
    are read off, the square and the cube are completed, and the value is
    1728 * 4A^3 / (4A^3 + 27B^2) (inf for singular cubics).  None when no
    rational inflection exists or the cubic is degenerate there."""
    p = F.p
    O = next(inflection_points(F), None)
    if O is None:
        return None
    T = tangent_line(F, O)
    # frame: second column O, first column a base point of the tangent other
    # than O, third column the coordinate vertex e_i with T[i] != 0, which
    # lies off the tangent
    B1, B2 = _base_points(T, p)
    P1 = B2 if B1 == O else B1
    i = next(i for i in range(3) if T[i])
    G = compose(F, tuple(zip(P1, O, (int(k == i) for k in range(3)))))
    # O = (0,1,0) on G, its tangent Z = 0 and the flex there leave no Y^3,
    # XY^2 or X^2 Y term
    c300 = G.coeffs.get((3, 0, 0), 0)
    c021 = G.coeffs.get((0, 2, 1), 0)
    if c300 == 0 or c021 == 0:
        return None
    c201 = G.coeffs.get((2, 0, 1), 0)
    c102 = G.coeffs.get((1, 0, 2), 0)
    c003 = G.coeffs.get((0, 0, 3), 0)
    c111 = G.coeffs.get((1, 1, 1), 0)
    c012 = G.coeffs.get((0, 1, 2), 0)
    # affine chart z = 1, normalized so y^2 + (l x + m) y = cubic(x)
    s = pow(c021, -1, p)
    l, mm = c111 * s % p, c012 * s % p
    q3, q2, q1, q0 = (-c300 * s) % p, (-c201 * s) % p, (-c102 * s) % p, (-c003 * s) % p
    # complete the square: Y^2 = e x^3 + f x^2 + g x + h
    inv4 = pow(4, -1, p)
    e = q3
    f = (q2 + l * l * inv4) % p
    g = (q1 + 2 * l * mm * inv4) % p
    h = (q0 + mm * mm * inv4) % p
    # rescale to v^2 = w^3 + A w + B
    inv3 = pow(3, -1, p)
    A = (g * e - f * f * inv3) % p
    B = (h * e * e - f * g * e * inv3 + 2 * pow(f, 3, p) * pow(27, -1, p)) % p
    den = (4 * pow(A, 3, p) + 27 * B * B) % p
    if den == 0:
        # a singular cubic: a cusp has A = B = 0, where the ratio reads 0/0
        return PValue.infinity(p)
    return PValue(1728 * 4 * pow(A, 3, p), den, p)


def line_points_brute(line, p):
    """The points of a line, sorted, by scanning the whole plane."""
    return [P for P in all_points(p)
            if (P[0] * line[0] + P[1] * line[1] + P[2] * line[2]) % p == 0]


def line_on_curve_brute(F, line, p):
    """The line lies on F: F vanishes at every point of the line.  For
    degree <= p that is containment, since a nonzero binary form of degree
    d has at most d roots.  Above that (cubics over GF(2): XY(X + Y) is
    zero on all of Z = 0) the line's equation is also solved for one
    variable and substituted into F, which must leave zero."""
    if not all(F.eval_at(P) == 0 for P in line_points_brute(line, p)):
        return False
    if F.degree <= p:
        return True
    v = next(i for i in range(3) if line[i] % p)
    inv = pow(line[v], -1, p)
    M = [[int(i == j) for j in range(3)] for i in range(3)]
    M[v] = [0 if j == v else -line[j] * inv % p for j in range(3)]
    return compose(F, M).is_zero


def intersection_multiplicity_brute(F, line, P, p):
    """Order of vanishing at t = 0 of f(t) = F(P + t*Q), for the first other
    point Q of the line, with f interpolated from its values at
    t = 0..degree (Lagrange); degree + 1 when f is zero."""
    Q = next(R for R in line_points_brute(line, p) if R != P)
    d = F.degree
    coeffs = [0] * (d + 1)
    for j in range(d + 1):
        value = F.eval_at(tuple(P[i] + j * Q[i] for i in range(3)))
        basis, denom = [1], 1
        for m in range(d + 1):
            if m != j:
                basis = [(a - m * b) % p for a, b in zip([0] + basis, basis + [0])]
                denom = denom * (j - m) % p
        scale = value * pow(denom, -1, p) % p
        coeffs = [(c + scale * b) % p for c, b in zip(coeffs, basis)]
    return next((i for i, c in enumerate(coeffs) if c), d + 1)


def singular_type_brute(F, P):
    """"node" or "cusp" at a double point P of F, from the substitution
    G = F(M * (X,Y,Z)^T) for a frame M with P as its third column (the
    first pair of basis vectors that completes it to a basis): the tangent
    cone is the Z^(d-2) part of G, a binary quadratic in X, Y."""
    p = F.p
    basis = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    M = next(M for M in (tuple(zip(A, B, P)) for A, B in combinations(basis, 2))
             if det3(M, p) != 0)
    G = compose(F, M)
    d = F.degree
    A = G.coeffs.get((2, 0, d - 2), 0)
    B = G.coeffs.get((1, 1, d - 2), 0)
    C = G.coeffs.get((0, 2, d - 2), 0)
    if (A, B, C) == (0, 0, 0):
        raise ValueError("point has multiplicity > 2")
    return "cusp" if (B * B - 4 * A * C) % p == 0 else "node"


def is_prime_brute(n):
    """Primality by trial division up to the square root."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


def hesse_4net_brute(p):
    """The Hesse 4-net by scanning the pencil lambda(X^3+Y^3+Z^3) + mu XYZ,
    members (0:1), (1:0), ..., (1:p-1) in that order.  A member is singular
    when F and its three partials vanish at some point of the plane; it is
    split into the lines of the plane on which F vanishes identically."""
    def member_is_zero(lam, mu, P):
        x, y, z = P
        return (lam * (x ** 3 + y ** 3 + z ** 3) + mu * x * y * z) % p == 0

    def is_singular_at(lam, mu, P):
        x, y, z = P
        # the partials 3 lam a^2 + mu b c for (a, b, c) = (x, y, z), (y, x, z), (z, x, y)
        return member_is_zero(lam, mu, P) and all(
            (3 * lam * a * a + mu * b * c) % p == 0
            for a, b, c in ((x, y, z), (y, x, z), (z, x, y)))

    plane = all_points(p)
    duals, params = [], []
    for lam, mu in [(0, 1)] + [(1, mu) for mu in range(p)]:
        if any(is_singular_at(lam, mu, P) for P in plane):
            duals.append([L for L in plane
                          if all(member_is_zero(lam, mu, P) for P in line_points(L, p))])
            params.append((lam, mu))
    return verify(duals, p, meta={"family": "hesse", "n": 3, "p": p, "pencil_parameters": params})


# ---------------------------------------------------------------------------
# Field, matrix and curve helpers that only the tests call.  The library
# keeps no function without a caller in src/, perfbench/ or the acceptance
# tests (tests/test_imports.py checks this), so they live here.


def legendre(a, p):
    """Legendre symbol: 1 for a nonzero square, -1 for a non-square, 0 for 0."""
    ls = pow(a % p, (p - 1) // 2, p)
    return -1 if ls == p - 1 else ls


def sqrt_mod(a, p):
    """Square roots of a mod p.

    Returns the pair (r, p-r) with r*r = a and r the smaller root when a
    is a nonzero square, (0, 0) when a = 0, and None when a is a
    non-residue.  Tonelli-Shanks.
    """
    a = a % p
    if a == 0:
        return (0, 0)
    if legendre(a, p) != 1:
        return None
    # write p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return (min(r, p - r), max(r, p - r))


def mat_mul(M, N, p):
    return tuple(
        tuple(sum(M[i][k] * N[k][j] for k in range(3)) % p for j in range(3))
        for i in range(3)
    )


def mat_inv(M, p):
    """Inverse via the adjugate; raises on singular matrices."""
    det = det3(M, p)
    if det == 0:
        raise ValueError("singular matrix")
    s = pow(det, -1, p)
    a, b, c = M[0]
    d, e, f = M[1]
    g, h, i = M[2]
    adj = (
        (e * i - f * h, c * h - b * i, b * f - c * e),
        (f * g - d * i, a * i - c * g, c * d - a * f),
        (d * h - e * g, b * g - a * h, a * e - b * d),
    )
    return tuple(tuple(x * s % p for x in row) for row in adj)


def apply_line(M, line, p):
    """Image of a line under the point map M: coefficients go through M^-T."""
    Minv = mat_inv(M, p)
    img = tuple(sum(Minv[j][i] * line[j] for j in range(3)) % p for i in range(3))
    return normalize(img, p)


def restrict_expanded(F, B1, B2):
    """The coefficients of F(s*B1 + t*B2), by powers of t, for a form of any
    degree: each monomial is multiplied out one linear factor
    s*B1[v] + t*B2[v] at a time."""
    p = F.p
    g = [0] * (F.degree + 1)
    for e, c in F.coeffs.items():
        term = [c]
        for v in range(3):
            a, b = B1[v], B2[v]
            for _ in range(e[v]):
                term = [(a * x + b * y) % p for x, y in zip(term + [0], [0] + term)]
        for r, x in enumerate(term):
            g[r] += x
    return [x % p for x in g]


def intersection_multiplicity(F, line, P, p):
    """Multiplicity of F restricted to the line at P (d+1 means containment)."""
    B1, B2 = _base_points(normalize(line, p), p)
    Q = B2 if B1 == P else B1
    g = restrict(F, P, Q)
    for i, c in enumerate(g):
        if c != 0:
            return i
    return F.degree + 1


def legendre_cubic(c, p):
    """Y^2 Z = X(X - Z)(X - cZ), homogenized.  Nonsingular iff c(c-1) != 0."""
    c %= p
    return HomPoly(3, {
        (3, 0, 0): 1,
        (2, 0, 1): -(1 + c),
        (1, 0, 2): c,
        (0, 2, 1): -1,
    }, p)


def corners_legendre(c, p):
    """The three pairwise intersections of the Hessian lines of a j=0 Legendre cubic.

    Requires c^2 - c + 1 = 0.  The Hessian splits as the vertical line
    X = (c+1)/3 Z and the pair Y^2 = (1-2c)/3 Z^2, so the corners are
    rational exactly when (1-2c)/3 is a square; a non-residue raises.
    """
    c %= p
    if (c * c - c + 1) % p != 0:
        raise ValueError("c^2 - c + 1 must vanish")
    inv3 = pow(3, -1, p)
    x0 = (c + 1) * inv3 % p
    b2 = (1 - 2 * c) * inv3 % p
    roots = sqrt_mod(b2, p)
    if roots is None:
        raise ValueError("(1-2c)/3 is not a square in GF(%d)" % p)
    b = roots[0]
    return {
        normalize((x0, b, 1), p),
        normalize((x0, -b, 1), p),
        (1, 0, 0),
    }


def isomorphic_walk(G, H):
    """latin.isomorphic's search with phi rebuilt for every candidate image
    of every generator, by the walk from 0 over all the chosen generators,
    and injectivity checked once the walk ends."""
    n = len(G)
    if len(H) != n:
        return None
    og = element_orders(G)
    oh = element_orders(H)
    if sorted(og) != sorted(oh):
        return None
    gens = _generators(G)

    def walk(images):
        phi = {0: 0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for g, h in zip(gens, images):
                y, hy = G[x][g], H[phi[x]][h]
                if y not in phi:
                    phi[y] = hy
                    frontier.append(y)
                elif phi[y] != hy:
                    return None
        return phi if len(set(phi.values())) == len(phi) else None

    def extend(images):
        phi = walk(images)
        if phi is None or len(images) == len(gens):
            return phi
        g = gens[len(images)]
        for h in range(n):
            if oh[h] == og[g]:
                full = extend(images + [h])
                if full is not None:
                    return full
        return None

    return extend([])


def find_invariant_subgroup_walk(group, n):
    """CurveGroup.find_invariant_subgroup by the whole walk: every point's
    full cyclic subgroup, in lexicographic order of the points, without
    Lagrange's test or a cut after n multiples."""
    for g in group.points:
        H, R = {group.O}, g
        while R != group.O:
            H.add(R)
            R = group.add(R, g)
        if len(H) == n and all(group.u_auto(h) in H for h in H):
            return g, frozenset(H)
    return None


# The argparse parser that dualnets.cli used before its table-driven
# parse_args, kept verbatim as the reference for the command lines that
# parse_args must read the same way.
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
