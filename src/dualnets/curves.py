"""Plane curves over GF(p): homogeneous ternary polynomials, tangents,
Hessians, curve points, the j-invariant and pencil tangent cross-ratios.
"""

from .plane import (PValue, _base_points, _quartic_invariants, cross_ratio_lines, dot, line_points,
                    normalize)


class HomPoly:
    """Homogeneous polynomial in X, Y, Z over GF(p).

    coeffs maps exponent triples (i, j, k) with i+j+k = degree to nonzero
    residues.  The zero polynomial (empty coeffs) is representable because
    Hessians of degenerate forms genuinely vanish; curve constructors
    reject it.
    """

    __slots__ = ("degree", "coeffs", "p")

    def __init__(self, degree, coeffs, p):
        clean = {}
        for e, c in coeffs.items():
            if sum(e) != degree or len(e) != 3 or min(e) < 0:
                raise ValueError("exponent %r does not fit degree %d" % (e, degree))
            c %= p
            if c:
                clean[e] = c
        self.degree = degree
        self.coeffs = clean
        self.p = p

    @property
    def is_zero(self):
        return not self.coeffs

    def eval_at(self, P):
        x, y, z = P
        total = 0
        for (i, j, k), c in self.coeffs.items():
            total += c * x ** i * y ** j * z ** k
        return total % self.p

    def partial(self, var):
        out = {}
        for e, c in self.coeffs.items():
            if e[var] > 0:
                e2 = list(e)
                e2[var] -= 1
                e2 = tuple(e2)
                out[e2] = (out.get(e2, 0) + c * e[var]) % self.p
        return HomPoly(self.degree - 1, out, self.p)

    def gradient(self, P):
        """The three first partials at P, from one pass over the coefficients."""
        x, y, z = P
        gx = gy = gz = 0
        for (i, j, k), c in self.coeffs.items():
            if i:
                gx += c * i * x ** (i - 1) * y ** j * z ** k
            if j:
                gy += c * j * x ** i * y ** (j - 1) * z ** k
            if k:
                gz += c * k * x ** i * y ** j * z ** (k - 1)
        p = self.p
        return (gx % p, gy % p, gz % p)

    def __mul__(self, other):
        if isinstance(other, int):
            return HomPoly(self.degree, {e: c * other for e, c in self.coeffs.items()}, self.p)
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                out[e] = (out.get(e, 0) + c1 * c2) % self.p
        return HomPoly(self.degree + other.degree, out, self.p)

    __rmul__ = __mul__

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            out[e] = (out.get(e, 0) + c) % self.p
        return HomPoly(self.degree, out, self.p)

    def __sub__(self, other):
        return self + (other * (self.p - 1))


def proportional(F, G):
    """True when F = s*G for a nonzero scalar s."""
    if F.degree != G.degree or F.is_zero != G.is_zero:
        return False
    if F.is_zero:
        return True
    if set(F.coeffs) != set(G.coeffs):
        return False
    e0 = next(iter(F.coeffs))
    s = F.coeffs[e0] * pow(G.coeffs[e0], -1, F.p) % F.p
    return all(F.coeffs[e] == s * G.coeffs[e] % F.p for e in G.coeffs)


def tangent_line(F, P):
    """Tangent line of F = 0 at a nonsingular point P: the gradient triple."""
    if F.eval_at(P) != 0:
        raise ValueError("point not on curve")
    g = F.gradient(P)
    if g == (0, 0, 0):
        raise ValueError("singular point")
    return normalize(g, F.p)


def hessian(F):
    """Determinant of the matrix of second partials; degree 3(d-2) for degree d."""
    if F.degree < 2:
        raise ValueError("hessian needs degree >= 2")
    D = [F.partial(i) for i in range(3)]
    # the matrix is symmetric: a, b, c on the diagonal, d = F_XY, e = F_XZ, f = F_YZ
    a, d, e = (D[0].partial(j).coeffs for j in range(3))
    b, f = D[1].partial(1).coeffs, D[1].partial(2).coeffs
    c = D[2].partial(2).coeffs
    out = {}
    # abc + 2def - af^2 - be^2 - cd^2, multiplied out term by term
    for s, u, v, w in ((1, a, b, c), (2, d, e, f), (-1, a, f, f), (-1, b, e, e), (-1, c, d, d)):
        for (i1, j1, k1), c1 in u.items():
            for (i2, j2, k2), c2 in v.items():
                c12 = s * c1 * c2
                for (i3, j3, k3), c3 in w.items():
                    m = (i1 + i2 + i3, j1 + j2 + j3, k1 + k2 + k3)
                    out[m] = out.get(m, 0) + c12 * c3
    return HomPoly(3 * (F.degree - 2), out, F.p)


def restrict(F, B1, B2):
    """Coefficients [g_0..g_d] of F(s*B1 + t*B2) = sum g_i s^(d-i) t^i, for
    a form F of degree d <= 3.

    The binary restriction to the line spanned by B1, B2; B1 is the t=0
    end, B2 the s=0 end.  All-zero output means the line lies on the curve.
    The ends are F(B1) and F(B2).  The coefficient of s^(d-1) t is the
    derivative of F(B1 + t*B2) at t = 0, grad F(B1) . B2, and by symmetry
    that of s t^(d-1) is grad F(B2) . B1.  These are identities over the
    integers, so they hold in every characteristic, and up to degree 3 they
    give every coefficient.
    """
    d = F.degree
    if d > 3:
        raise ValueError("restrict needs a form of degree at most 3")
    g = [F.eval_at(B1)]
    if d >= 2:
        g.append(dot(F.gradient(B1), B2, F.p))
    if d == 3:
        g.append(dot(F.gradient(B2), B1, F.p))
    if d >= 1:
        g.append(F.eval_at(B2))
    return g


def _peval(u, x, p):
    """u[0] + u[1] x + ... + u[d] x^d mod p, by Horner's rule."""
    total = 0
    for c in reversed(u):
        total = (total * x + c) % p
    return total


def _roots(u, p):
    """The sorted t in GF(p) with u[0] + u[1] t + ... + u[d] t^d = 0, and
    all of GF(p) when every u[i] is 0; u has at most 4 entries.

    Degree 1 is solved; degrees 2 and 3 are scanned with Horner's rule
    written out in the comprehension, one mod per value.
    """
    d = len(u) - 1
    if d > 3:
        raise ValueError("root finding needs a polynomial of degree at most 3")
    while d >= 0 and u[d] % p == 0:
        d -= 1
    if d <= 0:
        return list(range(p)) if d < 0 else []
    if d == 1:
        return [-u[0] * pow(u[1], -1, p) % p]
    if d == 2:
        a0, a1, a2 = u[:3]
        return [t for t in range(p) if ((a2 * t + a1) * t + a0) % p == 0]
    a0, a1, a2, a3 = u
    return [t for t in range(p) if (((a3 * t + a2) * t + a1) * t + a0) % p == 0]


def line_on_curve(F, line, p):
    """True when every point of the line satisfies F = 0 (restriction vanishes)."""
    B1, B2 = _base_points(normalize(line, p), p)
    return all(c == 0 for c in restrict(F, B1, B2))


# X = 0, Y = 0, Z = 0, X + Y + Z = 0
_REFERENCE_LINES = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))


def rational_lines(F):
    """The sorted lines of PG(2,p) on F = 0, for a nonzero form F of degree
    at most 3, from at most 4 restrictions of F to reference lines, the
    last to M, and at most 7 line_on_curve tests (p + 5 when F has a
    singular zero on M).

    A line on F is a linear factor of F and distinct lines are coprime
    factors, so F holds at most 3 lines.  One of the four reference lines
    X = 0, Y = 0, Z = 0, X + Y + Z = 0 is therefore not on F; call it M.
    F restricted to M is a nonzero binary form g of degree <= 3, and every
    line on F meets M in one of its at most 3 zeros.  A line through a zero
    Z and another point W lies on F exactly when F(Z + tW) vanishes in t.
    Its t-coefficient forces grad F(Z) . W = 0, and Euler's identity
    Z . grad F(Z) = deg(F) F(Z) = 0 puts Z on that line too, in every
    characteristic.  So at a smooth zero only the tangent is tested, and
    every line through Z only at a singular one.  A singular zero is at
    least a double root of F on M, so at most one other zero goes with it.
    """
    p = F.p
    if F.is_zero or F.degree > 3:
        raise ValueError("rational_lines needs a nonzero form of degree at most 3")
    for M in _REFERENCE_LINES:
        B1, B2 = _base_points(M, p)
        g = restrict(F, B1, B2)
        if any(g):
            break
    # the zeros on M: B1 + t*B2 at each root t of g, and B2 when g[-1] = F(B2) = 0
    zeros = [tuple((B1[i] + t * B2[i]) % p for i in range(3)) for t in _roots(g, p)]
    if g[-1] == 0:
        zeros.append(B2)
    # the lines through a point Z are the points of the dual line Z
    candidates = {L for Z in zeros for L in (
        line_points(Z, p) if F.gradient(Z) == (0, 0, 0) else [tangent_line(F, Z)])}
    return sorted(L for L in candidates if L != M and line_on_curve(F, L, p))


def fermat_cubic(p):
    """X^3 + Y^3 - Z^3."""
    return HomPoly(3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): -1}, p)


def _points(F):
    """The points of F = 0, sorted, one line through (0,0,1) at a time.

    (0,0,1) is on F when Z^d is missing.  Every other point lies on exactly
    one such line: (0, 1, z) on X = 0, then (1, y, z) on Y = yX for y in
    GF(p).  With F(1, y, z) = sum_k f_k(y) z^k, where f[k][j] is the
    coefficient of X^(d-j-k) Y^j Z^k, each line contributes the roots in z
    of its restriction, in ascending order; a line on F restricts to zero
    and contributes every z.  F(0, 1, z) keeps the y^(d-k) term of each f_k.
    """
    p, d = F.p, F.degree
    f = [[0] * (d - k + 1) for k in range(d + 1)]
    for (_, j, k), c in F.coeffs.items():
        f[k][j] = c
    if not f[d][0]:
        yield (0, 0, 1)
    for z in _roots([f[k][d - k] for k in range(d + 1)], p):
        yield (0, 1, z)
    for y in range(p):
        for z in _roots([_peval(fk, y, p) for fk in f], p):
            yield (1, y, z)


def curve_points(F):
    """The points of PG(2,p) on F = 0, sorted: (0,0,1) when it is on F,
    then the roots of F on each of the p + 1 lines through it.
    p^2 + O(p) Horner steps and no list of the plane.
    """
    return list(_points(F))


def singular_points(F):
    """The set of points of F = 0 where the gradient of F vanishes."""
    return {P for P in curve_points(F) if F.gradient(P) == (0, 0, 0)}


def _polar_frame(F, P):
    """U, V spanning a coordinate line X_i = 0 with P[i] != 0, and the
    (q0, q1, q2) of grad F(U + xV) . P = q0 + q1 x + q2 x^2, the t^2
    coefficient of F(sP + tW) for a cubic F, from W = U, U + V and V."""
    p = F.p
    i = next(i for i in range(3) if P[i] % p)
    U, V = _base_points(tuple(int(k == i) for k in range(3)), p)
    q0, q01, q2 = (dot(F.gradient(W), P, p) for W in (U, tuple(map(sum, zip(U, V))), V))
    return U, V, (q0, (q01 - q0 - q2) % p, q2)


def singular_type(F, P):
    """"node" or "cusp" for an isolated double point of a cubic.

    The tangent cone at P is a binary quadratic, the polar form of
    _polar_frame in W; a repeated root (zero discriminant) is a cusp,
    distinct roots (over the closure) a node.  Any frame scales the
    discriminant by a nonzero square.
    """
    A, B, C = _polar_frame(F, P)[2]
    if (A, B, C) == (0, 0, 0):
        raise ValueError("point has multiplicity > 2")
    return "cusp" if (B * B - 4 * A * C) % F.p == 0 else "node"


def j_invariant(c, p):
    """j of the Legendre cubic: 2^8 (c^2-c+1)^3 / (c^2 (c-1)^2), projectively."""
    c %= p
    num = 256 * pow(c * c - c + 1, 3, p) % p
    den = pow(c * (c - 1), 2, p)
    return PValue(num, den, p)


def inflection_points(F):
    """Nonsingular points of F where the Hessian vanishes, sorted, yielded
    one at a time: a caller that wants only the first stops the line sweep
    there."""
    H = hessian(F)
    return (P for P in _points(F) if H.eval_at(P) == 0 and F.gradient(P) != (0, 0, 0))


def j_of_cubic(F):
    """j-invariant of a plane cubic with a rational inflection point, read
    off the binary quartic of tangents at its first flex O.

    For W on a line X_i = 0 with O[i] != 0, F(sO + tW) = a s^2 t + b s t^2
    + c t^3, with a, b, c forms in W of degree 1, 2, 3.  The line OW meets
    F again where a s^2 + b s t + c t^2 = 0, so it is tangent there where
    the quartic D = b^2 - 4ac vanishes: at the three tangents from O and
    the flex tangent a = 0.  For y^2 z = x^3 + Ax + B, D = 4(x^3 + Ax + B),
    whose invariants are I = -3A and J = -27B up to scale, so j is
    1728 * 4I^3 / (4I^3 - J^2), a PValue (inf for singular cubics: a node
    has 4I^3 = J^2 and a cusp I = J = 0).  Returns None when no rational
    inflection exists or the flex tangent lies on F.  Needs p >= 5: j
    divides by 2 and 3.
    """
    p = F.p
    if p < 5:
        raise ValueError("j_of_cubic needs p >= 5, got p = %d" % p)
    O = next(inflection_points(F), None)
    if O is None or line_on_curve(F, tangent_line(F, O), p):
        return None
    # W = U + xV: a = a0 + a1 x, b = b0 + b1 x + b2 x^2, c = sum c[k] x^k,
    # where a = grad F(O) . W, b = grad F(W) . O and c = F(W) as in restrict
    U, V, (b0, b1, b2) = _polar_frame(F, O)
    gO = F.gradient(O)
    a0, a1 = dot(gO, U, p), dot(gO, V, p)
    c = restrict(F, U, V)
    I, J = _quartic_invariants(
        b0 * b0 - 4 * a0 * c[0],
        2 * b0 * b1 - 4 * (a0 * c[1] + a1 * c[0]),
        b1 * b1 + 2 * b0 * b2 - 4 * (a0 * c[2] + a1 * c[1]),
        2 * b1 * b2 - 4 * (a0 * c[3] + a1 * c[2]),
        b2 * b2 - 4 * a1 * c[3], p)
    den = (4 * pow(I, 3, p) - J * J) % p
    if den == 0:
        # a singular cubic: a cusp has I = J = 0, where the ratio reads 0/0
        return PValue.infinity(p)
    return PValue(1728 * 4 * pow(I, 3, p), den, p)


def pencil_crossratio_check(F, G, alpha, beta, alpha2, beta2):
    """Tangent cross-ratio over the base points of the pencil spanned by F and G.

    For every common point of F = 0 and G = 0 (there must be exactly
    degree^2 of them), the four tangents of F, G, alpha F + beta G and
    alpha2 F + beta2 G are computed and their cross-ratio is asserted to
    equal alpha*beta2 / (alpha2*beta), independent of the point.
    """
    p = F.p
    for s in (alpha, beta, alpha2, beta2):
        if s % p == 0:
            raise ValueError("pencil parameters must be nonzero")
    if (alpha * beta2 - alpha2 * beta) % p == 0:
        raise ValueError("coincident pencil members")
    n = F.degree
    if G.degree != n:
        raise ValueError("degree mismatch in pencil")
    common = [P for P in curve_points(F) if G.eval_at(P) == 0]
    if len(common) != n * n:
        raise ValueError("expected %d common points, found %d" % (n * n, len(common)))
    H = alpha * F + beta * G
    H2 = alpha2 * F + beta2 * G
    kappa = PValue(alpha * beta2, alpha2 * beta, p)
    values = {}
    ok = True
    for P in common:
        k = cross_ratio_lines(*(tangent_line(C, P) for C in (F, G, H, H2)), p)
        values[P] = k
        if k != kappa:
            ok = False
    return {"kappa": kappa, "per_point": values, "pass": ok}
