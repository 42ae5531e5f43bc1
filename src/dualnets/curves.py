"""Plane curves over GF(p): homogeneous ternary polynomials, tangents,
Hessians, Legendre cubics, the j-invariant, pencil tangent cross-ratios,
and the polynomial identities behind the j=0 center criterion.
"""

from math import comb

from .gf import sqrt_mod
from .plane import (PValue, _base_points, all_points, cross_ratio_lines, det3, line_points,
                    normalize)


def monomials(d):
    return [(i, j, d - i - j) for i in range(d + 1) for j in range(d - i + 1)]


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
        p = self.p
        total = 0
        for (i, j, k), c in self.coeffs.items():
            total += c * pow(P[0], i, p) * pow(P[1], j, p) * pow(P[2], k, p)
        return total % p

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
        return tuple(self.partial(v).eval_at(P) for v in range(3))

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

    def __eq__(self, other):
        if not isinstance(other, HomPoly):
            return NotImplemented
        return (self.degree, self.p) == (other.degree, other.p) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.degree, self.p, tuple(sorted(self.coeffs.items()))))

    def __repr__(self):
        if self.is_zero:
            return "HomPoly(0)"
        names = ("X", "Y", "Z")
        terms = []
        for e in sorted(self.coeffs, reverse=True):
            c = self.coeffs[e]
            mono = "".join(
                "%s%s" % (names[v], "^%d" % e[v] if e[v] > 1 else "")
                for v in range(3) if e[v]
            )
            terms.append(("%d" % c if c != 1 or not mono else "") + mono)
        return " + ".join(terms)


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
    H = [[F.partial(i).partial(j) for j in range(3)] for i in range(3)]
    return (H[0][0] * (H[1][1] * H[2][2] - H[1][2] * H[2][1])
            - H[0][1] * (H[1][0] * H[2][2] - H[1][2] * H[2][0])
            + H[0][2] * (H[1][0] * H[2][1] - H[1][1] * H[2][0]))


def restrict(F, B1, B2):
    """Coefficients [g_0..g_d] of F(s*B1 + t*B2) = sum g_i s^(d-i) t^i.

    The binary restriction to the line spanned by B1, B2; B1 is the t=0
    end, B2 the s=0 end.  All-zero output means the line lies on the curve.
    """
    p = F.p
    d = F.degree

    def binpow(a, b, e):
        return [comb(e, r) * pow(a, e - r, p) * pow(b, r, p) % p for r in range(e + 1)]

    g = [0] * (d + 1)
    for (i, j, k), c in F.coeffs.items():
        term = _pmul(_pmul(binpow(B1[0], B2[0], i), binpow(B1[1], B2[1], j), p),
                     binpow(B1[2], B2[2], k), p)
        for r, x in enumerate(term):
            g[r] = (g[r] + c * x) % p
    return g


def line_on_curve(F, line, p):
    """True when every point of the line satisfies F = 0 (restriction vanishes)."""
    B1, B2 = _base_points(normalize(line, p), p)
    return all(c == 0 for c in restrict(F, B1, B2))


# X = 0, Y = 0, Z = 0, X + Y + Z = 0
_REFERENCE_LINES = ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1))


def rational_lines(F):
    """The sorted lines of PG(2,p) on the curve F = 0, for a nonzero form F
    of degree at most 3, from at most 4 + 3p line restrictions.

    A line on F is a linear factor of F and distinct lines are coprime
    factors, so F holds at most 3 lines.  One of the four reference lines
    X = 0, Y = 0, Z = 0, X + Y + Z = 0 is therefore not on F; call it M.
    F restricted to M is a nonzero binary form of degree <= 3 with at most
    3 zeros, and every line on F meets M in one of them, so only the lines
    through those zeros are tested.
    """
    p = F.p
    if F.is_zero or F.degree > 3:
        raise ValueError("rational_lines needs a nonzero form of degree at most 3")
    M = next(l for l in _REFERENCE_LINES if not line_on_curve(F, l, p))
    B1, B2 = _base_points(M, p)
    g = restrict(F, B1, B2)
    zeros = [normalize(tuple(B1[i] + t * B2[i] for i in range(3)), p)
             for t in range(p) if _peval(g, t, p) == 0]
    if g[-1] == 0:
        zeros.append(B2)
    # the lines through a point Z are the points of the dual line Z
    return sorted({L for Z in zeros for L in line_points(Z, p)
                   if L != M and line_on_curve(F, L, p)})


def intersection_multiplicity(F, line, P, p):
    """Multiplicity of F restricted to the line at P (d+1 means containment)."""
    Q = next(R for R in line_points(line, p) if R != P)
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


def fermat_cubic(p):
    """X^3 + Y^3 - Z^3."""
    return HomPoly(3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): -1}, p)


def singular_points(F):
    """All points of PG(2,p) where F and its gradient vanish (full scan)."""
    p = F.p
    out = set()
    for P in all_points(p):
        if F.eval_at(P) == 0 and F.gradient(P) == (0, 0, 0):
            out.add(P)
    return out


def singular_type(F, P):
    """"node" or "cusp" for an isolated double point of a cubic.

    The tangent cone at P is a binary quadratic; a repeated root (zero
    discriminant) is a cusp, distinct roots (over the closure) a node.
    """
    p = F.p
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    cols = [b for b in basis if b != P][:2]
    M = tuple(tuple(row) for row in zip(cols[0], cols[1], P))
    assert det3(M, p) != 0
    G = compose(F, M)
    d = F.degree
    A = G.coeffs.get((2, 0, d - 2), 0)
    B = G.coeffs.get((1, 1, d - 2), 0)
    C = G.coeffs.get((0, 2, d - 2), 0)
    if (A, B, C) == (0, 0, 0):
        raise ValueError("point has multiplicity > 2")
    disc = (B * B - 4 * A * C) % p
    return "cusp" if disc == 0 else "node"


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


def j_invariant(c, p):
    """j of the Legendre cubic: 2^8 (c^2-c+1)^3 / (c^2 (c-1)^2), projectively."""
    c %= p
    num = 256 * pow(c * c - c + 1, 3, p) % p
    den = pow(c * (c - 1), 2, p)
    return PValue(num, den, p)


def inflection_points(F):
    """Nonsingular points of F where the Hessian vanishes."""
    H = hessian(F)
    out = []
    for P in all_points(F.p):
        if F.eval_at(P) == 0 and H.eval_at(P) == 0 and F.gradient(P) != (0, 0, 0):
            out.append(P)
    return out


def j_of_cubic(F):
    """j-invariant of a plane cubic with a rational inflection point.

    Moves an inflection to (0,1,0) with tangent Z = 0, reads off the
    Weierstrass coefficients, completes the square and the cube, and
    returns 1728 * 4A^3 / (4A^3 + 27B^2) as a PValue (inf for singular
    cubics).  Returns None when no rational inflection exists or the
    cubic is degenerate there.
    """
    p = F.p
    infl = inflection_points(F)
    if not infl:
        return None
    O = infl[0]
    T = tangent_line(F, O)
    # frame: second column O, first column another point of the tangent,
    # third column the first point of the plane off the tangent: one of the
    # three below, since a line through (1,0,0) and (1,0,1) is Y = 0
    P1 = next(Q for Q in line_points(T, p) if Q != O)
    N = next(M for M in (tuple(zip(P1, O, P2)) for P2 in ((1, 0, 0), (1, 0, 1), (1, 1, 0)))
             if det3(M, p) != 0)
    G = compose(F, N)
    c300 = G.coeffs.get((3, 0, 0), 0)
    c021 = G.coeffs.get((0, 2, 1), 0)
    for dead in ((0, 3, 0), (1, 2, 0), (2, 1, 0)):
        assert G.coeffs.get(dead, 0) == 0, "inflection frame failed"
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
    num = 1728 * 4 * pow(A, 3, p) % p
    den = (4 * pow(A, 3, p) + 27 * B * B) % p
    return PValue(num, den, p)


def pencil_common_points(F, G):
    p = F.p
    return [P for P in all_points(p) if F.eval_at(P) == 0 and G.eval_at(P) == 0]


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
    common = pencil_common_points(F, G)
    if len(common) != n * n:
        raise ValueError("expected %d common points, found %d" % (n * n, len(common)))
    H = alpha * F + beta * G
    H2 = alpha2 * F + beta2 * G
    kappa = PValue(alpha * beta2, alpha2 * beta, p)
    values = {}
    ok = True
    for P in common:
        lines = []
        for C in (F, G, H, H2):
            g = C.gradient(P)
            if g == (0, 0, 0):
                raise ValueError("singular tangent at %r" % (P,))
            lines.append(normalize(g, p))
        k = cross_ratio_lines(*lines, p)
        values[P] = k
        if k != kappa:
            ok = False
    return {"kappa": kappa, "per_point": values, "pass": ok}


# ---------------------------------------------------------------------------
# univariate helpers (coefficient lists, low degree) for the identity checks

def _padd(u, v, p):
    n = max(len(u), len(v))
    return [((u[i] if i < len(u) else 0) + (v[i] if i < len(v) else 0)) % p for i in range(n)]


def _pscale(u, s, p):
    return [x * s % p for x in u]


def _pmul(u, v, p):
    out = [0] * (len(u) + len(v) - 1)
    for i, x in enumerate(u):
        for j, y in enumerate(v):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def _pderiv(u, p):
    return [i * u[i] % p for i in range(1, len(u))] or [0]


def _peval(u, x, p):
    total = 0
    for c in reversed(u):
        total = (total * x + c) % p
    return total


def cubic_j0_identities(a, b, c, m, p):
    """The two exact identities behind the j = 0 perspectivity criterion.

    Setting up the quartic t*h1(t) with h1(t) = (a+t)(a+t-1)(a+t-c) - (b+tm)^2
    and reading off f(m), g(m) as the two coefficient cores of the u-invariant
    (with the denominator core negated, a free sign since only g^2 matters),
    the report checks at the given m:

      (1) 3 f'(m) g(m) - 2 f(m) g'(m)
            = 54 (b^2 - a(a-1)(a-c))^2 (beta0 + beta1 m + beta2 m^2 + beta3 m^3)
      (2) beta0*gamma0 + beta1*gamma1 + beta2*gamma2 + beta3*gamma3
            = 18 c^2 (c-1)^2 (c^2 - c + 1)

    The betas vanish simultaneously exactly at the corner specialization
    a = (c+1)/3, b^2 = (1-2c)/3 when c^2 - c + 1 = 0.
    """
    a %= p
    b %= p
    c %= p
    m %= p
    # quartic coefficients alpha_i of t^i in t*h1(t), as polynomials in m
    a1 = [(a * (a - 1) * (a - c) - b * b) % p]
    a2 = [(3 * a * a - 2 * a - 2 * a * c + c) % p, (-2 * b) % p]
    a3 = [(3 * a - 1 - c) % p, 0, p - 1]
    # f = 12 a0 a4 - 3 a1 a3 + a2^2 with a0 = 0, a4 = 1
    f = _padd(_pscale(_pmul(a1, a3, p), -3, p), _pmul(a2, a2, p), p)
    # g = -(72 a0 a2 a4 - 27 a0 a3^2 - 27 a1^2 a4 - 2 a2^3 + 9 a1 a2 a3)
    g = _padd(
        _padd(_pscale(_pmul(a1, a1, p), 27, p), _pscale(_pmul(_pmul(a2, a2, p), a2, p), 2, p), p),
        _pscale(_pmul(_pmul(a1, a2, p), a3, p), -9, p), p)
    beta = [
        2 * b * (c * c - c + 1) % p,
        (2 * a * c - 2 * a * c * c - 2 * a + 3 * b * b + c * c + c) % p,
        (-2 * b * (3 * a - 1 - c)) % p,
        (3 * a * a - 2 * a * c + c - 2 * a) % p,
    ]
    gamma = [
        (-3 * b * (c - 2) * (2 * c - 1) * (c + 1)) % p,
        (-2 * (c * c - c + 1)
         * (6 * a - 4 + 3 * c + 6 * a * c * c + 3 * c * c - 4 * c ** 3 - 6 * a * c)) % p,
        (-6 * b * pow(c * c - c + 1, 2, p)) % p,
        (-8 * pow(c * c - c + 1, 3, p)) % p,
    ]
    lhs1 = (3 * _peval(_pderiv(f, p), m, p) * _peval(g, m, p)
            - 2 * _peval(f, m, p) * _peval(_pderiv(g, p), m, p)) % p
    rhs1 = 54 * pow(b * b - a * (a - 1) * (a - c), 2, p) * _peval(beta, m, p) % p
    lhs2 = sum(bi * gi for bi, gi in zip(beta, gamma)) % p
    rhs2 = 18 * pow(c * (c - 1), 2, p) * (c * c - c + 1) % p
    return {
        "f": f,
        "g": g,
        "beta": beta,
        "gamma": gamma,
        "identity1": lhs1 == rhs1,
        "identity2": lhs2 == rhs2,
        "lhs1": lhs1, "rhs1": rhs1,
        "lhs2": lhs2, "rhs2": rhs2,
    }
