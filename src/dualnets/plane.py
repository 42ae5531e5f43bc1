"""Projective plane PG(2, GF(p)): points, lines, cross-ratio, perspectivities.

Points and lines are normalized homogeneous triples of ints (first nonzero
coordinate scaled to 1), so tuple equality is projective equality.  A point
lies on a line iff the dot product vanishes.  join and meet call one fused
helper that reduces their cross product mod p and normalizes it.

The cross-ratio convention is pinned once here and used everywhere:

    k(t1, t2, t3, t4) = (t3 - t1)(t2 - t4) / ((t2 - t3)(t4 - t1))

evaluated projectively on parameter pairs, so k and all derived invariants
live on the projective line GF(p) u {inf} (the PValue class).
"""


def normalize(v, p):
    """Scale a homogeneous triple so its first nonzero coordinate is 1."""
    v = (v[0] % p, v[1] % p, v[2] % p)
    for c in v:
        if c != 0:
            s = pow(c, -1, p)
            return (v[0] * s % p, v[1] * s % p, v[2] * s % p)
    raise ValueError("zero triple is not projective")


def dot(u, v, p):
    return (u[0] * v[0] + u[1] * v[1] + u[2] * v[2]) % p


def cross(u, v, p):
    return (
        (u[1] * v[2] - u[2] * v[1]) % p,
        (u[2] * v[0] - u[0] * v[2]) % p,
        (u[0] * v[1] - u[1] * v[0]) % p,
    )


def incident(P, line, p):
    return dot(P, line, p) == 0


def _cross_normalized(u, v, p, equal):
    """normalize(cross(u, v, p), p) in one call.  A zero product raises
    ValueError: "zero triple is not projective" when u or v is zero mod p,
    else equal % (u,), since u and v are then one projective point."""
    a = (u[1] * v[2] - u[2] * v[1]) % p
    b = (u[2] * v[0] - u[0] * v[2]) % p
    c = (u[0] * v[1] - u[1] * v[0]) % p
    if a:
        s = pow(a, -1, p)
        return (1, b * s % p, c * s % p)
    if b:
        return (0, 1, c * pow(b, -1, p) % p)
    if c:
        return (0, 0, 1)
    if any(x % p for x in u) and any(x % p for x in v):
        raise ValueError(equal % (u,))
    raise ValueError("zero triple is not projective")


def join(P, Q, p):
    """The unique line through two distinct points."""
    return _cross_normalized(P, Q, p, "join of equal points %r")


def meet(l, m, p):
    """The unique common point of two distinct lines."""
    return _cross_normalized(l, m, p, "meet of equal lines %r")


def all_points(p):
    """Every point of PG(2,p), in normalized form and sorted: p^2 + p + 1 of them."""
    pts = [(0, 0, 1)]
    pts += [(0, 1, z) for z in range(p)]
    pts += [(1, y, z) for y in range(p) for z in range(p)]
    return pts


def line_points(line, p):
    """The p + 1 points on a line, sorted, built in O(p).

    The points are B1 + t*B2 for t in GF(p) plus B2 itself, for the base
    points of the line.
    """
    B1, B2 = _base_points(normalize(line, p), p)
    pts = [normalize(tuple(B1[i] + t * B2[i] for i in range(3)), p) for t in range(p)]
    pts.append(B2)
    return sorted(pts)


def monomials(d):
    """The exponents (i, j, k) of the monomials X^i Y^j Z^k of degree d,
    by i, then j."""
    return [(i, j, d - i - j) for i in range(d + 1) for j in range(d - i + 1)]


class PValue:
    """An element of the projective line over GF(p): a scalar or infinity.

    Stored normalized: (x, 1) for the field value x, (1, 0) for infinity.
    Cross-ratios, u-invariants and kappa values are PValues so that inf
    needs no special-casing downstream.
    """

    __slots__ = ("num", "den", "p")

    def __init__(self, num, den, p):
        num %= p
        den %= p
        if num == 0 and den == 0:
            raise ValueError("0/0 is not a projective value")
        if den != 0:
            num = num * pow(den, -1, p) % p
            den = 1
        else:
            num = 1
        self.num = num
        self.den = den
        self.p = p

    @classmethod
    def of(cls, x, p):
        return cls(x, 1, p)

    @classmethod
    def infinity(cls, p):
        return cls(1, 0, p)

    @property
    def is_infinity(self):
        return self.den == 0

    @property
    def value(self):
        if self.den == 0:
            raise ValueError("infinite PValue has no scalar value")
        return self.num

    def reciprocal(self):
        return PValue(self.den, self.num, self.p)

    def __eq__(self, other):
        if not isinstance(other, PValue):
            return NotImplemented
        return (self.num, self.den, self.p) == (other.num, other.den, other.p)

    def __hash__(self):
        return hash((self.num, self.den, self.p))

    def __repr__(self):
        return "inf" if self.den == 0 else str(self.num)


def _base_points(line, p):
    # two canonical distinct points spanning the kernel of <line, .>
    a, b, c = line
    if a != 0:
        return normalize((-b, a, 0), p), normalize((-c, 0, a), p)
    if b != 0:
        return (1, 0, 0), normalize((0, -c, b), p)
    return (1, 0, 0), (0, 1, 0)


def cross_ratio(A, B, C, D, p):
    """Cross-ratio of four collinear points, at most two coincident.

    With O a coordinate vertex off the line, the bracket
    [O,P,Q] = det(O, P, Q) is a fixed multiple of the parameter difference
    of P and Q on the line, so the pinned formula reads
    [O,C,A][O,B,D] / ([O,B,C][O,D,A]); each point occurs once above and
    once below, so scaling a triple leaves the value unchanged.  Exactly
    two coincident points give the degenerate value 0, 1 or inf instead
    of an error.  Coincidence is projective: the line is the first nonzero
    cross product of A with B, C, D, so the triples need not be normalized.
    """
    pts = [A, B, C, D]
    for P in pts[1:]:
        line = cross(A, P, p)
        if line != (0, 0, 0):
            break
    else:
        raise ValueError("cross-ratio needs at least two distinct points")
    for P in pts:
        if not incident(P, line, p):
            raise ValueError("points are not collinear")
    i = next(i for i, x in enumerate(line) if x)
    O = tuple(int(k == i) for k in range(3))
    num = det3((O, C, A), p) * det3((O, B, D), p) % p
    den = det3((O, B, C), p) * det3((O, D, A), p) % p
    if num == 0 and den == 0:
        raise ValueError("cross-ratio undefined: three coincident points")
    return PValue(num, den, p)


def cross_ratio_lines(l1, l2, l3, l4, p):
    """Cross-ratio of four concurrent lines, by duality.

    Concurrent lines are collinear points of the dual plane, and cutting
    the pencil with any line missing its common point is a linear map onto
    that line, so the point cross-ratio of the coefficient triples is the
    cross-ratio of the cut points.  The value is its reciprocal, the
    convention that assigns the tangent pencil x=0, y=0, ax+by=0,
    a'x+b'y=0 the value a*b'/(a'*b).
    """
    return cross_ratio(l1, l2, l3, l4, p).reciprocal()


def anharmonic_orbit(k):
    """Orbit of a cross-ratio under the anharmonic group: at most 6 values.

    {k, 1/k, 1-k, 1/(1-k), k/(k-1), (k-1)/k} with projective conventions,
    so 0, 1 and inf are handled uniformly.
    """
    n, d, p = k.num, k.den, k.p
    return {
        PValue(n, d, p),
        PValue(d, n, p),
        PValue(d - n, d, p),
        PValue(d, d - n, p),
        PValue(n, n - d, p),
        PValue(n - d, n, p),
    }


def u_invariant(k):
    """u(k) = (k^2-k+1)^3 / ((k+1)^2 (k-2)^2 (2k-1)^2), projectively.

    This is I^3/J^2 of the quartic d t^3 - (n+d) t^2 + n t, k = n/d, whose
    roots are 0, 1, k and inf.  Constant on anharmonic orbits; 0 exactly
    at equianharmonic k, inf exactly at harmonic-type k in {-1, 2, 1/2}.
    Needs p >= 5: over GF(3), k = -1 is harmonic and equianharmonic at
    once and u reads 0/0.
    """
    n, d, p = k.num, k.den, k.p
    if p < 5:
        raise ValueError("u_invariant needs p >= 5, got p = %d" % p)
    I, J = _quartic_invariants(0, n, -(n + d), d, 0, p)
    return PValue(pow(I, 3, p), pow(J, 2, p), p)


def u_from_quartic(a0, a1, a2, a3, a4, p):
    """The same u computed from quartic coefficients instead of its roots.

    For a quartic with roots t1..t4, u(cross-ratio of the roots) equals
    (12 a0 a4 - 3 a1 a3 + a2^2)^3 / (72 a0 a2 a4 - 27 a0 a3^2 - 27 a1^2 a4
    - 2 a2^3 + 9 a1 a2 a3)^2.  Homogeneous of degree 6 over 6, so scaling
    all coefficients leaves the value unchanged.  Needs p >= 5.
    """
    if p < 5:
        raise ValueError("u_from_quartic needs p >= 5, got p = %d" % p)
    I, J = _quartic_invariants(a0, a1, a2, a3, a4, p)
    return PValue(pow(I, 3, p), pow(J, 2, p), p)


def _quartic_invariants(a0, a1, a2, a3, a4, p):
    """The invariants I, J of the binary quartic sum a_i x^i, mod p."""
    I = (12 * a0 * a4 - 3 * a1 * a3 + a2 * a2) % p
    J = (72 * a0 * a2 * a4 - 27 * a0 * a3 * a3 - 27 * a1 * a1 * a4
         - 2 * a2 ** 3 + 9 * a1 * a2 * a3) % p
    return I, J


# ---------------------------------------------------------------------------
# projectivities


def normalize_matrix(M, p):
    flat = [x % p for row in M for x in row]
    for x in flat:
        if x != 0:
            s = pow(x, -1, p)
            flat = [y * s % p for y in flat]
            return (tuple(flat[0:3]), tuple(flat[3:6]), tuple(flat[6:9]))
    raise ValueError("zero matrix")


def det3(M, p):
    a, b, c = M[0]
    d, e, f = M[1]
    g, h, i = M[2]
    return (a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)) % p


def apply_point(M, P, p):
    img = tuple(sum(M[i][j] * P[j] for j in range(3)) % p for i in range(3))
    return normalize(img, p)


def perspectivity(T, axis, kappa, p):
    """The homology with center T, axis fixed pointwise, and ratio kappa.

    kappa is the cross-ratio (axis point, T, P, image of P) on any line
    through T; in the frame T=(0,0,1), axis Z=0 the map is
    (x, y) -> (kappa x, kappa y).  Requires T off the axis and
    kappa not in {0, 1}.
    """
    kappa %= p
    if kappa in (0, 1):
        raise ValueError("degenerate ratio kappa=%d" % kappa)
    pairing = dot(axis, T, p)
    if pairing == 0:
        raise ValueError("center lies on the axis")
    mu = (1 - kappa) * pow(pairing, -1, p) % p
    M = tuple(
        tuple((mu * T[i] * axis[j] + (kappa if i == j else 0)) % p for j in range(3))
        for i in range(3)
    )
    return normalize_matrix(M, p)
