"""Builders for the dual net families over GF(p).

Every constructor runs its output through nets.verify, which checks the
net axiom on every line, so a returned DualNet is always a genuine dual
net; constructions that cannot be realized at the requested parameters
raise instead of degrading.  An order past the verifier's limit is refused
before any root of unity is sought or any point is built.
"""

from .gf import nth_root_of_unity
from .nets import NetViolation, _check_pairs, verify


def triangular_cyclic(n, p, c=1):
    """Cyclic triangular net: components on the sides of the coordinate
    triangle, parameterized by the order-n subgroup of GF(p)*.

    Points (1,0,xi^i), (0,1,c xi^j), (c xi^k,-1,0) are collinear exactly
    when k = j - i mod n, so the net lines realize the cyclic law.
    """
    c = c % p
    if c == 0:
        raise ValueError("c must be nonzero")
    _check_pairs(3, n)
    xi = nth_root_of_unity(p, n)
    pw = [pow(xi, i, p) for i in range(n)]
    lam1 = [(1, 0, pw[i]) for i in range(n)]
    lam2 = [(0, 1, c * pw[j] % p) for j in range(n)]
    lam3 = [(c * pw[k] % p, p - 1, 0) for k in range(n)]
    meta = {"family": "triangular", "n": n, "p": p, "c": c}
    return verify([lam1, lam2, lam3], p, meta=meta)


def pencil_char_p(p):
    """Order-p net on the affine rows y = 0, 1, 2 with law c = 2b - a.

    The carrier lines are concurrent at (1,0,0) and the order equals the
    characteristic, so this net deliberately breaks the p > n convention;
    the result carries the char_exception flag.
    """
    if p < 5:
        raise ValueError("p must be at least 5")
    _check_pairs(3, p)
    lam1 = [(a, 0, 1) for a in range(p)]
    lam2 = [(b, 1, 1) for b in range(p)]
    lam3 = [(c, 2, 1) for c in range(p)]
    meta = {"family": "pencil", "n": p, "p": p}
    return verify([lam1, lam2, lam3], p, allow_char_exception=True, meta=meta)


def conic_line(n, p, c=1):
    """One component on the infinite line, two on the conic XY = Z^2.

    Lambda2 = {(c xi^i, c^-1 xi^-i)}, Lambda3 its negatives, Lambda1 the
    infinite points of slopes c^-2 xi^i.  Joins across the two conic
    components have slope c^-2 xi^(-i-j), which lands in the Lambda1 slope
    set, while chords inside one conic component have slope -c^-2 xi^-s
    and avoid it; that forces n odd.
    """
    if n % 2 == 0:
        raise ValueError("n must be odd")
    c = c % p
    if c == 0:
        raise ValueError("c must be nonzero")
    _check_pairs(3, n)
    xi = nth_root_of_unity(p, n)
    ci = pow(c, -1, p)
    lam2 = [(c * pow(xi, i, p) % p, ci * pow(xi, -i, p) % p, 1) for i in range(n)]
    lam3 = [((p - x) % p, (p - y) % p, 1) for (x, y, _) in lam2]
    lam1 = [(1, ci * ci * pow(xi, i, p) % p, 0) for i in range(n)]
    meta = {
        "family": "conic-line",
        "n": n,
        "p": p,
        "c": c,
        "conic": "XY=Z^2",
        "expected_center": (0, 0, 1),
    }
    return verify([lam1, lam2, lam3], p, meta=meta)


def algebraic_fermat(n, p):
    """Coset net on the Fermat cubic X^3 + Y^3 = Z^3 over GF(p).

    Takes the u-invariant subgroup H of order n of the chord-tangent group
    (u scales x and y by a primitive cube root of unity) and the cosets
    H+P, H+u(P), H+u(u(P)) for the smallest base point P with P - u(P)
    outside H.  The result is in perspective position with center (0,0,1).

    CurveGroup.subgroup_and_base_point finds H and P, and raises
    ValueError("no subgroup/base point found: ...") when no u-invariant
    subgroup of order n exists, or when every P has P - u(P) in H, so that
    no base point separates the cosets.  The latter is the case for n = 3
    over GF(7) and GF(13), where the nine rational points form a group of
    exponent 3 and no order-3 coset net exists.
    """
    from .cubic_group import CurveGroup  # the only builder on the curve layers

    _check_pairs(3, n)
    group = CurveGroup(p)
    if p <= n:
        raise ValueError("p must exceed n")
    subgroup, base = group.subgroup_and_base_point(n)
    meta = {
        "family": "fermat-coset",
        "n": n,
        "p": p,
        "base_point": base,
        "expected_center": (0, 0, 1),
    }
    return verify(group.coset_net(subgroup, base), p, meta=meta)


def tetrahedron(m, p):
    """Order-2m net whose components split over opposite tetrahedron edges.

    Frame: vertices E1=(1,0,0), E2=(0,1,0), E3=(0,0,1), E4=(1,1,1); the
    component Lambda_i = Gamma_i union Delta_i lives on the opposite edge
    pair (a_i, b_i) with a1: X=0, a2: Y=0, a3: Z=0 and b1: Y=Z, b2: X=Z,
    b3: X=Y.  The four face triangles must carry triangular sub-nets:

        (G1,G2,G3)  t*s*r = -1      (G1,D2,D3)  t(1-v) = u-1
        (D1,G2,D3)  s(1-u) = w-1    (D1,D2,G3)  r(1-w) = v-1

    for edge parameters t on a1, s on a2, r on a3 and w, v, u on b1, b2,
    b3.  With S the order-m subgroup of GF(p)*, Gamma parameters are taken
    as cosets alpha*S, beta*S, gamma*S and Delta parameters as 1 + d_i*S;
    the face laws then reduce to alpha*beta*gamma in -S, -alpha*d2 in d3*S
    and -beta*d3 in d1*S (the fourth condition follows), so gamma, d3, d1
    are determined up to S and the search runs over coset representatives
    (alpha, beta, d2), each the least element x of its coset x*S, walked in
    increasing order without storing the cosets.  The verifier decides each
    candidate, and rejects one whose Gamma and Delta halves share a point
    as a repeated point.
    """
    if m < 2:
        raise ValueError("m must be at least 2")
    n = 2 * m
    if (p - 1) % m != 0 or p <= n:
        raise ValueError("no realization found: need m | p-1 and p > 2m")
    _check_pairs(3, n)
    z = nth_root_of_unity(p, m)
    S = [pow(z, i, p) for i in range(m)]

    def reps():
        return (x for x in range(1, p) if all(x <= x * s % p for s in S))

    for alpha, beta, d2 in ((a, b, d) for a in reps() for b in reps() for d in reps()):
        gamma = (p - pow(alpha * beta, -1, p)) % p
        d3 = (p - alpha * d2 % p) % p
        d1 = alpha * beta * d2 % p
        g1 = [(0, 1, alpha * x % p) for x in S]
        g2 = [(beta * x % p, 0, 1) for x in S]
        g3 = [(1, gamma * x % p, 0) for x in S]
        dl1 = [((1 + d1 * x) % p, 1, 1) for x in S]
        dl2 = [(1, (1 + d2 * x) % p, 1) for x in S]
        dl3 = [(1, 1, (1 + d3 * x) % p) for x in S]
        comps = [g1 + dl1, g2 + dl2, g3 + dl3]
        meta = {
            "family": "tetrahedron",
            "m": m,
            "n": n,
            "p": p,
            "parameters": {"alpha": alpha, "beta": beta, "gamma": gamma,
                           "d1": d1, "d2": d2, "d3": d3},
        }
        try:
            return verify(comps, p, meta=meta)
        except NetViolation:
            continue
    raise ValueError("no realization found for m=%d, p=%d" % (m, p))


def hesse_4net(p):
    """The dual 4-net of order 3 dual to the Hesse pencil's four triangles.

    The singular members of the pencil lambda(X^3+Y^3+Z^3) + mu XYZ are
    XYZ, at (lambda:mu) = (0:1), and the three members (1:mu) with
    mu^3 = -27, that is mu = -3 eps^k for a primitive cube root of unity
    eps (Artebani and Dolgachev, "The Hesse pencil of plane cubic curves",
    L'Enseignement Math. 55 (2009)).  Each is a triangle of rational lines
    when p = 1 (mod 3): XYZ splits into the coordinate lines, and

        X^3 + Y^3 + Z^3 - 3 eps^k XYZ = prod_a (X + eps^a Y + eps^(k-a) Z)

    over a = 0, 1, 2.  The members are taken in the order (0:1), then mu
    ascending, and the line coefficient triples are read as points of the
    dual plane.
    """
    if p % 3 != 1:
        raise ValueError("p must be 1 mod 3")
    eps = nth_root_of_unity(p, 3)
    members = sorted((-3 * pow(eps, k, p) % p, k) for k in range(3))
    params = [(0, 1)] + [(1, mu) for mu, _ in members]
    duals = [[(1, 0, 0), (0, 1, 0), (0, 0, 1)]]
    duals += [[(1, pow(eps, a, p), pow(eps, (k - a) % 3, p)) for a in range(3)]
              for _, k in members]
    meta = {"family": "hesse", "n": 3, "p": p, "pencil_parameters": params}
    return verify(duals, p, meta=meta)
