"""The PASS/FAIL walk-throughs behind `dualnets demo NAME`, and the
polynomial identities behind the j = 0 center criterion that one of them
samples.

cli.DEMOS lists the names; only the demo command imports this module.
"""

from . import nets
from .plane import PValue, apply_point, cross_ratio, perspectivity, u_invariant


def run(name):
    """The (claim, passed) checks of the demo called name, one of
    cli.DEMOS: the function _name here, with "_" for "-"."""
    return globals()["_" + name.replace("-", "_")]()


def _pencil():
    from . import constructors

    checks = []
    net = constructors.pencil_char_p(5)
    checks.append(("pencil net of order 5 verifies with the characteristic "
                   "exception", net.char_exception))
    checks.append(("classifies as pencil", nets.classify(net)["tag"] == "pencil"))
    centers = nets.find_centers(net)
    checks.append(("a perspective center exists", len(centers) >= 1))
    # the values of (T, P1, P2, P3) over the net lines through each center
    kappas = [{cross_ratio(T, *pts, net.p) for pts in nets.lines_through_center(net, T).values()}
              for T in centers]
    checks.append(("cross-ratio is constant at every center",
                   bool(kappas) and all(len(values) == 1 for values in kappas)))
    return checks


def _conic_line():
    from . import constructors, latin

    checks = []
    net = constructors.conic_line(5, 11, 1)
    p = net.p
    checks.append(("conic-line net (n=5, p=11) verifies",
                   isinstance(net, nets.DualNet)))
    T = (0, 0, 1)
    centers = nets.find_centers(net)
    checks.append(("center (0,0,1) found", T in centers))
    kappa = nets.constant_cross_ratio(net, T)
    checks.append(("kappa = -1", kappa == PValue.of(p - 1, p)))
    M = perspectivity(T, (0, 0, 1), p - 1, p)
    image = {apply_point(M, P, p) for P in net.components[1]}
    checks.append(("the ratio -1 homology carries the second component onto "
                   "the third", image == set(net.components[2])))
    square = latin.from_net(net)
    checks.append(("latin square has a transversal",
                   latin.transversal_search(square) is not None))
    return checks


def _fermat():
    from . import constructors

    checks = []
    net = constructors.algebraic_fermat(3, 19)
    p = net.p
    checks.append(("coset net on the Fermat cubic (n=3, p=19) verifies",
                   isinstance(net, nets.DualNet)))
    centers = nets.find_centers(net)
    checks.append(("center (0,0,1) is a perspective center",
                   (0, 0, 1) in centers))
    corners = {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    checks.append(("all centers are corners of the coordinate triangle",
                   centers <= corners and len(centers) <= 3))
    checks.append(("kappa^2 - kappa + 1 = 0 at every center",
                   bool(centers) and all(u_invariant(nets.constant_cross_ratio(net, T))
                                         == PValue.of(0, p) for T in centers)))
    checks.append(("classifies as proper-algebraic",
                   nets.classify(net)["tag"] == "proper-algebraic"))
    return checks


def _j0_identities():
    import random

    checks = []
    p = 101
    rng = random.Random(20260818)
    ok1 = ok2 = True
    for _ in range(50):
        a, b, c, m = (rng.randrange(p) for _ in range(4))
        report = cubic_j0_identities(a, b, c, m, p)
        ok1 = ok1 and report["identity1"]
        ok2 = ok2 and report["identity2"]
    checks.append(("identity (1) holds at 50 random samples over GF(101)", ok1))
    checks.append(("identity (2) holds at 50 random samples over GF(101)", ok2))
    return checks


def _negative_sweeps():
    from . import constructors

    checks = []
    cases = [
        ("triangular cyclic n=5, p=11", constructors.triangular_cyclic(5, 11)),
        ("triangular cyclic n=7, p=29", constructors.triangular_cyclic(7, 29)),
        ("tetrahedron m=2, p=13", constructors.tetrahedron(2, 13)),
    ]
    for desc, net in cases:
        checks.append(("no perspective center for %s" % desc,
                       len(nets.find_centers(net)) == 0))
    return checks


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
    # alpha_i (of t^i in t*h1(t)) at m and its m-derivative; alpha_1 is constant
    a1 = (a * (a - 1) * (a - c) - b * b) % p
    a2, da2 = (3 * a * a - 2 * a - 2 * a * c + c - 2 * b * m) % p, -2 * b
    a3, da3 = (3 * a - 1 - c - m * m) % p, -2 * m
    # f = 12 a0 a4 - 3 a1 a3 + a2^2 with a0 = 0, a4 = 1
    f = (a2 * a2 - 3 * a1 * a3) % p
    df = 2 * a2 * da2 - 3 * a1 * da3
    # g = -(72 a0 a2 a4 - 27 a0 a3^2 - 27 a1^2 a4 - 2 a2^3 + 9 a1 a2 a3)
    g = (27 * a1 * a1 + 2 * a2 ** 3 - 9 * a1 * a2 * a3) % p
    dg = 6 * a2 * a2 * da2 - 9 * a1 * (da2 * a3 + a2 * da3)
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
    lhs1 = (3 * df * g - 2 * f * dg) % p
    rhs1 = 54 * pow(b * b - a * (a - 1) * (a - c), 2, p) * sum(bi * pow(m, i, p) for i, bi in enumerate(beta)) % p
    lhs2 = sum(bi * gi for bi, gi in zip(beta, gamma)) % p
    rhs2 = 18 * pow(c * (c - 1), 2, p) * (c * c - c + 1) % p
    return {
        "beta": beta,
        "gamma": gamma,
        "identity1": lhs1 == rhs1,
        "identity2": lhs2 == rhs2,
        "lhs1": lhs1, "rhs1": rhs1,
        "lhs2": lhs2, "rhs2": rhs2,
    }
