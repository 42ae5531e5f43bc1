import random

from dualnets.curves import (HomPoly, compose, corners_legendre,
                             cubic_j0_identities, fermat_cubic, hessian,
                             inflection_points, intersection_multiplicity,
                             j_invariant, j_of_cubic, legendre_cubic,
                             line_on_curve, pencil_common_points,
                             pencil_crossratio_check, proportional,
                             rational_lines, restrict,
                             singular_points, singular_type, tangent_line)
from dualnets import constructors, cubic_group, curves, nets, plane
from dualnets.cubic_group import CurveGroup
from dualnets.plane import (PValue, all_points, line_points, mat_inv, apply_point,
                            normalize)
from util import intersection_multiplicity_brute, line_on_curve_brute


def xyz_poly(p):
    return HomPoly(3, {(1, 1, 1): 1}, p)


def test_hompoly_basics():
    p = 13
    F = fermat_cubic(p)
    assert F.eval_at((1, 12, 0)) == 0
    assert F.eval_at((1, 0, 1)) == 0
    assert F.eval_at((1, 1, 1)) == 1
    assert not F.is_zero
    assert HomPoly(3, {}, p).is_zero
    try:
        HomPoly(3, {(1, 1, 0): 1}, p)
        assert False, "exponents must sum to the degree"
    except ValueError:
        pass


def test_hompoly_arithmetic():
    p = 13
    F = fermat_cubic(p)
    G = xyz_poly(p)
    S = F + G
    assert S.eval_at((1, 1, 1)) == (F.eval_at((1, 1, 1)) + G.eval_at((1, 1, 1))) % p
    D = F - F
    assert D.is_zero
    M = F * 3
    assert M.eval_at((2, 3, 1)) == 3 * F.eval_at((2, 3, 1)) % p
    Q = G * G
    assert Q.degree == 6
    assert Q.eval_at((2, 3, 1)) == pow(G.eval_at((2, 3, 1)), 2, p)


def test_proportional():
    p = 13
    F = fermat_cubic(p)
    assert proportional(F, F * 5)
    assert not proportional(F, xyz_poly(p))
    assert proportional(HomPoly(2, {}, p), HomPoly(2, {}, p))


def test_compose_is_substitution():
    p = 13
    F = fermat_cubic(p)
    rng = random.Random(7)
    for _ in range(5):
        M = None
        while M is None:
            cand = tuple(tuple(rng.randrange(p) for _ in range(3)) for _ in range(3))
            try:
                mat_inv(cand, p)
                M = cand
            except ValueError:
                pass
        G = compose(F, M)
        for P in ((1, 2, 3), (0, 1, 5), (1, 0, 0)):
            img = tuple(sum(M[i][j] * P[j] for j in range(3)) % p for i in range(3))
            assert G.eval_at(P) == F.eval_at(img)


def test_restrict_endpoints():
    p = 13
    F = fermat_cubic(p)
    B1, B2 = (1, 2, 1), (0, 1, 1)
    g = restrict(F, B1, B2)
    assert len(g) == 4
    assert g[0] == F.eval_at(B1)
    assert g[-1] == F.eval_at(B2)


def test_tangent_line_and_multiplicity():
    p = 13
    F = fermat_cubic(p)
    O = (1, 12, 0)
    t = tangent_line(F, O)
    assert t == (1, 1, 0)
    # inflection: the tangent meets the curve three-fold there
    assert intersection_multiplicity(F, t, O, p) == 3
    # a generic secant line meets simply
    line = (0, 0, 1)
    assert intersection_multiplicity(F, line, O, p) == 1
    try:
        tangent_line(F, (1, 1, 1))
        assert False, "not on the curve"
    except ValueError:
        pass


def test_line_on_curve():
    p = 13
    G = xyz_poly(p)
    assert line_on_curve(G, (1, 0, 0), p)
    assert line_on_curve(G, (0, 1, 0), p)
    assert not line_on_curve(G, (1, 12, 0), p)
    assert not line_on_curve(fermat_cubic(p), (1, 0, 0), p)


def test_line_routines_match_plane_scan_oracles():
    rng = random.Random(31)
    for p in (7, 13):
        cubics = [fermat_cubic(p), xyz_poly(p)] + [
            HomPoly(3, {e: rng.randrange(p) for e in rng.sample(
                [(i, j, 3 - i - j) for i in range(4) for j in range(4 - i)], 4)}, p)
            for _ in range(6)]
        for F in cubics:
            for line in all_points(p):
                assert line_on_curve(F, line, p) == line_on_curve_brute(F, line, p)
                for P in line_points(line, p)[:: max(1, p // 3)]:
                    assert intersection_multiplicity(F, line, P, p) \
                        == intersection_multiplicity_brute(F, line, P, p)
    # rational_lines against the plane scan, on random cubics and on
    # reducible ones: line times conic, three lines (general, concurrent,
    # through the first reference lines), double and triple lines, and XYZ,
    # which holds X = 0, Y = 0, Z = 0 and forces the fourth reference line
    monos = [(i, j, 3 - i - j) for i in range(4) for j in range(4 - i)]
    for p in (5, 7, 11, 13):
        X, Y, Z = (HomPoly(1, {e: 1}, p) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        cubics = [
            fermat_cubic(p), X * (Y * Y - X * Z), (X + Y * 2) * (X * Y + Y * Z + Z * Z * 3),
            (X + Y) * (Y + Z * 2) * (X + Y * 3 + Z), X * Y * (X + Y + Z), X * Y * (X + Y),
            X * X * Y, (Y + Z) * (Y + Z) * (Y + Z), xyz_poly(p),
        ] + [HomPoly(3, {e: rng.randrange(1, p) for e in rng.sample(monos, 4)}, p)
             for _ in range(12)]
        for F in cubics:
            assert rational_lines(F) == sorted(
                line for line in all_points(p) if line_on_curve_brute(F, line, p)), (p, F)
    p = 13
    assert rational_lines(xyz_poly(p)) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert rational_lines(fermat_cubic(p)) == []
    # the oracle sees tangency, inflection and containment
    assert intersection_multiplicity_brute(fermat_cubic(p), (1, 1, 0), (1, 12, 0), p) == 3
    assert intersection_multiplicity_brute(xyz_poly(p), (1, 0, 0), (0, 1, 0), p) == 4


def test_no_plane_scan_inside_line_routines(monkeypatch):
    calls = []
    real = plane.all_points

    def counted(p):
        calls.append(p)
        return real(p)

    # raising=False: a module that no longer imports all_points stays guarded
    for module in (plane, curves, cubic_group, nets, constructors):
        monkeypatch.setattr(module, "all_points", counted, raising=False)
    p = 13
    F = fermat_cubic(p)
    lines = real(p)
    for line in lines:
        pts = line_points(line, p)
        line_on_curve(F, line, p)
        intersection_multiplicity(F, line, pts[0], p)
    for G in (F, xyz_poly(p), F + xyz_poly(p) * 4):
        rational_lines(G)
    assert calls == []
    group = CurveGroup(19)
    calls.clear()
    for P in group.points:
        group.scalar_mul(7, P)
    assert calls == []


def test_hessian_of_fermat_is_triangle():
    for p in (7, 13, 19):
        F = fermat_cubic(p)
        assert proportional(hessian(F), xyz_poly(p))


def test_hessian_covariance():
    p = 13
    F = legendre_cubic(3, p)
    rng = random.Random(2)
    M = None
    while M is None:
        cand = tuple(tuple(rng.randrange(p) for _ in range(3)) for _ in range(3))
        try:
            mat_inv(cand, p)
            M = cand
        except ValueError:
            pass
    assert proportional(hessian(compose(F, M)), compose(hessian(F), M))


def test_hessian_splits_into_corner_lines_at_j_zero():
    # c^2-c+1 = 0 at c=5 over GF(7); the Hessian is a product of the
    # vertical line X = (c+1)/3 Z and the horizontal pair Y^2 = (1-2c)/3 Z^2
    p = 7
    c = 5
    assert (c * c - c + 1) % p == 0
    H = hessian(legendre_cubic(c, p))
    x0 = (c + 1) * pow(3, -1, p) % p
    b2 = (1 - 2 * c) * pow(3, -1, p) % p
    vertical = HomPoly(1, {(1, 0, 0): 1, (0, 0, 1): -x0}, p)
    pair = HomPoly(2, {(0, 2, 0): 1, (0, 0, 2): -b2}, p)
    assert proportional(H, vertical * pair)


def test_corners_legendre_frozen():
    assert sorted(corners_legendre(5, 7)) == [(1, 0, 0), (1, 1, 4), (1, 6, 4)]
    assert sorted(corners_legendre(26, 31)) == [(1, 0, 0), (1, 2, 7), (1, 29, 7)]


def test_corners_legendre_errors():
    try:
        corners_legendre(3, 7)
        assert False, "c^2-c+1 != 0"
    except ValueError:
        pass
    # both roots of c^2-c+1 over GF(13) give a non-square (1-2c)/3
    for c in (4, 10):
        assert (c * c - c + 1) % 13 == 0
        try:
            corners_legendre(c, 13)
            assert False
        except ValueError as exc:
            assert "square" in str(exc)


def test_j_invariant_values():
    p = 13
    assert j_invariant(p - 1, p) == PValue.of(1728, p)
    for c in range(p):
        j = j_invariant(c, p)
        if (c * c - c + 1) % p == 0:
            assert j == PValue.of(0, p)
        elif c in (0, 1):
            assert j.is_infinity
        else:
            assert j != PValue.of(0, p)


def test_j_of_cubic_matches_legendre_j_exhaustively():
    p = 13
    for c in range(2, p):
        F = legendre_cubic(c, p)
        assert j_of_cubic(F) == j_invariant(c, p)


def test_j_of_cubic_fermat_is_zero():
    for p in (7, 13, 19):
        assert j_of_cubic(fermat_cubic(p)) == PValue.of(0, p)


def test_j_of_cubic_invariance_under_projectivities():
    p = 13
    F = legendre_cubic(3, p)
    j = j_of_cubic(F)
    rng = random.Random(9)
    for _ in range(3):
        M = None
        while M is None:
            cand = tuple(tuple(rng.randrange(p) for _ in range(3)) for _ in range(3))
            try:
                mat_inv(cand, p)
                M = cand
            except ValueError:
                pass
        assert j_of_cubic(compose(F, M)) == j


def test_singular_points_and_types():
    p = 13
    cusp = HomPoly(3, {(3, 0, 0): 1, (0, 2, 1): -1}, p)  # Y^2 Z = X^3
    assert singular_points(cusp) == {(0, 0, 1)}
    assert singular_type(cusp, (0, 0, 1)) == "cusp"
    node = legendre_cubic(0, p)  # Y^2 Z = X^2 (X - Z)
    assert singular_points(node) == {(0, 0, 1)}
    assert singular_type(node, (0, 0, 1)) == "node"
    assert singular_points(legendre_cubic(1, p)) == {(1, 0, 1)}
    assert singular_points(fermat_cubic(p)) == set()
    assert j_of_cubic(node).is_infinity


def test_inflection_points_of_fermat():
    p = 13
    F = fermat_cubic(p)
    infl = inflection_points(F)
    # every rational point of this curve is a 3-torsion inflection
    assert len(infl) == 9
    assert (1, 12, 0) in infl
    for P in infl:
        assert F.eval_at(P) == 0


def test_pencil_crossratio_check_fermat_triangle():
    p = 13
    F = HomPoly(3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}, p)
    G = xyz_poly(p)
    assert len(pencil_common_points(F, G)) == 9
    rng = random.Random(4)
    for _ in range(5):
        while True:
            a, b, a2, b2 = (rng.randrange(1, p) for _ in range(4))
            if (a * b2 - a2 * b) % p != 0:
                break
        report = pencil_crossratio_check(F, G, a, b, a2, b2)
        assert report["pass"]
        assert report["kappa"] == PValue(a * b2, a2 * b, p)
        assert len(report["per_point"]) == 9


def test_pencil_crossratio_check_errors():
    p = 13
    F = HomPoly(3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1}, p)
    G = xyz_poly(p)
    try:
        pencil_crossratio_check(F, G, 1, 1, 2, 2)
        assert False, "coincident members"
    except ValueError:
        pass
    try:
        pencil_crossratio_check(F, G, 0, 1, 1, 1)
        assert False, "zero parameter"
    except ValueError:
        pass
    triple_line = HomPoly(3, {(3, 0, 0): 1}, p)
    try:
        pencil_crossratio_check(F, triple_line, 1, 1, 1, 2)
        assert False, "wrong base point count"
    except ValueError:
        pass


def test_cubic_j0_identities_random():
    p = 101
    rng = random.Random(12)
    for _ in range(50):
        a, b, c, m = (rng.randrange(p) for _ in range(4))
        report = cubic_j0_identities(a, b, c, m, p)
        assert report["identity1"], (a, b, c, m)
        assert report["identity2"], (a, b, c, m)


def test_cubic_j0_identities_corner_specialization():
    # at a = (c+1)/3, b^2 = (1-2c)/3 with c^2-c+1 = 0 all four betas vanish
    for p, c in ((7, 5), (31, 26)):
        assert (c * c - c + 1) % p == 0
        a = (c + 1) * pow(3, -1, p) % p
        b2 = (1 - 2 * c) * pow(3, -1, p) % p
        b = next(r for r in range(p) if r * r % p == b2)
        for m in (0, 1, 5):
            report = cubic_j0_identities(a, b, c, m, p)
            assert report["beta"] == [0, 0, 0, 0]
            assert report["identity1"] and report["identity2"]
