import random

import pytest

from dualnets.curves import (HomPoly, curve_points, fermat_cubic,
                             hessian, inflection_points, j_invariant,
                             j_of_cubic, line_on_curve,
                             pencil_crossratio_check, proportional,
                             rational_lines, restrict,
                             singular_points, singular_type, tangent_line)
from dualnets.demos import cubic_j0_identities
from dualnets import constructors, cubic_group, curves, nets, plane
from dualnets.cubic_group import CurveGroup
from dualnets.plane import PValue, all_points, line_points, monomials
from util import (compose, corners_legendre, hesse_4net_brute, intersection_multiplicity,
                  intersection_multiplicity_brute, j_of_cubic_weierstrass, legendre_cubic,
                  line_on_curve_brute, mat_inv, random_projectivity, restrict_expanded,
                  singular_type_brute)


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
    # different supports, different degrees, a zero form against a nonzero one
    assert not proportional(HomPoly(3, {(3, 0, 0): 1}, p), HomPoly(3, {(0, 3, 0): 1}, p))
    assert not proportional(HomPoly(2, {(2, 0, 0): 1}, p), HomPoly(3, {(3, 0, 0): 1}, p))
    assert not proportional(HomPoly(3, {}, p), F)


def test_compose_is_substitution():
    p = 13
    F = fermat_cubic(p)
    rng = random.Random(7)
    for _ in range(5):
        M = random_projectivity(rng, p)
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
    # sum g_i s^(d-i) t^i = F(s*B1 + t*B2) on random forms of degree <= 3
    rng = random.Random(5)
    for _ in range(300):
        p = rng.choice((2, 3, 5, 13, 61))
        d = rng.randrange(4)
        F = HomPoly(d, {e: rng.randrange(p) for e in rng.sample(
            monomials(d), rng.randint(1, len(monomials(d))))}, p)
        B1, B2 = (tuple(rng.randrange(p) for _ in range(3)) for _ in range(2))
        g = restrict(F, B1, B2)
        assert g == restrict_expanded(F, B1, B2), (F, B1, B2)
        assert len(g) == d + 1
        for _ in range(3):
            s, t = rng.randrange(p), rng.randrange(p)
            value = sum(c * pow(s, d - i, p) * pow(t, i, p) for i, c in enumerate(g)) % p
            assert value == F.eval_at(tuple(s * a + t * b for a, b in zip(B1, B2))), (F, B1, B2)
    # the polars give every coefficient only up to degree 3
    with pytest.raises(ValueError, match="degree at most 3"):
        restrict(HomPoly(4, {(4, 0, 0): 1}, 5), (1, 0, 0), (0, 1, 0))


def test_curve_points_refuses_quartics():
    # the point listing solves for roots of degree at most 3, whatever the
    # restrictions of a quartic to the lines through (0,0,1) reduce to
    for quartic in ({(4, 0, 0): 1}, {(4, 0, 0): 1, (0, 4, 0): 1, (0, 0, 4): 1}):
        with pytest.raises(ValueError, match="degree at most 3"):
            curve_points(HomPoly(4, quartic, 5))


def test_degenerate_forms_raise():
    p = 13
    F = fermat_cubic(p)
    linear = HomPoly(1, {(1, 0, 0): 1}, p)
    with pytest.raises(ValueError, match="^hessian needs degree >= 2$"):
        hessian(linear)
    with pytest.raises(ValueError, match="^degree mismatch$"):
        F + linear
    # the node of Y^2 Z = X^3 + X^2 Z is a point of the curve with no tangent
    nodal = HomPoly(3, {(0, 2, 1): 1, (3, 0, 0): -1, (2, 0, 1): -1}, p)
    with pytest.raises(ValueError, match="^singular point$"):
        tangent_line(nodal, (0, 0, 1))
    with pytest.raises(ValueError, match="^rational_lines needs a nonzero form of degree at most 3$"):
        rational_lines(HomPoly(3, {}, p))
    conic = HomPoly(2, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): -1}, p)
    with pytest.raises(ValueError, match="^degree mismatch in pencil$"):
        pencil_crossratio_check(F, conic, 1, 1, 1, 2)


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
    # which holds X = 0, Y = 0, Z = 0 and forces the fourth reference line.
    # The zero of F on the chosen reference line X = 0 is singular for the
    # node XYZ + X^3 + Y^3, the cusp Y^2 Z - X^3 and the double line Y + Z
    # under (Y + Z)^2 (X + Z), so every line through it is tested there
    monos = [(i, j, 3 - i - j) for i in range(4) for j in range(4 - i)]
    for p in (2, 3, 5, 7, 11, 13):
        X, Y, Z = (HomPoly(1, {e: 1}, p) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
        cubics = [
            fermat_cubic(p), X * (Y * Y - X * Z), (X + Y * 2) * (X * Y + Y * Z + Z * Z * 3),
            (X + Y) * (Y + Z * 2) * (X + Y * 3 + Z), X * Y * (X + Y + Z), X * Y * (X + Y),
            X * X * Y, (Y + Z) * (Y + Z) * (Y + Z), xyz_poly(p),
            xyz_poly(p) + X * X * X + Y * Y * Y, Y * Y * Z - X * X * X,
            (Y + Z) * (Y + Z) * (X + Z),
            # X = 0, and lines through (0,0,1), on which the line sweep of
            # curve_points finds every point
            X * (Y * Y + Y * Z + Z * Z), (X + Y) * (X * X + Y * Z), (Y + X * 2) * X * (Y + Z),
        ] + [HomPoly(3, {e: rng.randrange(1, p) for e in rng.sample(monos, 4)}, p)
             for _ in range(12)]
        for F in cubics:
            assert rational_lines(F) == sorted(
                line for line in all_points(p) if line_on_curve_brute(F, line, p)), (p, F)
        # the point lists against direct filters of the plane, on the cubics
        # and on lines and conics, among them X = 0, double lines and line
        # pairs through (0,0,1)
        forms = cubics + [X, Y + Z * 3, X * X, X * Y, (X + Y) * (X + Y * 2), X * Z + Y * Y] + [
            HomPoly(d, {e: rng.randrange(p) for e in monomials(d)}, p)
            for d in (1, 2) for _ in range(4)]
        for F in forms:
            on = [P for P in all_points(p) if F.eval_at(P) == 0]
            singular = [P for P in on if F.gradient(P) == (0, 0, 0)]
            assert curve_points(F) == on, (p, F)
            assert singular_points(F) == set(singular), (p, F)
            if F.degree >= 2:
                H = hessian(F)
                assert list(inflection_points(F)) == [P for P in on if H.eval_at(P) == 0
                                                      and P not in singular], (p, F)
    p = 13
    assert rational_lines(xyz_poly(p)) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert rational_lines(fermat_cubic(p)) == []
    X, Y, Z = (HomPoly(1, {e: 1}, p) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert singular_points(xyz_poly(p) + X * X * X + Y * Y * Y) == {(0, 0, 1)}
    assert rational_lines((Y + Z) * (Y + Z) * (X + Z)) == [(0, 1, 1), (1, 0, 1)]
    # the oracle sees tangency, inflection and containment
    assert intersection_multiplicity_brute(fermat_cubic(p), (1, 1, 0), (1, 12, 0), p) == 3
    assert intersection_multiplicity_brute(xyz_poly(p), (1, 0, 0), (0, 1, 0), p) == 4
    # one plane-scan check above p = 50: a line lies on F when all of its
    # p + 1 points are among the zeros of F found by scanning the plane
    p = 61
    rng = random.Random(3)
    X, Y, Z = (HomPoly(1, {e: 1}, p) for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    for F in [xyz_poly(p) + X * X * X + Y * Y * Y, (Y + Z) * (X * X + Y * Z * 5), xyz_poly(p)] + [
            HomPoly(3, {e: rng.randrange(1, p) for e in rng.sample(monos, 4)}, p)
            for _ in range(3)]:
        on = [P for P in all_points(p) if F.eval_at(P) == 0]
        assert curve_points(F) == on, F
        assert rational_lines(F) == sorted(line for line in all_points(p) if sum(
            (P[0] * line[0] + P[1] * line[1] + P[2] * line[2]) % p == 0 for P in on) == p + 1), F


def test_rational_lines_restricts_to_each_reference_line_once(monkeypatch):
    # the restriction that picks the reference line M is the one searched
    # for zeros: Fermat is not on X = 0, so 1 restriction plus 3 tangent
    # tests; XYZ holds X, Y and Z = 0, so 4 plus 3 tests of its three lines
    calls = []
    real = curves.restrict
    monkeypatch.setattr(curves, "restrict", lambda F, B1, B2: calls.append(1) or real(F, B1, B2))
    for F, want in ((fermat_cubic(97), 4), (xyz_poly(97), 7)):
        calls.clear()
        rational_lines(F)
        assert len(calls) == want, F


def test_no_plane_scan_inside_line_routines(monkeypatch):
    calls = []
    line_calls = []
    real = plane.all_points
    real_line_points = plane.line_points

    def counted(p):
        calls.append(p)
        return real(p)

    def counted_line_points(line, p):
        line_calls.append(line)
        return real_line_points(line, p)

    # raising=False: a module that no longer imports a scan stays guarded
    for module in (plane, curves, cubic_group, nets, constructors):
        monkeypatch.setattr(module, "all_points", counted, raising=False)
        monkeypatch.setattr(module, "line_points", counted_line_points, raising=False)
    p = 13
    F = fermat_cubic(p)
    lines = real(p)
    for line in lines:
        pts = real_line_points(line, p)
        line_on_curve(F, line, p)
        for P in pts:
            intersection_multiplicity(F, line, P, p)
    assert line_calls == []
    for G in (F, xyz_poly(p), F + xyz_poly(p) * 4):
        rational_lines(G)
    assert calls == []
    # a curve's points are read off the lines through (0,0,1), so no point
    # listing, no curve group and no pencil member of classify scans the plane
    F = fermat_cubic(p)
    curve_points(F)
    singular_points(F)
    list(inflection_points(F))
    j_of_cubic(F)
    hesse = constructors.hesse_4net(p)
    for i in range(hesse.k):
        nets.classify(nets.derived_net(hesse, i))
    CurveGroup(61)
    group = CurveGroup(19)
    assert calls == []
    line_calls.clear()
    for P in group.points:
        group.scalar_mul(7, P)
    assert calls == [] and line_calls == []
    # the Hesse singular members are built in closed form, and the centers
    # of an order-1 net are read off its one line
    for p in (7, 13, 61):
        constructors.hesse_4net(p)
    assert nets.find_centers(nets.verify([[(1, 0, 0)], [(0, 1, 0)], [(1, 1, 0)]], 7)) \
        == {(1, t, 0) for t in range(2, 7)}
    assert calls == []


def test_hesse_4net_matches_pencil_scan():
    for p in (7, 13, 19, 31, 37, 43):
        net, oracle = constructors.hesse_4net(p), hesse_4net_brute(p)
        assert net.components == oracle.components, p
        assert net.lines == oracle.lines, p
        assert net.meta == oracle.meta, p


def test_hessian_covariance():
    p = 13
    F = legendre_cubic(3, p)
    rng = random.Random(2)
    M = random_projectivity(rng, p)
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
        M = random_projectivity(rng, p)
        assert j_of_cubic(compose(F, M)) == j


def test_j_of_cubic_cusp_is_infinity():
    # the tangent quartic has I = J = 0, so 1728 * 4I^3 / (4I^3 - J^2) is 0/0
    for p in (7, 13):
        cusp = HomPoly(3, {(3, 0, 0): 1, (0, 2, 1): -1}, p)  # Y^2 Z = X^3
        assert j_of_cubic(cusp) == PValue.infinity(p)


def test_j_of_cubic_refuses_characteristic_2_and_3():
    # j divides by 2 and 3: every nonzero cubic gets a message naming the
    # limit, never pow's "base is not invertible"
    rng = random.Random(1601)
    for p in (2, 3):
        for _ in range(100):
            F = HomPoly(3, {m: rng.randrange(p) for m in monomials(3)}, p)
            if F.is_zero:
                continue
            with pytest.raises(ValueError) as err:
                j_of_cubic(F)
            assert str(err.value) == "j_of_cubic needs p >= 5, got p = %d" % p


def test_j_of_cubic_singular_scan():
    # Z q(X, Y) + c(X, Y) is singular at (0,0,1); a random projectivity moves
    # it.  With a rational flex, j is inf unless the cubic holds a line: then
    # the flex lies on that line, its tangent, and j is None.
    rng = random.Random(1601)
    irreducible = 0
    for p in (5, 7, 11, 13):
        for _ in range(40):
            F = HomPoly(3, {m: rng.randrange(p) for m in monomials(3) if m[2] <= 1}, p)
            F = compose(F, random_projectivity(rng, p))
            if F.is_zero or next(inflection_points(F), None) is None:
                continue
            assert singular_points(F)
            if rational_lines(F):
                assert j_of_cubic(F) is None
            else:
                assert j_of_cubic(F) == PValue.infinity(p)
                irreducible += 1
    assert irreducible >= 50


def test_j_of_cubic_matches_weierstrass_oracle():
    # seeded cubics of every kind, some under a random projectivity: random,
    # sparse, singular at a point, line * conic, three lines, Legendre and
    # Hesse members; fewer at the larger p, where the flex scan costs p^2.
    rng = random.Random(18)
    outcomes = []
    for p, count in ((5, 700), (7, 600), (11, 400), (13, 250), (31, 60), (61, 20)):
        lines = [HomPoly(1, dict(zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), L)), p)
                 for L in all_points(p)]
        for trial in range(count):
            kind = trial % 7
            if kind == 0:
                F = HomPoly(3, {e: rng.randrange(p) for e in monomials(3)}, p)
            elif kind == 1:
                F = HomPoly(3, {e: rng.randrange(p) for e in rng.sample(monomials(3), 3)}, p)
            elif kind == 2:
                F = HomPoly(3, {e: rng.randrange(p) for e in monomials(3) if e[2] < 2}, p)
            elif kind == 3:
                F = rng.choice(lines) * HomPoly(2, {e: rng.randrange(p) for e in monomials(2)}, p)
            elif kind == 4:
                F = rng.choice(lines) * rng.choice(lines) * rng.choice(lines)
            elif kind == 5:
                F = legendre_cubic(rng.randrange(p), p)
            else:
                F = HomPoly(3, {(3, 0, 0): 1, (0, 3, 0): 1, (0, 0, 3): 1,
                                (1, 1, 1): rng.randrange(p)}, p)
            if trial % 2:
                F = compose(F, random_projectivity(rng, p))
            if F.is_zero:
                continue
            j = j_of_cubic(F)
            assert j == j_of_cubic_weierstrass(F), (p, F)
            outcomes.append("None" if j is None else "inf" if j.is_infinity else "finite")
    assert len(outcomes) >= 2000
    assert all(outcomes.count(kind) >= 100 for kind in ("None", "inf", "finite"))


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
    # a singular point (x, y, 0) off the vertices: the tangent cone is read
    # on the line X = 0, since Z = 0 passes through the point
    N = ((1, 0, 1), (0, 0, 2), (0, 1, 0))  # columns (1,0,0), (0,0,1), (1,2,0)
    moved = compose(cusp, mat_inv(N, p))
    assert singular_points(moved) == {(1, 2, 0)}
    assert singular_type(moved, (1, 2, 0)) == "cusp"
    moved = compose(node, mat_inv(N, p))
    assert singular_type(moved, (1, 2, 0)) == "node"


def _outcome(fn, F, P):
    try:
        return fn(F, P)
    except ValueError as err:
        return "error: %s" % err


def test_singular_type_matches_frame_oracle():
    # every singular point of seeded singular cubics: a double point at a
    # random point (moved from (0,0,1), so no Z^3, XZ^2 or YZ^2 term, and
    # sometimes no quadratic part), line * conic, three lines (triangles,
    # a double or triple line when they coincide) and a cuspidal conic
    # times a line
    rng = random.Random(15)
    outcomes = []
    for p in (2, 3, 5, 7, 13, 31):
        lines = [HomPoly(1, dict(zip(((1, 0, 0), (0, 1, 0), (0, 0, 1)), L)), p)
                 for L in all_points(p)]
        for trial in range(60):
            kind = trial % 4
            if kind == 0:
                double = [e for e in monomials(3) if e[2] < 2]
                if trial % 8 == 0:
                    double = [e for e in double if e[2] == 0]  # multiplicity 3
                F = compose(HomPoly(3, {e: rng.randrange(p) for e in double}, p),
                            random_projectivity(rng, p))
            elif kind == 1:
                conic = HomPoly(2, {e: rng.randrange(p) for e in monomials(2)}, p)
                F = rng.choice(lines) * conic
            elif kind == 2:
                F = rng.choice(lines) * rng.choice(lines[:3]) * rng.choice(lines)
            else:
                F = compose(HomPoly(3, {(3, 0, 0): 1, (0, 2, 1): rng.randrange(1, p),
                                        (2, 0, 1): rng.randrange(p)}, p),
                            random_projectivity(rng, p))
            if F.is_zero:
                continue
            for P in sorted(singular_points(F)):
                got = _outcome(singular_type, F, P)
                assert got == _outcome(singular_type_brute, F, P), (p, F, P)
                outcomes.append(got)
    assert len(outcomes) >= 500
    assert {"node", "cusp", "error: point has multiplicity > 2"} <= set(outcomes)


def test_inflection_points_of_fermat():
    p = 13
    F = fermat_cubic(p)
    infl = list(inflection_points(F))
    # every rational point of this curve is a 3-torsion inflection
    assert len(infl) == 9
    assert (1, 12, 0) in infl
    for P in infl:
        assert F.eval_at(P) == 0


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
