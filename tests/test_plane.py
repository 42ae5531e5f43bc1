import random

import pytest

from dualnets.plane import (PValue, all_points, anharmonic_orbit, apply_point, cross,
                            cross_ratio, cross_ratio_lines, incident, join, line_points,
                            meet, normalize, perspectivity, u_from_quartic, u_invariant)

from util import (apply_line, collinear_brute, cross_ratio_brute, cross_ratio_lines_brute,
                  mat_mul, random_projectivity)


def P(x, p=13):
    return PValue.of(x, p)


def test_normalize_canonical_form():
    assert normalize((2, 4, 6), 13) == (1, 2, 3)
    assert normalize((0, 5, 10), 13) == (0, 1, 2)
    assert normalize((0, 0, 7), 13) == (0, 0, 1)
    try:
        normalize((0, 0, 0), 13)
        assert False
    except ValueError:
        pass


def test_incidence_counts():
    # PG(2,p) has p^2+p+1 points, each line holds p+1 of them, and
    # all_points and line_points list them sorted
    for p in (5, 7, 13):
        pts = all_points(p)
        assert len(pts) == p * p + p + 1
        assert pts == sorted(pts)
        lines = pts + [(2, 4, 6), (p + 1, 0, 0), (0, 3 * p - 2, 5), (p - 1, p - 1, p - 1)]
        for line in lines:
            on = [Q for Q in pts if incident(Q, line, p)]
            assert len(on) == p + 1
            assert line_points(line, p) == on


def test_join_meet_duality():
    p = 11
    A, B = (1, 2, 3), (4, 5, 6)
    line = join(A, B, p)
    assert incident(A, line, p) and incident(B, line, p)
    m = meet(line, (1, 0, 0), p)
    assert incident(m, line, p) and incident(m, (1, 0, 0), p)
    assert collinear_brute(A, B, m, p) or not incident(m, line, p)


def test_cross_ratio_pinned_values():
    p = 13
    # on the line z=0: points (1,t,0) carry the affine parameter t
    def pt(t):
        return normalize((1, t % p, 0), p)

    inf = (0, 1, 0)
    # k(0, inf, tau, -tau) = -1: harmonic
    for tau in (1, 2, 5):
        k = cross_ratio(pt(0), inf, pt(tau), pt(-tau), p)
        assert k == P(p - 1)
        assert k != p - 1  # a PValue equals only a PValue
    # k(0, s, eps*s, eps^2*s) = -eps for a cube root eps
    eps = 3  # 3^3 = 27 = 1 mod 13
    assert pow(eps, 3, p) == 1
    for s in (1, 2, 7):
        k = cross_ratio(pt(0), pt(s), pt(eps * s), pt(eps * eps * s), p)
        assert k == P(-eps)


def test_cross_ratio_degenerate_pairs_are_total():
    p = 13

    def pt(t):
        return normalize((1, t % p, 0), p)

    a, b, c = pt(0), pt(1), pt(5)
    assert cross_ratio(a, b, c, c, p) == P(1)
    assert cross_ratio(a, b, a, c, p) == P(0)
    assert cross_ratio(a, b, b, c, p) == PValue.infinity(p)
    try:
        cross_ratio(a, a, a, b, p)
        assert False, "three coincident points have no cross-ratio"
    except ValueError:
        pass


def test_cross_ratio_matches_parameter_form():
    # seeded quadruples on random lines, drawn from three points so that
    # they repeat, each triple scaled, one in four with a stray point off
    # the line: the bracket form gives the parameter form's value, or
    # raises with its message
    rng = random.Random(47)
    outcomes = {}
    for p in (5, 7, 13, 31, 101, 1009):
        for _ in range(500):
            B1 = B2 = (0, 0, 0)
            while cross(B1, B2, p) == (0, 0, 0):
                B1, B2 = [tuple(rng.randrange(p) for _ in range(3)) for _ in range(2)]
            pool = [tuple((a * x + b * y) % p for x, y in zip(B1, B2))
                    for a, b in ((1, 0), (0, 1), (rng.randrange(1, p), rng.randrange(1, p)))]
            quad = [tuple(c * s for c in rng.choice(pool)) for s in rng.choices(range(1, p), k=4)]
            if rng.random() < 0.25:
                quad[rng.randrange(4)] = (1, rng.randrange(p), rng.randrange(p))
            results = []
            for form in (cross_ratio, cross_ratio_brute):
                try:
                    results.append(form(*quad, p))
                except ValueError as exc:
                    results.append(str(exc))
            assert results[0] == results[1], (quad, p)
            kind = results[0] if isinstance(results[0], str) else "value"
            outcomes[kind] = outcomes.get(kind, 0) + 1
    assert set(outcomes) == {"value", "points are not collinear",
                             "cross-ratio needs at least two distinct points",
                             "cross-ratio undefined: three coincident points"}, outcomes


def test_cross_ratio_lines_tangent_pencil_convention():
    # pencil through the origin of the chart z=1: x=0, y=0, ax+by=0, a'x+b'y=0
    p = 13
    for a, b, a2, b2 in [(1, 1, 1, 2), (2, 5, 3, 1), (1, 12, 7, 9)]:
        l1 = (1, 0, 0)
        l2 = (0, 1, 0)
        l3 = (a, b, 0)
        l4 = (a2, b2, 0)
        k = cross_ratio_lines(l1, l2, l3, l4, p)
        expected = a * b2 * pow(a2 * b, -1, p) % p
        assert k == P(expected)


def test_cross_ratio_lines_swap_behavior():
    p = 13
    l1, l2, l3, l4 = (1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 5, 0)
    k = cross_ratio_lines(l1, l2, l3, l4, p)
    assert cross_ratio_lines(l2, l1, l3, l4, p) == k.reciprocal()
    assert cross_ratio_lines(l1, l2, l4, l3, p) == k.reciprocal()
    assert cross_ratio_lines(l2, l1, l4, l3, p) == k


def test_cross_ratio_lines_projective_invariance_samples():
    # a collineation moves the common point, and with it the auxiliary
    # line that cuts the pencil, so this also checks the value does not
    # depend on that line
    p = 13
    rng = random.Random(17)
    for _ in range(20):
        V = rng.choice(all_points(p))
        quad = rng.sample(line_points(V, p), 4)
        k = cross_ratio_lines(*quad, p)
        M = random_projectivity(rng, p)
        imgs = [apply_line(M, l, p) for l in quad]
        assert len(set(imgs)) == 4
        assert cross_ratio_lines(*imgs, p) == k


def test_cross_ratio_coincidence_is_projective():
    # (1,0,0) and (2,0,0) are one point (one line): the degenerate value
    # 1, as for any equal first pair, and no error from joining them
    quad = ((1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0))
    assert cross_ratio(*quad, 13) == P(1)
    assert cross_ratio_lines(*quad, 13) == P(1)


def test_cross_ratio_lines_matches_transversal_on_pencils():
    # seeded pencils with repeats and unnormalized coefficient triples:
    # the dual point cross-ratio agrees with the cut by a transversal,
    # raising exactly when it raises; scaling a point changes nothing
    rng = random.Random(29)
    checked = raised = 0
    for p in (5, 7, 11, 13, 31, 101):
        plane = all_points(p)
        for _ in range(150):
            pencil = line_points(rng.choice(plane), p)
            quad = [tuple(c * s for c in rng.choice(pencil))
                    for s in rng.choices(range(1, p), k=4)]
            try:
                want = cross_ratio_lines_brute(*quad, p)
            except ValueError:
                want = None
            try:
                got = cross_ratio_lines(*quad, p)
            except ValueError:
                got = None
            assert got == want, (quad, p)
            if got is not None:
                assert cross_ratio(*quad, p) == want.reciprocal()
                assert cross_ratio(*(normalize(l, p) for l in quad), p) == want.reciprocal()
            checked += 1
            raised += got is None
    assert checked == 900 and 0 < raised < checked


def test_anharmonic_orbit_sizes():
    p = 13
    assert len(anharmonic_orbit(P(p - 1))) == 3      # harmonic: {-1, 2, 1/2}
    assert anharmonic_orbit(P(p - 1)) == {P(p - 1), P(2), P(7)}
    eps = 4  # primitive 6th root would give the equianharmonic pair
    k_eq = P(eps)  # 4^2-4+1 = 13 = 0: equianharmonic over GF(13)
    assert (4 * 4 - 4 + 1) % p == 0
    assert len(anharmonic_orbit(k_eq)) == 2
    assert len(anharmonic_orbit(P(3))) == 6
    assert len(anharmonic_orbit(P(0))) == 3
    assert anharmonic_orbit(P(0)) == {P(0), P(1), PValue.infinity(p)}


def test_u_invariant_special_values():
    p = 13
    # equianharmonic: numerator k^2-k+1 = 0
    assert u_invariant(P(4)) == P(0)
    assert u_invariant(P(10)) == P(0)
    # harmonic: k = -1, 2, 1/2 give infinity
    for x in (p - 1, 2, 7):
        assert u_invariant(P(x)) == PValue.infinity(p)
    # u(inf) = u(0) = u(1) = 1/4
    quarter = PValue(1, 4, p)
    assert u_invariant(P(0)) == quarter
    assert u_invariant(P(1)) == quarter
    assert u_invariant(PValue.infinity(p)) == quarter


def test_u_refuses_characteristic_2_and_3():
    # over GF(3), k = -1 is harmonic and equianharmonic at once: u is 0/0
    for p in (2, 3):
        with pytest.raises(ValueError) as err:
            u_invariant(PValue.of(2, p))
        assert str(err.value) == "u_invariant needs p >= 5, got p = %d" % p
        with pytest.raises(ValueError) as err:
            u_from_quartic(1, 0, 0, 1, 0, p)
        assert str(err.value) == "u_from_quartic needs p >= 5, got p = %d" % p


def test_u_from_quartic_scaling_invariance():
    p = 101
    vals = (3, 7, 11, 2, 9)
    base = u_from_quartic(*vals, p)
    for s in (2, 5, 17):
        scaled = tuple(v * s % p for v in vals)
        assert u_from_quartic(*scaled, p) == base


def test_u_from_quartic_degenerate_double_root():
    p = 101
    # t^2 (t-1) (t-mu): cross-ratio of the root multiset degenerates to 0/1/inf
    for mu in (5, 17):
        # expand t^4 - (1+mu) t^3 + mu t^2
        a4, a3, a2, a1, a0 = 1, (-(1 + mu)) % p, mu % p, 0, 0
        u = u_from_quartic(a0, a1, a2, a3, a4, p)
        assert u == PValue(1, 4, p)


def test_perspectivity_standard_frame():
    p = 13
    T = (0, 0, 1)
    axis = (0, 0, 1)  # the line z=0
    M = perspectivity(T, axis, p - 1, p)
    assert apply_point(M, (2, 3, 1), p) == normalize((-2, -3, 1), p)
    kappa = 3  # 3^3 = 1 mod 13
    M3 = perspectivity(T, axis, kappa, p)
    assert apply_point(M3, (2, 3, 1), p) == normalize((2 * 3, 3 * 3, 1), p)
    cube = mat_mul(M3, mat_mul(M3, M3, p), p)
    from dualnets.plane import normalize_matrix
    assert normalize_matrix(cube, p) == normalize_matrix(
        ((1, 0, 0), (0, 1, 0), (0, 0, 1)), p)


def test_perspectivity_fixes_axis_and_center():
    p = 13
    T = (1, 2, 1)
    axis = (3, 1, 5)
    M = perspectivity(T, axis, 6, p)
    assert apply_point(M, T, p) == normalize(T, p)
    for Q in line_points(axis, p):
        assert apply_point(M, Q, p) == Q
    assert apply_line(M, axis, p) == normalize(axis, p)


def test_perspectivity_rejects_degenerate_input():
    p = 13
    try:
        perspectivity((1, 0, 0), (0, 1, 0), 1, p)
        assert False, "kappa = 1 is the identity, not a homology"
    except ValueError:
        pass
    try:
        perspectivity((0, 1, 0), (1, 0, 0), 5, p)  # center on the axis x=0
        assert False, "center on the axis is degenerate"
    except ValueError:
        pass


def test_perspectivity_composition():
    p = 13
    T = (0, 0, 1)
    axis = (0, 0, 1)
    M2 = perspectivity(T, axis, 2, p)
    M6 = perspectivity(T, axis, 6, p)
    M12 = perspectivity(T, axis, 12, p)
    from dualnets.plane import normalize_matrix
    assert normalize_matrix(mat_mul(M2, M6, p), p) == M12


def test_degenerate_inputs_raise():
    from dualnets.plane import normalize_matrix
    p = 13
    with pytest.raises(ValueError, match=r"^join of equal points \(1, 2, 3\)$"):
        join((1, 2, 3), (1, 2, 3), p)
    with pytest.raises(ValueError, match=r"^meet of equal lines \(0, 0, 1\)$"):
        meet((0, 0, 1), (0, 0, 1), p)
    # projectively equal but unequal tuples are equal inputs too
    with pytest.raises(ValueError, match=r"^join of equal points \(1, 2, 3\)$"):
        join((1, 2, 3), (8, 9, 10), 7)
    with pytest.raises(ValueError, match=r"^meet of equal lines \(0, -1, 2\)$"):
        meet((0, -1, 2), (13, 12, 15), p)
    # only a zero input is refused as a zero triple
    for u, v in (((0, 0, 0), (1, 2, 3)), ((1, 2, 3), (0, 13, -26)), ((0, 0, 0), (0, 0, 0))):
        for fn in (join, meet):
            with pytest.raises(ValueError, match="^zero triple is not projective$"):
                fn(u, v, p)
    with pytest.raises(ValueError, match="^0/0 is not a projective value$"):
        PValue(0, 0, p)
    with pytest.raises(ValueError, match="^infinite PValue has no scalar value$"):
        PValue.infinity(p).value
    with pytest.raises(ValueError, match="^zero matrix$"):
        normalize_matrix(((0, 0, 0), (0, 0, p), (0, 0, 0)), p)
