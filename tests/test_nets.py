import random
from itertools import product

import pytest

from dualnets import classification, constructors, curves, latin, nets
from dualnets.nets import (DualNet, NetViolation, classify,
                           constant_cross_ratio, crossratio_4net, derived_net,
                           extend_to_4net, find_centers, is_perspective_center,
                           lines_through_center, verify)
from dualnets.plane import (PValue, all_points, anharmonic_orbit, apply_point, incident,
                            join, line_points, meet)
from util import (collinear_splits_brute, is_center_brute, is_dual_net_brute, kappas_4net_brute,
                  kappas_at_center_brute, legendre_cubic,
                  partitions_brute, random_projectivity, tetrahedron_faces_brute,
                  tetrahedron_faces_verify, verify_pairs_brute)


def test_verify_accepts_and_normalizes():
    # scaled, unsorted input comes out normalized and sorted
    raw = constructors.conic_line(5, 11)
    scaled = [[tuple(3 * x % 11 for x in P) for P in reversed(comp)]
              for comp in raw.components]
    net = verify(scaled, 11)
    assert net.components == raw.components
    assert net.k == 3 and net.n == 5 and isinstance(net, DualNet)
    assert not net.char_exception


def test_verify_needs_three_components():
    comp = [(1, 0, 0), (0, 1, 0)]
    try:
        verify([comp, comp], 11)
        assert False
    except NetViolation:
        pass


def test_verify_size_mismatch():
    net = constructors.conic_line(5, 11)
    comps = [list(c) for c in net.components]
    comps[2] = comps[2][:4]
    try:
        verify(comps, 11)
        assert False
    except NetViolation as exc:
        assert exc.component == 2
        assert exc.count == 4


def test_verify_disjointness():
    net = constructors.conic_line(5, 11)
    comps = [list(c) for c in net.components]
    comps[1][0] = comps[0][0]
    try:
        verify(comps, 11)
        assert False
    except NetViolation as exc:
        assert "disjoint" in str(exc) or "repeated" in str(exc)


def test_verify_characteristic_convention():
    comps = constructors.pencil_char_p(5).components
    try:
        verify(comps, 5)
        assert False, "p = n needs the explicit exception"
    except NetViolation:
        pass
    net = verify(comps, 5, allow_char_exception=True)
    assert net.char_exception


def test_verify_line_axiom_violation_reports_line():
    net = constructors.conic_line(5, 11)
    comps = [list(c) for c in net.components]
    assert (1, 2, 0) not in net.all_net_points()
    comps[2][0] = (1, 2, 0)
    try:
        verify(comps, 11)
        assert False
    except NetViolation as exc:
        assert exc.line is not None
        assert exc.count != 1


def test_net_lines_count_and_coverage():
    for net in (constructors.conic_line(5, 11), constructors.hesse_4net(7)):
        assert len(net.lines) == net.n ** 2
        # the table holds, for each component, the one point the line meets
        for line, pts in net.lines.items():
            for comp, P in zip(net.components, pts):
                assert [Q for Q in comp if incident(Q, line, net.p)] == [P]


def test_perspective_center_conic_line():
    net = constructors.conic_line(5, 11)
    T = (0, 0, 1)
    assert is_perspective_center(net, T)
    assert find_centers(net) == {T}
    classes = lines_through_center(net, T)
    assert len(classes) == 5
    for line, pts in classes.items():
        assert pts == net.lines[line]
        assert incident(T, line, 11)
    # net points are never centers
    assert not is_perspective_center(net, net.components[0][0])
    # a net point and a point off the centers have no classes
    assert lines_through_center(net, net.components[0][0]) is None
    assert lines_through_center(net, (1, 2, 3)) is None
    assert not is_perspective_center(net, (1, 2, 3))
    # n lines through T that cover every point but repeat a component are
    # no center (the lines Y = 0 and Y = X through (0,0,1), over GF(7))
    fake = DualNet(7, (((1, 0, 1), (1, 0, 2)), ((1, 0, 3), (1, 1, 1)),
                       ((1, 1, 2), (1, 1, 3))), {})
    assert lines_through_center(fake, (0, 0, 1)) is None


def test_find_centers_refuses_past_the_limit(monkeypatch):
    # an order-1 net has p + 1 - k centers; more than the limit are refused
    # before any is listed
    collinear = [[(1, 0, 0)], [(0, 1, 0)], [(1, 1, 0)]]
    monkeypatch.setattr(nets, "_MAX_CENTERS", 5)
    assert len(find_centers(verify(collinear, 7))) == 5
    for p in (11, 2 ** 61 - 1):
        try:
            find_centers(verify(collinear, p))
            assert False, p
        except ValueError as err:
            assert str(err) == ("an order-1 net over GF(%d) has %d centers, more than the "
                                "limit of 5" % (p, p - 2))


def test_find_centers_stops_past_the_limit_on_many_centers(monkeypatch):
    # each center of an order-n net costs n joins to confirm: the search
    # stops at the first center that takes its centers times n past the
    # limit.  The pencil net of order 7 has 35 centers.
    net = constructors.pencil_char_p(7)
    want = find_centers(net)
    assert len(want) == 35
    monkeypatch.setattr(nets, "_MAX_CENTERS", 35 * 7)
    assert find_centers(net) == want
    confirmed = []
    real = nets.is_perspective_center
    monkeypatch.setattr(nets, "is_perspective_center",
                        lambda net, T: real(net, T) and not confirmed.append(T))
    for limit, most in ((35 * 7 - 1, 34), (10 * 7, 10), (10 * 7 + 6, 10)):
        monkeypatch.setattr(nets, "_MAX_CENTERS", limit)
        confirmed.clear()
        with pytest.raises(ValueError) as err:
            find_centers(net)
        assert str(err.value) == ("an order-7 net over GF(7) has more than %d centers, past "
                                  "the limit _MAX_CENTERS = %d on centers times the order"
                                  % (most, limit))
        assert len(confirmed) == most + 1 and set(confirmed) <= want


def test_constant_cross_ratio_rejects_non_center():
    net = constructors.conic_line(5, 11)
    try:
        constant_cross_ratio(net, (1, 2, 3))
        assert False
    except ValueError:
        pass
    tri = constructors.triangular_cyclic(5, 11)
    for T in ((0, 0, 1), tri.components[2][0]):
        assert lines_through_center(tri, T) is None
        try:
            constant_cross_ratio(tri, T)
            assert False, "no center"
        except ValueError:
            pass
    h4 = constructors.hesse_4net(13)
    try:
        constant_cross_ratio(h4, (1, 2, 3))
        assert False, "4-nets go through crossratio_4net"
    except ValueError:
        pass


def test_classify_triangular_and_pencil():
    tri = classify(constructors.triangular_cyclic(5, 11))
    assert tri["tag"] == "triangular"
    assert sorted(tri["carrier_lines"]) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    pen = classify(constructors.pencil_char_p(5))
    assert pen["tag"] == "pencil"
    assert pen["vertex"] == (1, 0, 0)
    assert sorted(pen["carrier_lines"]) == [(0, 1, 0), (0, 1, 3), (0, 1, 4)]


def test_classify_conic_line():
    info = classify(constructors.conic_line(5, 11))
    assert info["tag"] == "conic-line"
    assert info["line"] == (0, 0, 1)
    assert info["line_component"] == 0


def test_classify_proper_algebraic():
    info = classify(constructors.algebraic_fermat(3, 19))
    assert info["tag"] == "proper-algebraic"
    assert info["singular"] == []
    assert info["j"] == PValue.of(0, 19)
    assert info["j_values"] == ["0"]
    # three collinear points, an order-1 net, impose only 3 conditions on
    # the 10 cubic coefficients: too many cubics to decide on
    one = verify([[(1, 0, 0)], [(0, 1, 0)], [(1, 1, 0)]], 7)
    assert classify(one) == {"tag": "unknown", "reason": "cubic fit dimension 7"}


def test_classify_tetrahedron_tag():
    # the 18 points of the order-6 realization lie on no cubic, so the
    # two-collinear-halves detector fires
    info = classify(constructors.tetrahedron(3, 13))
    assert info["tag"] == "tetrahedron"
    assert len(info["halves"]) == 3
    for half_pair in info["halves"]:
        assert len(half_pair) == 2

    # the order-4 realization sits on an irreducible cubic and is reported
    # as algebraic instead, cubic recognition running first
    info2 = classify(constructors.tetrahedron(2, 13))
    assert info2["tag"] == "proper-algebraic"


def _two_line_component(rng, p, m):
    """2m points, m + s on one line and m - s on another (s in {0, 1}),
    the meet sometimes among them, and sometimes one point moved off both
    lines."""
    plane = all_points(p)
    a, b = rng.sample(sorted({join(*rng.sample(plane, 2), p) for _ in range(4)}), 2)
    s = rng.choice((0, 0, 1))
    X = meet(a, b, p)
    on_a = [P for P in line_points(a, p) if P != X]
    on_b = [P for P in line_points(b, p) if P != X]
    pts = rng.sample(on_a, m + s) + rng.sample(on_b, m - s)
    if rng.random() < 0.4:
        pts[rng.randrange(len(pts))] = X
    if rng.random() < 0.2:
        pts[rng.randrange(len(pts))] = rng.choice([P for P in plane if P not in pts])
    return tuple(sorted(set(pts)))


def test_collinear_splits_match_subset_enumeration():
    # the lines through the first point give the same splits, in the same
    # order, as every subset of half the size holding it
    rng = random.Random(11)
    found = 0
    for _ in range(600):
        p = rng.choice((7, 11, 13, 31))
        comp = _two_line_component(rng, p, rng.randint(2, 5))
        got = classification._collinear_splits(comp, p)
        assert got == collinear_splits_brute(comp, p), (comp, p)
        found += bool(got)
    assert found >= 100
    for m, p in ((2, 7), (3, 13), (4, 29), (5, 31), (6, 43), (7, 43), (8, 89),
                 (9, 109), (10, 151)):
        for comp in constructors.tetrahedron(m, p).components:
            got = classification._collinear_splits(comp, p)
            assert got and got == collinear_splits_brute(comp, p), (m, p)


def test_classify_tetrahedron_order_24_work_bound(monkeypatch):
    # the subset enumeration would test about 4 * 10^6 candidate halves;
    # the lines through the first point of each component give at most n
    calls = []
    real = classification._component_line
    monkeypatch.setattr(classification, "_component_line",
                        lambda comp, p: calls.append(comp) or real(comp, p))
    net = constructors.tetrahedron(12, 193)
    info = classify(net)
    assert info["tag"] == "tetrahedron"
    assert 0 < len(calls) <= 3 + 3 * net.n
    for comp, (g, d), (lg, ld) in zip(net.components, info["halves"], info["lines"]):
        assert sorted(g + d) == list(comp) and len(g) == len(d) == 12
        assert all(incident(P, lg, 193) for P in g) and all(incident(P, ld, 193) for P in d)
    (g1, d1), (g2, d2), (g3, d3) = info["halves"]
    for face in ((g1, g2, g3), (g1, d2, d3), (d1, g2, d3), (d1, d2, g3)):
        verify(face, 193)


def test_tetrahedron_split_matches_face_verification(monkeypatch):
    # the parity pass over the line table finds the split triple and
    # labelling that face verification finds first, and None where it does
    hesse = [derived_net(constructors.hesse_4net(p), i) for p in (7, 13) for i in range(4)]
    built = ([constructors.tetrahedron(m, p) for m, p in (
        (2, 7), (3, 13), (4, 29), (5, 31), (6, 43), (7, 43), (8, 89), (9, 109), (10, 151),
        (12, 193))]
        + [constructors.triangular_cyclic(n, p) for n, p in ((4, 5), (6, 7), (8, 17))]
        + [constructors.algebraic_fermat(3, 19), constructors.algebraic_fermat(7, 61)] + hesse)
    for net in built:
        assert classification._try_tetrahedron(net) == tetrahedron_faces_brute(net), net
    # one split triple at a time, so that the helper also fails: on the
    # order-4 nets each component has 3 splits, and a labelling's faces
    # verify exactly when every net line has an even label sum
    real = classification._collinear_splits
    combinations = passed = 0
    for m, p in ((2, 7), (2, 13), (2, 19), (3, 13)):
        net = constructors.tetrahedron(m, p)
        for splits in product(*(real(comp, p) for comp in net.components)):
            chosen = dict(zip(net.components, splits))
            monkeypatch.setattr(classification, "_collinear_splits",
                                lambda comp, p, chosen=chosen: [chosen[comp]])
            assert classification._try_tetrahedron(net) == tetrahedron_faces_brute(net), \
                (m, p, splits)
            for labels in product((0, 1), repeat=3):
                halves = tuple((s[o][0], s[1 - o][0]) for s, o in zip(splits, labels))
                even = all(sum(P in d for P, (g, d) in zip(pts, halves)) % 2 == 0
                           for pts in net.lines.values())
                faces = tetrahedron_faces_verify(halves, p)
                assert even == faces, (m, p, splits, labels)
                combinations += 1
                passed += faces
    assert (combinations, passed) == (656, 40)


def test_classify_never_verifies(monkeypatch):
    # classify reads the verified net's line table; it builds no sub-net
    hesse = constructors.hesse_4net(13)
    built = ([constructors.triangular_cyclic(5, 11), constructors.pencil_char_p(5),
              constructors.conic_line(5, 11), constructors.algebraic_fermat(3, 19),
              constructors.tetrahedron(3, 13), constructors.tetrahedron(6, 61)]
             + [derived_net(hesse, i) for i in range(4)])
    reports = [classify(net) for net in built]
    assert [r["tag"] for r in reports].count("tetrahedron") == 2

    def refuse(*args, **kwargs):
        raise AssertionError("classify called verify")

    monkeypatch.setattr(nets, "verify", refuse)
    assert [classify(net) for net in built] == reports


def test_classify_rejects_4nets():
    try:
        classify(constructors.hesse_4net(13))
        assert False
    except ValueError:
        pass


def test_extend_to_4net_from_hesse_derived():
    for p in (7, 13, 19, 31):
        h4 = constructors.hesse_4net(p)
        for drop in range(4):
            three = derived_net(h4, drop)
            ext = extend_to_4net(three)
            assert ext is not None, (p, drop)
            assert ext.k == 4
            assert set(ext.components[3]) == set(h4.components[drop])
    # the order-3 Fermat coset net extends by the corners of the triangle
    ext = extend_to_4net(constructors.algebraic_fermat(3, 19))
    assert ext is not None
    assert ext.components[3] == ((0, 0, 1), (0, 1, 0), (1, 0, 0))


def test_extend_to_4net_fails_for_conic_line():
    assert extend_to_4net(constructors.conic_line(5, 11)) is None
    assert extend_to_4net(constructors.triangular_cyclic(5, 11)) is None


def test_extend_to_4net_rejects_n_centers_collinear_with_a_net_point(monkeypatch):
    # n points off the net, two of them on a line through a net point: the
    # verifier rejects the fourth component, and the extension is None
    net = derived_net(constructors.hesse_4net(13), 3)
    p = net.p
    pts = set(net.all_net_points())
    P = net.components[0][0]
    line = next(l for l in all_points(p)
                if incident(P, l, p) and sum(incident(Q, l, p) for Q in pts) == 1)
    T1, T2 = [T for T in all_points(p) if incident(T, line, p) and T not in pts][:2]
    T3 = next(T for T in all_points(p)
              if T not in pts and not incident(T, line, p))
    monkeypatch.setattr(nets, "find_centers", lambda _: {T1, T2, T3})
    assert extend_to_4net(net) is None


def test_derived_net_errors():
    net = constructors.conic_line(5, 11)
    try:
        derived_net(net, 0)
        assert False, "3-nets have no derived nets"
    except ValueError:
        pass
    h4 = constructors.hesse_4net(13)
    try:
        derived_net(h4, 4)
        assert False
    except ValueError:
        pass
    with pytest.raises(ValueError, match="^extension starts from a 3-net$"):
        extend_to_4net(h4)


def test_crossratio_4net_constant_and_reorder():
    h4 = constructors.hesse_4net(13)
    kappa = crossratio_4net(h4)
    assert kappa == PValue.of(10, 13)
    # swapping the last two components inverts the value
    comps = list(h4.components)
    swapped = verify([comps[0], comps[1], comps[3], comps[2]], 13)
    assert crossratio_4net(swapped) == kappa.reciprocal()
    # any reordering stays inside the anharmonic orbit
    rng = random.Random(6)
    for _ in range(4):
        order = list(range(4))
        rng.shuffle(order)
        k2 = crossratio_4net(verify([comps[i] for i in order], 13))
        assert k2 in anharmonic_orbit(kappa)


def test_crossratio_4net_rejects_3nets():
    try:
        crossratio_4net(constructors.conic_line(5, 11))
        assert False
    except ValueError:
        pass


@pytest.mark.parametrize("family, args", [
    ("conic_line", (5, 11)), ("conic_line", (15, 31, 3)), ("algebraic_fermat", (3, 19)),
    ("algebraic_fermat", (7, 61)), ("pencil_char_p", (5,)), ("pencil_char_p", (19,)),
    ("conic_line", (7, 29, 2))])
def test_constant_cross_ratio_matches_all_lines_oracle(family, args):
    # constant_cross_ratio reads one net line through the center; the
    # oracle scans every line through it for its points
    net = getattr(constructors, family)(*args)
    centers = find_centers(net)
    assert centers
    for T in centers:
        assert kappas_at_center_brute(net.components, T, net.p) == {constant_cross_ratio(net, T)}


@pytest.mark.parametrize("p", [7, 13, 19])
def test_crossratio_4net_matches_all_lines_oracle(p):
    h4 = constructors.hesse_4net(p)
    assert kappas_4net_brute(h4.components, p) == {crossratio_4net(h4)}


def test_single_point_mutation_always_breaks_verification():
    rng = random.Random(8)
    families = [
        constructors.conic_line(5, 11),
        constructors.triangular_cyclic(5, 11),
        constructors.algebraic_fermat(3, 19),
        constructors.tetrahedron(2, 13),
        constructors.hesse_4net(13),
    ]
    for net in families:
        p = net.p
        plane = all_points(p)
        pts = set(net.all_net_points())
        for _ in range(20):
            ci = rng.randrange(net.k)
            pi = rng.randrange(net.n)
            while True:
                Q = rng.choice(plane)
                if Q not in pts:
                    break
            comps = [list(c) for c in net.components]
            comps[ci][pi] = Q
            try:
                verify(comps, p, allow_char_exception=net.char_exception)
                assert False, "mutation must break the net axioms"
            except NetViolation:
                pass


def test_brute_oracles_agree_with_verify_and_find_centers():
    # the whole-plane center sweep is the oracle for find_centers' candidates
    families = [
        constructors.conic_line(5, 11),
        constructors.triangular_cyclic(5, 11),
        constructors.algebraic_fermat(3, 19),
        constructors.tetrahedron(2, 13),
        constructors.hesse_4net(13),
        constructors.pencil_char_p(7),
        constructors.triangular_cyclic(7, 29),
        constructors.conic_line(7, 29),
        derived_net(constructors.hesse_4net(7), 3),
        verify([[(1, 0, 0)], [(0, 1, 0)], [(1, 1, 0)]], 7),
    ]
    rng = random.Random(12)
    for net in families:
        p = net.p
        assert is_dual_net_brute(net.components, p)
        plane = all_points(p)
        assert {T for T in plane if is_center_brute(net.components, T, p)} \
            == find_centers(net)
        pts = set(net.all_net_points())
        comps = [list(c) for c in net.components]
        comps[rng.randrange(net.k)][rng.randrange(net.n)] = rng.choice(
            [Q for Q in plane if Q not in pts])
        assert not is_dual_net_brute(comps, p)


def _mutant(net, rng, points):
    """Components of net with one to three points replaced by points off
    the net, or with two points of different components swapped."""
    comps = [list(c) for c in net.components]
    kind = rng.randrange(4)
    if kind == 0:
        i, j = rng.sample(range(net.k), 2)
        a, b = rng.randrange(net.n), rng.randrange(net.n)
        comps[i][a], comps[j][b] = comps[j][b], comps[i][a]
        return comps
    pts = set(net.all_net_points())
    fresh = rng.sample([Q for Q in points if Q not in pts], kind)
    slots = rng.sample([(c, i) for c in range(net.k) for i in range(net.n)], kind)
    for (c, i), Q in zip(slots, fresh):
        comps[c][i] = Q
    return comps


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_line_keys_match_joins_on_the_whole_plane(p):
    # every point P of PG(2, p), so each of the pivots (1, y, z), (0, 1, z)
    # and (0, 0, 1), and all Q, R != P: equal keys exactly when PQ = PR, with
    # the inverse table (p <= pairs) and with pow (p > pairs)
    plane = all_points(p)
    for inv in (nets._inverter(p, p), nets._inverter(p, p - 1)):
        assert [c * inv(c) % p for c in range(1, p)] == [1] * (p - 1)
        for P in plane:
            others = [Q for Q in plane if Q != P]
            keyed = list(zip(nets._line_keys(P, others, p, inv),
                             [join(P, Q, p) for Q in others]))
            assert all((kq == kr) == (lq == lr) for kq, lq in keyed for kr, lr in keyed), P


def _image_with_every_pivot_in_component_0(net, rng):
    """A random projective image of net, verified, whose component 0 holds
    a point (1, y, z), a point (0, 1, z) and the point (0, 0, 1)."""
    while True:
        M = random_projectivity(rng, net.p)
        if {apply_point(M, P, net.p).index(1) for P in net.components[0]} == {0, 1, 2}:
            return verify([[apply_point(M, P, net.p) for P in comp] for comp in net.components],
                          net.p)


def test_verify_matches_pair_scan_on_mutants():
    # verify checks only the lines from component 0 to component 1; the
    # scan over all pairs of components must give the same verdict and the
    # same first witness; triangular_cyclic(3, 211) has p > k n^2, so
    # verify inverts with pow there and with its table elsewhere
    families = [
        constructors.triangular_cyclic(5, 11),
        constructors.conic_line(7, 29, 3),
        constructors.algebraic_fermat(3, 19),
        constructors.tetrahedron(2, 13),
        constructors.tetrahedron(3, 13),
        constructors.hesse_4net(7),
        constructors.hesse_4net(13),
        constructors.pencil_char_p(7),
        _image_with_every_pivot_in_component_0(constructors.hesse_4net(13), random.Random(40)),
        constructors.triangular_cyclic(3, 211),
    ]
    rng = random.Random(2024)
    checked = accepted = 0
    for net in families:
        points = all_points(net.p)
        for _ in range(260):
            comps = _mutant(net, rng, points)
            try:
                verify(comps, net.p, allow_char_exception=net.char_exception)
                got = None
            except NetViolation as exc:
                got = (str(exc), exc.line, exc.component, exc.count)
            assert got == verify_pairs_brute(comps, net.p), (net, comps)
            assert (got is None) == is_dual_net_brute(comps, net.p), (net, comps)
            checked += 1
            accepted += got is None
    assert checked >= 2000 and accepted < checked


def test_verify_work_bound(monkeypatch):
    # verify keys the other kn - 1 points by their line with each point of
    # component 0, joins that point with component 1 only, n^2 joins in
    # all, and tests no incidence; from_net and crossratio_4net only read
    # the line table (cross_ratio itself may check collinearity)
    nets_in = [constructors.pencil_char_p(19), constructors.triangular_cyclic(15, 181)]
    h4 = constructors.hesse_4net(13)
    calls = {"join": 0, "incident": 0}
    for name, real in (("join", join), ("incident", incident)):
        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        # raising=False: a module that does not import the name stays guarded
        for module in (nets, latin):
            monkeypatch.setattr(module, name, counted, raising=False)
    for net in nets_in:
        calls.update(join=0, incident=0)
        again = verify(net.components, net.p, allow_char_exception=net.char_exception)
        assert calls["incident"] == 0, net
        assert calls["join"] == net.n ** 2, (net, calls)
        assert again.lines == net.lines
    calls.update(join=0, incident=0)
    for net in nets_in:
        latin.from_net(net)
    crossratio_4net(h4)
    assert calls == {"join": 0, "incident": 0}


def test_verify_refuses_past_the_join_limit(monkeypatch):
    # the limit is on k n^2 and is checked before the first join: a net at
    # the limit verifies, and below it verify raises without joining
    joins = []
    monkeypatch.setattr(nets, "join", lambda *args: joins.append(args) or join(*args))
    net = constructors.triangular_cyclic(5, 11)
    monkeypatch.setattr(nets, "VERIFY_MAX_PAIRS", 3 * 5 ** 2)
    assert verify(net.components, 11).lines == net.lines
    monkeypatch.setattr(nets, "VERIFY_MAX_PAIRS", 3 * 5 ** 2 - 1)
    joins.clear()
    with pytest.raises(ValueError,
                       match=r"k n\^2 = 75 point pairs exceed .* VERIFY_MAX_PAIRS = 74"):
        verify(net.components, 11)
    assert joins == []


def test_center_search_and_classify_work_bounds(monkeypatch):
    # find_centers tests at most n^2 candidates, and classify restricts a
    # nonsingular cubic to at most 7 lines (the Fermat fit is one cubic)
    tested = []
    real_center = nets.is_perspective_center
    monkeypatch.setattr(nets, "is_perspective_center",
                        lambda net, T: tested.append(T) or real_center(net, T))
    for net in (constructors.triangular_cyclic(15, 181), constructors.pencil_char_p(19)):
        tested.clear()
        find_centers(net)
        assert 0 < len(tested) <= net.n ** 2, (net, len(tested))
    restricted = []
    real_line = curves.line_on_curve
    monkeypatch.setattr(curves, "line_on_curve",
                        lambda F, line, p: restricted.append(line) or real_line(F, line, p))
    net = constructors.algebraic_fermat(7, 61)
    report = classify(net)
    assert report["tag"] == "proper-algebraic" and report["cubic_space_dim"] == 1
    assert 0 < len(restricted) <= 7
    # 4 restrictions at most choose the reference line, and each zero on it
    # is smooth, so only its tangent is tested
    for F in [curves.fermat_cubic(61)] + [legendre_cubic(c, 13) for c in range(2, 13)]:
        restricted.clear()
        assert curves.rational_lines(F) == []
        assert 0 < len(restricted) <= 7, (F, len(restricted))


def test_lines_through_center_joins_once_per_point_of_component_0(monkeypatch):
    # a candidate T costs n joins, center or not: TP for each P of
    # component 0, then a lookup in the verifier's line table
    built = [constructors.conic_line(5, 11), constructors.pencil_char_p(19),
             constructors.algebraic_fermat(3, 19), constructors.triangular_cyclic(15, 181)]
    candidates = [sorted(find_centers(net)) + [(1, 2, 3), net.components[0][-1],
                                               net.components[2][0]] for net in built]
    joins = []
    real_join = nets.join
    monkeypatch.setattr(nets, "join", lambda P, Q, p: joins.append(P) or real_join(P, Q, p))
    centers = 0
    for net, points in zip(built, candidates):
        for T in points:
            joins.clear()
            classes = lines_through_center(net, T)
            assert len(joins) <= net.n, (net, T)
            if classes is not None:
                centers += 1
                assert len(classes) == net.n
                assert sorted(P for pts in classes.values() for P in pts) == \
                    sorted(net.all_net_points())
                # in component-0 order: constant_cross_ratio reads the first
                assert [pts[0] for pts in classes.values()] == list(net.components[0])
    assert centers >= 3


@pytest.mark.parametrize("build, want", [
    (lambda: constructors.triangular_cyclic(15, 181), 285),
    (lambda: constructors.conic_line(15, 31), 407),
    (lambda: constructors.tetrahedron(6, 61), 184),
    (lambda: constructors.pencil_char_p(19), 6213),
], ids=["triangular-15-181", "conic-line-15-31", "tetrahedron-6-61", "pencil-19"])
def test_find_centers_joins(monkeypatch, build, want):
    # 2n joins list the lines through A and B, the first two points of
    # component 0; a candidate lies on one of each, so lines_through_center
    # joins it with A and B last and a non-center fails sooner
    net = build()
    joins = []
    real_join = nets.join
    monkeypatch.setattr(nets, "join", lambda P, Q, p: joins.append(P) or real_join(P, Q, p))
    find_centers(net)
    assert len(joins) == want


def test_partitions_brute_counts():
    # 9!/(3!^3 3!) = 280 and 12!/(3!^4 4!) = 15400 unordered partitions
    for size, k, want in ((9, 3, 280), (12, 4, 15400)):
        parts = list(partitions_brute(list(range(size)), k))
        assert len(parts) == want
        assert len({frozenset(frozenset(b) for b in q) for q in parts}) == want
        assert all(sorted(x for b in q for x in b) == list(range(size))
                   for q in parts)
