import random

from dualnets import constructors, curves, nets
from dualnets.nets import (DualNet, NetViolation, classify,
                           constant_cross_ratio, crossratio_4net, derived_net,
                           extend_to_4net, find_centers, is_perspective_center,
                           lines_through_center, net_lines, verify)
from dualnets.plane import PValue, all_points, anharmonic_orbit, incident, join
from util import is_center_brute, is_dual_net_brute, partitions_brute


def test_verify_accepts_and_normalizes():
    # scaled, unsorted input comes out normalized and sorted
    raw = constructors.conic_line(5, 11)
    scaled = [[tuple(3 * x % 11 for x in P) for P in reversed(comp)]
              for comp in raw.components]
    net = verify(scaled, 11)
    assert net.components == raw.components
    assert net.k == 3 and net.n == 5 and net.verified
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
    net = constructors.conic_line(5, 11)
    lines = net_lines(net)
    assert len(lines) == 25
    for line in lines:
        for comp in net.components:
            assert sum(1 for P in comp if incident(P, line, 11)) == 1


def test_perspective_center_conic_line():
    net = constructors.conic_line(5, 11)
    T = (0, 0, 1)
    assert is_perspective_center(net, T)
    assert find_centers(net) == {T}
    classes = lines_through_center(net, T)
    assert len(classes) == 5
    for line, pts in classes.items():
        assert set(pts) == {0, 1, 2}
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
                       ((1, 1, 2), (1, 1, 3))), False)
    assert lines_through_center(fake, (0, 0, 1)) is None


def test_no_centers_for_triangular():
    net = constructors.triangular_cyclic(5, 11)
    assert find_centers(net) == set()


def test_constant_cross_ratio_conic_line():
    for n, p, c in ((5, 11, 1), (7, 29, 2)):
        net = constructors.conic_line(n, p, c)
        kappa = constant_cross_ratio(net, (0, 0, 1))
        assert kappa == PValue.of(p - 1, p)


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


def test_classify_rejects_4nets():
    try:
        classify(constructors.hesse_4net(13))
        assert False
    except ValueError:
        pass


def test_extend_to_4net_from_hesse_derived():
    h4 = constructors.hesse_4net(13)
    for drop in range(4):
        three = derived_net(h4, drop)
        ext = extend_to_4net(three)
        assert ext is not None
        assert ext.k == 4
        assert set(ext.components[3]) == set(h4.components[drop])


def test_extend_to_4net_fails_for_conic_line():
    assert extend_to_4net(constructors.conic_line(5, 11)) is None
    assert extend_to_4net(constructors.triangular_cyclic(5, 11)) is None


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


def test_fermat_centers_are_corners():
    net = constructors.algebraic_fermat(3, 19)
    centers = find_centers(net)
    assert (0, 0, 1) in centers
    assert centers <= {(1, 0, 0), (0, 1, 0), (0, 0, 1)}
    for T in centers:
        kappa = constant_cross_ratio(net, T)
        v = kappa.value
        assert (v * v - v + 1) % 19 == 0


def test_pencil_net_has_centers():
    net = constructors.pencil_char_p(5)
    centers = find_centers(net)
    assert len(centers) >= 1
    for T in sorted(centers)[:3]:
        constant_cross_ratio(net, T)  # must not raise


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


def test_center_search_and_classify_work_bounds(monkeypatch):
    # find_centers tests at most n^2 candidates, and classify restricts a
    # cubic to at most 4 + 3(p + 1) lines (the Fermat fit is one cubic)
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
    assert 0 < len(restricted) <= 4 + 3 * (net.p + 1)


def test_partitions_brute_counts():
    # 9!/(3!^3 3!) = 280 and 12!/(3!^4 4!) = 15400 unordered partitions
    for size, k, want in ((9, 3, 280), (12, 4, 15400)):
        parts = list(partitions_brute(list(range(size)), k))
        assert len(parts) == want
        assert len({frozenset(frozenset(b) for b in q) for q in parts}) == want
        assert all(sorted(x for b in q for x in b) == list(range(size))
                   for q in parts)
