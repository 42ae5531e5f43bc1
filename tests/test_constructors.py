import tracemalloc

from dualnets.constructors import (algebraic_fermat, conic_line, hesse_4net,
                                   pencil_char_p, tetrahedron,
                                   triangular_cyclic)
from dualnets.curves import fermat_cubic
from dualnets.nets import (DualNet, NetViolation, classify,
                           constant_cross_ratio, find_centers, verify)
from dualnets.plane import incident
from util import (dual_net_partitions_brute, fermat_points_brute,
                  is_center_brute)


def test_triangular_cyclic_carriers():
    net = triangular_cyclic(5, 11)
    assert isinstance(net, DualNet) and net.n == 5
    assert net.meta["family"] == "triangular"
    carriers = [(0, 1, 0), (1, 0, 0), (0, 0, 1)]
    for comp, line in zip(net.components, carriers):
        for P in comp:
            assert incident(P, line, 11)
    assert classify(net)["tag"] == "triangular"


def test_triangular_cyclic_c_parameter():
    net1 = triangular_cyclic(5, 11, 1)
    net2 = triangular_cyclic(5, 11, 2)
    assert net1.components[0] == net2.components[0]
    assert net1.components[1] != net2.components[1]
    assert isinstance(net2, DualNet)


def test_triangular_cyclic_errors():
    try:
        triangular_cyclic(5, 11, 0)
        assert False
    except ValueError as exc:
        assert "nonzero" in str(exc)
    try:
        triangular_cyclic(5, 13)  # 5 does not divide 12
        assert False
    except ValueError:
        pass


def test_pencil_char_p():
    net = pencil_char_p(5)
    assert net.n == net.p == 5
    assert net.char_exception
    assert net.meta["family"] == "pencil"
    info = classify(net)
    assert info["tag"] == "pencil"
    try:
        pencil_char_p(3)
        assert False
    except ValueError:
        pass


def test_conic_line_membership():
    for n, p, c in ((5, 11, 1), (7, 29, 2), (9, 19, 1)):
        net = conic_line(n, p, c)
        assert isinstance(net, DualNet) and net.n == n
        # first component on the line z = 0
        for P in net.components[0]:
            assert P[2] == 0
        # the other two on the conic XY = Z^2
        for comp in net.components[1:]:
            for x, y, z in comp:
                assert (x * y - z * z) % p == 0
        assert net.meta["expected_center"] == (0, 0, 1)
        assert classify(net)["tag"] == "conic-line"


def test_conic_line_errors():
    try:
        conic_line(4, 13)
        assert False
    except ValueError as exc:
        assert "odd" in str(exc)
    try:
        conic_line(5, 11, 0)
        assert False
    except ValueError:
        pass
    try:
        conic_line(5, 7)  # 5 does not divide 6
        assert False
    except ValueError:
        pass


def test_algebraic_fermat_points_on_curve():
    net = algebraic_fermat(3, 19)
    F = fermat_cubic(19)
    for P in net.all_net_points():
        assert F.eval_at(P) == 0
    assert net.meta["family"] == "fermat-coset"
    assert net.meta["expected_center"] == (0, 0, 1)
    assert (0, 0, 1) in find_centers(net)


def test_algebraic_fermat_larger_order():
    net = algebraic_fermat(7, 61)
    assert net.n == 7
    F = fermat_cubic(61)
    for P in net.all_net_points():
        assert F.eval_at(P) == 0
    assert (0, 0, 1) in find_centers(net)


def test_algebraic_fermat_impossible_at_13():
    # the whole group is 3-torsion there, so every base point collides
    for p in (13, 7):
        try:
            algebraic_fermat(3, p)
            assert False
        except ValueError as exc:
            assert "no subgroup/base point found" in str(exc)
        # the same verdict without the group law: the cubic has exactly the
        # nine points an order-3 coset net needs, and none of the nets they
        # form has its center at (0,0,1)
        points = fermat_points_brute(p)
        assert len(points) == 9
        found = dual_net_partitions_brute(points, 3, p)
        assert len(found) == 4
        assert not any(is_center_brute(comps, (0, 0, 1), p) for comps in found)


def test_algebraic_fermat_without_an_invariant_subgroup():
    # the Fermat cubic over GF(7) has 9 points, and 5 does not divide 9
    try:
        algebraic_fermat(5, 7)
        assert False
    except ValueError as exc:
        assert "no subgroup/base point found: no u-invariant subgroup" in str(exc)


def test_algebraic_fermat_parameter_errors():
    try:
        algebraic_fermat(3, 11)  # 11 = 2 mod 3
        assert False
    except ValueError:
        pass
    try:
        algebraic_fermat(20, 19)
        assert False
    except ValueError:
        pass


def test_tetrahedron_structure():
    net = tetrahedron(2, 13)
    assert net.n == 4 and isinstance(net, DualNet)
    params = net.meta["parameters"]
    assert params == {"alpha": 1, "beta": 1, "gamma": 12, "d1": 2, "d2": 2, "d3": 11}
    # each component splits over an opposite edge pair of the frame
    # tetrahedron: m points on a coordinate side, m on a line through (1,1,1)
    edge_pairs = [((1, 0, 0), (0, 1, 12)), ((0, 1, 0), (1, 0, 12)), ((0, 0, 1), (1, 12, 0))]
    for comp, (edge_a, edge_b) in zip(net.components, edge_pairs):
        on_a = [P for P in comp if incident(P, edge_a, 13)]
        rest = [P for P in comp if P not in on_a]
        assert len(on_a) == 2
        assert all(incident(P, edge_b, 13) for P in rest)


def test_tetrahedron_faces_are_small_nets():
    # each of the four tetrahedron faces carries a triangular 3-net of
    # order m, made of one half from every component
    p = 13
    net = tetrahedron(3, p)
    m = 3

    def split(comp, line_g):
        g = tuple(P for P in comp if incident(P, line_g, p))
        d = tuple(P for P in comp if not incident(P, line_g, p))
        assert len(g) == m and len(d) == m
        return g, d

    g1, d1 = split(net.components[0], (1, 0, 0))
    g2, d2 = split(net.components[1], (0, 1, 0))
    g3, d3 = split(net.components[2], (0, 0, 1))
    for face in ([g1, g2, g3], [g1, d2, d3], [d1, g2, d3], [d1, d2, g3]):
        assert verify(face, p).n == m
    try:
        verify([d1, d2, d3], p)
        assert False, "the three off-triangle halves do not form a net"
    except NetViolation:
        pass


def test_tetrahedron_no_realization():
    for m, p in ((3, 7), (2, 5)):
        try:
            tetrahedron(m, p)
            assert False
        except ValueError as exc:
            assert "no realization found" in str(exc)
    try:
        tetrahedron(2, 3)
        assert False
    except ValueError as exc:
        assert "no realization found" in str(exc)
    try:
        tetrahedron(1, 13)
        assert False
    except ValueError:
        pass


def test_tetrahedron_other_primes():
    net7 = tetrahedron(2, 7)
    assert net7.n == 4
    # small accident of GF(7): this order-4 net is perspective, and both
    # cross-ratios are roots of k^2 - k + 1
    assert find_centers(net7) == {(1, 2, 4), (1, 4, 2)}
    for T in ((1, 2, 4), (1, 4, 2)):
        kappa = constant_cross_ratio(net7, T).value
        assert (kappa * kappa - kappa + 1) % 7 == 0
    net11 = tetrahedron(2, 11)
    assert net11.n == 4
    assert find_centers(net11) == set()


def test_tetrahedron_memory_does_not_grow_with_p():
    # the coset representatives are walked, not stored: a set of all of
    # GF(P)* would take tens of MiB at this P
    tracemalloc.start()
    try:
        net = tetrahedron(2, 1000003)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert net.n == 4 and net.meta["parameters"]["alpha"] == 1
    assert peak < 2 ** 20


def test_hesse_4net():
    net = hesse_4net(13)
    assert net.k == 4 and net.n == 3
    assert net.components[0] == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    flat = net.all_net_points()
    assert len(set(flat)) == 12
    assert net.meta["family"] == "hesse"
    params = net.meta["pencil_parameters"]
    assert len(params) == 4 and (0, 1) in params


def test_hesse_4net_other_prime_and_errors():
    net = hesse_4net(7)
    assert net.k == 4 and net.n == 3
    try:
        hesse_4net(11)  # 11 = 2 mod 3: no cube roots of unity
        assert False
    except ValueError:
        pass


def test_constructors_are_deterministic():
    for build in (lambda: triangular_cyclic(5, 11),
                  lambda: conic_line(7, 29, 2),
                  lambda: algebraic_fermat(3, 19),
                  lambda: tetrahedron(2, 13),
                  lambda: hesse_4net(13)):
        assert build().components == build().components
