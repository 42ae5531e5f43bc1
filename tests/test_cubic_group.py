import random
from itertools import combinations, product

import pytest

from dualnets.cubic_group import (CURVE_GROUP_MAX_P, FERMAT_PRIME_SCAN_CAP, CurveGroup,
                                  find_fermat_prime_for_order)
from dualnets.gf import is_prime
from dualnets import constructors, cubic_group, nets

from util import collinear_brute, find_invariant_subgroup_walk

KNOWN_POINTS_13 = [
    (0, 1, 1), (0, 1, 3), (0, 1, 9),
    (1, 0, 1), (1, 0, 3), (1, 0, 9),
    (1, 4, 0), (1, 10, 0), (1, 12, 0),
]


def test_requires_cube_roots_in_field():
    try:
        CurveGroup(11)
        assert False, "11 = 2 mod 3"
    except ValueError:
        pass


def test_point_enumeration_p13():
    G = CurveGroup(13)
    assert list(G.points) == sorted(KNOWN_POINTS_13)
    assert G.O == (1, 12, 0)
    assert G.epsilon == 3


def test_group_axioms_exhaustive_p13():
    G = CurveGroup(13)
    pts = G.points
    for P in pts:
        assert G.add(P, G.O) == P
        assert G.add(G.O, P) == P
        assert G.add(P, G.neg(P)) == G.O
    for P, Q in product(pts, repeat=2):
        assert G.add(P, Q) == G.add(Q, P)
        assert G.add(P, Q) in pts
    for P, Q, R in product(pts, repeat=3):
        assert G.add(G.add(P, Q), R) == G.add(P, G.add(Q, R))


def test_group_is_full_three_torsion_p13():
    G = CurveGroup(13)
    orders = sorted(G.order_of(P) for P in G.points)
    assert orders == [1] + [3] * 8


def test_collinear_iff_sum_zero_exhaustive_p13():
    G = CurveGroup(13)
    pts = G.points
    for P, Q, R in combinations(pts, 3):
        sums_zero = G.add(G.add(P, Q), R) == G.O
        assert collinear_brute(P, Q, R, 13) == sums_zero
    # tangent case: 2P + Q = 0 iff Q is the third point of the tangent at P
    for P in pts:
        Q = G.third_intersection(P, P)
        assert G.add(G.add(P, P), Q) == G.O


def test_scalar_mul():
    G = CurveGroup(13)
    for P in G.points:
        assert G.scalar_mul(0, P) == G.O
        assert G.scalar_mul(1, P) == P
        assert G.scalar_mul(3, P) == G.O
        assert G.scalar_mul(-1, P) == G.neg(P)
        assert G.scalar_mul(2, P) == G.add(P, P)


def test_u_automorphism_p13():
    G = CurveGroup(13)
    pts = G.points
    for P in pts:
        assert G.u_auto(G.u_auto(G.u_auto(P))) == P
        assert G.u_auto(P) in pts
    for P, Q in product(pts, repeat=2):
        assert G.u_auto(G.add(P, Q)) == G.add(G.u_auto(P), G.u_auto(Q))
    fixed = {P for P in pts if G.u_auto(P) == P}
    assert fixed == {(1, 4, 0), (1, 10, 0), (1, 12, 0)}


@pytest.mark.parametrize("p", [7, 13, 19, 61, 151])
def test_u_orbit_adds_up_to_the_identity(p):
    # P, u(P) and u^2(P) lie on one line, so u^2 + u + 1 = 0 on the group:
    # the fact that makes the group a module over Z[w], w^2 + w + 1 = 0
    G = CurveGroup(p)
    for P in G.points:
        uP = G.u_auto(P)
        assert G.add(G.add(P, uP), G.u_auto(uP)) == G.O, P


def test_invariant_subgroup_p13():
    G = CurveGroup(13)
    found = G.find_invariant_subgroup(3)
    assert found is not None
    gen, H = found
    assert H == frozenset({(1, 12, 0), (1, 4, 0), (1, 10, 0)})
    assert gen in H
    assert G.find_invariant_subgroup(9) is None  # no cyclic subgroup of order 9
    assert G.find_invariant_subgroup(2) is None


def test_invariant_subgroup_matches_the_whole_walk():
    # Lagrange's test and the cut after n multiples find the same first
    # generator as walking every point's whole subgroup
    for p in range(7, 100, 6):
        if not is_prime(p):
            continue
        G = CurveGroup(p)
        for n in range(-1, 13):
            assert G.find_invariant_subgroup(n) == find_invariant_subgroup_walk(G, n), (p, n)


def test_coset_net_always_collides_p13():
    # the curve group is full 3-torsion, so P - u(P) lands in the invariant
    # subgroup for every P: no order-3 coset net exists over GF(13), the
    # search refuses order 3, and verify refuses the coset triple of every P
    G = CurveGroup(13)
    with pytest.raises(ValueError, match=r"^no subgroup/base point found: every P has "
                       r"P - u\(P\) inside the order-3 subgroup over GF\(13\)$"):
        G.subgroup_and_base_point(3)
    _, H = G.find_invariant_subgroup(3)
    for P in G.points:
        assert G.add(P, G.neg(G.u_auto(P))) in H
        with pytest.raises(nets.NetViolation):
            nets.verify(G.coset_net(H, P), 13)


def test_coset_net_p19_verifies_with_center():
    # the first invariant subgroup, and the first point P with P - u(P)
    # outside it
    G = CurveGroup(19)
    H, base = G.subgroup_and_base_point(3)
    assert H == G.find_invariant_subgroup(3)[1]
    assert base == next(P for P in G.points if G.add(P, G.neg(G.u_auto(P))) not in H)
    comps = G.coset_net(H, base)
    assert len(comps) == 3
    net = nets.verify(comps, 19)
    assert net.n == 3
    assert nets.is_perspective_center(net, (0, 0, 1))


def test_coset_net_preserves_u_action():
    # u permutes the three cosets cyclically, so the component point sets
    # map onto each other under u
    G = CurveGroup(19)
    c1, c2, c3 = (set(c) for c in G.coset_net(*G.subgroup_and_base_point(3)))
    assert {G.u_auto(P) for P in c1} == c2
    assert {G.u_auto(P) for P in c2} == c3
    assert {G.u_auto(P) for P in c3} == c1


def test_coset_net_matches_the_add_definition():
    # the u-images of H+P are the cosets H+u(P) and H+u^2(P), for every
    # point P of the curve and every u-invariant subgroup H found: orders
    # 1 and 3 at each p, 7 and 21 at p = 61, 13 and 39 at p = 97, 19 at
    # p = 151
    for p in (13, 19, 61, 97, 151):
        G = CurveGroup(p)
        for n in range(1, 40):
            found = G.find_invariant_subgroup(n)
            if found is None:
                continue
            H = found[1]
            for P in G.points:
                uP = G.u_auto(P)
                want = [[G.add(h, Q) for h in H] for Q in (P, uP, G.u_auto(uP))]
                got = G.coset_net(H, P)
                assert [sorted(c) for c in got] == [sorted(c) for c in want], (p, n, P)


def test_find_fermat_prime_for_order():
    assert find_fermat_prime_for_order(3) == 19
    assert find_fermat_prime_for_order(7) == 61
    # the scan starts above n and stops at FERMAT_PRIME_SCAN_CAP = 500
    assert find_fermat_prime_for_order(499) is None


def ruled_out(n):
    """9 or a prime q = 2 (mod 3) divides n: no cyclic Z[w]-module of order n."""
    return n % 9 == 0 or any(n % q == 0 and is_prime(q) for q in range(2, n + 1, 3))


def test_fermat_scan_matches_the_module_argument(monkeypatch):
    # with find_invariant_subgroup's rule, orders 2..60 give a prime
    # exactly where the argument allows one
    found = {n: find_fermat_prime_for_order(n) for n in range(2, 61)}
    assert {n: p for n, p in found.items() if p is not None} == {
        3: 19, 7: 61, 13: 97, 19: 151, 21: 163, 31: 313, 37: 331, 39: 379,
        43: 349, 49: 409, 57: 487}
    assert all(cubic_group._no_invariant_cyclic_subgroup(n) == ruled_out(n)
               for n in range(1, FERMAT_PRIME_SCAN_CAP + 1))
    # with the rule switched off, find_invariant_subgroup walks every
    # point, and the whole scan, to FERMAT_PRIME_SCAN_CAP, agrees on a few
    # orders of each kind: q = 5, 9 | n, and allowed orders
    monkeypatch.setattr(cubic_group, "_no_invariant_cyclic_subgroup", lambda n: False)
    for n in (5, 9, 3, 7, 13, 21):
        assert find_fermat_prime_for_order(n) == found[n], n


def test_refusals_list_no_point(monkeypatch):
    # orders the Z[w] rule excludes, and p <= n, are refused before the
    # curve's points are listed, with the messages of the listing search
    def forbidden(*args):
        raise AssertionError("forbidden call")

    monkeypatch.setattr(cubic_group, "curve_points", forbidden)
    assert "points" not in vars(CurveGroup(997))
    for n, p in ((500, 997), (4, 997), (9, 37), (2, 7)):
        with pytest.raises(ValueError, match=r"^no subgroup/base point found: no u-invariant "
                           r"subgroup of order %d over GF\(%d\)$" % (n, p)):
            constructors.algebraic_fermat(n, p)
    with pytest.raises(ValueError, match=r"^p must exceed n$"):
        constructors.algebraic_fermat(400, 397)
    # an order past the Hasse bound is refused without factorizing it
    monkeypatch.setattr(cubic_group, "factorize", forbidden)
    assert CurveGroup(7).find_invariant_subgroup(10 ** 18 + 3) is None


def test_curve_group_refuses_past_its_limit():
    # 1009 = 1 (mod 3) is a prime past CURVE_GROUP_MAX_P
    try:
        CurveGroup(1009)
        assert False
    except ValueError as exc:
        assert "CURVE_GROUP_MAX_P = %d" % CURVE_GROUP_MAX_P in str(exc)


def test_third_intersection_stays_on_curve():
    G = CurveGroup(19)
    rng = random.Random(1)
    pts = list(G.points)
    for _ in range(40):
        P, Q = rng.choice(pts), rng.choice(pts)
        R = G.third_intersection(P, Q)
        assert G.curve.eval_at(R) == 0
        if P != Q and P != R and Q != R:
            assert collinear_brute(P, Q, R, 19)
