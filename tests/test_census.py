"""The census of dual 3-nets of orders 3 and 4 with center (0,0,1) over
GF(7), checked against the exhaustive definitions, and the paper's
corollary at those orders: a 4-net whose derived 3-nets a group
coordinatizes has order 3.  At order n = p, outside the corollary's
hypothesis n < p, an affine 4-net over GF(5) and GF(7) breaks it."""

from functools import lru_cache

import pytest

from census import CENTER, census, order3_net
from dualnets import latin
from dualnets.nets import (NetViolation, classify, constant_cross_ratio, crossratio_4net,
                           derived_net, extend_to_4net, find_centers, verify)
from dualnets.plane import all_points
from util import is_center_brute, kappas_4net_brute, kappas_at_center_brute

P = 7


@lru_cache(maxsize=None)
def census_at_p(n):
    return census(n, P)


@pytest.mark.parametrize("n", [3, 4])
def test_census_centers_and_kappa_match_the_oracles(n):
    found = census_at_p(n)
    assert found
    plane = all_points(P)
    for net in found:
        assert net.n == n
        centers = find_centers(net)
        assert CENTER in centers
        assert centers == {T for T in plane if is_center_brute(net.components, T, P)}
        for T in centers:
            assert kappas_at_center_brute(net.components, T, P) == {constant_cross_ratio(net, T)}


def test_order_3_census():
    found = census_at_p(3)
    kappas = [constant_cross_ratio(net, CENTER).value for net in found]
    assert sorted(kappas) == [2, 3, 4, 5, 6]
    for net, kappa in zip(found, kappas):
        sixth_root = (kappa * kappa - kappa + 1) % P == 0  # kappa in {3, 5}
        assert len(find_centers(net)) == (3 if sixth_root else 1)
        assert classify(net)["tag"] == ("proper-algebraic" if sixth_root else "conic-line")
        h4 = extend_to_4net(net)
        assert (h4 is not None) == sixth_root, kappa
        if h4 is not None:
            assert kappas_4net_brute(h4.components, P) == {crossratio_4net(h4)}
            # the corollary at order 3: every derived 3-net is a group's
            for i in range(4):
                assert latin.is_group_coordinatizable(latin.from_net(derived_net(h4, i)))


@pytest.mark.parametrize("p", [7, 11, 13])
def test_order_3_census_is_the_closed_form(p):
    found = [net.components for net in census(3, p)]
    assert found == sorted(order3_net(kappa, p).components for kappa in range(2, p))


def test_order_3_closed_form_at_p31():
    # over every kappa: the conic-line nets are kappa in {-1, 2, 1/2}, and
    # the nets with 3 centers, which extend to 4-nets, have kappa^2 - kappa
    # + 1 = 0
    p = 31
    conic = {p - 1, 2, pow(2, -1, p)}
    for kappa in range(2, p):
        net = order3_net(kappa, p)
        assert constant_cross_ratio(net, CENTER).value == kappa
        assert classify(net)["tag"] == ("conic-line" if kappa in conic
                                        else "proper-algebraic"), kappa
        sixth_root = (kappa * kappa - kappa + 1) % p == 0
        assert len(find_centers(net)) == (3 if sixth_root else 1), kappa
        assert (extend_to_4net(net) is not None) == sixth_root, kappa


@pytest.mark.parametrize("p, centers, kappa", [(5, 15, 3), (7, 35, 6)])
def test_order_p_4net_has_group_derived_nets(p, centers, kappa):
    """The corollary needs the abstract's hypothesis that the order is
    smaller than the characteristic: at n = p the four affine rows y = 0..3
    form a 4-net whose four derived 3-nets a group coordinatizes."""
    rows = [[(a, y, 1) for a in range(p)] for y in range(4)]
    with pytest.raises(NetViolation, match="must exceed the order"):
        verify(rows, p)
    h4 = verify(rows, p, allow_char_exception=True)
    assert (h4.k, h4.n) == (4, p)
    assert crossratio_4net(h4).value == kappa
    for i in range(4):
        net = derived_net(h4, i)
        assert latin.is_group_coordinatizable(latin.from_net(net))
        assert classify(net)["tag"] == "pencil"
        assert len(find_centers(net)) == centers


def test_order_4_census():
    found = census_at_p(4)
    assert len(found) == 16
    catalog = latin.group_catalog(4)
    for net in found:
        assert len(find_centers(net)) == 2
        assert classify(net)["tag"] == "proper-algebraic"
        group = latin.is_group_coordinatizable(latin.from_net(net))
        assert latin.isomorphic(group, catalog["Z2xZ2"]) is not None
        assert latin.isomorphic(group, catalog["Z4"]) is None
        assert extend_to_4net(net) is None


def test_census_takes_orders_3_and_4_only():
    for n in (2, 5):
        with pytest.raises(ValueError, match="^the normal form forces the points of orders "
                                             "3 and 4 only$"):
            census(n, P)
