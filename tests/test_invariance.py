"""Projective and relabelling invariance of the verifier, the center search,
kappa and classify, each checked against itself.

Every net below is carried by a random matrix M of PGL(3,p) with its
components put in a random order.  verify must accept the image, the
centers of the image must be the images of the centers, and each center's
kappa (a 4-net's cross-ratio) may move only within its anharmonic orbit,
since reordering the components permutes the four points it is read on.
classify must give the same tag, cubic_space_dim and j_values.  Its cubic,
singular, singular_type and j describe the first irreducible member of a
basis of the cubic fit, and that basis depends on the coordinates, so they
are compared only when the fit is 1-dimensional; a conic-line net's line
and conic are unique and are compared always.  A one-point mutant of a net
is rejected, and so is its image.

The nets: the eight documents of the golden fixture, the derived nets of
hesse_4net(13), and the census nets of orders 3 and 4 at p = 7.
"""

import json
import os
from functools import lru_cache

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from census import census  # noqa: E402
from dualnets.cli import load_document  # noqa: E402
from dualnets.constructors import hesse_4net  # noqa: E402
from dualnets.curves import HomPoly  # noqa: E402
from dualnets.nets import (_CONIC_MONOMIALS, NetViolation, classify,  # noqa: E402
                           constant_cross_ratio, crossratio_4net, derived_net, find_centers,
                           verify)
from dualnets.plane import all_points, anharmonic_orbit, apply_point, det3  # noqa: E402
from util import apply_line, compose, mat_inv  # noqa: E402

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "cli_golden.json")
with open(FIXTURE) as fh:
    GOLDEN = json.load(fh)
# test_census pins 5 nets of order 3 and 16 of order 4 at p = 7
NETS = ([("golden", name) for name in GOLDEN] + [("hesse4-13", i) for i in range(4)]
        + [("census-3", i) for i in range(5)] + [("census-4", i) for i in range(16)])


@lru_cache(maxsize=None)
def nets_of(source):
    if source == "golden":
        return {name: load_document(doc["construct"]["stdout"]) for name, doc in GOLDEN.items()}
    if source == "hesse4-13":
        return [derived_net(hesse_4net(13), i) for i in range(4)]
    return census(int(source[-1]), 7)


@lru_cache(maxsize=None)
def plane(p):
    return all_points(p)


def scaled(F):
    """The coefficients of F scaled so that the first nonzero one is 1."""
    coeffs = sorted(F.coeffs.items())
    s = pow(coeffs[0][1], -1, F.p)
    return [(e, c * s % F.p) for e, c in coeffs]


def image(components, M, order, p):
    return [[apply_point(M, P, p) for P in components[i]] for i in order]


def check_classify(net, image_net, M, M_inv):
    info, mapped = classify(net), classify(image_net)
    p = net.p
    for key in ("tag", "cubic_space_dim", "j_values"):
        assert mapped.get(key) == info.get(key), key
    if info["tag"] == "conic-line":
        assert mapped["line"] == apply_line(M, info["line"], p)
        # the conic F = 0 carried by M is F(M^-1 X) = 0
        conic, image_conic = (HomPoly(2, dict(zip(_CONIC_MONOMIALS, c)), p)
                              for c in (info["conic"], mapped["conic"]))
        assert scaled(compose(conic, M_inv)) == scaled(image_conic)
    if info.get("cubic_space_dim") == 1:
        cubic, image_cubic = (HomPoly(3, dict(c["cubic"]), p) for c in (info, mapped))
        assert scaled(compose(cubic, M_inv)) == scaled(image_cubic)
        assert sorted(mapped["singular"]) == sorted(apply_point(M, P, p) for P in info["singular"])
        for key in ("singular_type", "j"):
            assert mapped.get(key) == info.get(key), key


@pytest.mark.parametrize("source, key", NETS)
@settings(derandomize=True, database=None, deadline=None, max_examples=4)
@given(data=st.data())
def test_nets_are_invariant_under_projectivities_and_reordering(source, key, data):
    net = nets_of(source)[key]
    p, k = net.p, net.k
    entry = st.integers(0, p - 1)
    M = data.draw(st.lists(st.lists(entry, min_size=3, max_size=3), min_size=3, max_size=3)
                  .filter(lambda M: det3(M, p) != 0), label="M")
    M_inv = mat_inv(M, p)
    order = data.draw(st.permutations(range(k)), label="order")
    mapped = verify(image(net.components, M, order, p), p,
                    allow_char_exception=net.char_exception)

    centers = find_centers(net)
    assert find_centers(mapped) == {apply_point(M, T, p) for T in centers}
    if k == 3:
        for T in centers:
            kappa = constant_cross_ratio(mapped, apply_point(M, T, p))
            assert kappa in anharmonic_orbit(constant_cross_ratio(net, T))
        check_classify(net, mapped, M, M_inv)
    else:
        assert crossratio_4net(mapped) in anharmonic_orbit(crossratio_4net(net))
        # dropping component i of the image drops component order[i] of the net
        for i in range(k):
            check_classify(derived_net(net, order[i]), derived_net(mapped, i), M, M_inv)

    # a net point replaced by any other point of the plane
    i = data.draw(st.integers(0, k - 1), label="component")
    j = data.draw(st.integers(0, net.n - 1), label="point")
    Q = data.draw(st.sampled_from(plane(p)).filter(lambda Q: Q != net.components[i][j]),
                  label="replacement")
    mutant = [list(c) for c in net.components]
    mutant[i][j] = Q
    for comps in (mutant, image(mutant, M, order, p)):
        with pytest.raises(NetViolation):
            verify(comps, p, allow_char_exception=net.char_exception)
