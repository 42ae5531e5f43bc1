"""Property tests for the projective invariants in plane.

Deterministic (derandomize=True), over the primes p <= 101, and join and
meet also at p = 503.  The u properties start at p = 5: in characteristic
3 the harmonic value -1 is also equianharmonic, so u(-1) is 0/0.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from dualnets.gf import is_prime  # noqa: E402
from dualnets.plane import (PValue, anharmonic_orbit, apply_point, cross,  # noqa: E402
                            cross_ratio, det3, dot, join, meet, perspectivity,
                            u_from_quartic, u_invariant)
from util import cross_normalized_brute  # noqa: E402

PRIMES = [q for q in range(2, 102) if is_prime(q)]
PRIMES_FROM_5 = [q for q in PRIMES if q >= 5]

deterministic = settings(derandomize=True, database=None, deadline=None)


def points(p):
    return st.tuples(*[st.integers(0, p - 1)] * 3).filter(any)


def invertible_matrices(p):
    rows = st.tuples(*[st.integers(0, p - 1)] * 3)
    return st.tuples(rows, rows, rows).filter(lambda M: det3(M, p))


@st.composite
def collinear_quads(draw, p):
    """Four points A + tB (B for t = p) of one line, no three of them equal."""
    A, B, _ = draw(invertible_matrices(p))
    ts = draw(st.lists(st.integers(0, p), min_size=4, max_size=4).filter(
        lambda ts: all(ts.count(t) <= 2 for t in ts)))
    return [B if t == p else tuple((a + t * b) % p for a, b in zip(A, B)) for t in ts]


@deterministic
@given(st.data())
def test_cross_ratio_invariant_under_projectivities(data):
    p = data.draw(st.sampled_from(PRIMES))
    quad = data.draw(collinear_quads(p))
    M = data.draw(invertible_matrices(p))
    assert cross_ratio(*(apply_point(M, P, p) for P in quad), p) == cross_ratio(*quad, p)


@deterministic
@given(st.data())
def test_cross_ratio_invariant_under_perspectivities(data):
    p = data.draw(st.sampled_from(PRIMES[1:]))  # kappa not in {0, 1} needs p >= 3
    quad = data.draw(collinear_quads(p))
    T, axis = data.draw(st.tuples(points(p), points(p)).filter(
        lambda Ta: dot(Ta[1], Ta[0], p)))
    kappa = data.draw(st.integers(2, p - 1))
    M = perspectivity(T, axis, kappa, p)
    assert cross_ratio(*(apply_point(M, P, p) for P in quad), p) == cross_ratio(*quad, p)
    # and kappa is its ratio: (axis point, T, P, image of P) off the axis
    P = data.draw(points(p).filter(lambda P: dot(axis, P, p) and any(cross(T, P, p))))
    X = meet(join(T, P, p), axis, p)
    assert cross_ratio(X, T, P, apply_point(M, P, p), p) == PValue.of(kappa, p)


@deterministic
@given(st.data())
def test_u_invariant_constant_on_anharmonic_orbit(data):
    p = data.draw(st.sampled_from(PRIMES_FROM_5))
    k = PValue(*data.draw(st.tuples(st.integers(0, p - 1), st.integers(0, p - 1)).filter(any)),
               p)
    assert {u_invariant(other) for other in anharmonic_orbit(k)} == {u_invariant(k)}


@deterministic
@given(st.data())
def test_u_of_root_cross_ratio_matches_quartic_coefficients(data):
    p = data.draw(st.sampled_from(PRIMES_FROM_5))
    roots = data.draw(st.lists(st.integers(0, p - 1), min_size=4, max_size=4, unique=True))
    coeffs = [1]  # of prod (t - r), constant term first
    for r in roots:
        coeffs = [((coeffs[i - 1] if i else 0) - r * (coeffs[i] if i < len(coeffs) else 0)) % p
                  for i in range(len(coeffs) + 1)]
    k = cross_ratio(*((t, 1, 0) for t in roots), p)
    assert u_invariant(k) == u_from_quartic(*coeffs, p)


@st.composite
def triple_pairs(draw):
    """(p, u, v): triples as callers may pass them, unnormalized and
    negative; in a quarter of the pairs v is the same projective point as
    u, and in another quarter u or v is zero mod p."""
    p = draw(st.sampled_from([2, 3, 5, 7, 13, 503]))
    u, v = draw(st.lists(st.tuples(*[st.integers(-3 * p, 3 * p)] * 3), min_size=2, max_size=2))
    shape = draw(st.integers(0, 3))
    if shape == 2:
        s = draw(st.integers(1, p - 1))
        v = tuple(s * x + p * y for x, y in zip(u, v))
    elif shape == 3:
        u, v = draw(st.permutations([tuple(p * x for x in u), v]))
    return p, u, v


@settings(derandomize=True, database=None, deadline=None, max_examples=600)
@given(triple_pairs())
@example((7, (1, 2, 3), (8, 9, 10)))
@example((13, (0, 0, 13), (1, 2, 3)))
@example((13, (0, 0, 0), (0, 0, 0)))
def test_join_and_meet_match_normalized_cross_product(case):
    p, u, v = case
    try:
        want = cross_normalized_brute(u, v, p)
    except ValueError as exc:
        want = exc
    for fn, equal in ((join, "join of equal points %r"), (meet, "meet of equal lines %r")):
        if not isinstance(want, ValueError):
            assert fn(u, v, p) == want
            continue
        # a zero product: u or v is zero, else they are one projective point
        zero = not any(x % p for x in u) or not any(x % p for x in v)
        with pytest.raises(ValueError) as err:
            fn(u, v, p)
        assert str(err.value) == ("zero triple is not projective" if zero else equal % (u,))
