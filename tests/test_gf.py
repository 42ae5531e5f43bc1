from dualnets.gf import (PRIME_LIMIT, factorize, find_prime, is_prime, legendre,
                         nth_root_of_unity, primitive_root, sqrt_mod)
from util import is_prime_brute


def test_is_prime_small_table():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    assert not is_prime(1)
    assert not is_prime(0)
    assert not is_prime(-7)


def test_is_prime_matches_trial_division():
    for n in range(-3, 10 ** 5):
        assert is_prime(n) == is_prime_brute(n), n
    carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                  321197185, 5394826801, 232250619601, 9746347772161]
    # the least strong pseudoprimes to all prime bases up to 2, 3, 5, 7, 11
    # and 13, and one to all prime bases up to 23
    strong = [2047, 1373653, 25326001, 3215031751, 2152302898747,
              3474749660383, 3825123056546413051]
    for n in carmichael + strong:
        assert not is_prime_brute(n) and not is_prime(n), n
    # primes too large for the oracle: 2^61 - 1 (Mersenne), 10^18 + 3 and
    # 2^64 - 59, the largest prime below the limit
    for n in (2 ** 61 - 1, 10 ** 18 + 3, 2 ** 64 - 59):
        assert is_prime(n), n
    assert not is_prime(2 ** 64 - 1)
    for n in (PRIME_LIMIT, PRIME_LIMIT + 13, 318665857834031151167461):
        try:
            is_prime(n)
            assert False, "no verdict above the limit"
        except ValueError as exc:
            assert "2^64" in str(exc)


def test_factorize():
    assert factorize(360) == {2: 3, 3: 2, 5: 1}
    assert factorize(97) == {97: 1}
    assert factorize(1) == {}


def test_primitive_root_orders():
    for p in (7, 11, 13, 101):
        g = primitive_root(p)
        powers = {pow(g, k, p) for k in range(1, p)}
        assert len(powers) == p - 1


def test_sqrt_mod_13_frozen():
    # squares mod 13: 1,3,4,9,10,12
    assert sqrt_mod(4, 13) == (2, 11)
    assert set(sqrt_mod(10, 13)) == {6, 7}
    assert sqrt_mod(2, 13) is None
    assert sqrt_mod(0, 13) == (0, 0)


def test_sqrt_mod_agrees_with_legendre_exhaustively():
    for p in (7, 11, 13, 29, 101):
        residues = {x * x % p for x in range(1, p)}
        for a in range(p):
            roots = sqrt_mod(a, p)
            if a == 0:
                assert roots == (0, 0)
                assert legendre(a, p) == 0
            elif a in residues:
                assert legendre(a, p) == 1
                r1, r2 = roots
                assert r1 * r1 % p == a
                assert r2 * r2 % p == a
                assert (r1 + r2) % p == 0
            else:
                assert legendre(a, p) == -1
                assert roots is None


def test_nth_root_of_unity_exact_order():
    for p, n in [(13, 3), (13, 4), (11, 5), (29, 7), (19, 9)]:
        xi = nth_root_of_unity(p, n)
        assert pow(xi, n, p) == 1
        for d in range(1, n):
            if n % d == 0:
                assert pow(xi, d, p) != 1


def test_nth_root_of_unity_rejects_bad_order():
    try:
        nth_root_of_unity(11, 3)
        assert False, "3 does not divide 10"
    except ValueError:
        pass


def test_find_prime():
    assert find_prime(5) == 11
    assert find_prime(3, require_cubic=True) == 7
    assert find_prime(4, require_cubic=True) == 13
    assert find_prime(9) == 19
    p = find_prime(7, require_cubic=True)
    assert p % 7 == 1 and p % 3 == 1 and is_prime(p)


def test_find_prime_congruences_hold_generally():
    for n in range(3, 40):
        p = find_prime(n)
        assert is_prime(p) and p > n and p % n == 1
        q = find_prime(n, require_cubic=True)
        assert is_prime(q) and q % n == 1 and q % 3 == 1

