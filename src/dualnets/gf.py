"""Exact arithmetic in prime fields GF(p).

Field elements are plain integers in [0, p).  Every function takes the
modulus explicitly.
"""


# Primality is decided below this limit only.  Miller-Rabin with the first
# 12 primes as bases has no strong pseudoprime below 3.18 * 10^23 > 2^64.
PRIME_LIMIT = 1 << 64
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

PRIME_SCAN_CAP = 200000


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < 2^64; ValueError above."""
    if n >= PRIME_LIMIT:
        raise ValueError("%d is too large: primality is decided only below 2^64" % n)
    if n < 2:
        return False
    for q in _WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def factorize(n: int) -> dict:
    """Prime factorization as {prime: exponent}. Trial division, desk scale."""
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def nth_root_of_unity(p: int, n: int) -> int:
    """A primitive n-th root of unity in GF(p): multiplicative order exactly n.

    The first g^((p-1)/n), g = 1, 2, ..., of order exactly n; only n is
    factorized, never p-1.  Every such root generates the one subgroup of
    order n of GF(p)*.  Raises ValueError when n does not divide p-1 (no
    such root exists).
    """
    if n <= 0 or (p - 1) % n != 0:
        raise ValueError("n=%d does not divide p-1=%d" % (n, p - 1))
    primes = factorize(n)
    for g in range(1, p):
        xi = pow(g, (p - 1) // n, p)
        if all(pow(xi, n // q, p) != 1 for q in primes):
            return xi
    raise ValueError("no element of order %d found for p=%d" % (n, p))


def find_prime(n: int) -> int:
    """Smallest prime p > n with p = 1 (mod n).

    The congruence p = 1 (mod n) guarantees an n-th root of unity exists,
    so order-n cyclic constructions work over GF(p).  The scan stops at
    PRIME_SCAN_CAP and raises there, so no loop runs away.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    p = n + 1
    while p <= PRIME_SCAN_CAP:
        if p % n == 1 and is_prime(p):
            return p
        p += 1
    raise ValueError("no prime found below cap=%d for n=%d" % (PRIME_SCAN_CAP, n))
