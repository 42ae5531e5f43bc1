"""Exact arithmetic in prime fields GF(p).

Field elements are plain integers in [0, p).  Every function takes the
modulus explicitly.
"""


# Primality is decided below this limit only.  Miller-Rabin with the first
# 12 primes as bases has no strong pseudoprime below 3.18 * 10^23 > 2^64.
PRIME_LIMIT = 1 << 64
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


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


def primitive_root(p: int) -> int:
    """Smallest primitive root mod p, by order checks against the factorization of p-1."""
    fac = factorize(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in fac):
            return g
    raise ValueError("no primitive root found for p=%d" % p)


def legendre(a: int, p: int) -> int:
    """Legendre symbol: 1 for a nonzero square, -1 for a non-square, 0 for 0."""
    ls = pow(a % p, (p - 1) // 2, p)
    return -1 if ls == p - 1 else ls


def sqrt_mod(a: int, p: int):
    """Square roots of a mod p.

    Returns the pair (r, p-r) with r*r = a and r the smaller root when a
    is a nonzero square, (0, 0) when a = 0, and None when a is a
    non-residue.  Tonelli-Shanks.
    """
    a = a % p
    if a == 0:
        return (0, 0)
    if legendre(a, p) != 1:
        return None
    if p % 4 == 3:
        r = pow(a, (p + 1) // 4, p)
        return (min(r, p - r), max(r, p - r))
    # write p-1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return (min(r, p - r), max(r, p - r))


def nth_root_of_unity(p: int, n: int) -> int:
    """A primitive n-th root of unity in GF(p): multiplicative order exactly n.

    Raises ValueError when n does not divide p-1 (no such root exists).
    """
    if n <= 0 or (p - 1) % n != 0:
        raise ValueError("n=%d does not divide p-1=%d" % (n, p - 1))
    g = primitive_root(p)
    return pow(g, (p - 1) // n, p)


def find_prime(n: int, require_cubic: bool = False, cap: int = 200000) -> int:
    """Smallest prime p > n with p = 1 (mod n), and p = 1 (mod 3) if require_cubic.

    The congruence p = 1 (mod n) guarantees an n-th root of unity exists,
    so order-n cyclic constructions work over GF(p).  A scan cap guards
    against runaway loops; hitting it raises.
    """
    if n < 3:
        raise ValueError("n must be >= 3")
    p = n + 1
    while p <= cap:
        if p % n == 1 and (not require_cubic or p % 3 == 1) and is_prime(p):
            return p
        p += 1
    raise ValueError("no prime found below cap=%d for n=%d" % (cap, n))
