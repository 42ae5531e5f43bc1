"""Shared independent oracles for the test suite."""

from itertools import combinations, permutations

from dualnets.plane import all_points


def quadrangle_criterion(square):
    """Frolov's quadrangle criterion: a latin square is isotopic to a group
    table iff whenever two quadrangles agree in three cells they agree in
    the fourth.  Exhaustive, only sane for small n."""
    n = len(square)
    rows = range(n)
    for a1 in rows:
        for a2 in rows:
            for d1 in rows:
                for d2 in rows:
                    for b1 in rows:
                        for b2 in rows:
                            if square[a1][b1] != square[a2][b2]:
                                continue
                            if square[d1][b1] != square[d2][b2]:
                                continue
                            for c1 in rows:
                                for c2 in rows:
                                    if square[a1][c1] != square[a2][c2]:
                                        continue
                                    if square[d1][c1] != square[d2][c2]:
                                        return False
    return True


def count_transversals_brute(square):
    """Transversal count by scanning all column permutations."""
    n = len(square)
    count = 0
    for perm in permutations(range(n)):
        symbols = {square[i][perm[i]] for i in range(n)}
        if len(symbols) == n:
            count += 1
    return count


def _collinear(P, Q, R, p):
    """Three points of PG(2,p) are collinear iff their determinant vanishes."""
    det = (P[0] * (Q[1] * R[2] - Q[2] * R[1])
           - P[1] * (Q[0] * R[2] - Q[2] * R[0])
           + P[2] * (Q[0] * R[1] - Q[1] * R[0]))
    return det % p == 0


def fermat_points_brute(p):
    """The points of X^3 + Y^3 = Z^3 over GF(p), by direct evaluation."""
    return [P for P in all_points(p)
            if (P[0] ** 3 + P[1] ** 3 - P[2] ** 3) % p == 0]


def partitions_brute(points, k):
    """Every partition of points into k unordered blocks of equal size.

    The first unused point always opens the next block, so each partition
    comes out exactly once.
    """
    if k == 0:
        yield []
        return
    n = len(points) // k
    first, rest = points[0], points[1:]
    for others in combinations(rest, n - 1):
        remaining = [P for P in rest if P not in others]
        for tail in partitions_brute(remaining, k - 1):
            yield [(first,) + others] + tail


def is_dual_net_brute(comps, p):
    """The dual-net axiom as stated: every line through points of two
    distinct components meets every component in exactly one point."""
    for i, j in combinations(range(len(comps)), 2):
        for P in comps[i]:
            for Q in comps[j]:
                for comp in comps:
                    if sum(1 for R in comp if _collinear(P, Q, R, p)) != 1:
                        return False
    return True


def is_center_brute(comps, T, p):
    """T is a perspective center: T is no net point, and the line through T
    and any net point meets every component in exactly one point."""
    if any(T in comp for comp in comps):
        return False
    for comp in comps:
        for P in comp:
            for other in comps:
                if sum(1 for R in other if _collinear(T, P, R, p)) != 1:
                    return False
    return True


def dual_net_partitions_brute(points, k, p):
    """Every partition of points into k components that is a dual k-net.
    Exhaustive over partitions, only sane for a dozen points or so."""
    return [comps for comps in partitions_brute(points, k)
            if is_dual_net_brute(comps, p)]


def line_points_brute(line, p):
    """The points of a line in all_points order, by scanning the whole plane."""
    return [P for P in all_points(p)
            if (P[0] * line[0] + P[1] * line[1] + P[2] * line[2]) % p == 0]


def line_on_curve_brute(F, line, p):
    """F vanishes at every point of the line.  For degree <= p this is
    containment: a nonzero binary form of degree d has at most d roots."""
    return all(F.eval_at(P) == 0 for P in line_points_brute(line, p))


def intersection_multiplicity_brute(F, line, P, p):
    """Order of vanishing at t = 0 of f(t) = F(P + t*Q), for the first other
    point Q of the line, with f interpolated from its values at
    t = 0..degree (Lagrange); degree + 1 when f is zero."""
    Q = next(R for R in line_points_brute(line, p) if R != P)
    d = F.degree
    coeffs = [0] * (d + 1)
    for j in range(d + 1):
        value = F.eval_at(tuple(P[i] + j * Q[i] for i in range(3)))
        basis, denom = [1], 1
        for m in range(d + 1):
            if m != j:
                basis = [(a - m * b) % p for a, b in zip([0] + basis, basis + [0])]
                denom = denom * (j - m) % p
        scale = value * pow(denom, -1, p) % p
        coeffs = [(c + scale * b) % p for c, b in zip(coeffs, basis)]
    return next((i for i, c in enumerate(coeffs) if c), d + 1)


def is_prime_brute(n):
    """Primality by trial division up to the square root."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True
