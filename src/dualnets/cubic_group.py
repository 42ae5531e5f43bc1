"""The abelian group on the cubic X^3 + Y^3 = Z^3 over GF(p), p = 1 (mod 3).

Identity is the inflection O = (1,-1,0); addition is chord-and-tangent.
The order-3 automorphism u: (x,y,z) -> (eps x, eps y, z) acts on the
group.  One search finds a u-invariant subgroup H and a base point P, and
the coset triple (H+P, H+u(P), H+u^2(P)) is a dual 3-net in perspective
position with center (0,0,1), which nets.verify decides.
"""

from functools import cached_property

from .curves import curve_points, fermat_cubic, restrict, tangent_line
from .gf import factorize, is_prime, nth_root_of_unity
from .plane import _base_points, normalize

FERMAT_PRIME_SCAN_CAP = 500
# the largest p CurveGroup accepts: listing the points takes p^2 Horner
# steps, and find_invariant_subgroup walks up to n multiples of every point
CURVE_GROUP_MAX_P = 1000


class CurveGroup:
    """All GF(p)-points of the Fermat cubic with the chord-tangent group law.

    The points are listed on first use of `points`, so refusing an order
    costs no listing.
    """

    def __init__(self, p: int):
        if p % 3 != 1:
            raise ValueError("p = 1 (mod 3) required, got p=%d" % p)
        if p > CURVE_GROUP_MAX_P:
            raise ValueError("p = %d exceeds the curve group limit CURVE_GROUP_MAX_P = %d"
                             % (p, CURVE_GROUP_MAX_P))
        self.p = p
        self.curve = fermat_cubic(p)
        self.O = normalize((1, -1, 0), p)
        r = nth_root_of_unity(p, 3)
        # smallest primitive cube root of unity, fixed per field for determinism
        self.epsilon = min(r, r * r % p)

    @cached_property
    def points(self):
        return tuple(curve_points(self.curve))

    def third_intersection(self, P, Q):
        """Third point of the curve on the line PQ (tangent line when P = Q),
        for points P, Q of the curve; that is not checked.

        Restricting the cubic to the line gives a binary cubic whose known
        roots are split off exactly, so tangencies and inflections need no
        special cases: the result may coincide with P or Q.
        """
        p = self.p
        if P == Q:
            B1, B2 = _base_points(tangent_line(self.curve, P), p)
            Q2 = B2 if B1 == P else B1
            g = restrict(self.curve, P, Q2)
            return normalize(tuple((g[3] * P[i] - g[2] * Q2[i]) % p for i in range(3)), p)
        g = restrict(self.curve, P, Q)
        return normalize(tuple((g[2] * P[i] - g[1] * Q[i]) % p for i in range(3)), p)

    def add(self, P, Q):
        return self.third_intersection(self.O, self.third_intersection(P, Q))

    def neg(self, P):
        return self.third_intersection(P, self.O)

    def scalar_mul(self, k, P):
        if k < 0:
            return self.scalar_mul(-k, self.neg(P))
        R = self.O
        A = P
        while k:
            if k & 1:
                R = self.add(R, A)
            A = self.add(A, A)
            k >>= 1
        return R

    def _multiples(self, P, limit=None):
        """The cyclic subgroup generated by P, as O, P, 2P, ... in order;
        None once it passes limit elements."""
        out, R = [self.O], P
        while R != self.O:
            if len(out) == limit:
                return None
            out.append(R)
            R = self.add(R, P)
        return out

    def order_of(self, P):
        return len(self._multiples(P))

    def u_auto(self, P):
        """The order-3 automorphism (x,y,z) -> (eps x, eps y, z)."""
        e = self.epsilon
        return normalize((P[0] * e % self.p, P[1] * e % self.p, P[2]), self.p)

    def find_invariant_subgroup(self, n):
        """A cyclic subgroup H of order n with u(H) = H, or None.

        None at once, before any point is listed, when n < 1, when n > 2p
        (past the Hasse bound p + 1 + 2 sqrt(p) on the group order, which
        keeps factorizing n cheap), or when 9 or a prime q = 2 (mod 3)
        divides n, for then no p has one.  u fixes O, so it is an
        automorphism, and P, u(P), u^2(P) lie on the line through P and
        (0,0,1), so they add up to O.  So the group is a module over Z[w],
        w^2 + w + 1 = 0, with u acting as w, and a u-invariant cyclic
        subgroup is Z[w]/(a), a of norm n, which is the sum of the
        Z[w]/(pi^e) over the prime powers pi^e of a.  Its additive group is
        cyclic only if each of theirs is.  But a prime q = 2 (mod 3) stays
        prime in Z[w], and Z[w]/(q^e) is (Z/q^e)^2; and 3 is a unit times
        (1 - w)^2, so for e >= 2 Z[w]/((1 - w)^e) maps onto
        Z[w]/(3) = (Z/3)^2.

        None also when n does not divide the group order (Lagrange).  Else
        scans points in lexicographic order for a generator g of order
        exactly n, walking at most n multiples of each; u(<g>) = <u(g)>, so
        <g> is u-invariant when it holds u(g).
        """
        if n < 1 or n > 2 * self.p or _no_invariant_cyclic_subgroup(n) or len(self.points) % n:
            return None
        for g in self.points:
            multiples = self._multiples(g, n)
            if multiples is None or len(multiples) < n:
                continue
            H = frozenset(multiples)
            if self.u_auto(g) in H:
                return g, H
        return None

    def subgroup_and_base_point(self, n):
        """(H, P): find_invariant_subgroup's H of order n, and the first
        point P with D = P - u(P) outside H; else ValueError("no
        subgroup/base point found: ...").

        Such a P makes H+P, H+u(P), H+u^2(P) pairwise disjoint: the other
        differences u(D), u^2(D) lie in the u-invariant H only when D does.
        """
        found = self.find_invariant_subgroup(n)
        if found is None:
            raise ValueError(
                "no subgroup/base point found: no u-invariant subgroup of order %d over GF(%d)"
                % (n, self.p))
        H = found[1]
        for P in self.points:
            if self.add(P, self.neg(self.u_auto(P))) not in H:
                return H, P
        raise ValueError(
            "no subgroup/base point found: every P has P - u(P) inside the "
            "order-%d subgroup over GF(%d)" % (n, self.p))

    def coset_net(self, H, P):
        """The coset triple (H+P, H+u(P), H+u^2(P)) as unsorted point lists;
        nets.verify decides whether it is a net (cosets that share a point
        are not).  The last two are the u-images of H+P, as u(H) = H, so
        each Q in H+P lies with u(Q), u^2(Q) on a line through (0,0,1), the
        center of the homology u, which is thus a perspective center."""
        coset = [self.add(h, P) for h in H]
        u_coset = [self.u_auto(Q) for Q in coset]
        return [coset, u_coset, [self.u_auto(Q) for Q in u_coset]]


def _no_invariant_cyclic_subgroup(n):
    """True when 9 or a prime q = 2 (mod 3) divides n; see
    CurveGroup.find_invariant_subgroup."""
    return n % 9 == 0 or any(q % 3 == 2 for q in factorize(n))


def find_fermat_prime_for_order(n):
    """Smallest prime p = 1 (mod 3), p > n, whose Fermat cubic has a
    u-invariant subgroup of order n with a valid base point; None if no
    prime up to FERMAT_PRIME_SCAN_CAP has one.  An order that
    find_invariant_subgroup rules out for every p costs no point listing.
    """
    for p in range(max(n + 1, 7), FERMAT_PRIME_SCAN_CAP + 1):
        if p % 3 == 1 and is_prime(p):
            try:
                CurveGroup(p).subgroup_and_base_point(n)
                return p
            except ValueError:
                pass
    return None
