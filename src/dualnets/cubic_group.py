"""The abelian group on the cubic X^3 + Y^3 = Z^3 over GF(p), p = 1 (mod 3).

Identity is the inflection O = (1,-1,0); addition is chord-and-tangent.
The order-3 automorphism u: (x,y,z) -> (eps x, eps y, z) acts on the
group, and u-invariant subgroups H yield the coset triples
(H+P, H+u(P), H+u^2(P)) that form dual 3-nets in perspective position
with center (0,0,1).
"""

from .curves import curve_points, fermat_cubic, restrict, tangent_line
from .gf import is_prime, nth_root_of_unity
from .plane import _base_points, normalize

FERMAT_PRIME_SCAN_CAP = 500


class CurveGroup:
    """All GF(p)-points of the Fermat cubic with the chord-tangent group law."""

    def __init__(self, p: int):
        if p % 3 != 1:
            raise ValueError("p = 1 (mod 3) required, got p=%d" % p)
        self.p = p
        self.curve = fermat_cubic(p)
        self.O = normalize((1, -1, 0), p)
        self.points = tuple(sorted(curve_points(self.curve)))
        r = nth_root_of_unity(p, 3)
        # smallest primitive cube root of unity, fixed per field for determinism
        self.epsilon = min(r, r * r % p)
        self._order_cache = {}

    def third_intersection(self, P, Q):
        """Third point of the curve on the line PQ (tangent line when P = Q).

        Restricting the cubic to the line gives a binary cubic whose known
        roots are split off exactly, so tangencies and inflections need no
        special cases: the result may coincide with P or Q.
        """
        p = self.p
        if P == Q:
            B1, B2 = _base_points(tangent_line(self.curve, P), p)
            Q2 = B2 if B1 == P else B1
            g = restrict(self.curve, P, Q2)
            assert g[0] == 0 and g[1] == 0, "tangent restriction must vanish doubly"
            return normalize(tuple((g[3] * P[i] - g[2] * Q2[i]) % p for i in range(3)), p)
        g = restrict(self.curve, P, Q)
        assert g[0] == 0 and g[3] == 0, "both points must lie on the curve"
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

    def order_of(self, P):
        if P in self._order_cache:
            return self._order_cache[P]
        k, R = 1, P
        while R != self.O:
            R = self.add(R, P)
            k += 1
        self._order_cache[P] = k
        return k

    def u_auto(self, P):
        """The order-3 automorphism (x,y,z) -> (eps x, eps y, z)."""
        e = self.epsilon
        return normalize((P[0] * e % self.p, P[1] * e % self.p, P[2]), self.p)

    def find_invariant_subgroup(self, n):
        """A cyclic subgroup H of order n with u(H) = H, or None.

        Scans points in lexicographic order for a generator of order
        exactly n, then tests u-invariance of the generated subgroup
        directly.
        """
        for g in self.points:
            if self.order_of(g) != n:
                continue
            H = set()
            R = self.O
            for _ in range(n):
                H.add(R)
                R = self.add(R, g)
            if all(self.u_auto(h) in H for h in H):
                return g, frozenset(H)
        return None

    def coset_base_point(self, H):
        """The first point P with P - u(P) outside H, or None.

        Such a P makes the cosets H+P, H+u(P), H+u^2(P) pairwise disjoint.
        """
        return next((P for P in self.points
                     if self.add(P, self.neg(self.u_auto(P))) not in H), None)

    def coset_net(self, H, P):
        """The coset triple (H+P, H+u(P), H+u^2(P)) as sorted point tuples.

        Raises a coset collision error when D = P - u(P) lies in H.  That
        test decides disjointness: the other differences are u(D) and
        u^2(D), in the u-invariant H only when D is.  algebraic_fermat's
        verifier checks the net itself.
        """
        uP = self.u_auto(P)
        u2P = self.u_auto(uP)
        if self.add(P, self.neg(uP)) in H:
            raise ValueError("coset collision: P - u(P) lies in H")
        return tuple(tuple(sorted(self.add(h, Q) for h in H)) for Q in (P, uP, u2P))


def find_fermat_prime_for_order(n):
    """Smallest prime p = 1 (mod 3), p > n, whose Fermat cubic has a
    u-invariant subgroup of order n with a valid base point; None if no
    prime up to FERMAT_PRIME_SCAN_CAP has one."""
    for p in range(max(n + 1, 7), FERMAT_PRIME_SCAN_CAP + 1):
        if p % 3 != 1 or not is_prime(p):
            continue
        grp = CurveGroup(p)
        found = grp.find_invariant_subgroup(n)
        if found is None:
            continue
        if grp.coset_base_point(found[1]) is not None:
            return p
    return None
