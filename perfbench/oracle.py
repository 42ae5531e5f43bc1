"""Independent checks of dualnets outputs.

Everything here is re-derived from the definitions with its own small
projective arithmetic over GF(p); nothing calls into dualnets, so a bug in
the program cannot vouch for its own output.
"""


def normalize(v, p):
    v = [x % p for x in v]
    for x in v:
        if x:
            s = pow(x, -1, p)
            return tuple(y * s % p for y in v)
    raise ValueError("zero triple")


def cross(u, v, p):
    return ((u[1] * v[2] - u[2] * v[1]) % p,
            (u[2] * v[0] - u[0] * v[2]) % p,
            (u[0] * v[1] - u[1] * v[0]) % p)


def line_through(P, Q, p):
    return normalize(cross(P, Q, p), p)


def on_line(P, line, p):
    return (P[0] * line[0] + P[1] * line[1] + P[2] * line[2]) % p == 0


def points_on_line(line, p):
    """The p + 1 points of a line, from two spanning points."""
    a, b, c = line
    if a:
        B1, B2 = normalize((-b, a, 0), p), normalize((-c, 0, a), p)
    elif b:
        B1, B2 = (1, 0, 0), normalize((0, -c, b), p)
    else:
        B1, B2 = (1, 0, 0), (0, 1, 0)
    return [B2] + [normalize([x + t * y for x, y in zip(B1, B2)], p) for t in range(p)]


def _groups_through(T, comps, p):
    """Net points grouped by their line through T: {line: [(comp, P), ...]}."""
    groups = {}
    for ci, comp in enumerate(comps):
        for P in comp:
            groups.setdefault(line_through(T, P, p), []).append((ci, P))
    return groups


def is_dual_net(comps, p):
    """The dual k-net axiom, checked through every net point.

    Every line meeting two components passes through a net point P, so it
    suffices to group the other net points by their line through P.
    """
    k = len(comps)
    n = len(comps[0])
    pts = [P for comp in comps for P in comp]
    if any(len(c) != n for c in comps) or len(set(pts)) != k * n:
        return False
    for ci, comp in enumerate(comps):
        for P in comp:
            groups = {}  # line through P -> components of its points
            for cj, c in enumerate(comps):
                for Q in c:
                    if Q != P:
                        groups.setdefault(line_through(P, Q, p), [ci]).append(cj)
            for members in groups.values():
                if len(set(members)) > 1 and sorted(members) != list(range(k)):
                    return False
    return True


def center_kappas(T, comps, p):
    """None unless T is off the net and every line through T meets each
    component once; otherwise the set of cross-ratios (T, P1; P2, P3) over
    those lines (empty unless there are three components)."""
    if any(T in comp for comp in comps):
        return None
    groups = _groups_through(T, comps, p)
    k = len(comps)
    if len(groups) != len(comps[0]) or any(
            sorted(ci for ci, _ in g) != list(range(k)) for g in groups.values()):
        return None
    if k != 3:
        return set()
    return {kappa4(T, pts[0], pts[1], pts[2], p) for pts in map(dict, groups.values())}


def _coords(X, A, B, p):
    """(lam, mu) with X ~ lam*A + mu*B, for distinct collinear A, B, X."""
    for i in range(3):
        for j in range(i + 1, 3):
            det = (A[i] * B[j] - A[j] * B[i]) % p
            if det:
                return ((X[i] * B[j] - X[j] * B[i]) % p,
                        (A[i] * X[j] - A[j] * X[i]) % p)
    raise ValueError("A and B coincide")


def kappa4(A, B, C, D, p):
    """Cross-ratio (A, B; C, D) as an int, or None for infinity.

    With A at parameter 0 and B at infinity the pinned formula
    (t3 - t1)(t2 - t4) / ((t2 - t3)(t4 - t1)) reduces to t3 / t4.
    """
    l3, m3 = _coords(C, A, B, p)
    l4, m4 = _coords(D, A, B, p)
    num, den = m3 * l4 % p, l3 * m4 % p
    return None if den == 0 else num * pow(den, -1, p) % p


def kappa_4net(comps, p):
    """The set of cross-ratios (P1, P2; P3, P4) over the lines of a 4-net."""
    out = set()
    for P in comps[0]:
        for Q in comps[1]:
            line = line_through(P, Q, p)
            R = next(X for X in comps[2] if on_line(X, line, p))
            S = next(X for X in comps[3] if on_line(X, line, p))
            out.add(kappa4(P, Q, R, S, p))
    return out


def kappa_string(kappa):
    return "inf" if kappa is None else str(kappa)


def is_hexagonal(kappa, p):
    """kappa^2 - kappa + 1 = 0, the j = 0 condition."""
    return kappa is not None and (kappa * kappa - kappa + 1) % p == 0


def eval_form(coeffs, P, p):
    """A form given as [[exponent triple, coefficient], ...] at the point P."""
    return sum(c * P[0] ** e[0] * P[1] ** e[1] * P[2] ** e[2]
               for e, c in coeffs) % p


CONIC_MONOMIALS = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]


# ---- latin squares and groups ----------------------------------------------

def is_latin(square):
    n = len(square)
    syms = set(range(n))
    return (all(len(r) == n and set(r) == syms for r in square)
            and all({r[j] for r in square} == syms for j in range(n)))


def is_group_table(t):
    """Latin, identity 0, associative."""
    n = len(t)
    if not is_latin(t) or list(t[0]) != list(range(n)):
        return False
    if any(t[i][0] != i for i in range(n)):
        return False
    return all(t[t[x][y]][z] == t[x][t[y][z]]
               for x in range(n) for y in range(n) for z in range(n))


def element_orders(t):
    out = []
    for g in range(len(t)):
        x, o = g, 1
        while x != 0:
            x, o = t[x][g], o + 1
        out.append(o)
    return out


def sylow2_is_cyclic_nontrivial(t):
    """The Hall-Paige obstruction: a nontrivial cyclic Sylow 2-subgroup."""
    two = len(t) & -len(t)
    return two > 1 and two in element_orders(t)


def is_complete_mapping(t, theta):
    n = len(t)
    return (sorted(theta) == list(range(n))
            and sorted(t[g][theta[g]] for g in range(n)) == list(range(n)))


def is_isomorphism(G, H, phi):
    n = len(G)
    if sorted(phi[g] for g in range(n)) != list(range(n)):
        return False
    return all(phi[G[a][b]] == H[phi[a]][phi[b]] for a in range(n) for b in range(n))


def is_transversal(square, cells):
    n = len(square)
    return (len(cells) == n
            and sorted(i for i, _ in cells) == list(range(n))
            and sorted(j for _, j in cells) == list(range(n))
            and sorted(square[i][j] for i, j in cells) == list(range(n)))
