"""Latin squares attached to dual 3-nets: coordinatization, transversal
search, complete mappings, and the group-coordinatizability test.

Tables are tuples of row tuples over symbols 0..n-1.  Group tables are
normalized with identity 0.
"""


def from_net(net):
    """Coordinatize a verified 3-net as a latin square.

    L[i][j] = k where the net line through the i-th point of the first
    component and the j-th point of the second holds the k-th point of the
    third, read from the net-line table.  Component indexings follow the
    stored (sorted) order.
    """
    if net.k != 3:
        raise ValueError("latin squares come from 3-nets")
    index = [{P: i for i, P in enumerate(comp)} for comp in net.components]
    square = [[None] * net.n for _ in range(net.n)]
    for a, b, c in net.lines.values():
        square[index[0][a]][index[1][b]] = index[2][c]
    return tuple(tuple(row) for row in square)


def transversal_search(square):
    """n cells, one per row and column, carrying n distinct symbols.

    Returns the cells (i, j) in row order, or None.  A latin square that is
    isotopic to a group table T has no transversal when the counting
    obstruction holds for T: an isotopy (permuting rows, columns and
    symbols) carries transversals to transversals, and a transversal of a
    Cayley table is a complete mapping, theta(g) in row g.  Every other
    square goes to exhaustive backtracking, trying columns in increasing
    order.
    """
    if len(square) > 1:
        table = is_group_coordinatizable(square)
        if table is not None and _counting_obstruction(table):
            return None
    return _backtrack_transversal(square)


def _backtrack_transversal(square):
    """The first transversal in column order, as cells (i, j), or None."""
    n = len(square)
    cols_used = [False] * n
    syms_used = [False] * n
    col = [None] * n

    def rec(i):
        if i == n:
            return True
        for j in range(n):
            if cols_used[j]:
                continue
            s = square[i][j]
            if syms_used[s]:
                continue
            cols_used[j] = syms_used[s] = True
            col[i] = j
            if rec(i + 1):
                return True
            cols_used[j] = syms_used[s] = False
        return False

    return list(enumerate(col)) if rec(0) else None


def _commutator_subgroup(table):
    n = len(table)
    gens = set()
    for g in range(n):
        gi = table[g].index(0)
        for h in range(n):
            hi = table[h].index(0)
            gens.add(table[table[table[g][h]][gi]][hi])
    sub = {0} | gens
    changed = True
    while changed:
        changed = False
        for x in list(sub):
            for y in list(sub):
                z = table[x][y]
                if z not in sub:
                    sub.add(z)
                    changed = True
    return sub


def _counting_obstruction(table):
    """True when the product of all elements is nonzero in the abelianization.

    If theta is a complete mapping then g, theta(g) and g*theta(g) each run
    through the whole group, so in G/[G,G] the total sum s satisfies
    s + s = s, forcing s = 0.  A nonzero s therefore rules every candidate
    out at the root.  (s != 0 happens exactly when the Sylow 2-subgroup is
    nontrivial cyclic.)
    """
    n = len(table)
    comm = _commutator_subgroup(table)
    rep = [0] * n
    seen = {}
    for g in range(n):
        coset = frozenset(table[g][k] for k in comm)
        if coset not in seen:
            seen[coset] = min(coset)
        rep[g] = seen[coset]
    acc = 0
    for g in range(n):
        acc = rep[table[acc][g]]
    return acc != 0


def complete_mapping_exists(table):
    """Search for a complete mapping of a group table.

    A complete mapping is a permutation theta with g -> g*theta(g) also a
    permutation: the columns of a transversal of the table, theta(g) in
    row g.  Returns (True, theta) or (False, None).  The abelianized
    counting obstruction says no when it holds; otherwise the backtracking
    transversal search decides.  Right-translating by theta(0)^-1 makes any
    complete mapping fix 0, and the search tries column 0 first, so the
    witness fixes 0.
    """
    if len(table) > 1 and _counting_obstruction(table):
        return False, None
    cells = _backtrack_transversal(table)
    if cells is None:
        return False, None
    return True, [j for _, j in cells]


def element_orders(table):
    """Order of every element of a group table with identity 0."""
    n = len(table)
    orders = []
    for g in range(n):
        x, o = g, 1
        while x != 0:
            x = table[x][g]
            o += 1
        orders.append(o)
    return orders


def hall_paige_criterion(table):
    """True iff the Sylow 2-subgroup is trivial or non-cyclic.

    The Sylow 2-subgroup of order t (the 2-part of |G|) is cyclic exactly
    when some element has order t, so the test reduces to an order scan.
    """
    n = len(table)
    t = n & -n
    if t == 1:
        return True
    return all(o != t for o in element_orders(table))


def is_group_coordinatizable(square):
    """The coordinatizing group table if the square is isotopic to a group.

    Builds the principal loop isotope with identity square[0][0] (row and
    column relabelings making row 0 and column 0 the identity), relabels
    that identity to 0, and tests associativity exhaustively.  One test
    suffices: by Albert's theorem every loop principal isotope of a
    group-isotopic square is isomorphic to the group.  Returns None when
    the square is not a group isotope.
    """
    n = len(square)
    a = [square[i][0] for i in range(n)]
    b = [square[0][j] for j in range(n)]
    ainv = [0] * n
    binv = [0] * n
    for i in range(n):
        ainv[a[i]] = i
    for j in range(n):
        binv[b[j]] = j
    e = square[0][0]

    def sw(x):
        if x == e:
            return 0
        if x == 0:
            return e
        return x

    table = [[sw(square[ainv[sw(i)]][binv[sw(j)]]) for j in range(n)]
             for i in range(n)]
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if table[table[x][y]][z] != table[x][table[y][z]]:
                    return None
    return tuple(tuple(row) for row in table)


def cyclic_group(n):
    return tuple(tuple((i + j) % n for j in range(n)) for i in range(n))


def dihedral_group(m):
    """Dihedral group of order 2m: 0..m-1 rotations, m..2m-1 reflections."""
    n = 2 * m
    t = [[0] * n for _ in range(n)]
    for i in range(m):
        for j in range(m):
            t[i][j] = (i + j) % m
            t[i][m + j] = m + (j - i) % m
            t[m + i][j] = m + (i + j) % m
            t[m + i][m + j] = (j - i) % m
    return tuple(tuple(row) for row in t)


def direct_product(A, B):
    na, nb = len(A), len(B)
    t = []
    for x1 in range(na):
        for y1 in range(nb):
            row = []
            for x2 in range(na):
                for y2 in range(nb):
                    row.append(A[x1][x2] * nb + B[y1][y2])
            t.append(tuple(row))
    return tuple(t)


def group_catalog(max_order=16):
    """Named group tables of order <= max_order: cyclic, dihedral,
    elementary abelian, and mixed direct products."""
    cat = {}
    for n in range(2, max_order + 1):
        cat["Z%d" % n] = cyclic_group(n)
    for m in range(2, max_order // 2 + 1):
        cat["D%d" % m] = dihedral_group(m)
    specs = {
        "Z2xZ2": (2, 2),
        "Z2xZ4": (2, 4),
        "Z2xZ6": (2, 6),
        "Z2xZ8": (2, 8),
        "Z3xZ3": (3, 3),
        "Z3xZ4": (3, 4),
        "Z4xZ4": (4, 4),
        "Z2xZ2xZ2": (2, 2, 2),
        "Z2xZ2xZ3": (2, 2, 3),
        "Z2xZ2xZ4": (2, 2, 4),
        "Z2xZ2xZ2xZ2": (2, 2, 2, 2),
    }
    for name, factors in specs.items():
        order = 1
        for f in factors:
            order *= f
        if order > max_order:
            continue
        table = cyclic_group(factors[0])
        for f in factors[1:]:
            table = direct_product(table, cyclic_group(f))
        cat[name] = table
    return cat


def isomorphic(G, H):
    """An isomorphism between two group tables, or None.

    Both tables must carry identity 0; the result maps G-elements to
    H-elements.  Generator-image backtracking with partial closure, meant
    for orders <= 16.
    """
    n = len(G)
    if len(H) != n:
        return None
    og = element_orders(G)
    oh = element_orders(H)
    if sorted(og) != sorted(oh):
        return None

    def close(mapping, g, h):
        out = dict(mapping)
        out[g] = h
        changed = True
        while changed:
            changed = False
            items = list(out.items())
            for g1, h1 in items:
                for g2, h2 in items:
                    g3 = G[g1][g2]
                    h3 = H[h1][h2]
                    if g3 in out:
                        if out[g3] != h3:
                            return None
                    else:
                        out[g3] = h3
                        changed = True
        if len(set(out.values())) != len(out):
            return None
        return out

    def extend(mapping):
        if len(mapping) == n:
            return mapping
        g = min(x for x in range(n) if x not in mapping)
        taken = set(mapping.values())
        for h in range(n):
            if h in taken or oh[h] != og[g]:
                continue
            nxt = close(mapping, g, h)
            if nxt is not None:
                full = extend(nxt)
                if full is not None:
                    return full
        return None

    return extend({0: 0})
