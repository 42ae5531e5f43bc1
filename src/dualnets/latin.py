"""Latin squares attached to dual 3-nets: coordinatization, transversal
search, complete mappings, and the group-coordinatizability test.

Tables are tuples of row tuples over symbols 0..n-1.  Group tables are
normalized with identity 0.

A group table has no transversal when its Sylow 2-subgroup is nontrivial
cyclic (Hall and Paige), which one scan of element orders decides; both
searches answer no from that scan.  Otherwise one backtracking search
finds transversals.  For a group table it is pruned by index-2 quotient
counting: a homomorphism chi of G onto Z/2 has
chi(g*h) = chi(g) + chi(h), so a transversal, which meets each row, column
and symbol once, holds n/4 cells of each type (chi(row), chi(column)); a
partial transversal with no room left for a type under some chi is cut.
The count is necessary for a completion, so the search returns the same
first transversal as without it, only sooner.
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
    isotopic to a group table T has no transversal when T fails
    hall_paige_criterion, the Sylow-2 order scan: an isotopy (permuting
    rows, columns and symbols) carries transversals to transversals, and a
    transversal of a Cayley table is a complete mapping, theta(g) in row g.
    Every other square goes to exhaustive backtracking, trying columns in
    increasing order.
    """
    if len(square) > 1:
        table = is_group_coordinatizable(square)
        if table is not None and not hall_paige_criterion(table):
            return None
    return _backtrack_transversal(square)


def _backtrack_transversal(square, characters=()):
    """The first transversal in column order, as cells (i, j), or None.

    characters, for a group table with identity 0, are onto homomorphisms
    chi: G -> Z/2 as 0/1 lists over the elements, labelling rows, columns
    and symbols alike.  Every cell has chi(i*j) = chi(i) + chi(j), so its
    type (chi(i), chi(j)) also fixes chi of its symbol.  Say m cells are
    left to place, and a, b, c of the free rows, columns and symbols have
    chi = 0.  A completion with x cells of type (0, 0) has a - x of type
    (0, 1), b - x of type (1, 0) and c - x of type (1, 1), and these add
    up to m, so x = (a + b + c - m)/2 must be a whole number with
    0 <= x <= min(a, b, c).  Placing a cell of one type lowers that type's
    count by one and leaves the other three, so at the root (a = b = c =
    n/2) every type needs n/4 cells, and the search skips a cell as soon as
    some character has no room left for its type.  (When 4 does not divide
    n there is no transversal, and rooms of n // 4 cells hold fewer than n.)
    The test is only a necessary condition for a completion, so it cuts
    dead subtrees and nothing else: the first transversal found is the
    same as without it.
    """
    n = len(square)
    cols_used = [False] * n
    syms_used = [False] * n
    col = [None] * n
    # per character, the cells of type 2*chi(i) + chi(j) still open
    cuts = [(chi, [n // 4] * 4) for chi in characters]

    def rec(i):
        if i == n:
            return True
        for j in range(n):
            if cols_used[j]:
                continue
            s = square[i][j]
            if syms_used[s]:
                continue
            for chi, left in cuts:
                if not left[2 * chi[i] + chi[j]]:
                    break
            else:
                cols_used[j] = syms_used[s] = True
                col[i] = j
                for chi, left in cuts:
                    left[2 * chi[i] + chi[j]] -= 1
                if rec(i + 1):
                    return True
                for chi, left in cuts:
                    left[2 * chi[i] + chi[j]] += 1
                cols_used[j] = syms_used[s] = False
        return False

    return list(enumerate(col)) if rec(0) else None


def _generated_subgroup(table, gens):
    """The subgroup generated by gens: products of generators from the
    identity 0 (in a finite group every inverse is a positive power)."""
    sub = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = table[x][g]
            if y not in sub:
                sub.add(y)
                frontier.append(y)
    return sub


def _index2_characters(table):
    """Every onto homomorphism G -> Z/2, as a 0/1 list over the elements.

    They factor through G/S, S the subgroup generated by the squares,
    which is elementary abelian: label S with 0, then, while some g is
    unlabelled, give g a new basis bit and each labelled h the label of
    h*g.  The characters are the nonzero F2-linear forms on the labels.
    """
    n = len(table)
    label = [None] * n
    for h in _generated_subgroup(table, {table[g][g] for g in range(n)}):
        label[h] = 0
    rank = 0
    for g in range(n):
        if label[g] is None:
            for h in [h for h in range(n) if label[h] is not None]:
                label[table[h][g]] = label[h] | 1 << rank
            rank += 1
    return [[(u & v).bit_count() % 2 for v in label] for u in range(1, 1 << rank)]


def complete_mapping_exists(table):
    """Search for a complete mapping of a group table.

    A complete mapping is a permutation theta with g -> g*theta(g) also a
    permutation: the columns of a transversal of the table, theta(g) in
    row g.  Returns (True, theta) or (False, None).  The answer is no when
    hall_paige_criterion, the Sylow-2 order scan, fails; otherwise the
    backtracking transversal search decides, pruned by counting cells over
    every index-2 character (for even n; odd-order groups have none).  That
    count only cuts subtrees holding no transversal, so theta is the first
    transversal in column order either way.  Right-translating by
    theta(0)^-1 makes any complete mapping fix 0, and the search tries
    column 0 first, so the witness fixes 0.
    """
    n = len(table)
    if not hall_paige_criterion(table):
        return False, None
    characters = _index2_characters(table) if n % 2 == 0 else ()
    cells = _backtrack_transversal(table, characters)
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
    Hall and Paige showed that G has no complete mapping when the test
    fails (the converse, their conjecture, was proved later by Wilcox,
    Evans and Bray), by counting: if theta is a complete mapping then g,
    theta(g) and g*theta(g) each run through G, so the image s in
    A = G/G' of the product of all elements satisfies s + s = s, forcing
    s = 0.  The scan decides s != 0.  s is |G'| times the sum of all
    elements of A, and that sum is the one involution of A if A has
    exactly one, else 0.  So s != 0 exactly when A has a nontrivial cyclic
    Sylow 2-subgroup and |G'| is odd; then the Sylow 2-subgroup S of G
    meets G' trivially and embeds in A, so S is nontrivial cyclic.
    Conversely a nontrivial cyclic S has a normal complement N (Burnside),
    so G' <= N has odd order and the Sylow 2-subgroup of A is isomorphic
    to S.
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
