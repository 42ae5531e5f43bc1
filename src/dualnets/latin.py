"""Latin squares attached to dual 3-nets: coordinatization, transversal
search, complete mappings, and the group-coordinatizability test.

Tables are tuples of row tuples over symbols 0..n-1.  Group tables are
normalized with identity 0.

One pipeline serves squares and group tables.  A square is relabelled to
its principal loop isotope with identity 0, a group exactly when Light's
test (associativity against a generating set) passes and 0 is in the
column of every generator.  The test takes each generator g in the middle,
(x*g)*z = x*(g*z): row x*g of the isotope is a whole row, and x*(g*z) is
row x read at the entries of row g, one gather per row.

A group has no transversal when its Sylow 2-subgroup is nontrivial cyclic
(Hall and Paige), which one scan of element orders decides.  Otherwise one
backtracking search finds the first transversal in column order, pruned
for group isotopes by index-2 quotient counting: a homomorphism chi of G
onto Z/2 has chi(g*h) = chi(g) + chi(h), so a transversal, which meets
each row, column and symbol once, holds n/4 cells of each type
(chi(row), chi(column)); a partial transversal with no room left for a
type under some chi is cut.
The count is necessary for a completion, so the search returns the same
first transversal as without it, only sooner.  A search that meets n
dead ends also checks forward on packed integers, cutting a cell that
leaves a later row or a free symbol with no cell in a free column, which
is again necessary for a completion.  A complete mapping of a group
table is a transversal's columns; a group table with identity 0 is its
own principal isotope, so complete_mapping_exists searches the table
directly, with no isotope to build and no Light's test.
"""

import math
from operator import itemgetter


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

    Returns the cells (i, j) of the first transversal in column order,
    listed by row, or None.  An isotopy (permuting rows, columns and
    symbols) carries transversals to transversals, and a transversal of a
    Cayley table is a complete mapping, theta(g) in row g.  So a square
    isotopic to a group table T has none when T fails
    hall_paige_criterion, the Sylow-2 order scan; otherwise the
    backtracking search is pruned by the index-2 characters of T, read on
    the square through the isotopy.  A square that is no group isotope
    gets the plain search.
    """
    isotopy = _group_isotopy(square)
    if isotopy is None:
        return _backtrack_transversal(square)
    return _group_transversal(square, *isotopy)


def _group_transversal(square, table, rows, cols):
    """The first transversal of a square isotopic to the group table, row i
    and column j of the square labelled rows[i] and cols[j] in the table,
    or None when the table fails hall_paige_criterion."""
    if not hall_paige_criterion(table):
        return None
    characters = [([chi[r] for r in rows], [chi[c] for c in cols])
                  for chi in _index2_characters(table)]
    return _backtrack_transversal(square, characters)


def _backtrack_transversal(square, characters=()):
    """The first transversal in column order, as cells (i, j), or None.

    characters are onto homomorphisms chi: G -> Z/2 of a group table T
    isotopic to the square, each given as the pair of 0/1 lists
    (chi of row i's label, chi of column j's label), where cell (i, j)
    carries the symbol T[row label][column label] up to relabelling.  So
    the type (chi(row), chi(column)) of a cell also fixes chi of its
    symbol.  Say m cells are left to place, and a, b, c of the free rows,
    columns and symbols have chi = 0.  A completion with x cells of type
    (0, 0) has a - x of type (0, 1), b - x of type (1, 0) and c - x of
    type (1, 1), and these add up to m, so x = (a + b + c - m)/2 must be a
    whole number with 0 <= x <= min(a, b, c).  Placing a cell of one type
    lowers that type's count by one and leaves the other three, so at the
    root (a = b = c = n/2) every type needs n/4 cells, and the search
    skips a cell as soon as some character has no room left for its type.
    (When 4 does not divide n there is no transversal, and rooms of n // 4
    cells hold fewer than n.)  The test is only a necessary condition for
    a completion, so it cuts dead subtrees and nothing else: the first
    transversal found is the same as without it.

    Once the search has met n dead ends (rows with no candidate that
    completes), it also checks forward.  After placing a cell in row i,
    (a) every later row must still have a cell in a free column with a
    free symbol, and (b) every free symbol must still sit in a free column
    of some later row.  A completion places one cell in each later row,
    in a free column with a free symbol, and uses every free symbol once
    in those rows, so both are necessary, and again only dead subtrees are
    cut.  The check reads the packed integers of _forward_check_tables.
    They cost O(n^2) to build, about as much as n dead ends, each of which
    scans a row of n cells.  So a search that ends sooner never builds them
    and one that goes on builds them once.
    """
    n = len(square)
    cols_used = [False] * n
    syms_used = [False] * n
    col = [None] * n
    # per character, the cells of type 2*chi(row) + chi(column) still open
    cuts = [(rchi, cchi, [n // 4] * 4) for rchi, cchi in characters]
    dead = 0
    checks = state = None  # the forward check, once n dead ends are met

    def rec(i):
        nonlocal dead, checks, state
        if i == n:
            return True
        for j in range(n):
            if cols_used[j]:
                continue
            s = square[i][j]
            if syms_used[s]:
                continue
            for rchi, cchi, left in cuts:
                if not left[2 * rchi[i] + cchi[j]]:
                    break
            else:
                if checks is not None:
                    low, guard, col_keep, sym_keep, sym_done, row_keep, row_done, _ = checks
                    x = state[i] & col_keep[j] & sym_keep[s] | sym_done[s]
                    if (x - low) & guard != guard:
                        continue
                    state[i + 1] = x & row_keep[i + 1] | row_done[i + 1]
                cols_used[j] = syms_used[s] = True
                col[i] = j
                for rchi, cchi, left in cuts:
                    left[2 * rchi[i] + cchi[j]] -= 1
                if rec(i + 1):
                    return True
                for rchi, cchi, left in cuts:
                    left[2 * rchi[i] + cchi[j]] += 1
                cols_used[j] = syms_used[s] = False
        dead += 1
        if dead == n:
            checks = _forward_check_tables(square)
            _, _, col_keep, sym_keep, sym_done, row_keep, row_done, start = checks
            # state[r]: rows 0..r-1 placed, and row r about to be
            state = [start]
            for r in range(i):
                c = col[r]
                t = square[r][c]
                x = state[r] & col_keep[c] & sym_keep[t] | sym_done[t]
                state.append(x & row_keep[r + 1] | row_done[r + 1])
            state += [None] * (n - i)
        return False

    return list(enumerate(col)) if rec(0) else None


def _forward_check_tables(square):
    """The packed tables of the forward check in _backtrack_transversal.

    A state is one integer of 2n blocks of n + 2 bits: bits 0..n-1 are
    columns, bit n marks the block done, bit n + 1 is its guard, which is
    always set.  Row block r holds the free columns c of the cells (r, c)
    with a free symbol; symbol block t holds the free columns c with
    square[r][c] == t in some row r not yet placed.  A block is done once
    its row is placed or its symbol used, and then needs no cell.  So a
    state passes when every block is nonzero below its guard, which is
    (x - low) & guard == guard: subtracting 1 from a block clears its guard
    only when the block is 0, and never borrows from the next.

    Returns (low, guard, col_keep, sym_keep, sym_done, row_keep, row_done,
    start).  low has bit 0 of every block set and guard every guard bit.
    Placing a cell (i, j) with symbol s ANDs the state with col_keep[j],
    which clears column j in every block, and sym_keep[s], which clears the
    row cells holding s, and ORs in sym_done[s], which marks symbol block s
    done.  It also ANDs row_keep[i], which clears the symbol cells whose
    last row is i, and ORs in row_done[i], which marks row block i done;
    the search applies these before it tries the cells of row i, and start
    is the state in which it tries those of row 0.  row_keep and row_done
    have an entry n that changes nothing.
    """
    n = len(square)
    w = n + 2
    low = sum(1 << b * w for b in range(2 * n))
    guard = low << n + 1
    sym_cells = [0] * n  # row blocks: the cells holding symbol t
    last = {}  # symbol blocks: bit of (t, c) -> the last row with t in column c
    for r, row in enumerate(square):
        for c, t in enumerate(row):
            sym_cells[t] |= 1 << r * w + c
            last[(n + t) * w + c] = r
    row_cells = [0] * (n + 1)  # symbol blocks: the cells whose last row is r
    for bit, r in last.items():
        row_cells[r] |= 1 << bit
    col_keep = [~(low << j) for j in range(n)]
    sym_keep = [~cells for cells in sym_cells]
    sym_done = [1 << (n + t) * w + n for t in range(n)]
    row_keep = [~cells for cells in row_cells]
    row_done = [1 << r * w + n for r in range(n)] + [0]
    start = (guard + sum(sym_cells) + sum(row_cells)) & row_keep[0] | row_done[0]
    return low, guard, col_keep, sym_keep, sym_done, row_keep, row_done, start


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


def _generators(table):
    """A generating set of a loop with identity 0, chosen greedily: each
    element that the earlier ones do not reach from 0 by right
    multiplication is added."""
    gens, reached = [], {0}
    for g in range(len(table)):
        if g not in reached:
            gens.append(g)
            reached = _generated_subgroup(table, gens)
    return gens


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
    """Search for a complete mapping of a group table with identity 0.

    A complete mapping is a permutation theta with g -> g*theta(g) also a
    permutation: the columns of a transversal of the table, theta(g) in
    row g.  Returns (True, theta) or (False, None).  The table is its own
    isotope with the identity labellings, so it is searched directly, and
    theta is read off the cells that transversal_search(table) returns: the
    first transversal in column order.  Right-translating by theta(0)^-1
    makes any complete mapping fix 0, and the search tries column 0 first,
    so the witness fixes 0.  The table is not checked to be a group; on
    some tables that are not, element_orders raises ValueError.
    """
    labels = range(len(table))
    cells = _group_transversal(table, table, labels, labels)
    if cells is None:
        return False, None
    return True, [j for _, j in cells]


def element_orders(table):
    """Order of every element of a group table with identity 0.

    An order is at most n, so a walk x -> x*g that has not returned to 0
    after n steps raises ValueError: the table is no such group.
    """
    n = len(table)
    orders = []
    for g in range(n):
        x, o = g, 1
        while x != 0:
            if o == n:
                raise ValueError("not a group table with identity 0: "
                                 "the powers of %d never reach 0" % g)
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
    """The coordinatizing group table if the square is isotopic to a group,
    else None: the table of _group_isotopy.  One loop isotope suffices: by
    Albert's theorem every loop principal isotope of a group-isotopic
    square is isomorphic to the group.
    """
    isotopy = _group_isotopy(square)
    return None if isotopy is None else isotopy[0]


def _group_isotopy(square):
    """(table, rows, cols) with table a group, or None.

    The principal loop isotope with identity e = square[0][0], relabelled
    by sw, the swap of 0 and e: row i is labelled rows[i] = sw(square[i][0]),
    column j is labelled cols[j] = sw(square[0][j]), and
    table[rows[i]][cols[j]] = sw(square[i][j]).  Row 0 and column 0 of the
    table are then the identity 0.  Light's test proves the product
    associative: (x*g)*z = x*(g*z) for every g of a generating set, which
    compares row x*g of the table with row x read at the entries of row g.
    The g that pass are closed under products (if a and b pass, then
    (x*(a*b))*y = ((x*a)*b)*y = (x*a)*(b*y) = x*(a*(b*y)) = x*((a*b)*y)),
    and every element is a left-nested product of generators taken from 0,
    so all elements pass.  That makes the table a monoid, which need not be
    latin: ((0, 1), (1, 1)) passes.  In a finite monoid, x*g = 0 makes g a
    unit: y -> g*y is injective (x*(g*y) = y), hence onto, so g*z = 0 for
    some z, and z = x*g*z = x.  Units are closed under products and every
    element is a product of generators, so the table is a group exactly
    when 0 is also in the column of every generator.
    """
    n = len(square)
    sw = list(range(n))
    e = square[0][0]
    sw[0], sw[e] = e, 0
    rows = [sw[row[0]] for row in square]
    cols = [sw[s] for s in square[0]]
    if len(set(rows)) < n or len(set(cols)) < n:
        return None  # not latin, so no group isotope
    col_of = [0] * n  # table column c is square column col_of[c]
    for j, c in enumerate(cols):
        col_of[c] = j
    table = [None] * n
    for r, row in zip(rows, square):
        table[r] = tuple([sw[row[j]] for j in col_of])
    for g in _generators(table):
        column = [row[g] for row in table]  # x -> x*g
        if 0 not in column:
            return None
        # row x read at the entries of row g, z -> x*(g*z), against row x*g;
        # a generator makes n >= 2, so itemgetter returns tuples
        if tuple(map(itemgetter(*table[g]), table)) != itemgetter(*column)(table):
            return None
    return tuple(table), rows, cols


def _rotations(symbols):
    row = tuple(symbols)  # rotation i starts at row[i]
    return [row[i:] + row[:i] for i in range(len(row))]


def cyclic_group(n):
    return tuple(_rotations(range(n)))


def dihedral_group(m):
    """Dihedral group of order 2m: 0..m-1 rotations, m..2m-1 reflections.
    Mod m, rotation i times rotation j is rotation i + j, times reflection
    j reflection j - i; reflection i times rotation j is reflection i + j,
    times reflection j rotation j - i.  So a row is two blocks shifted."""
    rot, ref = _rotations(range(m)), _rotations(range(m, 2 * m))
    return tuple([rot[i] + ref[-i] for i in range(m)] + [ref[i] + rot[-i] for i in range(m)])


def direct_product(A, B):
    """Element (x, y) is x |B| + y; its row pairs row x of A with row y of B."""
    nb = len(B)
    return tuple(tuple(a * nb + b for a in ra for b in rb) for ra in A for rb in B)


def group_catalog(max_order=16):
    """Named group tables of order <= max_order: cyclic, dihedral,
    elementary abelian, and mixed direct products."""
    cat = {}
    for n in range(2, max_order + 1):
        cat["Z%d" % n] = cyclic_group(n)
    for m in range(2, max_order // 2 + 1):
        cat["D%d" % m] = dihedral_group(m)
    for factors in ((2, 2), (2, 4), (2, 6), (2, 8), (3, 3), (3, 4), (4, 4), (2, 2, 2),
                    (2, 2, 3), (2, 2, 4), (2, 2, 2, 2)):
        if math.prod(factors) <= max_order:
            table = cyclic_group(factors[0])
            for f in factors[1:]:
                table = direct_product(table, cyclic_group(f))
            cat["x".join("Z%d" % f for f in factors)] = table
    return cat


def isomorphic(G, H):
    """An isomorphism between two group tables, or None.

    Both tables must carry identity 0; the result maps G-elements to
    H-elements.  The images h of G's greedy generators g are chosen one
    at a time, among elements of the same order, and phi is closed by the
    walk from 0 over right multiplication by the chosen generators:
    phi(x*g) = phi(x)*h on every edge, with phi injective.  Each new
    generator extends the partial map: the elements already mapped need
    only its edge, the elements it reaches need every edge, and the first
    conflict or repeated image rejects h.  Once every generator has an
    image, phi is defined on all of G and is a homomorphism, since
    phi(x*w) = phi(x)*phi(w) extends from the generators to every product
    w of them.
    """
    n = len(G)
    if len(H) != n:
        return None
    og = element_orders(G)
    oh = element_orders(H)
    if sorted(og) != sorted(oh):
        return None
    gens = _generators(G)

    def close(phi, pairs):
        phi = dict(phi)
        used = set(phi.values())
        # work lists the elements mapped already, which need only the new
        # edge, then those reached since, which need every edge
        work, old, last = list(phi), len(phi), pairs[-1:]
        i = 0
        while i < len(work):
            x = work[i]
            for g, h in (last if i < old else pairs):
                y, hy = G[x][g], H[phi[x]][h]
                if y not in phi:
                    if hy in used:
                        return None
                    phi[y] = hy
                    used.add(hy)
                    work.append(y)
                elif phi[y] != hy:
                    return None
            i += 1
        return phi

    def extend(phi, pairs):
        if len(pairs) == len(gens):
            return phi
        g = gens[len(pairs)]
        for h in range(n):
            if oh[h] == og[g]:
                grown = close(phi, pairs + [(g, h)])
                if grown is not None:
                    full = extend(grown, pairs + [(g, h)])
                    if full is not None:
                        return full
        return None

    return extend({0: 0}, [])
