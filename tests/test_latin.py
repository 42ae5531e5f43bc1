import random
import signal
import time
from itertools import permutations, product

import pytest

from dualnets import constructors, latin
from dualnets.latin import (_index2_characters, complete_mapping_exists,
                            cyclic_group, dihedral_group, direct_product,
                            element_orders, from_net, group_catalog,
                            hall_paige_criterion, is_group_coordinatizable,
                            isomorphic, transversal_search)
from dualnets.plane import incident, join

from util import (abelianized_product_nonzero_brute, count_transversals_brute,
                  index2_subgroups_brute, is_associative_brute, is_latin, isomorphic_walk,
                  principal_isotope_brute, quadrangle_criterion,
                  transversal_search_brute)

# a latin square of order 5 that is not isotopic to Z5
NONGROUP_5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def shuffled_isotope(square, seed):
    n = len(square)
    rng = random.Random(seed)
    rows = list(range(n))
    cols = list(range(n))
    syms = list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    rng.shuffle(syms)
    return [[syms[square[rows[i]][cols[j]]] for j in range(n)] for i in range(n)]


def random_latin_square(n, rng):
    """A latin square of order n filled cell by cell in row order, each cell
    trying the symbols in a random order and backtracking at a dead end."""
    square = [[None] * n for _ in range(n)]

    def fill(c):
        if c == n * n:
            return True
        i, j = divmod(c, n)
        symbols = list(range(n))
        rng.shuffle(symbols)
        for s in symbols:
            if s in square[i][:j] or any(square[r][j] == s for r in range(i)):
                continue
            square[i][j] = s
            if fill(c + 1):
                return True
        square[i][j] = None
        return False

    fill(0)
    return square


def intercalate_switched(square, switches, rng):
    """The square with up to `switches` seeded intercalates switched: a 2x2
    subsquare holding a, b / b, a becomes b, a / a, b, which keeps it
    latin."""
    square = [list(row) for row in square]
    n = len(square)
    for _ in range(switches):
        found = [(r1, r2, c1, c2)
                 for r1 in range(n) for r2 in range(r1 + 1, n)
                 for c1 in range(n) for c2 in range(c1 + 1, n)
                 if square[r1][c1] == square[r2][c2] and square[r1][c2] == square[r2][c1]]
        if not found:
            break
        r1, r2, c1, c2 = rng.choice(found)
        a, b = square[r1][c1], square[r1][c2]
        square[r1][c1] = square[r2][c2] = b
        square[r1][c2] = square[r2][c1] = a
    return square


def test_is_latin():
    assert is_latin(cyclic_group(5))
    assert is_latin(NONGROUP_5)
    assert not is_latin([[0, 1], [0, 1]])
    assert not is_latin([[0, 1], [1]])


def test_group_tables_are_groups():
    catalog = group_catalog(16)
    for name, table in catalog.items():
        n = len(table)
        assert is_latin(table), name
        assert list(table[0]) == list(range(n)), name  # 0 is the identity
        assert [row[0] for row in table] == list(range(n)), name
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    assert table[table[a][b]][c] == table[a][table[b][c]], name


def test_catalog_contents():
    catalog = group_catalog(16)
    assert set(catalog) >= {"Z2", "Z16", "D4", "Z2xZ2", "Z2xZ2xZ2xZ2", "Z3xZ4"}
    assert all(len(t) <= 16 for t in catalog.values())
    phi = isomorphic(catalog["Z3xZ4"], catalog["Z12"])
    assert phi is not None
    G, H = catalog["Z3xZ4"], catalog["Z12"]
    assert sorted(phi.values()) == list(range(12))
    for a in range(12):
        for b in range(12):
            assert phi[G[a][b]] == H[phi[a]][phi[b]]
    assert isomorphic(catalog["Z2xZ2xZ3"], catalog["Z2xZ6"]) is not None
    assert isomorphic(catalog["D2"], catalog["Z2xZ2"]) is not None
    assert isomorphic(catalog["Z4"], catalog["Z2xZ2"]) is None
    assert isomorphic(catalog["D3"], catalog["Z6"]) is None
    assert isomorphic(catalog["Z4"], catalog["Z6"]) is None


def test_group_tables_match_their_cell_definitions():
    # the labels themselves, cell by cell: an isomorphic relabelling would
    # pass every group test above but move every complete-mapping witness
    for n in range(1, 31):
        assert cyclic_group(n) == tuple(tuple((i + j) % n for j in range(n)) for i in range(n))
    for m in range(1, 21):
        table = dihedral_group(m)
        assert len(table) == 2 * m and all(len(row) == 2 * m for row in table), m
        for i, j in product(range(m), repeat=2):
            assert table[i][j] == (i + j) % m, (m, i, j)
            assert table[i][m + j] == m + (j - i) % m, (m, i, j)
            assert table[m + i][j] == m + (i + j) % m, (m, i, j)
            assert table[m + i][m + j] == (j - i) % m, (m, i, j)
    catalog = group_catalog(16)
    products = [name for name in catalog if "x" in name]
    assert len(products) == 11
    for name in products:
        # the catalog builds Z_a x ... x Z_b x Z_c as (Z_a x ... x Z_b) x Z_c
        head, last = name.rsplit("x", 1)
        A, B, table = catalog[head], cyclic_group(int(last[1:])), catalog[name]
        na, nb = len(A), len(B)
        assert len(table) == na * nb and all(len(row) == na * nb for row in table), name
        for x1, y1, x2, y2 in product(range(na), range(nb), range(na), range(nb)):
            assert table[x1 * nb + y1][x2 * nb + y2] == A[x1][x2] * nb + B[y1][y2], name


def quaternion_group():
    """Q8 = <a, b | a^4 = 1, b^2 = a^2, b*a = a^-1*b>, with a^s*b^t at
    index s + 4t."""
    def mul(x, y):
        (t1, s1), (t2, s2) = divmod(x, 4), divmod(y, 4)
        s = s1 + (-s2 if t1 else s2) + 2 * (t1 and t2)
        return s % 4 + 4 * ((t1 + t2) % 2)
    return tuple(tuple(mul(x, y) for y in range(8)) for x in range(8))


def test_isomorphic_on_catalog_pairs():
    # every pair of equal order and relabelled copies: an answer is a
    # bijective homomorphism, and the isomorphic pairs are the three the
    # catalog names twice.  Q8 x Z2 has the element orders of Z4 x Z4, so
    # only the relations tell those two apart.  The search that extends its
    # partial maps returns what the walk that rebuilds them returns.
    tables = dict(group_catalog(16), Q8xZ2=direct_product(quaternion_group(), cyclic_group(2)))
    assert is_associative_brute(tables["Q8xZ2"])
    assert sorted(element_orders(tables["Q8xZ2"])) == sorted(element_orders(tables["Z4xZ4"]))
    twins = [{"D2", "Z2xZ2"}, {"Z3xZ4", "Z12"}, {"Z2xZ6", "Z2xZ2xZ3"}]
    for a, G in sorted(tables.items()):
        for b, H in sorted(tables.items()):
            if len(G) != len(H):
                continue
            n = len(G)
            for seed in range(2):
                H2 = relabelled(H, "%s:%d" % (b, seed))
                phi = isomorphic(G, H2)
                assert phi == isomorphic_walk(G, H2), (a, b)
                assert (phi is not None) == (a == b or {a, b} in twins), (a, b)
                if phi is not None:
                    assert sorted(phi) == sorted(phi.values()) == list(range(n)), (a, b)
                    assert all(phi[G[x][y]] == H2[phi[x]][phi[y]]
                               for x in range(n) for y in range(n)), (a, b)


def test_element_orders():
    orders = element_orders(cyclic_group(6))
    assert sorted(orders) == [1, 2, 3, 3, 6, 6]
    orders = element_orders(dihedral_group(3))
    assert sorted(orders) == [1, 2, 2, 2, 3, 3]


def test_element_orders_refuses_tables_whose_powers_miss_the_identity():
    # the powers of 1 run 1, 2, 2, ... and of 2 run 2, 3, 3, ..., so an
    # unbounded walk never ends; the alarm turns a hang into a failure
    odd = ((0, 1, 2), (1, 2, 2), (2, 2, 1))
    even = ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 3, 3), (3, 2, 3, 3))

    def hang(signum, frame):
        raise TimeoutError("no answer within 10 s")

    previous = signal.signal(signal.SIGALRM, hang)
    signal.alarm(10)
    try:
        with pytest.raises(ValueError, match="not a group table"):
            isomorphic(odd, odd)
        with pytest.raises(ValueError, match="not a group table"):
            complete_mapping_exists(even)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_transversal_search_small_cyclic():
    assert transversal_search(cyclic_group(2)) is None
    assert transversal_search(cyclic_group(4)) is None
    t3 = transversal_search(cyclic_group(3))
    assert t3 is not None
    for square in (cyclic_group(3), cyclic_group(5), direct_product(cyclic_group(2), cyclic_group(2))):
        t = transversal_search(square)
        assert t is not None
        rows = [i for i, _ in t]
        cols = [j for _, j in t]
        syms = [square[i][j] for i, j in t]
        n = len(square)
        assert sorted(rows) == sorted(cols) == sorted(syms) == list(range(n))


def test_transversal_search_agrees_with_brute_force():
    squares = [cyclic_group(n) for n in range(2, 6)]
    squares.append(direct_product(cyclic_group(2), cyclic_group(2)))
    squares.append(NONGROUP_5)
    squares.append(shuffled_isotope(cyclic_group(5), 3))
    squares.append(shuffled_isotope(cyclic_group(4), 4))
    for square in squares:
        found = transversal_search(square) is not None
        assert found == (count_transversals_brute(square) > 0)


def test_transversal_search_matches_backtracking_oracle():
    # the Sylow-2 order scan answers for group isotopes; every answer must be
    # the cells the plain backtracking finds.  The oracle is skipped on the
    # negative squares of order >= 12, where it needs seconds to minutes;
    # Hall-Paige (a cyclic nontrivial Sylow 2-subgroup) decides those.
    squares = []
    for name, table in sorted(group_catalog(16).items()):
        slow = len(table) >= 12 and not hall_paige_criterion(table)
        squares.append((name, table, slow))
        for seed in range(3):
            squares.append(("%s~%d" % (name, seed), shuffled_isotope(table, seed), slow))
    for n in range(1, 11):
        squares.append(("cyclic%d" % n, cyclic_group(n), False))
    rng = random.Random(2016)
    non_group = 0
    for n in range(2, 9):
        for v in range(30):
            square = random_latin_square(n, rng)
            assert is_latin(square)
            non_group += is_group_coordinatizable(square) is None
            squares.append(("random%d#%d" % (n, v), square, False))
    assert non_group >= 50
    for name, square, slow in squares:
        cells = transversal_search(square)
        if slow:
            assert cells is None, name
        else:
            assert cells == transversal_search_brute(square), name
    # the negative verdicts too, where the oracle is quick (order < 12)
    for name, table in group_catalog(16).items():
        exists, theta = complete_mapping_exists(table)
        if exists:
            assert theta[0] == 0, name
            assert theta == [j for _, j in transversal_search_brute(table)], name
        elif len(table) < 12:
            assert transversal_search_brute(table) is None, name


def test_transversal_search_negative_group_isotopes_are_fast():
    # exhaustive backtracking took about two minutes on D7 and on Z14;
    # complete_mapping_exists answers the group tables from the same scan
    catalog = group_catalog(16)
    squares = [cyclic_group(12), catalog["D7"], catalog["Z14"],
               shuffled_isotope(catalog["Z16"], 5)]
    calls = [(transversal_search, square, None) for square in squares]
    calls += [(complete_mapping_exists, catalog[name], (False, None))
              for name in ("Z12", "D7", "Z14", "Z16")]
    for search, square, want in calls:
        t0 = time.monotonic()
        assert search(square) == want
        elapsed = time.monotonic() - t0
        assert elapsed < 1.0, "took %.2fs, bound is 1s" % elapsed


def relabelled(table, seed):
    """G with its elements renamed by a seeded permutation fixing 0."""
    n = len(table)
    rng = random.Random(seed)
    pi = [0] + rng.sample(range(1, n), n - 1)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[pi[a]][pi[b]] = pi[table[a][b]]
    return tuple(map(tuple, out))


# theta of order 20 was computed once with the plain search, theta of order
# 24 with the search pruned by index-2 counting alone
PINNED_WITNESSES = {
    "D10": (dihedral_group(10),
            [0, 1, 2, 3, 4, 10, 12, 11, 15, 17, 9, 14, 8, 18, 13, 6, 7, 5, 19, 16]),
    "Z2xZ10": (direct_product(cyclic_group(2), cyclic_group(10)),
               [0, 1, 2, 3, 4, 10, 11, 12, 13, 14, 6, 7, 8, 9, 15, 16, 17, 18, 19, 5]),
    "D12": (dihedral_group(12),
            [0, 1, 2, 3, 4, 5, 12, 14, 13, 17, 20, 23, 9, 10, 11, 16, 15, 22, 21, 7, 8, 6,
             19, 18]),
    "Z4xZ6": (direct_product(cyclic_group(4), cyclic_group(6)),
              [0, 1, 2, 4, 5, 6, 3, 7, 8, 12, 13, 14, 10, 11, 15, 19, 20, 9, 21, 23, 17, 22,
               16, 18]),
}


def alternating_group_4():
    """A4 on its even permutations, identity first.  Its squares (the
    identity and the eight 3-cycles) do not form a subgroup."""
    perms = [p for p in permutations(range(4))
             if sum(p[i] > p[j] for i in range(4) for j in range(i + 1, 4)) % 2 == 0]
    index = {p: k for k, p in enumerate(perms)}
    return tuple(tuple(index[tuple(a[b[i]] for i in range(4))] for b in perms)
                 for a in perms)


def test_index2_characters_match_brute_subgroups():
    tables = dict(group_catalog(16), A4=alternating_group_4())
    for name, table in tables.items():
        n = len(table)
        characters = _index2_characters(table)
        for chi in characters:
            assert sorted(set(chi)) == [0, 1], name
            for a in range(n):
                for b in range(n):
                    assert chi[table[a][b]] == (chi[a] + chi[b]) % 2, name
        kernels = [frozenset(g for g in range(n) if chi[g] == 0) for chi in characters]
        assert len(set(kernels)) == len(kernels), name
        assert set(kernels) == set(index2_subgroups_brute(table)), name


def test_complete_mapping_witness_is_first_transversal_on_relabellings():
    # the index-2 counting cuts only dead subtrees, so the witness stays the
    # first transversal in column order
    for name, table in sorted(group_catalog(16).items()):
        if not hall_paige_criterion(table):
            continue
        for seed in range(3):
            G = relabelled(table, "%s:%d" % (name, seed))
            exists, theta = complete_mapping_exists(G)
            assert exists, name
            assert theta == [j for _, j in transversal_search_brute(G)], (name, seed)
    # the plain search takes about 7 s on each of order 20, and the search
    # with index-2 counting alone 0.3-0.4 s on each of order 24
    for name, (table, theta) in PINNED_WITNESSES.items():
        assert complete_mapping_exists(table) == (True, theta), name


@pytest.fixture
def table_builds(monkeypatch):
    """The orders of the squares whose forward-check tables get built."""
    builds = []
    real = latin._forward_check_tables
    monkeypatch.setattr(latin, "_forward_check_tables",
                        lambda square: builds.append(len(square)) or real(square))
    return builds


def test_forward_check_tables_are_built_after_n_dead_ends(table_builds):
    # the search builds the forward check's tables once it has met n dead
    # ends, and a search that ends sooner never builds them
    built = []
    for name, table in sorted(group_catalog(16).items()):
        complete_mapping_exists(table)
        if table_builds:
            assert table_builds == [16], name
            built.append(name)
            table_builds.clear()
    assert built == ["D8", "Z4xZ4"]
    for name, (table, _) in PINNED_WITNESSES.items():
        complete_mapping_exists(table)
        assert table_builds == ([] if len(table) == 20 else [24]), name
        table_builds.clear()
    for n in range(1, 13):
        transversal_search(cyclic_group(n))
    assert table_builds == []


def test_transversal_search_matches_brute_on_random_arrays(table_builds):
    # arrays over range(n) that need not be latin.  An array isotopic to a
    # group is latin, so every other array gets no coordinatizing group (the
    # monoid ((0, 1), (1, 1)) passes Light's test but is no group).  Most of
    # these arrays have no transversal, and many searches meet n dead ends,
    # so the forward check is cross-checked as well.
    assert transversal_search(((0, 1), (1, 1))) == [(0, 0), (1, 1)]
    rng = random.Random(1601)
    for n in range(2, 8):
        for v in range(200):
            square = [[rng.randrange(n) for _ in range(n)] for _ in range(n)]
            if not is_latin(square):
                assert is_group_coordinatizable(square) is None, square
            assert transversal_search(square) == transversal_search_brute(square), square
    assert len(table_builds) > 300


def test_complete_mapping_exists_builds_no_isotope(monkeypatch):
    # a group table with identity 0 is its own principal isotope, so the
    # search runs on the table as given
    calls = []
    real = latin._group_isotopy
    monkeypatch.setattr(latin, "_group_isotopy", lambda square: calls.append(1) or real(square))
    for table in group_catalog(16).values():
        complete_mapping_exists(table)
    assert calls == []
    transversal_search(cyclic_group(5))
    assert calls == [1]


def test_odd_orders_walk_no_subgroup_for_index2_characters(monkeypatch):
    # a group of odd order has no subgroup of index 2, so no character is
    # looked for
    def walk(table, gens):
        raise AssertionError("the squares' subgroup was walked")

    monkeypatch.setattr(latin, "_generated_subgroup", walk)
    assert _index2_characters(cyclic_group(15)) == []
    assert complete_mapping_exists(cyclic_group(15)) == (True, list(range(15)))


def test_complete_mapping_positive_groups_are_fast():
    # plain backtracking took 40-60 ms on the order-16 groups and about 7 s
    # on the order-20 ones; transversal_search on the tables and on their
    # isotopes runs the same pruned search
    catalog = group_catalog(16)
    tables = {name: catalog[name] for name in ("D8", "Z2xZ8", "Z2xZ2xZ4")}
    tables.update((name, table) for name, (table, _) in PINNED_WITNESSES.items())
    for name, table in tables.items():
        n = len(table)
        isotope = shuffled_isotope(table, name)
        results = []
        for search, square in ((complete_mapping_exists, table),
                               (transversal_search, table),
                               (transversal_search, isotope)):
            t0 = time.monotonic()
            results.append(search(square))
            elapsed = time.monotonic() - t0
            assert elapsed < 1.0, "%s took %.2fs, bound is 1s" % (name, elapsed)
        (exists, theta), cells, isotope_cells = results
        assert exists and [j for _, j in cells] == theta, name
        if name in PINNED_WITNESSES:
            assert theta == PINNED_WITNESSES[name][1], name
        assert [i for i, _ in isotope_cells] == list(range(n)), name
        assert sorted(j for _, j in isotope_cells) == list(range(n)), name
        assert sorted(isotope[i][j] for i, j in isotope_cells) == list(range(n)), name


def test_complete_mapping_matches_hall_paige_on_catalog():
    # the abelianized product is an independent check of the negative side
    for name, table in dict(group_catalog(16), A4=alternating_group_4()).items():
        exists, theta = complete_mapping_exists(table)
        assert exists == hall_paige_criterion(table), name
        assert exists == (not abelianized_product_nonzero_brute(table)), name
        if exists:
            n = len(table)
            assert theta[0] == 0, name
            assert sorted(theta) == list(range(n)), name
            assert sorted(table[g][theta[g]] for g in range(n)) == list(range(n)), name


def test_complete_mapping_pinned_cases():
    exists, theta = complete_mapping_exists(cyclic_group(4))
    assert (exists, theta) == (False, None)
    exists, theta = complete_mapping_exists(direct_product(cyclic_group(2), cyclic_group(2)))
    assert exists and theta is not None
    exists, theta = complete_mapping_exists(cyclic_group(5))
    assert exists and theta is not None
    assert complete_mapping_exists([[0]]) == (True, [0])


def test_complete_mapping_is_cayley_transversal():
    # theta a complete mapping of G exactly pins a transversal of its table
    table = direct_product(cyclic_group(2), cyclic_group(2))
    exists, theta = complete_mapping_exists(table)
    assert exists
    cells = [(g, theta[g]) for g in range(len(table))]
    syms = [table[i][j] for i, j in cells]
    assert sorted(syms) == list(range(len(table)))
    assert transversal_search(table) is not None
    assert transversal_search(cyclic_group(2)) is None
    assert complete_mapping_exists(cyclic_group(2))[0] is False


def test_is_group_coordinatizable_recovers_groups():
    for table in (cyclic_group(5), cyclic_group(6), dihedral_group(3),
                  direct_product(cyclic_group(2), cyclic_group(2))):
        got = is_group_coordinatizable(table)
        assert got is not None
        assert isomorphic([list(r) for r in got], table) is not None


def test_is_group_coordinatizable_isotopy_invariant():
    for seed in (1, 2, 3):
        square = shuffled_isotope(cyclic_group(5), seed)
        got = is_group_coordinatizable(square)
        assert got is not None
        assert isomorphic([list(r) for r in got], cyclic_group(5)) is not None
    square = shuffled_isotope(dihedral_group(3), 7)
    got = is_group_coordinatizable(square)
    assert got is not None
    assert isomorphic([list(r) for r in got], dihedral_group(3)) is not None


def test_light_test_matches_associativity_oracle():
    # Light's test checks associativity against a generating set only; the
    # oracle builds the same loop isotope its own way and checks all n^3
    # triples
    tables = dict(group_catalog(16), A4=alternating_group_4())
    squares = [shuffled_isotope(table, "%s:%d" % (name, seed))
               for name, table in sorted(tables.items()) for seed in range(2)]
    rng = random.Random(1966)
    even = sorted(name for name, table in tables.items() if len(table) % 2 == 0)
    for _ in range(150):
        table = tables[rng.choice(even)]
        squares.append(intercalate_switched(shuffled_isotope(table, rng.random()),
                                            rng.randint(1, 3), rng))
    non_group = 0
    for square in squares:
        assert is_latin(square)
        loop = principal_isotope_brute(square)
        want = loop if is_associative_brute(loop) else None
        assert is_group_coordinatizable(square) == want, square
        non_group += want is None
    assert 50 <= non_group <= 150


def latin_squares(n, reduced=False):
    """Every latin square of order n, or every reduced one (first row and
    first column 0..n-1), built row by row."""
    out = []

    def extend(square, rows):
        # rows: the permutations that clash with no row of square in a column
        if len(square) == n:
            out.append(tuple(square))
            return
        for row in rows:
            if not reduced or row[0] == len(square):
                extend(square + [row], [r for r in rows if all(map(int.__ne__, r, row))])

    rows = list(permutations(range(n)))
    if reduced:
        extend([rows[0]], [r for r in rows if all(map(int.__ne__, r, rows[0]))])
    else:
        extend([], rows)
    return out


def test_light_test_matches_associativity_oracle_on_all_small_squares():
    # every latin square of order <= 4, all of them group isotopes, and
    # every reduced one (a loop with identity 0) of orders 5 and 6, mostly
    # no group.  Light's test checks generators only: testing only the
    # first generator passes 280 of the order-6 loops, and testing
    # (x*g)*z = x*(z*g) rejects the 20 tables of S3
    squares = [square for n in range(1, 5) for square in latin_squares(n)]
    assert len(squares) == 1 + 2 + 12 + 576
    reduced = {n: latin_squares(n, reduced=True) for n in (5, 6)}
    assert {n: len(loops) for n, loops in reduced.items()} == {5: 56, 6: 9408}
    groups = 0
    for square in squares + reduced[5] + reduced[6]:
        loop = principal_isotope_brute(square)
        want = loop if is_associative_brute(loop) else None
        assert is_group_coordinatizable(square) == want, square
        groups += want is not None
    # the loops that are groups: (n - 1)! labellings of the non-identity
    # elements over the automorphisms, 4! / 4 of Z5, 5! / 2 of Z6 and
    # 5! / 6 of S3
    assert groups == len(squares) + 6 + 60 + 20


def test_group_test_pins_the_smallest_orders():
    # order 1 has no generator, so no row gather; itemgetter with one index
    # would return a symbol, not a row
    def is_table(got):
        return type(got) is tuple and all(type(row) is tuple for row in got)

    got = is_group_coordinatizable([[0]])
    assert got == ((0,),) and is_table(got)
    assert transversal_search([[0]]) == [(0, 0)]
    for square in ([[0, 1], [1, 0]], [[1, 0], [0, 1]]):
        got = is_group_coordinatizable(square)
        assert got == ((0, 1), (1, 0)) and is_table(got), square
        assert transversal_search(square) is None
    # a square that is not latin is no group isotope, whichever of its
    # first row and column repeats a symbol; the monoid passes Light's test
    # but 1 has no inverse
    for square in ([[0, 1], [0, 1]], [[0, 0], [1, 1]], [[0, 1, 2], [1, 2, 2], [2, 2, 1]],
                   ((0, 1), (1, 1))):
        assert is_group_coordinatizable(square) is None, square


def test_nongroup_square_agrees_with_quadrangle_oracle():
    assert is_group_coordinatizable(NONGROUP_5) is None
    assert not quadrangle_criterion(NONGROUP_5)
    # sanity: the oracle accepts actual group tables and their isotopes
    assert quadrangle_criterion(cyclic_group(5))
    assert quadrangle_criterion(shuffled_isotope(cyclic_group(5), 11))
    assert quadrangle_criterion(dihedral_group(3))


def test_from_net_semantics():
    net = constructors.conic_line(5, 11)
    square = from_net(net)
    assert is_latin(square)
    p = net.p
    for i in (0, 2, 4):
        for j in (1, 3):
            line = join(net.components[0][i], net.components[1][j], p)
            k = square[i][j]
            assert incident(net.components[2][k], line, p)


def test_from_net_rejects_wrong_input():
    net4 = constructors.hesse_4net(13)
    try:
        from_net(net4)
        assert False, "4-nets have no single latin square"
    except ValueError:
        pass


def test_net_latin_squares_coordinatize():
    tri = from_net(constructors.triangular_cyclic(5, 11))
    got = is_group_coordinatizable(tri)
    assert got is not None and isomorphic([list(r) for r in got], cyclic_group(5)) is not None

    con = from_net(constructors.conic_line(5, 11))
    got = is_group_coordinatizable(con)
    assert got is not None and isomorphic([list(r) for r in got], cyclic_group(5)) is not None

    tet2 = from_net(constructors.tetrahedron(2, 13))
    got = is_group_coordinatizable(tet2)
    v4 = direct_product(cyclic_group(2), cyclic_group(2))
    assert got is not None
    assert isomorphic([list(r) for r in got], v4) is not None
    assert isomorphic([list(r) for r in got], cyclic_group(4)) is None

    tet3 = from_net(constructors.tetrahedron(3, 13))
    got = is_group_coordinatizable(tet3)
    assert got is not None
    assert isomorphic([list(r) for r in got], dihedral_group(3)) is not None
    assert isomorphic([list(r) for r in got], cyclic_group(6)) is None


def test_transversals_of_net_squares():
    # order-5 cyclic squares have transversals; the perspective-position
    # fermat net of order 3 does too
    assert transversal_search(from_net(constructors.conic_line(5, 11))) is not None
    assert transversal_search(from_net(constructors.algebraic_fermat(3, 19))) is not None
