"""The reduced Świątkowski complex and exact rational homology, checked
against Abrams' discretized complex (``abrams_oracle``), sympy and Gal's
Euler characteristic."""

from __future__ import annotations

import itertools
import random
import signal
from math import comb

import pytest
import sympy

import swiatkowski_oracle
from abrams_oracle import abrams_model, chains, normalize, sufficient_subdivision
from conftest import cycle_graph, hgraph, k5, k33, path_graph, spider, star, theta, trimmed
from dict_columns import (
    _check_boundary_squares_to_zero,
    _rank_of_columns,
    _rank_of_incidence_columns,
    _rank_over_fractions,
)
from dict_columns import betti as dict_betti
from dict_columns import columns as dict_columns
from gbtc import discrete_config
from gbtc.corpus import BUNDLED, load_bundled
from gbtc.discrete_config import (
    BettiVector,
    CellBudgetError,
    betti,
    build_complex,
    nonvanishing_check,
    _check_squares_to_zero,
    _eliminate,
    _gal_euler_characteristic,
    _graded_terms,
    _rank_by_union_find,
    _smooth,
)
from gbtc.graph_core import Graph

LOOPS_AND_MULTI_EDGES = (
    Graph(("c", "a", "b"), (("c", "c"), ("c", "a"), ("c", "b"))),
    Graph(("c",), (("c", "c"), ("c", "c"))),
    Graph(("a", "b"), (("a", "a"), ("a", "b"), ("b", "b"))),
    Graph(("c", "m", "l"), (("c", "m"), ("m", "c"), ("c", "l"))),
)


def model(g: Graph, k: int):
    return build_complex(g, k)


# -- subdivision criterion of the Abrams oracle ------------------------------------


def chain_lengths(g: Graph) -> list[int]:
    return [len(path) for path, _ in chains(g)]


def test_sufficient_subdivision_star3_k2():
    sg = sufficient_subdivision(normalize(star(3)), 2)
    # every arm is a chain from the center to a leaf with at least 3 edges
    assert all(length >= 3 for length in chain_lengths(sg))
    assert sg.n_edges >= 9


def test_sufficient_subdivision_theta_k2():
    sg = sufficient_subdivision(normalize(theta()), 2)
    assert all(length >= 3 for length in chain_lengths(sg))


def test_sufficient_subdivision_k1_unchanged():
    for g in (star(3), theta(), hgraph()):
        ng = normalize(g)
        assert sufficient_subdivision(ng, 1) is ng


def test_sufficient_subdivision_cycle():
    # embedded cycles need at least k+1 edges; a bare cycle is one closed chain
    cyc = Graph(tuple("abc"), (("a", "b"), ("b", "c"), ("c", "a")))
    sg = sufficient_subdivision(cyc, 4)
    assert sg.n_edges >= 5
    assert len(chains(sg)) == 1


# -- complex construction ---------------------------------------------------------


def test_smoothing_keeps_loops_and_parallel_edges():
    # a bare circle becomes one vertex with a loop
    assert _smooth(cycle_graph(5)) == ([[0, 0]], 1)
    # a path becomes one edge between two leaves
    assert _smooth(path_graph(4)) == ([[0], [0]], 1)
    # theta has no bivalent vertex: three parallel edges stay
    assert _smooth(theta()) == ([[0, 1, 2], [0, 1, 2]], 3)
    # a bivalent vertex on a double edge turns it into a loop
    g = Graph(("c", "m", "l"), (("c", "m"), ("m", "c"), ("c", "l")))
    table = {"c": (0, 1, 2), "m": (0, 1), "l": (2,)}
    assert _smooth(g) == ([[0, 0, 1], [1]], 2)
    assert g.half_edges == table  # the graph's own table is left alone
    nonvanishing_check(g, 3)
    assert g.half_edges == table


def test_interval_configurations_contractible():
    for k in (1, 2, 3):
        c = model(path_graph(2), k)
        assert trimmed(betti(c)) == (1,)


def test_star3_two_particles_is_circle():
    c = model(star(3), 2)
    assert betti(c).betti[:2] == (1, 1)
    assert all(b == 0 for b in betti(c).betti[2:])


def test_star4_two_particles():
    assert trimmed(betti(model(star(4), 2))) == (1, 3)


def test_dimension_at_most_k():
    for g, k in ((star(3), 2), (theta(), 2), (star(4), 3)):
        c = model(g, k)
        assert c.dimension <= k


def test_zero_dim_complex_counts_points():
    # one particle: the Abrams complex is the subdivided graph itself, and the
    # reduced complex has one degree-0 generator per edge of the smoothed graph
    c = abrams_model(star(3), 1)
    assert trimmed(dict_betti(c)) == (1,)
    assert len(c.cells[0]) == c.graph.n_vertices
    assert model(star(3), 1).cell_counts() == [3, 2]
    assert trimmed(betti(model(star(3), 1))) == (1,)


def test_budget_guard():
    # theta k=4 has 15 + 40 + 24 = 79 generators
    with pytest.raises(CellBudgetError):
        build_complex(theta(), 4, budget=78)
    assert sum(build_complex(theta(), 4, budget=79).cell_counts()) == 79


@pytest.mark.parametrize(
    "g, head",
    [(Graph(("p",), ()), (0, 0)), (path_graph(2), (1, 0)), (cycle_graph(2), (1, 1))],
    ids=["point", "interval", "circle"],
)
def test_budget_counts_k_plus_one(g, head):
    # at most two generators at every k, but k + 1 Betti numbers and a
    # degree-0 monomial of k edges
    budget = 50
    rep = nonvanishing_check(g, budget - 1, budget)
    assert rep.status == "verified" and sum(rep.cell_counts) <= 2
    assert rep.betti.betti == head + (0,) * (budget - 2)
    rep = nonvanishing_check(g, budget, budget)
    assert rep.status == "budget-exceeded" and rep.betti is None
    with pytest.raises(CellBudgetError):
        build_complex(g, budget, budget)


def test_generator_count_closed_form_matches_enumeration():
    for name in BUNDLED:
        g = load_bundled(name)
        for k in (1, 2, 3, 4):
            half, n_edges = _smooth(g)
            counts = _graded_terms([len(hs) - 1 for hs in half], n_edges, k)
            got = model(g, k).cell_counts()
            assert counts + [0] * (k + 1 - len(counts)) == got + [0] * (k + 1 - len(got)), (name, k)


def test_graded_terms_stop_at_the_product_degree():
    # the budget pre-check must not spend a term on each degree up to k
    k = 10**9
    terms = _graded_terms([2, -1, 3], 5, k)
    assert len(terms) == 4
    assert terms[0] == comb(5 + k - 1, k)
    assert terms[3] == 2 * -1 * 3 * comb(5 + k - 4, k - 3)


def random_multigraph(rng) -> Graph:
    """A connected graph on 2 to 6 vertices: a random spanning tree plus up
    to four extra edges, each a loop, a parallel edge or a chord."""
    verts = tuple(f"v{i}" for i in range(rng.randint(2, 6)))
    edges = [(verts[i], verts[rng.randrange(i)]) for i in range(1, len(verts))]
    for _ in range(rng.randint(0, 4)):
        kind = rng.choice(("loop", "parallel", "chord"))
        if kind == "loop":
            v = rng.choice(verts)
            edges.append((v, v))
        elif kind == "parallel":
            edges.append(rng.choice(edges))
        else:
            edges.append((rng.choice(verts), rng.choice(verts)))
    rng.shuffle(edges)
    return Graph(verts, tuple(edges))


def seeded_multigraphs() -> list[Graph]:
    rng = random.Random(20261018)
    return [random_multigraph(rng) for _ in range(80)]


def assert_same_complex(g: Graph, k: int) -> None:
    got, want = build_complex(g, k), swiatkowski_oracle.build_complex(g, k)
    assert got.cell_counts() == want.cell_counts()
    assert [list(itertools.product(layer.states, layer.monos)) for layer in got.cells] == [
        list(layer) for layer in want.cells
    ]
    # same columns, with their rows in the same order
    assert [[list(col.items()) for col in cols] for cols in got.boundaries] == [
        [list(col.items()) for col in cols] for cols in want.boundaries
    ]


def test_arithmetic_indexing_matches_tuple_keyed_reference():
    for name in BUNDLED:
        for k in range(1, 6):
            assert_same_complex(load_bundled(name), k)
    for g in LOOPS_AND_MULTI_EDGES:
        for k in range(1, 6):
            assert_same_complex(g, k)
    loops = parallels = 0
    for g in seeded_multigraphs():
        loops += any(u == w for u, w in g.edges)
        parallels += len(set(map(frozenset, g.edges))) < len(g.edges)
        for k in range(1, 5):
            assert_same_complex(g, k)
    assert loops and parallels


def test_boundary_columns_skip_the_pivot_rows_of_the_degree_above():
    # the columns the elimination reads: in each degree, those outside the
    # pivot rows of the degree above, equal to the dict-column oracle's
    # with their rows in the same order
    graphs = [load_bundled(name) for name in BUNDLED]
    graphs += [*LOOPS_AND_MULTI_EDGES, *seeded_multigraphs()]
    skipped = 0
    for g in graphs:
        for k in range(1, 6):
            c = build_complex(g, k)
            skip: set[int] = set()
            for d in range(c.dimension, 0, -1):
                want = dict_columns(c.boundaries[d])
                got = c.boundaries[d].columns(skip)
                assert [list(col.items()) for col in got] == [
                    list(col.items()) for j, col in enumerate(want) if j not in skip
                ], (g, k, d)
                skipped += len(skip)
                skip = _rank_of_columns(want)[1]
    assert skipped


def test_generator_layer_counts_states_times_monomials():
    # hgraph k=3, degree 1: two essential vertices with two picks each,
    # times the 15 degree-2 monomials in its 5 edges; no generator is
    # spelled out, so the layer is neither indexed nor iterated
    layer = build_complex(hgraph(), 3).cells[1]
    assert len(layer.states) == 2 * 2 and len(layer.monos) == 15
    assert len(layer) == 2 * 2 * 15
    with pytest.raises(TypeError):
        layer[0]
    with pytest.raises(TypeError):
        iter(layer)


def test_boundary_squares_to_zero_spot():
    # build_complex verifies this internally; re-check one instance by hand
    c = model(theta(), 2)
    assert c.dimension == 2
    for d in range(2, c.dimension + 1):
        lower = list(c.boundaries[d - 1])
        for col in c.boundaries[d]:
            acc = {}
            for row, v in col.items():
                for row2, v2 in lower[row].items():
                    acc[row2] = acc.get(row2, 0) + v * v2
            assert not any(acc.values())


def test_point_graph():
    point = Graph(("p",), ())
    assert nonvanishing_check(point, 1).betti.betti == (1, 0)
    assert nonvanishing_check(point, 2).betti.betti == (0, 0, 0)


# -- exact ranks vs an independent solver ------------------------------------------


def sympy_betti(c) -> tuple[int, ...]:
    counts = c.cell_counts()
    ranks = [0] * (c.dimension + 2)
    for d in range(1, c.dimension + 1):
        mat = sympy.zeros(counts[d - 1], counts[d])
        for j, col in enumerate(c.boundaries[d]):
            for i, v in col.items():
                mat[i, j] = v
        ranks[d] = mat.rank()
    return tuple(
        counts[d] - ranks[d] - ranks[d + 1] for d in range(c.dimension + 1)
    )


def test_betti_matches_sympy_on_small_complexes():
    cases = [
        (star(3), 2),
        (path_graph(2), 2),
        (theta(), 2),
        (star(4), 2),
        (theta(), 3),
        (hgraph(), 3),
        (Graph(("a", "b"), (("a", "a"), ("a", "b"), ("b", "b"))), 3),
    ]
    for g, k in cases:
        c = model(g, k)
        assert betti(c).betti == sympy_betti(c)


def test_betti_vector_indexes_like_its_tuple():
    # a degree past the end raises IndexError, so list(bv) stops there
    for bv in (BettiVector((1, 2)), betti(model(star(3), 2))):
        n = len(bv.betti)
        assert list(itertools.islice(iter(bv), n + 1)) == list(bv.betti)
        with pytest.raises(IndexError):
            bv[n]


def test_rank_of_columns_against_sympy_random():
    # the library's elimination and the dict-column oracle's, on the same
    # random matrices
    rng = random.Random(3)
    for _ in range(40):
        rows = rng.randrange(1, 8)
        cols = rng.randrange(1, 8)
        dense = [[rng.choice((-2, -1, -1, 0, 0, 0, 1, 1, 2)) for _ in range(cols)] for _ in range(rows)]
        columns = [
            {i: dense[i][j] for i in range(rows) if dense[i][j]} for j in range(cols)
        ]
        want = sympy.Matrix(dense).rank()
        assert _rank_of_columns(columns)[0] == want
        assert _eliminate(dict(col) for col in columns)[0] == want


def test_eliminate_non_unit_pivots_against_sympy_and_fractions():
    # a built complex keeps only ±1 pivots, so random matrices reach the
    # fraction-free branch: pivots of either sign, unit or not
    rng = random.Random(17)
    met = set()
    for _ in range(500):
        rows, cols = rng.randint(1, 8), rng.randint(1, 8)
        dense = [[rng.randint(-3, 3) for _ in range(cols)] for _ in range(rows)]
        columns = [{i: dense[i][j] for i in range(rows) if dense[i][j]} for j in range(cols)]
        fresh = [dict(col) for col in columns]
        rank, pivot_rows = _eliminate(fresh)
        assert rank == sympy.Matrix(dense).rank()
        assert (rank, pivot_rows) == _rank_over_fractions(columns)
        # _eliminate registers the dicts it is given, so the nonempty ones
        # left are the pivot columns; a later column whose largest row is a
        # pivot's was reduced against it
        registered = {max(col): (j, col[max(col)]) for j, col in enumerate(fresh) if col}
        assert set(registered) == pivot_rows
        for j, col in enumerate(columns):
            if col and registered.get(max(col), (j,))[0] < j:
                a = registered[max(col)][1]
                met.add((a > 0, a in (1, -1)))
    assert met == {(True, True), (False, True), (True, False), (False, False)}


# the Kuratowski graphs: sympy ranks the k = 2 complexes in well under a
# second, the Abrams oracle both k in about 0.2 s each
NONPLANAR = [
    (k33, 2, (1, 4, 0)),
    (k33, 3, (1, 4, 8, 0)),
    (k5, 2, (1, 6, 0)),
    (k5, 3, (1, 6, 30, 0)),
]


def test_nonplanar_betti_match_sympy_and_the_abrams_oracle():
    for make, k, want in NONPLANAR:
        g = make()
        assert nonvanishing_check(g, k).betti.betti == want, (make.__name__, k)
        assert dict_betti(abrams_model(g, k)).betti == want, (make.__name__, k)
        if k == 2:
            assert sympy_betti(model(g, k)) == want, make.__name__


def test_nonplanar_d2_registers_a_non_unit_pivot_entry_by_its_content(monkeypatch):
    # on each graph one column of d_2 reaches its pivot row with entry ±2
    # and content 2, which the planar bundled graphs never do; divided by
    # its content it registers as a ±1 pivot.  gcd runs only on that path,
    # and each column's content starts at gcd(0, first entry)
    starts = []
    real_gcd = discrete_config.gcd

    def counted(g, v):
        if g == 0:
            starts.append(v)
        return real_gcd(g, v)

    monkeypatch.setattr(discrete_config, "gcd", counted)
    for make, k, _ in NONPLANAR:
        c = model(make(), k)
        cleared = frozenset()
        for d in range(c.dimension, 1, -1):
            columns = list(c.boundaries[d].columns(cleared))
            fresh = [dict(col) for col in columns]
            starts.clear()
            rank, pivot_rows = _eliminate(fresh)
            assert len(starts) == (1 if d == 2 else 0), (make.__name__, k, d)
            assert (rank, pivot_rows) == _rank_over_fractions(columns)
            assert all(col[max(col)] in (1, -1) for col in fresh if col)
            cleared = pivot_rows


def test_eliminate_keeps_a_negative_non_unit_pivot():
    # the only pivot is -2: its column registers as it is, with content 1
    # and its sign kept, and the other two, multiples of it, reduce to zero
    # as a*col - b*pivot, one step each.  A pivot's entries are read once
    # per step, so a step that leaves the pivot row, and would repeat
    # forever, fails at the third read
    class Column(dict):
        reads = 0

        def items(self):
            Column.reads += 1
            assert Column.reads <= 2, "a reduction step left the pivot row"
            return super().items()

    columns = [{0: 1, 1: -2}, {0: -2, 1: 4}, {0: 3, 1: -6}]
    fresh = [Column(col) for col in columns]
    assert _eliminate(fresh) == (1, {1})
    assert fresh == [{0: 1, 1: -2}, {}, {}] and Column.reads == 2
    assert _rank_over_fractions(columns) == (1, {1})


class _NeverCancels(int):
    """An int whose differences never reach 0: a step that should cancel
    its pivot row leaves 1 there instead."""

    def __sub__(self, other):
        return _NeverCancels(int(self) - int(other) or 1)

    def __rsub__(self, other):
        return _NeverCancels(int(other) - int(self) or 1)

    def __mul__(self, other):
        return _NeverCancels(int(self) * int(other))

    __rmul__ = __mul__


def test_eliminate_raises_when_a_step_leaves_its_pivot_row():
    # such a step would pick the same pivot forever; the alarm turns a
    # hang into a failure
    def stalled(signum, frame):
        raise TimeoutError("_eliminate did not return")

    previous = signal.signal(signal.SIGALRM, stalled)
    signal.alarm(5)
    try:
        with pytest.raises(AssertionError, match="pivot row 0"):
            _eliminate([{0: _NeverCancels(1)}, {0: _NeverCancels(1)}])
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_incidence_rank_and_clearing_match_plain_elimination():
    # per degree, the library's rank from the factors, with the pivot rows
    # of the degree above skipped, equals the dict-column oracle's rank of
    # every column; in degree 1, union-find on the factors agrees with the
    # oracle's union-find and elimination, with and without those columns
    cases = [(load_bundled(name), k) for name in BUNDLED for k in range(1, 7)]
    cases += [(g, k) for g in LOOPS_AND_MULTI_EDGES for k in range(1, 6)]
    cases += [(g, k) for g in seeded_multigraphs() for k in range(1, 5)]
    for g, k in cases:
        c = build_complex(g, k)
        cleared: frozenset[int] = frozenset()
        for d in range(c.dimension, 0, -1):
            columns = list(c.boundaries[d])
            rank = _rank_of_columns(columns)[0]
            if d == 1:
                n0 = len(c.cells[0])
                assert _rank_by_union_find(c.boundaries[1]) == rank, (g, k)
                assert _rank_of_incidence_columns(columns, n0) == rank, (g, k)
                assert _rank_of_incidence_columns(columns, n0, cleared) == rank, (g, k)
            # the skipped columns are never built
            kept = list(c.boundaries[d].columns(cleared))
            assert len(kept) == len(columns) - len(cleared), (g, k, d)
            got, pivots = _eliminate(kept)
            assert got == rank, (g, k, d)
            cleared = frozenset(pivots)


def test_incidence_rank_rejects_other_columns():
    malformed = ({0: 1, 1: -1, 2: 1}, {0: 1, 1: 1}, {0: 2, 1: -1}, {0: 1})
    for col in malformed:
        with pytest.raises(AssertionError, match="incidence"):
            _rank_of_incidence_columns([{0: 1, 1: -1}, col], 3)
        # a skipped column is checked too
        with pytest.raises(AssertionError, match="incidence"):
            _rank_of_incidence_columns([col], 3, skip={0})
    assert _rank_of_incidence_columns([{}, {0: 3, 2: -3}, {2: 1, 0: -1}], 3) == 1
    # the library stores d_1 as the terms each vertex state shares, so the
    # malformed columns are planted there: betti raises rather than ranking
    # degree 1 another way.  On star3 at k = 2, state 0 is (0, 1, 1), (0, 0, -1).
    planted = (
        ((0, 1, 1), (0, 0, -1), (0, 2, 1)),  # three rows
        ((0, 1, 1), (0, 0, 1)),  # one sign twice
        ((0, 1, 2), (0, 0, -1)),  # unequal sizes
        ((0, 1, 1),),  # one row
        ((0, 1, 1), (0, 1, -1)),  # one edge twice
    )
    for terms in planted:
        c = build_complex(star(3), 2)
        assert c.boundaries[1].terms[0] == ((0, 1, 1), (0, 0, -1))
        c.boundaries[1].terms[0] = terms
        with pytest.raises(AssertionError, match="incidence"):
            betti(c)


# -- the d² check on the factors ----------------------------------------------------


def squares_to_zero(check, boundaries) -> bool:
    try:
        check(boundaries)
    except AssertionError as exc:
        assert "boundary of boundary" in str(exc)
        return False
    return True


def verdicts(c) -> tuple[bool, bool]:
    """The factored check's verdict on c, and the dict-column oracle's on
    the columns spelled out from c's factors."""
    return (
        squares_to_zero(_check_squares_to_zero, c.boundaries),
        squares_to_zero(
            _check_boundary_squares_to_zero, [[]] + [dict_columns(bd) for bd in c.boundaries[1:]]
        ),
    )


def test_factored_square_check_matches_dict_columns(monkeypatch):
    cases = [(load_bundled(name), k) for name in BUNDLED for k in range(1, 7)]
    cases += [(g, k) for g in LOOPS_AND_MULTI_EDGES for k in range(1, 6)]
    cases += [(g, k) for g in seeded_multigraphs() for k in range(1, 5)]
    checked = 0
    for g, k in cases:
        c = build_complex(g, k)
        assert verdicts(c) == (True, True), (g, k)
        checked += c.dimension >= 2
    assert checked > 100
    # the check reads no column at all
    def no_columns(self, skip=frozenset()):
        raise AssertionError("a column was read")

    monkeypatch.setattr(discrete_config.Boundary, "columns", no_columns)
    for g, k in cases:
        build_complex(g, k)


def test_factored_square_check_rejects_keys_on_one_row():
    # Factors no builder makes, with every monomial product landing on one
    # rank: the composed maps commute, and the signs of the one upper state
    # fall on two keys, (0, {0, 2}) and (0, {1, 2}), that do not cancel.
    # Both keys reach the same row, so every column composes to zero, as
    # the dict-column check finds; the factored check, which reads no
    # column, rejects the pair.
    lo = discrete_config.Boundary([((0, 2, 1),)], [[0, 0, 0]] * 3, 1)
    hi = discrete_config.Boundary([((0, 0, 1), (0, 1, -1))], [[0], [1], [2]], 3)
    assert list(hi) == [{0: 1, 1: -1}] and list(lo) == [{0: 1}] * 3
    assert squares_to_zero(_check_boundary_squares_to_zero, [[], list(lo), list(hi)])
    assert not squares_to_zero(_check_squares_to_zero, [[], lo, hi])
    # with the second term's edge moved to a monomial whose column is zero,
    # the column composes to a nonzero vector
    lo = discrete_config.Boundary([((0, 2, 1),), ()], [[0, 0, 0]] * 3, 1)
    hi = discrete_config.Boundary([((0, 0, 1), (1, 1, -1))], [[0], [1], [2]], 3)
    assert not squares_to_zero(_check_boundary_squares_to_zero, [[], list(lo), list(hi)])
    assert not squares_to_zero(_check_squares_to_zero, [[], lo, hi])


def test_boundary_columns_reject_terms_on_one_row():
    # no built complex puts two terms of a state on one row, so the column
    # reader raises instead of adding them up; the dict-column oracle adds
    bd = discrete_config.Boundary([((0, 0, 1), (0, 1, -1), (0, 0, 1), (0, 1, 1))], [[0], [1]], 2)
    assert dict_columns(bd) == [{0: 2}]
    with pytest.raises(AssertionError, match="share a row"):
        list(bd)
    with pytest.raises(AssertionError, match="share a row"):
        list(bd.columns())
    # a skipped column is not read
    assert list(bd.columns({0})) == []


def top_state(c, d: int) -> int:
    """A state of degree d whose terms all lead to lower states with terms."""
    hi, lo = c.boundaries[d], c.boundaries[d - 1]
    return next(
        s for s, terms in enumerate(hi.terms) if terms and all(lo.terms[q] for q, _, _ in terms)
    )


def flip_sign(c, d):
    terms = c.boundaries[d].terms
    s = top_state(c, d)
    (q, e, sign), *rest = terms[s]
    terms[s] = ((q, e, -sign), *rest)


def swap_edge(c, d):
    terms, n_edges = c.boundaries[d].terms, len(c.boundaries[d].up)
    s = top_state(c, d)
    (q, e, sign), *rest = terms[s]
    terms[s] = ((q, (e + 1) % n_edges, sign), *rest)


def drop_term(c, d):
    terms = c.boundaries[d].terms
    s = top_state(c, d)
    terms[s] = terms[s][1:]


def break_commuting(c, d):
    # one degree down, the monomial that a column of degree d reaches
    # through edge b trades its rank times another edge a with a neighbour,
    # so the path through b then a and the one through a then b part
    hi, lo = c.boundaries[d], c.boundaries[d - 1]
    q, b, _ = hi.terms[top_state(c, d)][0]
    a = next(e for _, e, _ in lo.terms[q] if e != b)
    x = hi.up[b][0]
    y = x + 1 if x + 1 < len(lo.up[a]) else x - 1
    lo.up[a][x], lo.up[a][y] = lo.up[a][y], lo.up[a][x]


MUTANT_CASES = (
    (theta(), 3),
    (theta(), 4),
    (hgraph(), 3),
    (hgraph(), 4),
    (spider(), 3),
    (LOOPS_AND_MULTI_EDGES[2], 3),
)


def test_factored_square_check_rejects_mutants():
    for g, k in MUTANT_CASES:
        for d in range(2, build_complex(g, k).dimension + 1):
            for mutate in (flip_sign, swap_edge, drop_term, break_commuting):
                c = build_complex(g, k)
                mutate(c, d)
                assert verdicts(c) == (False, False), (mutate.__name__, g, k, d)


def test_factored_square_check_matches_dict_columns_on_random_mutants():
    # the factored check raises exactly when the dict-column check on the
    # columns spelled out from the factors does, also on factors no builder
    # makes
    rng = random.Random(20261019)
    outcomes = set()
    for _ in range(400):
        g, k = rng.choice(MUTANT_CASES)
        c = build_complex(g, k)
        d = rng.randrange(2, c.dimension + 1)
        for _ in range(rng.randint(1, 2)):
            bd = c.boundaries[rng.choice((d, d - 1)) if d > 2 else d]
            kind = rng.randrange(4)
            if kind == 3:
                e = rng.randrange(len(bd.up))
                x, y = rng.randrange(len(bd.up[e])), rng.randrange(len(bd.up[e]))
                bd.up[e][x], bd.up[e][y] = bd.up[e][y], bd.up[e][x]
                continue
            s = rng.randrange(len(bd.terms))
            terms = list(bd.terms[s])
            if not terms:
                continue
            i = rng.randrange(len(terms))
            q, e, sign = terms[i]
            if kind == 0:
                terms[i] = (q, e, -sign)
            elif kind == 1:
                terms[i] = (q, rng.randrange(len(bd.up)), sign)
            else:
                del terms[i]
            bd.terms[s] = tuple(terms)
        got, want = verdicts(c)
        assert got == want, (g, k, d)
        outcomes.add(got)
    assert outcomes == {True, False}


# -- agreement with the Abrams complex ----------------------------------------------


def test_matches_abrams_oracle_on_bundled_graphs():
    # full vectors, lengths included: every bundled graph has an essential
    # vertex, so both report degrees 0..k
    cases = [(name, k) for name in BUNDLED for k in (1, 2, 3)]
    cases += [("star3", 4), ("theta", 4), ("hgraph", 4)]
    for name, k in cases:
        g = load_bundled(name)
        want = dict_betti(abrams_model(g, k)).betti
        assert nonvanishing_check(g, k).betti.betti == want, (name, k)


def test_matches_abrams_oracle_on_loops_and_multi_edges():
    for g in LOOPS_AND_MULTI_EDGES:
        for k in (1, 2, 3):
            assert nonvanishing_check(g, k).betti.betti == dict_betti(abrams_model(g, k)).betti


def test_no_essential_vertex_reports_degrees_zero_to_k():
    # the Abrams complex stops at its top nonempty dimension, so it gave the
    # path (1, 0, 0) and the circle (1, 1) at k=3; the report now always has
    # length k+1, and the trimmed vectors agree
    path, circle = path_graph(3), cycle_graph(4)
    assert dict_betti(abrams_model(path, 3)).betti == (1, 0, 0)
    assert dict_betti(abrams_model(circle, 3)).betti == (1, 1)
    assert nonvanishing_check(path, 3).betti.betti == (1, 0, 0, 0)
    assert nonvanishing_check(circle, 3).betti.betti == (1, 1, 0, 0)


# -- golden values and nonvanishing -------------------------------------------------


def test_star_golden_values():
    golden = {3: 1, 4: 3, 5: 6}
    for n, b1 in golden.items():
        c = model(star(n), 2)
        assert betti(c).betti[1] == b1 == (n - 1) * (n - 2) // 2


def test_goldens_beyond_the_abrams_complex():
    # 3.49M Abrams cells for hgraph k=5; a few hundred generators here
    golden = [
        (hgraph(), 5, (1, 20, 5, 0, 0, 0)),
        (spider(), 4, (1, 52, 9, 0, 0)),
        (theta(), 6, (1, 3, 6, 0, 0, 0, 0)),
    ]
    for g, k, want in golden:
        assert nonvanishing_check(g, k).betti.betti == want


def test_observed_betti_closed_forms_regression():
    # observed on the computed Betti numbers, not proven: pinned as
    # regressions, not as theorems
    for k in range(6, 16):
        want = (1, 3, comb(k - 2, 2)) + (0,) * (k - 2)
        assert nonvanishing_check(theta(), k).betti.betti == want, ("theta", k)
    for k in range(6, 14):
        want = (1, k * (k - 1), comb(k, 4)) + (0,) * (k - 2)
        assert nonvanishing_check(hgraph(), k).betti.betti == want, ("hgraph", k)


def test_beta0_is_one_on_connected_inputs():
    # each bundled graph up to the k it runs in about 0.1 s; the bundled
    # stars are star(3..5), run with star(6) below
    top = {"hgraph": 12, "random10": 6, "spider": 6, "theta": 12}
    assert set(BUNDLED) == set(top) | {"star3", "star4", "star5"}
    for name, k_max in top.items():
        g = load_bundled(name)
        for k in range(1, k_max + 1):
            assert betti(model(g, k)).betti[0] == 1, (name, k)
    # a star's complex stops in degree 1, so b_1 follows from the Euler
    # characteristic C(n+k-1, k) - (n-1) C(n+k-2, k-1) of its generators
    for n in range(3, 7):
        for k in range(1, 15):
            b1 = 1 - comb(n + k - 1, k) + (n - 1) * comb(n + k - 2, k - 1)
            assert betti(model(star(n), k)).betti == (1, b1), (n, k)


def test_nonvanishing_star3_k2():
    rep = nonvanishing_check(star(3), 2)
    assert rep.status == "verified"
    assert rep.degree == 1 and rep.nonzero is True
    assert rep.betti.betti[1] == 1


def test_nonvanishing_theta_k2():
    rep = nonvanishing_check(theta(), 2)
    assert rep.degree == 1 and rep.nonzero is True


def test_nonvanishing_tree_k1():
    rep = nonvanishing_check(star(4), 1)
    assert rep.degree == 0 and rep.nonzero is True


def test_nonvanishing_budget_exceeded_is_reported():
    rep = nonvanishing_check(theta(), 4, budget=78)
    assert rep.status == "budget-exceeded"
    assert rep.nonzero is None and rep.betti is None
    assert rep.chain_complex is None
    rep = nonvanishing_check(theta(), 4, budget=79)
    assert rep.status == "verified" and sum(rep.cell_counts) == 79


def test_b0_check_catches_a_wrong_d1_rank(monkeypatch):
    # one rank too few in d_1 raises b_0 and b_1 by one each, which the Euler
    # characteristic cannot see: only the b_0 check does
    real = discrete_config._rank_by_union_find
    monkeypatch.setattr(discrete_config, "_rank_by_union_find", lambda bd: real(bd) - 1)
    for g, k in ((theta(), 3), (hgraph(), 4), (cycle_graph(3), 2), (star(3), 1)):
        with pytest.raises(AssertionError, match=r"^b_0 = 2 != 1: the rank of d_1 is wrong$"):
            nonvanishing_check(g, k)


def test_zero_particles_is_one_point():
    point = Graph(("p",), ())
    for g in (hgraph(), point, theta(), cycle_graph(3), *LOOPS_AND_MULTI_EDGES):
        rep = nonvanishing_check(g, 0)
        assert rep.betti.betti == (1,) and rep.cell_counts == (1,)
        assert rep.degree == 0 and rep.nonzero is True and rep.status == "verified"
        valences = [len(hs) for hs in g.half_edges.values()]
        assert _gal_euler_characteristic(valences, g.n_edges, 0) == 1
        assert_same_complex(g, 0)
        with pytest.raises(ValueError, match="nonnegative"):
            build_complex(g, -1)


def test_euler_characteristic_matches_gal_on_bundled_graphs():
    # nonvanishing_check raises on a mismatch; the sum is recomputed here too
    for name in BUNDLED:
        g = load_bundled(name)
        for k in range(1, 7):
            rep = nonvanishing_check(g, k)
            chi = sum((-1) ** d * b for d, b in enumerate(rep.betti.betti))
            assert rep.status == "verified"
            valences = [len(hs) for hs in g.half_edges.values()]
            assert chi == _gal_euler_characteristic(valences, g.n_edges, k), (name, k)


def test_euler_characteristic_mismatch_raises(monkeypatch):
    real = discrete_config._gal_euler_characteristic
    monkeypatch.setattr(
        discrete_config, "_gal_euler_characteristic", lambda *args: real(*args) + 1
    )
    with pytest.raises(AssertionError, match="Gal"):
        nonvanishing_check(theta(), 3)


def test_betti_stable_under_extra_subdivision():
    def subdivide_all(g: Graph) -> Graph:
        verts = list(g.vertices)
        edges = []
        for i, (u, w) in enumerate(g.edges):
            m = f"mid{i}"
            verts.append(m)
            edges += [(u, m), (m, w)]
        return Graph(tuple(verts), tuple(edges))

    cases = [(star(3), 2), (star(3), 3), (theta(), 2), (hgraph(), 2), (load_bundled("random10"), 2)]
    for g, k in cases:
        base = trimmed(betti(build_complex(g, k)))
        again = trimmed(betti(build_complex(subdivide_all(normalize(g)), k)))
        assert base == again, (g.vertices[:3], k)


def test_sinkfree_star_values_differ_from_leaf_identified_models():
    # the two-particle leaf-identified model has rank n-1; the sink-free star
    # homology is the triangular number, and the suite asserts the sink-free
    # values so the two families cannot be conflated
    from gbtc.local_graphs import EquivRelation, build_lambda, pi1_rank

    for n in (3, 5):
        sinkfree = betti(model(star(n), 2)).betti[1]
        lam_rank = pi1_rank(build_lambda(EquivRelation.indiscrete(n), 2))
        assert sinkfree == (n - 1) * (n - 2) // 2
        assert lam_rank == n - 1
        assert sinkfree != lam_rank
