"""Reduced Świątkowski complex of sink-free unordered configuration spaces.

The rational homology of UConf_k of a graph is computed from a small chain
complex built on the graph itself (Świątkowski, Colloq. Math. 89, 2001, in
the reduced form of An, Drummond-Cole and Knudsen, "Subdivisional spaces and
graph braid groups", arXiv:1708.02351).  Bivalent vertices are smoothed away
first; self-loops and parallel edges are allowed, and a bare circle becomes
one vertex with a loop.  At each vertex v fix the first half-edge h0(v).  A
generator of degree d is a choice of d occupied vertices, each holding a
difference h - h0(v) of half-edges at it, times a monomial of degree k - d in
the edges.  The differential sends h - h0(v) to e(h) - e(h0(v)), with the
Koszul sign of the occupied vertex's position.  No subdivision is needed, and
the generator count is known in closed form before anything is enumerated.

The complex is Z[E] tensored with one small complex per vertex, and the
generators are indexed that way: degree d lists its vertex states (occupied
vertices with their half-edge picks) and its edge monomials (in
``combinations_with_replacement`` order), and generator j is state j // M_d
with monomial j % M_d, M_d being the number of monomials.  Each boundary map
is stored factored the same way (:class:`Boundary`): every column of one
vertex state has the same terms (the state with one vertex emptied, the edge
its particle moves onto, a sign), and a row is plain arithmetic on the index
of that lower state and the rank of the monomial times the edge.  No
generator is hashed and nothing is stored per generator: the one column
reader, :meth:`Boundary.columns`, builds each column as it yields it, for
the elimination and for the boundary dump.

Boundary of boundary is checked on the factors alone, once per vertex state
for all monomials at once (:func:`_check_squares_to_zero`).  Exactness is
non-negotiable: ranks are computed over the integers, never in floating
point.  Degrees 2 and up are reduced by columns, each pivoting on its
largest row, which on this complex creates far less fill than pivoting on
the smallest; a column is built only when the clearing does not skip it.
Pivots keep their sign.  A ±1 pivot reduces a column without rescaling it,
since 1/a = a; any other pivot is combined fraction-free.  Content is
divided out only of a column that registers with a pivot entry other than
±1: on K_{3,3} and K_5 one column of d_2 does, with entry ±2 and content 2
(k = 2, 3, 4), and registers as a ±1 pivot.  No built complex has yet kept a
pivot other than ±1, so only synthetic matrices reach the fraction-free step.
Degree 1 needs no elimination: every column of d_1 is zero or
e(h) - e(h0) on two monomials, so d_1 is the incidence matrix of a graph on
the degree-0 generators, and its rank is their number less the number of
components, counted by union-find straight from the factors.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable, Set
from math import comb, gcd

from .graph_core import Graph, Record

DEFAULT_CELL_BUDGET = 1_000_000


class CellBudgetError(RuntimeError):
    """The complex would exceed the configured generator budget."""


def _smooth(g: Graph) -> tuple[list[list[int]], int]:
    """``g.half_edges`` with the bivalent vertices smoothed away; the
    graph's own table is left as it was.

    Returns one list per remaining vertex, in input order, of the edge index
    of each half-edge there (a self-loop is listed twice), and the number of
    remaining edges.  A vertex whose two half-edges are one loop stays.
    """
    vid = {v: i for i, v in enumerate(g.vertices)}
    ends = [[vid[u], vid[w]] for u, w in g.edges]
    at = [list(hs) for hs in g.half_edges.values()]  # a copy, rewritten below
    alive = [True] * len(ends)
    for v, hs in enumerate(at):
        if len(hs) != 2 or hs[0] == hs[1]:
            continue
        keep, gone = hs
        far = ends[gone][0] if ends[gone][1] == v else ends[gone][1]
        ends[keep][ends[keep].index(v)] = far
        at[far][at[far].index(gone)] = keep
        alive[gone] = False
        hs.clear()
    renum = {ei: i for i, ei in enumerate(ei for ei in range(len(ends)) if alive[ei])}
    return [[renum[ei] for ei in hs] for hs in at if hs], len(renum)


def _graded_terms(coeffs: list[int], n_edges: int, k: int) -> list[int]:
    """[t^d] prod_c (1 + c t) times [t^(k-d)] (1 - t)^(-n_edges), for
    d = 0..min(k, len(coeffs)): the product has no terms of higher degree."""
    top = min(k, len(coeffs))
    poly = [1] + [0] * top
    for c in coeffs:
        for d in range(top, 0, -1):
            poly[d] += c * poly[d - 1]
    return [
        poly[d] * (comb(n_edges + k - d - 1, k - d) if n_edges else int(d == k))
        for d in range(top + 1)
    ]


def _gal_euler_characteristic(valences: Iterable[int], n_edges: int, k: int) -> int:
    """chi(UConf_k) of a graph from its valences alone: the t^k coefficient
    of prod_v (1 + (1 - val v) t) * (1 - t)^(-|E|) (Gal, Colloq. Math. 89,
    2001)."""
    return sum(_graded_terms([1 - val for val in valences], n_edges, k))


class GeneratorLayer(Record):
    """The generators of one degree, in order, without spelling them out.

    Generator j is vertex state ``states[j // M]`` times edge monomial
    ``monos[j % M]``, with ``M = len(monos)``: every vertex state times
    every edge monomial, the monomial varying fastest.  A vertex state is a
    tuple of occupied (vertex, half-edge) pairs and a monomial a sorted
    tuple of edge indices.  ``len`` counts the generators; nothing is
    stored per generator.
    """

    __slots__ = ("states", "monos")

    def __len__(self) -> int:
        return len(self.states) * len(self.monos)


class Boundary(Record):
    """The boundary map of one degree d >= 1, stored once per vertex state.

    Every column of an upper vertex state s has the same terms, listed in
    ``terms[s]`` as (q, e, sign): q indexes the lower state with one vertex
    emptied and e is the edge its particle moves onto.  ``up[e][r]`` is the
    rank among the lower monomials of upper monomial r times e, and
    ``stride`` the number of lower monomials.  Column j = s * M + r, with
    M = len(up[e]), holds each sign at row q * stride + up[e][r].

    :meth:`columns` is the one column reader; iterating a boundary yields
    every column through it.
    """

    __slots__ = ("terms", "up", "stride")
    __hash__ = None

    def __iter__(self):
        return self.columns()

    def columns(self, skip: Set[int] = frozenset()):
        """Yield column j as a fresh ``{row: sign}`` dict, in order, for
        each j not in skip.

        A state's terms are read once, into (rows of q, up[e], sign) parts;
        column s * M + r then maps row ``rows[up[e][r]]`` to sign for each
        part, in term order.  Each row number is one int object, shared by
        every column that holds it, so dict lookups between columns match
        keys by identity.

        Raises :class:`AssertionError` if two terms of a state land on one
        row of a column, which no built complex does.  Within a state the
        (q, e) pairs of the terms are distinct: emptying different occupied
        vertices leaves different lower states, and one vertex gives the two
        terms e != e0 (a loop's e == e0 gives none).  Terms with different q
        fall in different blocks of ``stride`` rows, and for a fixed r,
        distinct edges give distinct ranks ``up[e][r]``, because m * e =
        m * e' forces e = e'.
        """
        width, stride, up = len(self.up[0]), self.stride, self.up
        below: dict[int, list[int]] = {}  # below[q]: the rows of lower state q
        for s, terms in enumerate(self.terms):
            parts = []  # (rows of q, up[e], sign) per term
            for q, e, sign in terms:
                at = below.get(q)
                if at is None:
                    at = below[q] = list(range(q * stride, q * stride + stride))
                parts.append((at, up[e], sign))
            for r, j in enumerate(range(s * width, s * width + width)):
                if j not in skip:
                    column = {at[u[r]]: sign for at, u, sign in parts}
                    if len(column) < len(parts):
                        raise AssertionError(f"two terms of column {j} share a row")
                    yield column


class ChainComplex(Record):
    """Generators of k particles on ``graph``, graded by degree, with
    integer boundary maps.

    ``cells[d]`` is the :class:`GeneratorLayer` of degree d, the vertex
    states and edge monomials whose products are its generators.
    ``boundaries[d]`` is a :class:`Boundary` for d >= 1 (and an empty list
    for d = 0), stored factored per vertex state; its columns, read with
    :meth:`Boundary.columns`, are ``{row: coefficient}`` dicts over the
    generators of degree d - 1.  Boundary of boundary vanishing is checked
    at build.  Its fields hold lists, so it is unhashable."""

    __slots__ = ("graph", "k", "cells", "boundaries")
    __hash__ = None

    @property
    def dimension(self) -> int:
        return len(self.cells) - 1

    def cell_counts(self) -> list[int]:
        return [len(layer) for layer in self.cells]


def build_complex(g: Graph, k: int, budget: int = DEFAULT_CELL_BUDGET) -> ChainComplex:
    """The reduced Świątkowski complex of k particles on a graph (connected,
    as every ``Graph`` is), in degrees 0..min(k, number of vertices of
    valence >= 2 after smoothing).

    Raises :class:`CellBudgetError` before enumerating anything when the
    generator count, or k + 1, exceeds ``budget``: a graph of at most one
    edge after smoothing has at most two generators at every k, yet its
    degree-0 monomial holds k edges and its report k + 1 Betti numbers.
    Verifies boundary-of-boundary.

    Each boundary map is stored factored (:class:`Boundary`): the terms of
    each vertex state, found by hashing the states once each, and the rank
    of every monomial times every edge.  No column is built.
    """
    if k < 0:
        raise ValueError("particle count k must be nonnegative")
    if k + 1 > budget:
        raise CellBudgetError(f"generator budget exceeded: k + 1 = {k + 1} for budget {budget}")
    half, n_edges = _smooth(g)
    if not n_edges:
        # a point holds at most one particle; the reduction needs a half-edge per vertex
        return ChainComplex(g, k, [GeneratorLayer(((),) if k <= 1 else (), ((),))], [[]])

    total = sum(_graded_terms([len(hs) - 1 for hs in half], n_edges, k))
    if total > budget:
        raise CellBudgetError(
            f"generator budget exceeded: {total} generators for k={k}, budget {budget}"
        )
    active = [v for v, hs in enumerate(half) if len(hs) > 1]
    layers = [
        GeneratorLayer(
            tuple(
                tuple(zip(verts, picks))
                for verts in itertools.combinations(active, d)
                for picks in itertools.product(*(range(1, len(half[v])) for v in verts))
            ),
            tuple(itertools.combinations_with_replacement(range(n_edges), k - d)),
        )
        for d in range(min(k, len(active)) + 1)
    ]

    boundaries: list = [[]]
    for d in range(1, len(layers)):
        lower, upper = layers[d - 1], layers[d]
        # Multiplying by e maps the monomials onto those that contain e and
        # keeps their order (sorted tuples compare at the least edge whose
        # multiplicity differs), so up[e] lists the ranks of the lower
        # monomials containing e, in order.
        up = [[r for r, m in enumerate(lower.monos) if e in m] for e in range(n_edges)]
        index = {s: i for i, s in enumerate(lower.states)}
        terms: list[tuple[tuple[int, int, int], ...]] = []
        for states in upper.states:
            t: list[tuple[int, int, int]] = []
            for i, (v, j) in enumerate(states):
                e, e0 = half[v][j], half[v][0]
                if e == e0:
                    continue  # the two half-edges of one loop: the terms cancel
                q = index[states[:i] + states[i + 1 :]]
                sign = -1 if i % 2 else 1
                t += ((q, e, sign), (q, e0, -sign))
            terms.append(tuple(t))
        boundaries.append(Boundary(terms, up, len(lower.monos)))

    _check_squares_to_zero(boundaries)
    return ChainComplex(g, k, layers, boundaries)


def _check_squares_to_zero(boundaries: list) -> None:
    """Raise unless d_(d-1) d_d vanishes, for d >= 2, reading only the
    factors.

    Composing the two maps, column (s, r) goes to the sum over the terms
    (q, e, sign) of s and (q2, e2, sign2) of q of sign * sign2 at row
    q2 * stride' + up'[e2][up[e][r]], up' and stride' being the lower
    map's.  The check raises unless up'[b][up[a][r]] == up'[a][up[b][r]]
    for every pair of edges and every r (the two products name one
    monomial), and then unless every state's signs, summed by
    (q2, {e, e2}), are all zero.

    If it passes, every column composes to zero: with commuting maps the
    row of a pair of terms depends only on q2, the unordered pair {e, e2}
    and r, so each row's entry is a sum of key sums, all zero.  Conversely,
    where the maps commute and distinct keys reach distinct rows, a nonzero
    key sum is a nonzero entry of every column of its state, so the check
    raises only where d^2 != 0.  A built complex is such a case: up[e][r]
    is the rank of monomial r times e, so its maps commute; q2 picks the
    block of rows; and m * e * e2 = m * f * f2 forces {e, e2} = {f, f2}.
    Factors no builder makes, with maps that do not commute or two keys on
    one row, may be rejected although their columns compose to zero.
    """
    for d in range(2, len(boundaries)):
        hi, lo = boundaries[d], boundaries[d - 1]
        n_edges = len(hi.up)
        if not all(
            list(map(lo.up[b].__getitem__, hi.up[a])) == list(map(lo.up[a].__getitem__, hi.up[b]))
            for a in range(n_edges)
            for b in range(a)
        ):
            raise AssertionError(f"boundary of boundary: degree {d}'s monomial maps do not commute")
        lo_terms, pairs = lo.terms, n_edges * n_edges
        for terms in hi.terms:
            # keyed by q2 and the unordered pair {e, e2}, as one int
            acc: dict[int, int] = {}
            for q, e, sign in terms:
                for q2, e2, sign2 in lo_terms[q]:
                    key = q2 * pairs + (e * n_edges + e2 if e < e2 else e2 * n_edges + e)
                    acc[key] = acc.get(key, 0) + sign * sign2
            if any(acc.values()):
                raise AssertionError("boundary of boundary is nonzero")


def _eliminate(columns: Iterable[dict[int, int]]) -> tuple[int, set[int]]:
    """Rank of an integer matrix given by fresh columns of nonzero
    entries, which it consumes, with the set of pivot rows.

    Column reduction against the largest-row pivot.  With a the pivot
    column's entry at that row and b the column's, a = ±1 gives
    col - (b*a)*pivot, as 1/a = a, without rescaling the column; any other
    a, negative ones included, gives a*col - b*pivot, fraction-free.  A
    column registers with its sign as it is, divided by its content only
    when its pivot entry is not ±1 (else the content is 1), so pivots stay
    small.  Scaling a column moves none of the pivot rows, so neither
    choice changes the rank or the pivot-row set.  Each registered column
    has its pivot as its largest row.  A step that leaves the pivot row in
    the column raises AssertionError, as it would pick that pivot forever.
    """
    pivots: dict[int, dict[int, int]] = {}
    for col in columns:
        while col:
            r = max(col)
            piv = pivots.get(r)
            if piv is None:
                if col[r] not in (1, -1):  # else the content is 1
                    g = 0
                    for v in col.values():
                        g = gcd(g, v)
                        if g == 1:
                            break
                    if g > 1:
                        for rr in col:
                            col[rr] //= g
                pivots[r] = col
                break
            a = piv[r]
            b = col[r]
            if a in (1, -1):
                b *= a  # col - (b / a) * piv, as 1 / a == a
            else:
                for rr in col:
                    col[rr] *= a
            # row r too, where the entry cancels; an entry only cancels
            # where col has one, since b * vv != 0
            for rr, vv in piv.items():
                nv = col.get(rr, 0) - b * vv
                if nv:
                    col[rr] = nv
                else:
                    del col[rr]
            if r in col:
                raise AssertionError(f"elimination left pivot row {r} in the column")
    return len(pivots), set(pivots)


def _rank_by_union_find(bd: Boundary) -> int:
    """Rank of d_1, read as the incidence matrix of a graph.

    Degree 0 has one vertex state, the empty one, so each state of d_1 has
    no terms or the two terms (0, e, sign), (0, e0, -sign) with e != e0,
    and its column r is sign * (row up[e][r] - row up[e0][r]).  The rank is
    the number of columns that join two components, counted by union-find.
    A state with any other terms raises :class:`AssertionError`.
    """
    parent = list(range(bd.stride))
    rank = 0
    for s, terms in enumerate(bd.terms):
        if not terms:
            continue
        ok = len(terms) == 2
        if ok:
            (q, e, sign), (q0, e0, sign0) = terms
            ok = q == q0 == 0 and e != e0 and sign == -sign0 != 0
        if not ok:
            raise AssertionError(f"degree-1 state {s} does not give incidence columns: {terms}")
        for x, y in zip(bd.up[e], bd.up[e0]):
            while parent[x] != x:
                parent[x] = x = parent[parent[x]]
            while parent[y] != y:
                parent[y] = y = parent[parent[y]]
            if x != y:
                parent[x] = y
                rank += 1
    return rank


class BettiVector(Record):
    """Betti numbers by degree, indexed like the tuple ``betti``."""

    __slots__ = ("betti",)

    def __getitem__(self, d: int) -> int:
        return self.betti[d]


def betti(c: ChainComplex) -> BettiVector:
    """Exact rational Betti numbers of a built complex.

    Ranks of the boundary matrices are computed top dimension first so the
    pivot rows of each reduction mark columns of the next matrix down as
    dependent (safe to skip, and never built).  This clearing holds for
    largest-row pivots: a reduced column b of d_(d+1) has d_d b = 0, so
    column p of d_d, p being b's largest row, is a combination of columns
    of smaller index; by induction upward over the pivot rows, every
    skipped column lies in the span of the columns kept.  Degree 1 is
    ranked whole by union-find (:func:`_rank_by_union_find`), since d_1 is
    an incidence matrix.
    """
    dim = c.dimension
    n = c.cell_counts()
    ranks = [0] * (dim + 2)
    cleared: Set[int] = frozenset()
    for d in range(dim, 1, -1):
        # pivot rows of the reduction one dimension up index dependent
        # columns here, so they are skipped without affecting the rank
        ranks[d], cleared = _eliminate(c.boundaries[d].columns(cleared))
    if dim >= 1:
        ranks[1] = _rank_by_union_find(c.boundaries[1])
    out = []
    for d in range(dim + 1):
        b = n[d] - ranks[d] - ranks[d + 1]
        if b < 0:
            raise AssertionError("negative Betti number: elimination bug")
        out.append(b)
    return BettiVector(tuple(out))


class NonvanishingReport(Record):
    """The verdict on one (graph, k).

    ``status`` is "verified" or "budget-exceeded"; a budget-exceeded report
    has no ``betti`` or ``nonzero`` and empty ``cell_counts``, the generators
    per degree.  ``as_dict`` writes ``betti`` as a plain list.
    """

    __slots__ = ("k", "m", "degree", "betti", "nonzero", "status", "cell_counts")

    def as_dict(self) -> dict:
        return {**super().as_dict(), "betti": list(self.betti.betti) if self.betti else None}


def nonvanishing_check(
    g: Graph, k: int, budget: int = DEFAULT_CELL_BUDGET
) -> NonvanishingReport:
    """Is rational homology nonzero in degree min(floor(k/2), m)?

    Reports the Betti vector of UConf_k g in degrees 0..k (g is connected,
    as every ``Graph`` is).  Its Euler characteristic must equal Gal's; as
    b_d = n_d - r_d - r_(d+1), the ranks cancel there, so that checks only
    the generator counts n_d.  The rank of d_1 is checked by b_0, which is 1,
    or 0 at k >= 2 with no edges: UConf_k g is connected or empty.  An
    exceeded generator budget yields an unverified report instead of an answer.
    """
    valences = [len(hs) for hs in g.half_edges.values()]
    m = sum(val >= 3 for val in valences)  # the essential vertices
    degree = min(k // 2, m)
    try:
        complex_ = build_complex(g, k, budget)
    except CellBudgetError:
        return NonvanishingReport(k, m, degree, None, None, "budget-exceeded", ())
    b = betti(complex_).betti
    bv = BettiVector(b + (0,) * (k + 1 - len(b)))
    chi = sum((-1) ** d * x for d, x in enumerate(bv.betti))
    gal = _gal_euler_characteristic(valences, g.n_edges, k)
    if chi != gal:
        raise AssertionError(f"Euler characteristic {chi} != Gal's formula {gal}")
    b0 = 0 if k >= 2 and not g.edges else 1
    if bv[0] != b0:
        raise AssertionError(f"b_0 = {bv[0]} != {b0}: the rank of d_1 is wrong")
    return NonvanishingReport(
        k, m, degree, bv, bv[degree] != 0, "verified", tuple(complex_.cell_counts())
    )
