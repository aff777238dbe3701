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
with monomial j % M_d, M_d being the number of monomials.  A boundary row is
then plain arithmetic on the index of the state with one vertex emptied and
the rank of the monomial times one edge; no generator is hashed, and a
generator's tuple is spelled out only when ``ChainComplex.cells`` is read.

Exactness is non-negotiable: ranks are computed over the integers, never in
floating point.  Degrees 2 and up are reduced fraction-free, each column
pivoting on its largest row, which on this complex creates far less fill
than pivoting on the smallest.  Degree 1 needs no elimination: every column
of d_1 is zero or e(h) - e(h0) on two monomials, so d_1 is the incidence
matrix of a graph on the degree-0 generators, and its rank is their number
less the number of components, counted by union-find.
"""

from __future__ import annotations

import itertools
from collections.abc import Sequence
from math import comb, gcd

from .graph_core import Graph, HypothesisError, Record, classify, half_edges, is_connected

DEFAULT_CELL_BUDGET = 1_000_000


class CellBudgetError(RuntimeError):
    """The complex would exceed the configured generator budget."""


def _smooth(g: Graph) -> tuple[list[list[int]], int]:
    """Half-edges of g with its bivalent vertices smoothed away.

    Returns one list per remaining vertex, in input order, of the edge index
    of each half-edge there (a self-loop is listed twice), and the number of
    remaining edges.  A vertex whose two half-edges are one loop stays.
    """
    vid = {v: i for i, v in enumerate(g.vertices)}
    ends = [[vid[u], vid[w]] for u, w in g.edges]
    at = list(half_edges(g).values())
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


def _gal_euler_characteristic(g: Graph, k: int) -> int:
    """chi(UConf_k g) from valences alone: the t^k coefficient of
    prod_v (1 + (1 - val v) t) * (1 - t)^(-|E|) (Gal, Colloq. Math. 89, 2001)."""
    return sum(_graded_terms([1 - len(hs) for hs in half_edges(g).values()], g.n_edges, k))


# (occupied vertices as (vertex, half-edge position) pairs, edge monomial)
Cell = tuple[tuple[tuple[int, int], ...], tuple[int, ...]]


class GeneratorLayer(Record):
    """The generators of one degree, in order, without spelling them out.

    Generator j is ``(states[j // M], monos[j % M])`` with ``M =
    len(monos)``: every vertex state times every edge monomial, the
    monomial varying fastest.  Supports ``len``, indexing and iteration;
    a generator's tuple is built only when it is read.
    """

    __slots__ = ("states", "monos")

    def __init__(
        self,
        states: tuple[tuple[tuple[int, int], ...], ...],  # occupied (vertex, half-edge) pairs
        monos: tuple[tuple[int, ...], ...],  # edge monomials as sorted edge indices
    ):
        super().__init__(states, monos)

    def __len__(self) -> int:
        return len(self.states) * len(self.monos)

    def __getitem__(self, j: int) -> Cell:
        if j < 0:
            j += len(self)
        if not 0 <= j < len(self):
            raise IndexError("generator index out of range")
        q, r = divmod(j, len(self.monos))
        return self.states[q], self.monos[r]

    def __iter__(self):
        for s in self.states:
            for m in self.monos:
                yield s, m


class ChainComplex(Record):
    """Generators graded by degree, with integer boundary columns.

    ``cells[d]`` is a sequence of the degree-d generators; the builder
    gives a :class:`GeneratorLayer`, which holds the vertex states and edge
    monomials of that degree and spells out a generator only when it is
    read.  ``boundaries[d][j]`` is the column of generator j of degree d, as
    a ``{row: coefficient}`` dict over the generators of degree d - 1.
    Boundary of boundary vanishing is checked at build.  Unlike the other
    records it is mutable, and so unhashable."""

    __slots__ = ("graph", "k", "cells", "boundaries")
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None

    def __init__(
        self,
        graph: Graph,
        k: int,
        cells: list[Sequence[Cell]],
        boundaries: list[list[dict[int, int]]],  # boundaries[d][j]: column of generator j in degree d
    ):
        super().__init__(graph, k, cells, boundaries)

    @property
    def dimension(self) -> int:
        return len(self.cells) - 1

    def cell_counts(self) -> list[int]:
        return [len(layer) for layer in self.cells]


def build_complex(g: Graph, k: int, budget: int = DEFAULT_CELL_BUDGET) -> ChainComplex:
    """The reduced Świątkowski complex of k particles on a connected graph,
    in degrees 0..min(k, number of vertices of valence >= 2 after smoothing).

    Raises :class:`CellBudgetError` before enumerating anything when the
    generator count exceeds ``budget``.  Verifies boundary-of-boundary.

    The row of a boundary term is (index of the state with one occupied
    vertex emptied) * M_(d-1) + (rank of the monomial times one edge).  Only
    the vertex states are hashed, once each, to find the first index; the
    monomial ranks need no lookup at all.  Each row number is one int
    object, shared by all the columns that hold it.
    """
    if k < 1:
        raise ValueError("particle count k must be at least 1")
    if not is_connected(g):
        raise HypothesisError("connected graph required")
    half, n_edges = _smooth(g)
    if not n_edges:
        # a point holds one particle; the reduction needs a half-edge per vertex
        return ChainComplex(g, k, [GeneratorLayer(((),) if k == 1 else (), ((),))], [[]])

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

    boundaries: list[list[dict[int, int]]] = [[] for _ in layers]
    for d in range(1, len(layers)):
        lower, upper = layers[d - 1], layers[d]
        # up[e][r]: the rank among lower.monos of monomial r of upper.monos
        # times edge e.  Multiplying by e maps the monomials onto those that
        # contain e and keeps their order (sorted tuples compare at the
        # least edge whose multiplicity differs), so up[e] lists the ranks
        # of the monomials containing e, in order.
        up = [[r for r, m in enumerate(lower.monos) if e in m] for e in range(n_edges)]
        # below[s][r]: the row of (s, monomial r), one int object per row
        # shared by every column that holds it
        n = len(lower.monos)
        below = {s: list(range(i * n, i * n + n)) for i, s in enumerate(lower.states)}
        cols: list[dict[int, int]] = []
        for states in upper.states:
            rows: list[list[int]] = []
            signs: list[int] = []
            for i, (v, j) in enumerate(states):
                e, e0 = half[v][j], half[v][0]
                if e == e0:
                    continue  # the two half-edges of one loop: the terms cancel
                at = below[states[:i] + states[i + 1 :]]
                sign = -1 if i % 2 else 1
                rows += ([at[r] for r in up[e]], [at[r] for r in up[e0]])
                signs += (sign, -sign)
            if rows:
                cols += [dict(zip(col, signs)) for col in zip(*rows)]
            else:
                cols += [{} for _ in upper.monos]
        boundaries[d] = cols

    _check_boundary_squares_to_zero(boundaries)
    return ChainComplex(g, k, layers, boundaries)


def _check_boundary_squares_to_zero(boundaries: list[list[dict[int, int]]]) -> None:
    for d in range(2, len(boundaries)):
        lower = boundaries[d - 1]
        for col in boundaries[d]:
            acc: dict[int, int] = {}
            for row, c in col.items():
                for row2, c2 in lower[row].items():
                    acc[row2] = acc.get(row2, 0) + c * c2
            if any(acc.values()):
                raise AssertionError("boundary of boundary is nonzero")


def _rank_of_columns(
    columns: list[dict[int, int]], skip: set[int] | None = None
) -> tuple[int, set[int]]:
    """Rank of an integer matrix given by columns, with the set of pivot rows.

    Column reduction against the largest-row pivot, fraction-free: combining
    a*col - b*pivot keeps everything integral; columns are divided by their
    content when registered so pivots stay small.  Each registered column
    has its pivot as its largest row.
    """
    pivots: dict[int, dict[int, int]] = {}
    for j, col0 in enumerate(columns):
        if skip is not None and j in skip:
            continue
        col = dict(col0)
        while col:
            r = max(col)
            piv = pivots.get(r)
            if piv is None:
                g = 0
                for v in col.values():
                    g = gcd(g, v)
                if g > 1:
                    for rr in col:
                        col[rr] //= g
                if col[r] < 0:
                    for rr in col:
                        col[rr] = -col[rr]
                pivots[r] = col
                break
            a = piv[r]
            b = col.pop(r)
            if a != 1:
                for rr in col:
                    col[rr] *= a
            for rr, vv in piv.items():
                if rr == r:
                    continue
                nv = col.get(rr, 0) - b * vv
                if nv:
                    col[rr] = nv
                elif rr in col:
                    del col[rr]
    return len(pivots), set(pivots)


def _rank_of_incidence_columns(
    columns: list[dict[int, int]], n_rows: int, skip: set[int] | None = None
) -> int:
    """Rank of a matrix whose columns are each zero or c*(row x - row y).

    Such a matrix is the incidence matrix of a graph on its rows, one edge
    per nonzero column, so its rank is the number of edges that join two
    components, counted by union-find.  Any other column raises
    :class:`AssertionError`, skipped ones included.
    """
    parent = list(range(n_rows))
    rank = 0
    for j, col in enumerate(columns):
        if not col:
            continue
        # two entries of opposite sign and equal size
        if len(col) != 2 or sum(col.values()) or 0 in col.values():
            raise AssertionError(f"degree-1 column {j} is not an incidence column: {col}")
        if skip is not None and j in skip:
            continue
        x, y = col
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        while parent[y] != y:
            parent[y] = y = parent[parent[y]]
        if x != y:
            parent[x] = y
            rank += 1
    return rank


class BettiVector(Record):
    __slots__ = ("betti",)

    def __init__(self, betti: tuple[int, ...]):
        super().__init__(betti)

    def __getitem__(self, d: int) -> int:
        return self.betti[d] if 0 <= d < len(self.betti) else 0


def betti(c: ChainComplex) -> BettiVector:
    """Exact rational Betti numbers.

    Ranks of the boundary matrices are computed top dimension first so the
    pivot rows of each reduction mark columns of the next matrix down as
    dependent (safe to skip).  This clearing holds for largest-row pivots:
    a reduced column b of d_(d+1) has d_d b = 0, so column p of d_d, p being
    b's largest row, is a combination of columns of smaller index; by
    induction upward over the pivot rows, every skipped column lies in the
    span of the columns kept.  Degree 1 is ranked by union-find
    (:func:`_rank_of_incidence_columns`), since d_1 is an incidence matrix
    on both the Świątkowski and the Abrams complex.
    """
    dim = c.dimension
    n = c.cell_counts()
    ranks = [0] * (dim + 2)
    cleared: set[int] = set()
    for d in range(dim, 1, -1):
        # pivot rows of the reduction one dimension up index dependent
        # columns here, so they are skipped without affecting the rank
        ranks[d], cleared = _rank_of_columns(c.boundaries[d], cleared or None)
    if dim >= 1:
        ranks[1] = _rank_of_incidence_columns(c.boundaries[1], n[0], cleared or None)
    out = []
    for d in range(dim + 1):
        b = n[d] - ranks[d] - ranks[d + 1]
        if b < 0:
            raise AssertionError("negative Betti number: elimination bug")
        out.append(b)
    return BettiVector(tuple(out))


class NonvanishingReport(Record):
    """The verdict, plus the complex it was read from; the complex takes no
    part in equality, hashing or repr."""

    __slots__ = ("k", "m", "degree", "betti", "nonzero", "status", "cell_counts", "chain_complex")
    _fields = __slots__[:-1]

    def __init__(
        self,
        k: int,
        m: int,
        degree: int,
        betti: BettiVector | None,
        nonzero: bool | None,
        status: str,  # "verified" or "budget-exceeded"
        cell_counts: tuple[int, ...] = (),  # generators per degree
        chain_complex: ChainComplex | None = None,
    ):
        super().__init__(k, m, degree, betti, nonzero, status, cell_counts, chain_complex)

    def as_dict(self) -> dict:
        return {
            "k": self.k,
            "m": self.m,
            "degree": self.degree,
            "betti": list(self.betti.betti) if self.betti else None,
            "nonzero": self.nonzero,
            "status": self.status,
            "cell_counts": list(self.cell_counts),
        }


def nonvanishing_check(
    g: Graph, k: int, budget: int = DEFAULT_CELL_BUDGET
) -> NonvanishingReport:
    """Is rational homology nonzero in degree min(floor(k/2), m)?

    Reports the Betti vector of UConf_k g in degrees 0..k, checked against
    Gal's Euler characteristic; an exceeded generator budget yields an
    unverified report instead of an answer.
    """
    if g.sinks:
        raise HypothesisError("homology is computed for sink-free graphs only")
    cls = classify(g)
    degree = min(k // 2, cls.m)
    try:
        complex_ = build_complex(g, k, budget)
    except CellBudgetError:
        return NonvanishingReport(k, cls.m, degree, None, None, "budget-exceeded")
    b = betti(complex_).betti
    bv = BettiVector(b + (0,) * (k + 1 - len(b)))
    chi = sum((-1) ** d * x for d, x in enumerate(bv.betti))
    gal = _gal_euler_characteristic(g, k)
    if chi != gal:
        raise AssertionError(f"Euler characteristic {chi} != Gal's formula {gal}")
    return NonvanishingReport(
        k,
        cls.m,
        degree,
        bv,
        bv[degree] != 0,
        "verified",
        tuple(complex_.cell_counts()),
        complex_,
    )
