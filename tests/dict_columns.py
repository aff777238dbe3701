"""Boundary maps as lists of ``{row: coefficient}`` column dicts: the
d²=0 check, the ranks and the Betti numbers the library computed before it
stored each boundary factored per vertex state.

The oracle complexes (``abrams_oracle``, ``swiatkowski_oracle``) hold their
boundaries this way, and their Betti numbers come from :func:`betti` here,
so the cross-checks share no rank code with the library.  The rank
functions also read a library complex, whose boundaries iterate as the same
dicts; the d²=0 check indexes lower columns, so it takes lists, which
:func:`columns` spells out from a library boundary's factors by itself,
sharing no code with ``Boundary.columns``.  :func:`_rank_over_fractions`
runs the same largest-row reduction over the rationals, to check the pivot
rows of the integer ones.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from gbtc.discrete_config import BettiVector, ChainComplex


def columns(bd) -> list[dict[int, int]]:
    """Every column of a factored ``Boundary``, in order: column
    s * M + r, M = len(bd.up[0]), is the sum of sign at row
    q * bd.stride + bd.up[e][r] over the terms (q, e, sign) of state s.
    Terms on one row are added up, and zero entries dropped."""
    cols = []
    for terms in bd.terms:
        for r in range(len(bd.up[0])):
            col: dict[int, int] = {}
            for q, e, sign in terms:
                row = q * bd.stride + bd.up[e][r]
                col[row] = col.get(row, 0) + sign
            cols.append({row: c for row, c in col.items() if c})
    return cols


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


def _rank_over_fractions(columns: list[dict[int, int]]) -> tuple[int, set[int]]:
    """Rank and pivot rows of the same largest-row column reduction, over
    the rationals: each pivot column is scaled to 1 at its pivot row, and a
    column with entry b there subtracts b times it.  Zero entries are
    ignored."""
    pivots: dict[int, dict[int, Fraction]] = {}
    for col0 in columns:
        col = {row: Fraction(v) for row, v in col0.items() if v}
        while col:
            r = max(col)
            b = col[r]
            piv = pivots.get(r)
            if piv is None:
                pivots[r] = {row: v / b for row, v in col.items()}
                break
            for row, v in piv.items():
                nv = col.get(row, 0) - b * v
                if nv:
                    col[row] = nv
                else:
                    col.pop(row, None)
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


def betti(c: ChainComplex) -> BettiVector:
    """Exact rational Betti numbers of a complex with dict columns, ranked
    top dimension first with the pivot rows of each reduction skipped one
    degree down, and degree 1 by union-find."""
    dim = c.dimension
    n = c.cell_counts()
    ranks = [0] * (dim + 2)
    cleared: set[int] = set()
    for d in range(dim, 1, -1):
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
