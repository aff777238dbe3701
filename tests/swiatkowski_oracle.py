"""Tuple-keyed Świątkowski builder: a reference for
``gbtc.discrete_config.build_complex``.

This builder spells every generator out as a tuple, hashes each one into an
index, finds the row of every boundary term by rebuilding and sorting the
edge monomial of that term and looking the pair up, and stores one
``{row: coefficient}`` dict per generator.  The library stores each
boundary factored per vertex state and finds the same rows by arithmetic on
(vertex-state index, monomial rank), so the two must return the same
generators, in the same order, and the same boundary columns on every
input.
"""

from __future__ import annotations

import itertools

from dict_columns import _check_boundary_squares_to_zero
from gbtc.discrete_config import (
    DEFAULT_CELL_BUDGET,
    CellBudgetError,
    ChainComplex,
    _graded_terms,
    _smooth,
)
from gbtc.graph_core import Graph

# (occupied vertices as (vertex, half-edge position) pairs, edge monomial)
Cell = tuple[tuple[tuple[int, int], ...], tuple[int, ...]]


def build_complex(g: Graph, k: int, budget: int = DEFAULT_CELL_BUDGET) -> ChainComplex:
    """The reduced Świątkowski complex of k particles on a connected graph,
    in degrees 0..min(k, number of vertices of valence >= 2 after smoothing).

    Raises :class:`CellBudgetError` before enumerating anything when the
    generator count exceeds ``budget``.  Verifies boundary-of-boundary.
    """
    if k < 0:
        raise ValueError("particle count k must be nonnegative")
    half, n_edges = _smooth(g)
    if not n_edges:
        # a point holds at most one particle; the reduction needs a half-edge per vertex
        return ChainComplex(g, k, [[((), ())] if k <= 1 else []], [[]])

    total = sum(_graded_terms([len(hs) - 1 for hs in half], n_edges, k))
    if total > budget:
        raise CellBudgetError(
            f"generator budget exceeded: {total} generators for k={k}, budget {budget}"
        )
    active = [v for v, hs in enumerate(half) if len(hs) > 1]
    layers: list[list[Cell]] = []
    for d in range(min(k, len(active)) + 1):
        monomials = list(itertools.combinations_with_replacement(range(n_edges), k - d))
        layer: list[Cell] = []
        for verts in itertools.combinations(active, d):
            for picks in itertools.product(*(range(1, len(half[v])) for v in verts)):
                states = tuple(zip(verts, picks))
                layer.extend((states, mono) for mono in monomials)
        layers.append(layer)

    boundaries: list[list[dict[int, int]]] = [[] for _ in layers]
    for d in range(1, len(layers)):
        idx = {cell: i for i, cell in enumerate(layers[d - 1])}
        cols = []
        for states, mono in layers[d]:
            col: dict[int, int] = {}
            for i, (v, j) in enumerate(states):
                rest = states[:i] + states[i + 1 :]
                sign = -1 if i % 2 else 1
                for e, s in ((half[v][j], sign), (half[v][0], -sign)):
                    row = idx[(rest, tuple(sorted(mono + (e,))))]
                    col[row] = col.get(row, 0) + s
                    if col[row] == 0:
                        del col[row]
            cols.append(col)
        boundaries[d] = cols

    _check_boundary_squares_to_zero(boundaries)
    return ChainComplex(g, k, layers, boundaries)
