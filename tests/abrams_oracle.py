"""Abrams' discretized configuration complex: a second, independent route to
the homology that ``gbtc.discrete_config`` computes.

A cell of the k-particle complex on a subdivided graph is a set of k closed
cells of the graph (vertices and closed edges) with pairwise disjoint
closures; its dimension is the number of edges.  On a sufficiently
subdivided graph this complex carries the homotopy type of the configuration
space.  The subdivision criterion used here is deliberately generous: every
chain between branch points or leaf tips and every embedded cycle gets at
least k+1 edges.  The complex grows fast (170k cells for the H graph at
k=4), so the tests use it at k <= 4 only.

The complex needs a simplicial graph, so this module also keeps
:func:`normalize`, the subdivision that removes self-loops and parallel
edges, and :func:`normalized_blocks`, the local relation computed on that
subdivision: the route ``gbtc.graph_core`` took before it read the input
graph directly.
"""

from __future__ import annotations

import itertools
from collections import Counter

from conftest import oracle_components
from dict_columns import _check_boundary_squares_to_zero
from gbtc.discrete_config import ChainComplex
from gbtc.graph_core import Graph


def _valences(g: Graph) -> dict[str, int]:
    val = {v: 0 for v in g.vertices}
    for u, w in g.edges:
        val[u] += 1
        val[w] += 1
    return val


def _fresh_id(used: set[str], stem: str) -> str:
    n = 1
    while f"{stem}~{n}" in used:
        n += 1
    vid = f"{stem}~{n}"
    used.add(vid)
    return vid


def normalize(g: Graph) -> Graph:
    """Subdivide until no self-loops, no parallel edges, and every neighbour
    of an essential vertex is bivalent.

    Subdivision preserves the homeomorphism type, so valences of original
    vertices, separation, and the first Betti number are unchanged.  Returns
    g itself when nothing needs doing, so the operation is idempotent on the
    nose.  Fresh vertex ids use a deterministic suffix scheme.
    """
    used = set(g.vertices)
    verts = list(g.vertices)
    changed = False

    # self-loops become 3-cycles
    edges: list[tuple[str, str]] = []
    for u, w in g.edges:
        if u == w:
            a = _fresh_id(used, f"{u}-{u}")
            b = _fresh_id(used, f"{u}-{u}")
            verts += [a, b]
            edges += [(u, a), (a, b), (b, u)]
            changed = True
        else:
            edges.append((u, w))

    # every member of a parallel class gets one midpoint
    mult = Counter(frozenset(e) for e in edges)
    out: list[tuple[str, str]] = []
    for u, w in edges:
        if mult[frozenset((u, w))] >= 2:
            m = _fresh_id(used, f"{u}-{w}")
            verts.append(m)
            out += [(u, m), (m, w)]
            changed = True
        else:
            out.append((u, w))
    edges = out

    # neighbours of essential vertices must be bivalent
    val = _valences(Graph(tuple(verts), tuple(edges)))
    out = []
    for u, w in edges:
        if (val[u] >= 3 and val[w] != 2) or (val[w] >= 3 and val[u] != 2):
            m = _fresh_id(used, f"{u}-{w}")
            verts.append(m)
            out += [(u, m), (m, w)]
            changed = True
        else:
            out.append((u, w))
    edges = out

    if not changed:
        return g
    return Graph(tuple(verts), tuple(edges))


def is_normalized(g: Graph) -> bool:
    if any(u == w for u, w in g.edges):
        return False
    if any(n >= 2 for n in Counter(frozenset(e) for e in g.edges).values()):
        return False
    val = _valences(g)
    for u, w in g.edges:
        if (val[u] >= 3 and val[w] != 2) or (val[w] >= 3 and val[u] != 2):
            return False
    return True


def normalized_blocks(g: Graph, v: str) -> tuple[tuple[int, ...], ...]:
    """The local relation at v computed on ``normalize(g)``: positions of the
    edges at v in file order, grouped by the component of the subdivided
    graph minus v that their far end lies in, sorted by smallest member."""
    ng = normalize(g)
    comp: dict[str, int] = {}
    for ci, c in enumerate(oracle_components(ng, frozenset((v,)))):
        comp.update((x, ci) for x in c)
    blocks: dict[int, list[int]] = {}
    at_v = [(u, w) for u, w in ng.edges if v in (u, w)]
    for pos, (u, w) in enumerate(at_v):
        blocks.setdefault(comp[w if u == v else u], []).append(pos)
    return tuple(sorted((tuple(b) for b in blocks.values()), key=lambda b: b[0]))


def chains(g: Graph) -> list[tuple[list[int], bool]]:
    """Maximal chains through bivalent vertices, as (edge index list, closed).

    Endpoints of open chains have valence != 2; a closed chain starts and
    ends at the same such vertex or is a pure cycle of bivalent vertices.
    """
    val = _valences(g)
    at: dict[str, list[int]] = {v: [] for v in g.vertices}
    for ei, (u, w) in enumerate(g.edges):
        at[u].append(ei)
        at[w].append(ei)

    used = [False] * g.n_edges
    out: list[tuple[list[int], bool]] = []

    def walk(start: str, first_edge: int) -> tuple[list[int], str]:
        path = [first_edge]
        used[first_edge] = True
        u, w = g.edges[first_edge]
        cur = w if u == start else u
        while val[cur] == 2:
            unused = [ei for ei in at[cur] if not used[ei]]
            if not unused:
                break  # a pure cycle just closed up
            nxt = unused[0]
            used[nxt] = True
            path.append(nxt)
            u, w = g.edges[nxt]
            cur = w if u == cur else u
        return path, cur

    interest = [v for v in g.vertices if val[v] != 2]
    for v in interest:
        for ei in at[v]:
            if not used[ei]:
                path, end = walk(v, ei)
                out.append((path, end == v))
    # leftover edges form pure cycles of bivalent vertices
    for ei in range(g.n_edges):
        if not used[ei]:
            start = g.edges[ei][0]
            path, end = walk(start, ei)
            out.append((path, True))
    return out


def sufficient_subdivision(g: Graph, k: int) -> Graph:
    """Subdivide so every chain between branch points or leaves and every
    embedded cycle has at least k+1 edges.  One particle needs no separation,
    so k <= 1 returns the graph unchanged."""
    if not is_normalized(g):
        raise ValueError("graph must be normalized first")
    if k <= 1:
        return g

    need = k + 1
    pieces = [1] * g.n_edges
    for path, _closed in chains(g):
        if len(path) >= need:
            continue
        q, r = divmod(need, len(path))
        for i, ei in enumerate(path):
            pieces[ei] = q + (1 if i < r else 0)

    if all(p == 1 for p in pieces):
        return g
    used = set(g.vertices)
    verts = list(g.vertices)
    edges: list[tuple[str, str]] = []
    for ei, (u, w) in enumerate(g.edges):
        p = pieces[ei]
        if p == 1:
            edges.append((u, w))
            continue
        stops = [u] + [_fresh_id(used, f"{u}-{w}") for _ in range(p - 1)] + [w]
        verts.extend(stops[1:-1])
        edges.extend(zip(stops, stops[1:]))
    return Graph(tuple(verts), tuple(edges))


Cell = tuple[tuple[int, ...], tuple[int, ...]]  # (edge indices, vertex indices)


def enumerate_cells(g: Graph, k: int) -> list[list[Cell]]:
    nv, ne = g.n_vertices, g.n_edges
    vid = {v: i for i, v in enumerate(g.vertices)}
    closures = [frozenset((vid[u], vid[w])) for u, w in g.edges]

    layers: list[list[Cell]] = []
    for d in range(0, min(k, ne) + 1):
        layer: list[Cell] = []

        # pairwise closure-disjoint edge d-sets, depth-first in index order
        def extend(chosen: tuple[int, ...], blocked: frozenset[int], start: int):
            if len(chosen) == d:
                avail = [i for i in range(nv) if i not in blocked]
                for verts in itertools.combinations(avail, k - d):
                    layer.append((chosen, verts))
                return
            for ei in range(start, ne):
                cl = closures[ei]
                if cl & blocked:
                    continue
                extend(chosen + (ei,), blocked | cl, ei + 1)

        extend((), frozenset(), 0)
        if not layer and d > 0:
            break
        layers.append(layer)
    return layers


def build_abrams_complex(g: Graph, k: int) -> ChainComplex:
    """All cells and boundary maps on a normalized, sufficiently subdivided
    graph; verifies boundary-of-boundary."""
    if k < 1:
        raise ValueError("particle count k must be at least 1")
    if not is_normalized(g):
        raise ValueError("graph must be normalized first")
    vid = {v: i for i, v in enumerate(g.vertices)}
    ends = [(vid[u], vid[w]) for u, w in g.edges]

    layers = enumerate_cells(g, k)
    index: list[dict[Cell, int]] = [
        {cell: i for i, cell in enumerate(layer)} for layer in layers
    ]

    boundaries: list[list[dict[int, int]]] = [[] for _ in layers]
    for d in range(1, len(layers)):
        idx = index[d - 1]
        cols = []
        for edges_t, verts_t in layers[d]:
            col: dict[int, int] = {}
            sign = 1
            for i, ei in enumerate(edges_t):
                rest = edges_t[:i] + edges_t[i + 1 :]
                tail, head = ends[ei]
                for endpoint, s in ((head, sign), (tail, -sign)):
                    face = (rest, tuple(sorted(verts_t + (endpoint,))))
                    row = idx[face]
                    col[row] = col.get(row, 0) + s
                    if col[row] == 0:
                        del col[row]
                sign = -sign
            cols.append(col)
        boundaries[d] = cols

    _check_boundary_squares_to_zero(boundaries)
    return ChainComplex(g, k, layers, boundaries)


def abrams_model(g: Graph, k: int) -> ChainComplex:
    """The Abrams complex of k particles on any connected graph."""
    return build_abrams_complex(sufficient_subdivision(normalize(g), k), k)
