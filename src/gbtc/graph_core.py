"""Finite graphs as combinatorial 1-complexes.

Vertices are opaque string ids.  Edges form a multiset of unordered pairs;
self-loops and parallel edges are legal on input and removed by
:func:`normalize`, which subdivides without changing the homeomorphism type.
The order of the edge list fixes the default ordering of the edges at each
vertex, and the pair order of an edge fixes its parametrization (tail, head).

The classification of essential vertices (valence >= 4 / separating trivalent
/ non-separating trivalent) computed here drives every bound downstream.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass


class GraphFormatError(ValueError):
    """Malformed graph data: unknown ids, bad shapes, unnormalized input."""


class HypothesisError(ValueError):
    """The mathematical hypotheses of an operation are not met."""


@dataclass(frozen=True)
class Graph:
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    sinks: tuple[str, ...] = ()

    def __post_init__(self):
        seen = set()
        for v in self.vertices:
            if v in seen:
                raise GraphFormatError(f"duplicate vertex id {v!r}")
            seen.add(v)
        for e in self.edges:
            if len(e) != 2:
                raise GraphFormatError(f"edge {e!r} is not a pair")
            for x in e:
                if x not in seen:
                    raise GraphFormatError(f"edge endpoint {x!r} is not a declared vertex")
        for s in self.sinks:
            if s not in seen:
                raise GraphFormatError(f"sink {s!r} is not a declared vertex")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def _id_array(value, what: str) -> tuple[str, ...]:
    if not isinstance(value, (list, tuple)):
        raise GraphFormatError(f"{what} must be an array, got {value!r}")
    for x in value:
        if not isinstance(x, str):
            raise GraphFormatError(f"{what} holds {x!r}, not a string id")
    return tuple(value)


def graph_from_data(data: dict) -> Graph:
    """Build a Graph from the JSON dict shape {vertices, edges, sinks}.

    Ids must be strings and each edge an array of exactly two of them;
    anything else raises GraphFormatError rather than being coerced.
    """
    if not isinstance(data, dict):
        raise GraphFormatError("graph data must be a JSON object")
    if "vertices" not in data or "edges" not in data:
        raise GraphFormatError("graph data needs 'vertices' and 'edges'")
    vertices = _id_array(data["vertices"], "vertices")
    if not isinstance(data["edges"], (list, tuple)):
        raise GraphFormatError(f"edges must be an array, got {data['edges']!r}")
    edges = tuple(_id_array(e, "an edge") for e in data["edges"])
    for e in edges:
        if len(e) != 2:
            raise GraphFormatError(f"edge {list(e)!r} does not have exactly two endpoints")
    sinks = _id_array(data.get("sinks", []), "sinks")
    return Graph(vertices, edges, sinks)


def graph_to_data(g: Graph) -> dict:
    return {
        "vertices": list(g.vertices),
        "edges": [list(e) for e in g.edges],
        "sinks": list(g.sinks),
    }


def load_graph(path: str) -> Graph:
    with open(path, encoding="utf-8") as fh:
        return graph_from_data(json.load(fh))


def valence(g: Graph, v: str) -> int:
    """Number of local branches at v; a self-loop contributes 2."""
    if v not in g.vertices:
        raise GraphFormatError(f"unknown vertex id {v!r}")
    d = 0
    for u, w in g.edges:
        if u == v:
            d += 1
        if w == v:
            d += 1
    return d


def _valences(g: Graph) -> dict[str, int]:
    d = {v: 0 for v in g.vertices}
    for u, w in g.edges:
        d[u] += 1
        d[w] += 1
    return d


def incident_edges(g: Graph, v: str) -> list[int]:
    """Indices of the edges at v, in file order (self-loops listed once)."""
    if v not in g.vertices:
        raise GraphFormatError(f"unknown vertex id {v!r}")
    return [i for i, (u, w) in enumerate(g.edges) if u == v or w == v]


def _adjacency(g: Graph, skip: frozenset[str] = frozenset()) -> dict[str, list[str]]:
    adj: dict[str, list[str]] = {v: [] for v in g.vertices if v not in skip}
    for u, w in g.edges:
        if u in skip or w in skip:
            continue
        adj[u].append(w)
        adj[w].append(u)
    return adj


def components(g: Graph, skip: frozenset[str] = frozenset()) -> list[set[str]]:
    """Connected components of g minus the skipped vertices, in vertex order."""
    adj = _adjacency(g, skip)
    seen: set[str] = set()
    comps = []
    for v in g.vertices:
        if v in skip or v in seen:
            continue
        comp = {v}
        stack = [v]
        seen.add(v)
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    comp.add(y)
                    stack.append(y)
        comps.append(comp)
    return comps


def is_connected(g: Graph) -> bool:
    return len(components(g)) <= 1


def first_betti(g: Graph) -> int:
    """Rank of first homology: edges - vertices + number of components."""
    return g.n_edges - g.n_vertices + len(components(g))


def is_separating(g: Graph, v: str) -> bool:
    """True iff deleting v (and its half-edges) disconnects the rest."""
    if v not in g.vertices:
        raise GraphFormatError(f"unknown vertex id {v!r}")
    if not is_connected(g):
        raise HypothesisError("connected graph required")
    return len(components(g, frozenset((v,)))) > 1


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
    val: dict[str, int] = {v: 0 for v in verts}
    for u, w in edges:
        val[u] += 1
        val[w] += 1
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
    return Graph(tuple(verts), tuple(edges), g.sinks)


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


@dataclass(frozen=True)
class VertexClassification:
    """Counts of essential vertices by kind.

    n0: valence >= 4; n1: separating trivalent; n2: non-separating trivalent.
    m = n0 + n1 + n2 equals the number of essential vertices.
    """

    n0: int
    n1: int
    n2: int
    m: int
    trivalent_total: int

    def __post_init__(self):
        if min(self.n0, self.n1, self.n2) < 0:
            raise ValueError("classification counts must be nonnegative")
        if self.m != self.n0 + self.n1 + self.n2:
            raise ValueError("m must equal n0 + n1 + n2")
        if self.trivalent_total != self.n1 + self.n2:
            raise ValueError("trivalent_total must equal n1 + n2")

    @classmethod
    def of_counts(cls, n0: int, n1: int, n2: int) -> "VertexClassification":
        return cls(n0, n1, n2, n0 + n1 + n2, n1 + n2)

    def as_dict(self) -> dict:
        return {
            "n0": self.n0,
            "n1": self.n1,
            "n2": self.n2,
            "m": self.m,
            "trivalent_total": self.trivalent_total,
        }


def classify(g: Graph) -> VertexClassification:
    """Classify the essential vertices of a connected graph.

    Runs on the normalization of g; subdivision does not change the counts.
    """
    if not is_connected(g):
        raise HypothesisError("connected graph required")
    ng = normalize(g)
    val = _valences(ng)
    n0 = n1 = n2 = 0
    for v in ng.vertices:
        d = val[v]
        if d >= 4:
            n0 += 1
        elif d == 3:
            if is_separating(ng, v):
                n1 += 1
            else:
                n2 += 1
    return VertexClassification.of_counts(n0, n1, n2)


def components_without(g: Graph, v: str) -> tuple[tuple[int, ...], ...]:
    """The relation on the edges at v: two are equivalent iff their far sides
    lie in the same component of the graph minus v.

    Ground set is positions 0..d-1 into ``incident_edges(g, v)``; blocks are
    returned sorted by smallest member.  Requires a normalized graph and an
    essential v.
    """
    if any(u == w for u, w in g.edges) or any(
        n >= 2 for n in Counter(frozenset(e) for e in g.edges).values()
    ):
        raise GraphFormatError("graph must be normalized (no self-loops or parallel edges)")
    if valence(g, v) < 3:
        raise HypothesisError("local relations are formed at essential vertices only")
    comps = components(g, frozenset((v,)))
    comp_of = {}
    for ci, comp in enumerate(comps):
        for x in comp:
            comp_of[x] = ci
    blocks: dict[int, list[int]] = {}
    for pos, ei in enumerate(incident_edges(g, v)):
        u, w = g.edges[ei]
        far = w if u == v else u
        blocks.setdefault(comp_of[far], []).append(pos)
    out = sorted((tuple(sorted(b)) for b in blocks.values()), key=lambda b: b[0])
    return tuple(out)
