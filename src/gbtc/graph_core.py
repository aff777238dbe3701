"""Finite connected graphs as combinatorial 1-complexes.

Vertices are opaque string ids.  Edges form a multiset of unordered pairs;
self-loops and parallel edges are legal and every operation works on the
graph as given.  A ``Graph`` is connected by construction, so no reader
checks.  The order of the edge list fixes the order of the half-edges at
each vertex (``Graph.half_edges``), and the pair order of an edge fixes its
parametrization (tail, head).

The classification of essential vertices (valence >= 4 / separating trivalent
/ non-separating trivalent) computed here drives every bound downstream.  It
reads the blocks of half-edges at a vertex (which component of the graph
minus that vertex each one leads into), so it is a homeomorphism invariant
without any subdivision.
"""

from __future__ import annotations

import json


class Record:
    """Base of the package's value records.

    A subclass lists its fields in ``__slots__``, in constructor order;
    :meth:`Record.__init__` takes exactly one value per slot, and a subclass
    defines its own ``__init__`` only to check or derive values.  Equality
    and hashing compare the record type and the values of ``_fields``, which
    defaults to ``__slots__``; ``repr`` and :meth:`as_dict` show them by
    name.  A field cannot be reassigned or deleted once set.

    Every CLI call is a fresh process, so the records are plain classes, not
    built by the standard library's record decorator: importing its module
    pulls in ``inspect``, ``ast``, ``dis`` and ``tokenize``, and it compiles
    generated methods for each record.  That cost about 30 ms per process;
    these classes take a fraction of a millisecond to define.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        if "_fields" not in vars(cls):
            cls._fields = cls.__slots__

    def __init__(self, *values):
        if len(values) != len(self.__slots__):
            raise TypeError(
                f"{type(self).__qualname__} takes {len(self.__slots__)} values, got {len(values)}"
            )
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def as_dict(self) -> dict:
        """The fields by name, for JSON: a record field becomes its own
        ``as_dict()`` and a tuple a list."""
        out = {f: getattr(self, f) for f in self._fields}
        for f, v in out.items():
            if isinstance(v, Record):
                out[f] = v.as_dict()
            elif isinstance(v, tuple):
                out[f] = list(v)
        return out

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __setstate__(self, state):
        # pickle and copy restore slot values through setattr otherwise
        for name, value in state[1].items():
            object.__setattr__(self, name, value)


class GraphFormatError(ValueError):
    """Malformed graph data: unknown ids, bad shapes."""


class HypothesisError(ValueError):
    """The mathematical hypotheses of an operation are not met."""


def _short(value) -> str:
    """repr(value) for an error message, cut after 60 characters and marked
    with '...' there, so a huge input cannot flood stderr."""
    text = repr(value)
    return text if len(text) <= 60 else text[:60] + "..."


class Graph(Record):
    """A validated graph: malformed ids or edges raise GraphFormatError, and
    no vertices or a second component HypothesisError, so every reader may
    assume a connected graph.  ``half_edges`` maps each vertex id to the edge
    indices of its half-edges, in edge-file order, a self-loop listed
    twice; it is built here once, takes no part in equality, hashing or
    repr, and is shared by every reader, so it must not be modified."""

    __slots__ = ("vertices", "edges", "half_edges")
    _fields = __slots__[:-1]

    def __init__(self, vertices: tuple[str, ...], edges: tuple[tuple[str, str], ...]):
        at: dict[str, list[int]] = {}
        for v in vertices:
            if v in at:
                raise GraphFormatError(f"duplicate vertex id {_short(v)}")
            at[v] = []
        for ei, e in enumerate(edges):
            if len(e) != 2:
                raise GraphFormatError(f"edge {_short(e)} is not a pair")
            for x in e:
                if x not in at:
                    raise GraphFormatError(f"edge endpoint {_short(x)} is not a declared vertex")
                at[x].append(ei)
        super().__init__(vertices, edges, {v: tuple(hs) for v, hs in at.items()})
        if not vertices or len(_fill(self, vertices[0], {vertices[0]: 0})) < len(vertices):
            raise HypothesisError("connected graph required")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def _id_array(value, what: str) -> tuple[str, ...]:
    if not isinstance(value, (list, tuple)):
        raise GraphFormatError(f"{what} must be an array, got {_short(value)}")
    for x in value:
        if not isinstance(x, str):
            raise GraphFormatError(f"{what} holds {_short(x)}, not a string id")
    return tuple(value)


def graph_from_data(data: dict) -> Graph:
    """Build a Graph from the JSON dict shape {vertices, edges, sinks}.

    Ids must be strings and each edge an array of exactly two of them;
    anything else raises GraphFormatError rather than being coerced.
    ``sinks`` may be absent or an empty array: a nonempty one asks for a
    configuration space with sinks, which is not UConf_k.  Format errors
    come first, then the connectivity :class:`Graph` checks, then a
    nonempty ``sinks``, the last two as HypothesisError.
    """
    if not isinstance(data, dict):
        raise GraphFormatError("graph data must be a JSON object")
    if "vertices" not in data or "edges" not in data:
        raise GraphFormatError("graph data needs 'vertices' and 'edges'")
    vertices = _id_array(data["vertices"], "vertices")
    if not isinstance(data["edges"], (list, tuple)):
        raise GraphFormatError(f"edges must be an array, got {_short(data['edges'])}")
    edges = tuple(_id_array(e, "an edge") for e in data["edges"])
    sinks = _id_array(data.get("sinks", []), "sinks")
    g = Graph(vertices, edges)
    if sinks:
        raise HypothesisError(f"graphs with sinks are not supported: sinks {_short(list(sinks))}")
    return g


def load_graph(path: str) -> Graph:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:
            raise GraphFormatError("graph JSON is nested too deeply") from None
    return graph_from_data(data)


def valence(g: Graph, v: str) -> int:
    """Number of local branches at v; a self-loop contributes 2."""
    hs = g.half_edges.get(v)
    if hs is None:
        raise GraphFormatError(f"unknown vertex id {_short(v)}")
    return len(hs)


def _fill(g: Graph, start: str, label: dict[str, int]) -> dict[str, int]:
    """Give every vertex reachable from start without passing a labelled
    vertex the label of start, and return label."""
    stack = [start]
    while stack:
        x = stack.pop()
        for ei in g.half_edges[x]:
            u, w = g.edges[ei]
            y = w if u == x else u
            if y not in label:
                label[y] = label[start]
                stack.append(y)
    return label


def _blocks(g: Graph, v: str) -> tuple[tuple[int, ...], ...]:
    """Positions 0..d-1 of the half-edges at v, grouped by the component of
    g minus v at their far end; the two half-edges of a self-loop form a block
    of their own.  Blocks come out sorted by smallest member."""
    at = g.half_edges[v]
    label: dict[str, int] = {v: -1}
    blocks: list[list[int]] = []
    for pos, ei in enumerate(at):
        u, w = g.edges[ei]
        if u == w:
            if pos and at[pos - 1] == ei:
                blocks[-1].append(pos)
            else:
                blocks.append([pos])
            continue
        far = w if u == v else u
        if far not in label:
            label[far] = len(blocks)
            blocks.append([])
            _fill(g, far, label)
        blocks[label[far]].append(pos)
    return tuple(tuple(b) for b in blocks)


class VertexClassification(Record):
    """Counts of essential vertices by kind.

    n0: valence >= 4; n1: separating trivalent; n2: non-separating trivalent.
    m = n0 + n1 + n2 equals the number of essential vertices.
    """

    __slots__ = ("n0", "n1", "n2")

    def __init__(self, n0: int, n1: int, n2: int):
        super().__init__(n0, n1, n2)
        if min(self.n0, self.n1, self.n2) < 0:
            raise ValueError("classification counts must be nonnegative")

    @property
    def m(self) -> int:
        return self.n0 + self.n1 + self.n2

    @property
    def trivalent_total(self) -> int:
        return self.n1 + self.n2

    def as_dict(self) -> dict:
        return {**super().as_dict(), "m": self.m, "trivalent_total": self.trivalent_total}


def classify(g: Graph) -> VertexClassification:
    """Classify the essential vertices of a graph, read off the half-edges
    of the graph as given; the ``Graph`` type guarantees it is connected."""
    n0 = n1 = n2 = 0
    for v, hs in g.half_edges.items():
        if len(hs) >= 4:
            n0 += 1
        elif len(hs) == 3:
            if len(_blocks(g, v)) > 1:
                n1 += 1
            else:
                n2 += 1
    return VertexClassification(n0, n1, n2)


def components_without(g: Graph, v: str) -> tuple[tuple[int, ...], ...]:
    """The relation on the half-edges at an essential vertex v: two are
    equivalent iff their far sides lie in the same component of the graph
    minus v, and the two ends of a self-loop form a block of their own.

    Ground set is positions 0..d-1 into ``g.half_edges[v]``; blocks are
    sorted by smallest member.
    """
    if valence(g, v) < 3:
        raise HypothesisError("local relations are formed at essential vertices only")
    return _blocks(g, v)
