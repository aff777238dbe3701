"""Local graphs: star-with-identifications models of configuration spaces.

An equivalence relation pi on the edge set at a vertex determines a local
graph: a central vertex joined to one sink per block, with parallel edges
indexed by the block members.  The k-particle model is the finite graph
whose vertices are compositions of k and of k-1 into the blocks (with one
particle at the center in the k-1 case) and whose edges move one particle
between the center and a sink along a chosen member edge.  Its fundamental
group is free, of rank edges - vertices + 1.  Adding a particle at a sink
is a label-preserving graph map into the next model; :func:`add_particle`
gives its vertex and edge images, and whether they are injective or
bijective decides what the map does on loops, with no word computed.
"""

from __future__ import annotations

from math import comb

from .graph_core import Graph, Record, components_without


class EquivRelation(Record):
    """An equivalence relation on the finite ground set {0..n-1}, held as
    its blocks.

    The blocks may be given in any order; each is sorted, and then they are
    sorted by smallest member.  They must be nonempty and partition
    {0..n-1}, and every member must be an ``int`` (not a bool or float,
    which would compare equal to one).
    """

    __slots__ = ("blocks",)

    def __init__(self, blocks):
        blocks = [tuple(b) for b in blocks]
        if any(type(x) is not int for b in blocks for x in b):
            raise ValueError("block members must be ints")
        # disjoint nonempty blocks sort by their smallest members
        blocks = tuple(sorted(tuple(sorted(b)) for b in blocks))
        if not all(blocks):
            raise ValueError("blocks must be nonempty")
        if sorted(x for b in blocks for x in b) != list(range(sum(map(len, blocks)))):
            raise ValueError("blocks must partition {0..n-1}")
        super().__init__(blocks)

    @classmethod
    def discrete(cls, n: int) -> "EquivRelation":
        return cls([(i,) for i in range(n)])

    @classmethod
    def indiscrete(cls, n: int) -> "EquivRelation":
        return cls([range(n)])

    @property
    def ground(self) -> tuple[int, ...]:
        return tuple(range(sum(map(len, self.blocks))))

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


def local_quotient(g: Graph, v: str) -> EquivRelation:
    """The relation on the half-edges at v given by :func:`components_without`.

    Requires an essential v (the ``Graph`` type guarantees a connected
    graph); self-loops and parallel edges are fine.  When v separates and the first two half-edges
    in the file order land in the same block, the order is silently adjusted
    so that the first two lie in different blocks; ground positions refer to
    the adjusted order.
    """
    blocks = components_without(g, v)
    if len(blocks) > 1 and 1 in blocks[0]:
        # blocks are sorted by smallest member, so blocks[1][0] is the first
        # position outside the block of 0: it moves to position 1, and the
        # positions it passes shift up by one
        m = blocks[1][0]
        blocks = [tuple(1 if p == m else p + (0 < p < m) for p in b) for b in blocks]
    return EquivRelation(blocks)


def compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """All nonnegative integer vectors of the given length summing to total,
    in ascending lexicographic order.

    Stars and bars, stepped in place from (0, ..., 0, total): the successor
    takes one unit from the last nonzero part c[j], j >= 1, into c[j - 1]
    and moves the rest of c[j] to the last part.  No successor exists once
    every unit sits in the first part.
    """
    if parts == 0:
        return [()] if total == 0 else []
    c = [0] * parts
    c[-1] = total
    out = [tuple(c)]
    while True:
        j = parts - 1
        while j and not c[j]:
            j -= 1
        if not j:
            return out
        rest = c[j] - 1
        c[j] = 0
        c[j - 1] += 1
        c[-1] = rest
        out.append(tuple(c))


class LambdaGraph(Record):
    """The k-particle model graph of a local relation.

    Vertices are compositions of k-1 (one particle at the center) followed by
    compositions of k (none at the center), each in ascending lexicographic
    order.  Edges are (upper vertex, lower vertex, ground label): moving one
    particle between the center and the labeled edge's sink.
    """

    __slots__ = ("pi", "k", "vertices", "edges")

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)


def build_lambda(pi: EquivRelation, k: int) -> LambdaGraph:
    if k <= 0:
        raise ValueError("particle count k must be at least 1")
    if not pi.ground:
        raise ValueError("the relation needs at least one edge")
    b = pi.n_blocks
    lower = compositions(k - 1, b)
    upper = compositions(k, b)
    n_lower = len(lower)
    # adding a particle to block i maps the lower compositions, in order,
    # onto the upper ones with c[i] > 0, in order: one rank list per block
    # holds the upper vertex of each lower one
    ranks = [[n_lower + p for p, c in enumerate(upper) if c[i]] for i in range(b)]
    moves = sorted((j, ranks[i]) for i, blk in enumerate(pi.blocks) for j in blk)
    edges = tuple([(up[li], li, j) for li in range(n_lower) for j, up in moves])
    return LambdaGraph(pi, k, tuple(lower + upper), edges)


def expected_counts(pi: EquivRelation, k: int) -> tuple[int, int]:
    """Closed-form vertex and edge counts of the k-particle model."""
    if k <= 0:
        raise ValueError("particle count k must be at least 1")
    b = pi.n_blocks
    n_vertices = comb(k + b - 1, b - 1) + comb(k - 2 + b, b - 1)
    n_edges = len(pi.ground) * comb(k - 2 + b, b - 1)
    return n_vertices, n_edges


def pi1_rank(lam: LambdaGraph) -> int:
    """Free rank of the fundamental group: edges - vertices + 1.

    :func:`build_lambda` only makes connected models: a composition of k-1
    is joined to a composition of k in every block, and two compositions of
    k that differ by moving one particle between blocks are joined through
    the composition of k-1 with that particle at the center, so all of them
    are linked.
    """
    return lam.n_edges - lam.n_vertices + 1


def add_particle(
    lam: LambdaGraph, target: LambdaGraph, block: int
) -> tuple[tuple[int | None, ...], tuple[int | None, ...]]:
    """The graph map adding one particle at the sink of the block, from the
    model lam into target, the next model: vertex c goes to c + e_block and
    edge (u, l, j) to the edge (u', l', j) joining the images of its ends.

    Returns the target index of each vertex and of each edge, in order, or
    None where target has no image.  Injective on both, the map embeds lam
    as a subgraph, and a subgraph's loop basis extends to one of the whole
    graph, so it is injective on loops onto a free factor (Stallings 1983);
    bijective, it is a graph isomorphism and induces an isomorphism.
    """
    if not 0 <= block < lam.pi.n_blocks:
        raise ValueError(f"unknown block {block}")
    vertex_at = {c: i for i, c in enumerate(target.vertices)}
    vertices = tuple(
        vertex_at.get(c[:block] + (c[block] + 1,) + c[block + 1 :]) for c in lam.vertices
    )
    edge_at = {e: i for i, e in enumerate(target.edges)}
    edges = tuple(edge_at.get((vertices[u], vertices[l], j)) for u, l, j in lam.edges)
    return vertices, edges
