"""Loop bases of the particle models and the homomorphisms the particle-adding
map induces on them: the reference for ``gbtc.local_graphs.add_particle``.

The library decides what adding a particle does on loops from the graph map
alone: injective on vertices and edges, the map embeds a model as a
subgraph of the next, so it is injective on loops onto a free factor;
bijective, it induces an isomorphism.  This reference computes the
homomorphism itself.  It writes each basis loop of the source model out as
an edge path (tree path to the lower end of the generator edge, across it,
tree path back from the upper end), maps the path edge by edge into the
target model, and reads the word off the image path by looking each edge up
among the target's generators; the tests then fold the images to decide
injectivity and isomorphism.
"""

from __future__ import annotations

from gbtc.free_groups import FreeHom, FreeWord, reduce_word, stallings_core
from gbtc.graph_core import Record
from gbtc.local_graphs import LambdaGraph, build_lambda


class FreeBasis(Record):
    """Spanning-tree basis of the loops of a particle model graph.

    The tree is rooted at vertex 0, the first composition of k - 1, and
    lists one (vertex, parent vertex, edge index) per other vertex in
    breadth-first order.  One generator per non-tree edge, ``gens`` listing
    their edge indices in ascending order; a loop's word is
    read off by recording the signed generator of each non-tree edge it
    crosses (tree edges contribute nothing).  Positive direction of an edge
    is lower -> upper, the move sending the center particle to the sink.
    """

    __slots__ = ("lam", "tree", "gens")

    @property
    def rank(self) -> int:
        return len(self.gens)


def free_basis(lam: LambdaGraph) -> FreeBasis:
    """Breadth-first spanning tree from vertex 0, edges visited in
    (ground label, edge index) order; a model the tree does not span is
    rejected."""
    adj: dict[int, list[tuple[tuple[int, int], int, int]]] = {
        i: [] for i in range(lam.n_vertices)
    }
    for ei, (u, l, j) in enumerate(lam.edges):
        adj[u].append(((j, ei), ei, l))
        adj[l].append(((j, ei), ei, u))
    for lst in adj.values():
        lst.sort()

    tree: list[tuple[int, int, int]] = []
    seen = {0}
    queue = [0]
    for x in queue:  # grows while it is read: breadth-first order
        for _, ei, other in adj[x]:
            if other not in seen:
                seen.add(other)
                tree.append((other, x, ei))
                queue.append(other)
    if len(queue) != lam.n_vertices:
        raise ValueError("the model graph is not connected")
    tree_edges = {ei for _, _, ei in tree}
    gens = tuple(ei for ei in range(lam.n_edges) if ei not in tree_edges)
    return FreeBasis(lam, tuple(tree), gens)


def is_isomorphism(f: FreeHom) -> bool:
    if f.domain_rank != f.codomain_rank:
        return False
    # onto: the generator images fold to the bouquet of every codomain
    # generator, of rank n, the domain rank, so f is injective too
    core = stallings_core(f.codomain_rank, f.images)
    return core.n_states == 1 and sum(map(len, core.sources)) == f.codomain_rank


def tree_path(basis: FreeBasis, v: int) -> list[tuple[int, int]]:
    """Edge path from vertex 0 to v through the tree, as
    (edge index, direction) with direction +1 for lower -> upper."""
    parent = {x: (p, ei) for x, p, ei in basis.tree}
    path = []
    while v != 0:
        p, ei = parent[v]
        upper, lower, _ = basis.lam.edges[ei]
        path.append((ei, 1 if (lower == p and upper == v) else -1))
        v = p
    path.reverse()
    return path


def word_of_path(basis: FreeBasis, path) -> FreeWord:
    """The element of the free basis determined by a closed edge path."""
    letters = []
    for ei, direction in path:
        if ei in basis.gens:
            letters.append((basis.gens.index(ei) + 1) * direction)
    return reduce_word(basis.rank, letters)


def generator_loop(basis: FreeBasis, gen_edge: int) -> list[tuple[int, int]]:
    """The defining loop of a basis generator: tree path to the lower end,
    across the edge, tree path back from the upper end."""
    upper, lower, _ = basis.lam.edges[gen_edge]
    fwd = tree_path(basis, lower)
    back = [(ei, -d) for ei, d in reversed(tree_path(basis, upper))]
    return fwd + [(gen_edge, 1)] + back


def stabilization_hom(lam: LambdaGraph, block: int) -> FreeHom:
    """The homomorphism induced by adding one particle at the sink of the
    block, each generator loop mapped edge by edge."""
    target = build_lambda(lam.pi, lam.k + 1)
    src_basis = free_basis(lam)
    tgt_basis = free_basis(target)
    tgt_index = {(target.vertices[l], j): ei for ei, (_, l, j) in enumerate(target.edges)}

    def edge_image(ei: int) -> int:
        _, l, j = lam.edges[ei]
        low = list(lam.vertices[l])
        low[block] += 1
        return tgt_index[(tuple(low), j)]

    images = []
    for ge in src_basis.gens:
        path = [(edge_image(ei), d) for ei, d in generator_loop(src_basis, ge)]
        images.append(word_of_path(tgt_basis, path))
    return FreeHom(src_basis.rank, tgt_basis.rank, tuple(images))
