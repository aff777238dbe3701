"""Loop words by explicit edge paths: a reference for
``gbtc.local_graphs.sink_stabilization``.

This reference writes each basis loop of the source model out as an edge
path (tree path to the lower end of the generator edge, across it, tree
path back from the upper end), maps the path edge by edge into the target
model, and reads the word off the image path by looking each edge up among
the target's generators.  The library reads the same words off per-vertex
potentials built once along the spanning tree, so the two must return equal
homomorphisms on every input.
"""

from __future__ import annotations

from gbtc.free_groups import FreeHom, FreeWord, reduce_word
from gbtc.local_graphs import FreeBasis, LambdaGraph, build_lambda, free_basis


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
