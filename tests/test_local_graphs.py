"""Local relation models, the particle-adding map, the loop bases of the
tests' reference, and the verified subgroups."""

from __future__ import annotations

import itertools
import random

import pytest

from abrams_oracle import normalize
from conftest import (
    cores_disjoint,
    gamma_loop_words,
    gamma_to_tree_hom,
    hgraph,
    oracle_compositions,
    random_multigraph,
    recursive_compositions,
    star,
    theta,
)
from gbtc.free_groups import (
    apply_hom,
    commutator,
    concat,
    disjoint_conjugates_bruteforce,
    generator,
    is_forest,
    pullback,
    restriction_injective,
    stallings_core,
    subgroup_rank,
)
from gbtc.graph_core import Graph, components_without, valence
from gbtc.local_graphs import (
    EquivRelation,
    LambdaGraph,
    add_particle,
    build_lambda,
    compositions,
    expected_counts,
    local_quotient,
    pi1_rank,
    star_commutator_subgroups,
    star_projection_hom,
    trivalent_collapse_hom,
    trivalent_product_subgroups,
)
from loop_basis_oracle import (
    free_basis,
    generator_loop,
    is_isomorphism,
    stabilization_hom,
    word_of_path,
)

PI23 = EquivRelation([(0,), (1, 2)])


# -- equivalence relations -----------------------------------------------------


def test_equiv_relation_validates_cover():
    # the blocks must partition {0..n-1}: no gap, no overlap, no repeat
    for blocks in (
        [(0,), (2,)],
        [(1,), (3,)],
        [(0, 1), (1,)],
        [(0, 1), (1, 2)],
        [(0, 0), (1,)],
        [(0,), (0,)],
    ):
        with pytest.raises(ValueError, match="partition"):
            EquivRelation(blocks)
    for blocks in ([(0,), ()], [()]):
        with pytest.raises(ValueError, match="nonempty"):
            EquivRelation(blocks)
    with pytest.raises(ValueError, match="nonempty"):
        EquivRelation.indiscrete(0)


def test_equiv_relation_refuses_members_that_only_compare_equal_to_ints():
    # True == 1 and 0.0 == 0, so without the type check these would pass the
    # cover check and build relations equal to ones on ints, with another repr
    for blocks in ([(True,), (0,)], [(0.0,), (1,)], [(0, 1.0)], [("0",)], [(0,), (1, "2")]):
        with pytest.raises(ValueError, match="ints"):
            EquivRelation(blocks)
    assert EquivRelation([(1,), (0,)]) == EquivRelation.discrete(2)


def test_equiv_relation_constructors():
    assert EquivRelation.discrete(3).blocks == ((0,), (1,), (2,))
    assert EquivRelation.indiscrete(3).blocks == ((0, 1, 2),)
    assert EquivRelation.discrete(0).blocks == () and EquivRelation.discrete(0).ground == ()
    # shuffled blocks are sorted, each block and then by smallest member
    pi = EquivRelation([(4, 2), (3,), (1, 0, 5)])
    assert pi.blocks == ((0, 1, 5), (2, 4), (3,))
    assert pi == EquivRelation([(3,), (0, 5, 1), (2, 4)])
    assert pi.ground == (0, 1, 2, 3, 4, 5)
    block_of = {x: bi for bi, b in enumerate(pi.blocks) for x in b}
    assert [block_of[x] for x in pi.ground] == [0, 0, 1, 2, 1, 0]


# -- local quotients -----------------------------------------------------------


def test_local_quotient_star_center_discrete():
    g = normalize(star(3))
    assert local_quotient(g, "c") == EquivRelation.discrete(3)


def test_local_quotient_theta_indiscrete():
    g = normalize(theta())
    assert local_quotient(g, "u") == EquivRelation.indiscrete(3)


def test_local_quotient_h_junction_discrete():
    g = normalize(hgraph())
    pi = local_quotient(g, "c1")
    assert sorted(len(b) for b in pi.blocks) == [1, 1, 1]


def reference_local_quotient(g: Graph, v: str) -> tuple[tuple[int, ...], ...]:
    """The blocks of local_quotient by the remove/insert rule: when the
    first two positions share a block, the first position outside that
    block is taken out and put back at index 1."""
    blocks = components_without(g, v)
    order = list(range(sum(len(b) for b in blocks)))
    if len(blocks) > 1:
        block_of = {x: bi for bi, b in enumerate(blocks) for x in b}
        if block_of[order[0]] == block_of[order[1]]:
            swap = next(p for p in order if block_of[p] != block_of[order[0]])
            order.remove(swap)
            order.insert(1, swap)
    pos = {old: new for new, old in enumerate(order)}
    moved = [sorted(pos[x] for x in b) for b in blocks]
    return tuple(tuple(b) for b in sorted(moved))


def test_local_quotient_matches_remove_insert_rule():
    rng = random.Random(20261019)
    checked = moved = 0
    for _ in range(1500):
        g = random_multigraph(rng)
        for v in g.vertices:
            if valence(g, v) < 3:
                continue
            blocks = components_without(g, v)
            pi = local_quotient(g, v)
            assert pi.blocks == reference_local_quotient(g, v), (g, v)
            checked += 1
            moved += len(blocks) > 1 and 1 in blocks[0]
    # the rule moves a position on a good share of the cases
    assert checked >= 1000 and moved >= 100, (checked, moved)


def test_local_quotient_separating_order_fix():
    # when the first two edges at a separating vertex fall in one block, the
    # order is adjusted so positions 0 and 1 are inequivalent
    g = normalize(hgraph())
    for v in ("c1", "c2"):
        pi = local_quotient(g, v)
        block_of = {x: bi for bi, b in enumerate(pi.blocks) for x in b}
        assert block_of[1] != block_of[0]


# -- particle models -----------------------------------------------------------


def test_lambda_indiscrete_two_vertices_parallel_edges():
    for n in (2, 3, 4, 5):
        for k in (2, 3, 4):
            lam = build_lambda(EquivRelation.indiscrete(n), k)
            assert lam.n_vertices == 2
            assert lam.n_edges == n
            assert pi1_rank(lam) == n - 1


def test_lambda_discrete_two_at_one_particle_is_path():
    lam = build_lambda(EquivRelation.discrete(2), 1)
    assert lam.n_vertices == 3 and lam.n_edges == 2
    assert pi1_rank(lam) == 0


def test_lambda_discrete_three_two_particles():
    lam = build_lambda(EquivRelation.discrete(3), 2)
    assert lam.n_vertices == 9 and lam.n_edges == 9
    assert pi1_rank(lam) == 1


def test_lambda_rejects_nonpositive_k():
    with pytest.raises(ValueError):
        build_lambda(EquivRelation.discrete(2), 0)


def test_lambda_counts_match_enumeration():
    shapes = [
        EquivRelation.indiscrete(3),
        EquivRelation.discrete(3),
        PI23,
        EquivRelation([(0, 1), (2, 3)]),
        EquivRelation([(0,), (1,), (2, 3)]),
        EquivRelation([(0,), (1,), (2,), (3,)]),
    ]
    for pi in shapes:
        b = pi.n_blocks
        block_of = {x: bi for bi, members in enumerate(pi.blocks) for x in members}
        for k in range(1, 9):
            lam = build_lambda(pi, k)
            lower = oracle_compositions(k - 1, b)
            upper = oracle_compositions(k, b)
            assert lam.n_vertices == len(lower) + len(upper)
            assert lam.n_edges == len(pi.ground) * len(lower)
            assert (lam.n_vertices, lam.n_edges) == expected_counts(pi, k)
            # every edge joins an upper composition to a lower one, moving a
            # single particle within the labeled block
            for u, l, j in lam.edges:
                cu, cl = lam.vertices[u], lam.vertices[l]
                assert sum(cu) == k and sum(cl) == k - 1
                blk = block_of[j]
                assert cu[blk] == cl[blk] + 1
                assert all(cu[i] == cl[i] for i in range(b) if i != blk)


def test_lambda_matches_the_indexed_reference():
    # the model read off one rank list per block is the one built by moving
    # a particle in each lower composition and looking the result up: the
    # same vertices in the same order, the same edges in the same order
    star5 = EquivRelation.discrete(5)
    cases = [(star5, k) for k in (1, 2, 3, 12)] + [
        (pi, k)
        for pi in (PI23, EquivRelation([(0, 3), (1,), (2, 4)]), EquivRelation.indiscrete(3))
        for k in range(1, 7)
    ]
    for pi, k in cases:
        b = pi.n_blocks
        lower = recursive_compositions(k - 1, b)
        upper = recursive_compositions(k, b)
        index = {c: i for i, c in enumerate(lower + upper)}
        block_of = {x: bi for bi, members in enumerate(pi.blocks) for x in members}
        edges = []
        for li, comp in enumerate(lower):
            for j in sorted(block_of):
                up = list(comp)
                up[block_of[j]] += 1
                edges.append((index[tuple(up)], li, j))
        lam = build_lambda(pi, k)
        assert lam.vertices == tuple(lower + upper), (pi.blocks, k)
        assert lam.edges == tuple(edges), (pi.blocks, k)


def test_lambda_connected():
    # the spanning tree reaches every vertex, so the model is connected and
    # pi1_rank's edges - vertices + 1 is the rank of its fundamental group
    for pi in (EquivRelation.discrete(4), EquivRelation.indiscrete(4), PI23):
        for k in range(1, 6):
            basis = free_basis(build_lambda(pi, k))
            reached = [0] + [v for v, _, _ in basis.tree]
            assert sorted(reached) == list(range(basis.lam.n_vertices))
            # breadth-first: each parent was reached before its child
            assert all(reached.index(p) < reached.index(v) for v, p, _ in basis.tree)
            assert basis.rank == pi1_rank(basis.lam)


def test_free_basis_rejects_disconnected_model():
    # the one-particle model of two blocks with its edge to (0, 1) left out
    pi = EquivRelation.discrete(2)
    lam = LambdaGraph(pi, 1, ((0, 0), (1, 0), (0, 1)), ((1, 0, 0),))
    with pytest.raises(ValueError, match="not connected"):
        free_basis(lam)


def test_lambda_rejects_empty_relation():
    with pytest.raises(ValueError):
        build_lambda(EquivRelation.discrete(0), 2)


def test_pi1_rank_examples():
    assert pi1_rank(build_lambda(EquivRelation.indiscrete(4), 2)) == 3
    assert pi1_rank(build_lambda(PI23, 3)) == 3
    for k in (1, 2, 5):
        assert pi1_rank(build_lambda(EquivRelation.indiscrete(1), k)) == 0


def test_compositions_order_deterministic():
    comps = compositions(2, 3)
    assert comps == sorted(comps)
    assert set(comps) == oracle_compositions(2, 3)


def test_compositions_match_recursive_reference():
    for total in range(13):
        for parts in range(7):
            assert compositions(total, parts) == recursive_compositions(total, parts), (
                total,
                parts,
            )


# -- free bases of the reference ------------------------------------------------


def test_free_basis_of_tree_is_empty():
    basis = free_basis(build_lambda(EquivRelation.discrete(2), 1))
    assert basis.rank == 0


def test_free_basis_betti_one_single_generator():
    lam = build_lambda(EquivRelation.discrete(3), 2)
    basis = free_basis(lam)
    assert basis.rank == 1


def test_free_basis_size_is_betti_number():
    for pi in (EquivRelation.discrete(3), EquivRelation.indiscrete(5), PI23):
        for k in (1, 2, 3, 4):
            lam = build_lambda(pi, k)
            assert free_basis(lam).rank == pi1_rank(lam)


def test_generator_loops_read_back_as_generators():
    # each generator's defining loop, walked through the tree, reads back as
    # that generator, and every tree edge joins a vertex to its parent
    lam = build_lambda(PI23, 3)
    basis = free_basis(lam)
    for v, p, ei in basis.tree:
        upper, lower, _ = lam.edges[ei]
        assert {upper, lower} == {v, p}
    for pos, edge in enumerate(basis.gens):
        word = word_of_path(basis, generator_loop(basis, edge))
        assert word == generator(basis.rank, pos + 1)


def test_gamma_loops_form_a_basis():
    # star_commutator_subgroups writes its words in the rank n - 1 loop basis
    # of the two-particle leaf-identified model: the reference's spanning-tree
    # basis of that model has rank n - 1, and the consecutive-edge loops are
    # another basis of the same group
    for n in (3, 4, 5, 6):
        basis = free_basis(build_lambda(EquivRelation.indiscrete(n), 2))
        assert basis.rank == n - 1 == star_commutator_subgroups(n, 0)[0].rank
        assert is_isomorphism(gamma_to_tree_hom(n))


def test_gamma_words_match_consecutive_edge_description():
    words = gamma_loop_words(4)
    assert len(words) == 3
    # consecutive loops overlap in one edge, so adjacent gammas do not commute
    for u, v in zip(words, words[1:]):
        assert not commutator(u, v).is_identity


# -- the particle-adding map ------------------------------------------------------


def injective(images) -> bool:
    return None not in images and len(set(images)) == len(images)


def test_stabilization_indiscrete_is_isomorphism():
    # one block: both maps are bijections, and the reference hom of rank
    # n - 1 is an isomorphism
    for n in (2, 3, 4, 5):
        for k in (1, 2, 3):
            pi = EquivRelation.indiscrete(n)
            lam, target = build_lambda(pi, k), build_lambda(pi, k + 1)
            vertices, edges = add_particle(lam, target, 0)
            assert sorted(vertices) == list(range(target.n_vertices))
            assert sorted(edges) == list(range(target.n_edges))
            hom = stabilization_hom(lam, 0)
            assert hom.domain_rank == hom.codomain_rank == n - 1
            assert is_isomorphism(hom)


def test_stabilization_discrete_is_injective():
    for n in (2, 3, 4):
        for k in (1, 2, 3):
            pi = EquivRelation.discrete(n)
            lam, target = build_lambda(pi, k), build_lambda(pi, k + 1)
            assert all(map(injective, add_particle(lam, target, 0)))
            hom = stabilization_hom(lam, 0)
            gens = [generator(hom.domain_rank, i + 1) for i in range(hom.domain_rank)]
            assert restriction_injective(hom, gens)
            assert pi1_rank(target) >= pi1_rank(lam)


def test_stabilization_rank_nondecreasing_discrete():
    for n in (3, 4):
        ranks = [pi1_rank(build_lambda(EquivRelation.discrete(n), k)) for k in range(1, 7)]
        assert ranks == sorted(ranks)


def set_partitions(n: int):
    """Every partition of {0..n-1} into blocks, each exactly once."""
    if n == 0:
        yield []
        return
    for p in set_partitions(n - 1):
        for i in range(len(p)):
            yield p[:i] + [p[i] + [n - 1]] + p[i + 1 :]
        yield p + [[n - 1]]


def test_stabilization_matches_edge_path_reference():
    # the graph map's verdict is the verdict of the homomorphism the
    # reference computes: injective maps give an injective hom, onto a free
    # factor, which is the whole group exactly when the ranks agree; a
    # bijective map gives an isomorphism, and so does a map that adds as
    # many edges as vertices, as the two-block two-edge models (trees) do
    count = bijective = trees = 0
    for n in range(1, 6):
        for blocks in set_partitions(n):
            pi = EquivRelation(blocks)
            for k in range(1, 5):
                lam, target = build_lambda(pi, k), build_lambda(pi, k + 1)
                for block in range(pi.n_blocks):
                    vertices, edges = add_particle(lam, target, block)
                    hom = stabilization_hom(lam, block)
                    gens = [generator(hom.domain_rank, i + 1) for i in range(hom.domain_rank)]
                    one_to_one = injective(vertices) and injective(edges)
                    assert one_to_one == restriction_injective(hom, gens), (blocks, k, block)
                    onto = len(vertices) == target.n_vertices and len(edges) == target.n_edges
                    iso = is_isomorphism(hom)
                    if one_to_one and onto:
                        assert iso, (blocks, k, block)
                    assert iso == (pi1_rank(lam) == pi1_rank(target)), (blocks, k, block)
                    count += 1
                    bijective += one_to_one and onto
                    trees += iso and not onto
    assert count == 4 * (1 + 3 + 10 + 37 + 151)
    # the one-block relations, one per n, and the two-block one on two edges
    assert bijective == 4 * 5 and trees == 4 * 2


def test_stabilization_preserves_labels():
    lam, target = build_lambda(PI23, 2), build_lambda(PI23, 3)
    vertices, edges = add_particle(lam, target, 1)
    for i, c in enumerate(lam.vertices):
        assert target.vertices[vertices[i]] == (c[0], c[1] + 1)
    # each edge goes to the edge of the same label joining its ends' images
    for (u, l, j), ei in zip(lam.edges, edges):
        assert target.edges[ei] == (vertices[u], vertices[l], j)
    # an edge whose label moved to the other block has no image: the target
    # joins its ends' images by an edge of another block
    u, l, _ = lam.edges[0]
    moved = LambdaGraph(PI23, 2, lam.vertices, ((u, l, 1),) + lam.edges[1:])
    assert add_particle(moved, target, 1) == (vertices, (None,) + edges[1:])


def test_stabilization_rejects_unknown_block():
    lam = build_lambda(PI23, 2)
    with pytest.raises(ValueError):
        add_particle(lam, build_lambda(PI23, 3), 5)


# -- the verified subgroups -------------------------------------------------------


def test_star_commutator_subgroups_shape():
    assert star_commutator_subgroups(4, 0) == [
        commutator(generator(3, 1), generator(3, 2))
    ]
    assert star_commutator_subgroups(4, 1) == [
        commutator(generator(3, 2), generator(3, 3))
    ]
    assert star_commutator_subgroups(3, 0) == [
        commutator(generator(2, 1), generator(2, 2))
    ]
    with pytest.raises(ValueError):
        star_commutator_subgroups(3, 1)


def test_star_commutator_subgroups_disjoint_and_cyclic():
    for n in (4, 5, 6):
        h0 = star_commutator_subgroups(n, 0)
        h1 = star_commutator_subgroups(n, 1)
        a, b = stallings_core(n - 1, h0), stallings_core(n - 1, h1)
        assert is_forest(pullback(a, b))
        assert subgroup_rank(a) == 1
        assert subgroup_rank(b) == 1


def test_star_projection_certifies_disjointness():
    for n in (4, 5, 6):
        psi = star_projection_hom(n)
        h0 = star_commutator_subgroups(n, 0)
        h1 = star_commutator_subgroups(n, 1)
        assert restriction_injective(psi, h0)
        assert all(apply_hom(psi, x).is_identity for x in h1)


def test_star_commutators_in_tree_basis_still_disjoint():
    # transporting through the loop-basis change of coordinates must not
    # change the verdict (it is an automorphism of the ambient free group)
    for n in (4, 5):
        hom = gamma_to_tree_hom(n)
        h0 = [apply_hom(hom, x) for x in star_commutator_subgroups(n, 0)]
        h1 = [apply_hom(hom, x) for x in star_commutator_subgroups(n, 1)]
        assert cores_disjoint(h0, h1, n - 1)


def test_trivalent_product_subgroups_shape():
    assert trivalent_product_subgroups(0) == [concat(generator(3, 1), generator(3, 3))]
    assert trivalent_product_subgroups(1) == [concat(generator(3, 2), generator(3, 3))]
    for a in (0, 1):
        assert subgroup_rank(stallings_core(3, trivalent_product_subgroups(a))) == 1


def test_trivalent_product_subgroups_disjoint():
    h0 = trivalent_product_subgroups(0)
    h1 = trivalent_product_subgroups(1)
    a, b = stallings_core(3, h0), stallings_core(3, h1)
    assert is_forest(pullback(a, b))
    assert not disjoint_conjugates_bruteforce(a, b, 5).found_violation


def test_trivalent_collapse_homs_certify_both_sides():
    h = {a: trivalent_product_subgroups(a) for a in (0, 1)}
    for a in (0, 1):
        psi = trivalent_collapse_hom(a)
        assert restriction_injective(psi, h[a])
        assert all(apply_hom(psi, x).is_identity for x in h[1 - a])


def test_trivalent_disjointness_stable_under_label_permutations():
    # the products are defined in an unspecified basis; all generator
    # relabelings must give the same verdict
    for perm in itertools.permutations((1, 2, 3)):
        h0 = [concat(generator(3, perm[0]), generator(3, perm[2]))]
        h1 = [concat(generator(3, perm[1]), generator(3, perm[2]))]
        assert cores_disjoint(h0, h1, 3)


def test_trivalent_model_has_rank_three():
    assert pi1_rank(build_lambda(PI23, 3)) == 3
