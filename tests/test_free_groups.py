"""Words, homomorphisms, folded cores, pullbacks, disjoint conjugates."""

from __future__ import annotations

import itertools
import random
import sys
from collections import Counter

import pytest

from conftest import cores_disjoint, identity_hom
from conjugator_oracle import disjoint_conjugates_bruteforce as reference_bruteforce
from loop_basis_oracle import is_isomorphism
from stallings_oracle import rows_of_arcs, steps_of_arcs
from stallings_oracle import stallings_core as reference_core
from gbtc.free_groups import (
    FoldedAutomaton,
    FreeHom,
    FreeWord,
    _check_folded,
    apply_hom,
    commutator,
    concat,
    contains,
    disjoint_conjugates_bruteforce,
    generator,
    identity,
    inverse,
    is_forest,
    pullback,
    reduce_word,
    restriction_injective,
    stallings_core,
    star_commutator_subgroups,
    subgroup_elements_up_to,
    subgroup_rank,
)


def w(rank, *letters):
    return reduce_word(rank, letters)


def rows_of(a):
    """A copy of the automaton's slot rows: ``row[l + rank]`` per state."""
    return [row[:] for row in a._rows]


def random_reduced(rng, rank, max_len, min_len=1):
    letters = []
    for _ in range(rng.randrange(min_len, max_len + 1)):
        choices = [x for x in range(-rank, rank + 1) if x and (not letters or x != -letters[-1])]
        letters.append(rng.choice(choices))
    return FreeWord(rank, tuple(letters))


# -- reduction ---------------------------------------------------------------


def test_reduce_cancelling_pair():
    assert w(2, 1, -1).is_identity


def test_reduce_inner_cancellation():
    assert w(2, 1, 2, -2, 1) == w(2, 1, 1)


def test_reduce_commutator_already_reduced():
    c = commutator(generator(2, 1), generator(2, 2))
    assert c.letters == (1, 2, -1, -2)


def test_reduce_rejects_out_of_range():
    with pytest.raises(ValueError):
        reduce_word(2, (3,))
    with pytest.raises(ValueError):
        reduce_word(2, (0,))


def test_freeword_rejects_unreduced():
    with pytest.raises(ValueError):
        FreeWord(2, (1, -1))


@pytest.mark.parametrize(
    "make",
    [
        # a float letter would reach stallings_core and fail there as an index
        lambda: reduce_word(2, [1.5]),
        # True == 1, so this would equal generator(2, 1) but print differently
        lambda: FreeWord(2, (True,)),
        # 1.0 and -1.0 would cancel into the identity
        lambda: reduce_word(2, [1.0, -1.0]),
    ],
    ids=["float", "bool", "cancelling floats"],
)
def test_words_refuse_letters_that_are_not_ints(make):
    with pytest.raises(ValueError, match="not an int"):
        make()


def test_freeword_rejects_letters_not_in_a_tuple():
    # a list would compare unequal to the same tuple and not hash
    with pytest.raises(ValueError, match="tuple"):
        FreeWord(2, [1, 2])


def test_inverse_and_concat():
    u = w(3, 1, 2, -3)
    assert concat(u, inverse(u)).is_identity
    assert inverse(inverse(u)) == u


# -- homomorphisms -----------------------------------------------------------


def kill_third() -> FreeHom:
    return FreeHom(3, 2, (generator(2, 1), generator(2, 2), identity(2)))


def test_freehom_rejects_images_not_in_a_tuple():
    # a list would compare unequal to the same tuple and not hash
    images = (generator(1, 1), identity(1))
    with pytest.raises(ValueError, match="tuple"):
        FreeHom(2, 1, list(images))
    f = FreeHom(2, 1, images)
    assert f == FreeHom(2, 1, images) and hash(f) == hash(FreeHom(2, 1, images))


def test_apply_hom_keeps_first_commutator():
    c12 = commutator(generator(3, 1), generator(3, 2))
    assert apply_hom(kill_third(), c12) == commutator(generator(2, 1), generator(2, 2))


def test_apply_hom_kills_shifted_commutator():
    c23 = commutator(generator(3, 2), generator(3, 3))
    assert apply_hom(kill_third(), c23).is_identity


def test_apply_hom_identity():
    u = w(3, 1, -2, 3, 3)
    assert apply_hom(identity_hom(3), u) == u


def test_apply_hom_is_functorial():
    rng = random.Random(11)
    f = FreeHom(2, 2, (w(2, 1, 2), w(2, -1)))
    for _ in range(50):
        u = random_reduced(rng, 2, 6)
        v = random_reduced(rng, 2, 6)
        assert apply_hom(f, concat(u, v)) == concat(apply_hom(f, u), apply_hom(f, v))


def test_apply_hom_context_mismatch():
    with pytest.raises(ValueError):
        apply_hom(kill_third(), w(2, 1))


# -- Stallings cores ---------------------------------------------------------


def test_core_single_generator_is_rose_loop():
    a = stallings_core(2, [generator(2, 1)])
    assert a.n_states == 1 and a.arcs == ((0, 1, 0),)


def test_core_square_is_two_cycle():
    a = stallings_core(2, [w(2, 1, 1)])
    assert a.n_states == 2 and subgroup_rank(a) == 1


def test_core_commutator_is_four_cycle():
    a = stallings_core(3, [commutator(generator(3, 1), generator(3, 2))])
    assert a.n_states == 4 and len(a.arcs) == 4
    assert subgroup_rank(a) == 1
    assert sorted(l for _, l, _ in a.arcs) == [1, 1, 2, 2]


def test_core_trivial_subgroup():
    a = stallings_core(2, [])
    assert a.n_states == 1 and a.arcs == ()
    assert subgroup_rank(a) == 0
    assert contains(a, identity(2))
    assert not contains(a, generator(2, 1))


def test_core_whole_group():
    a = stallings_core(2, [generator(2, 1), generator(2, 2)])
    assert subgroup_rank(a) == 2


def test_nielsen_schreier_index_two():
    # the kernel of the mod-2 total exponent map: rank 1 + index*(rank-1) = 3
    gens = [w(2, 1, 1), w(2, 2, 2), w(2, 1, 2)]
    a = stallings_core(2, gens)
    assert subgroup_rank(a) == 3
    assert a.n_states == 2
    # independent membership oracle: the total exponent of a reduced word has
    # the parity of its length, so membership is evenness of the length
    for length in range(0, 9):
        for word in _all_reduced(2, length):
            assert contains(a, FreeWord(2, word)) == (length % 2 == 0)


def test_folding_confluent_under_generator_shuffles():
    rng = random.Random(7)
    for _ in range(30):
        rank = rng.choice((2, 3))
        gens = [random_reduced(rng, rank, 6) for _ in range(rng.randrange(1, 4))]
        reference = stallings_core(rank, gens)
        for _ in range(4):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            assert stallings_core(rank, shuffled) == reference


def _reference_case(rng):
    """A random generating set that also exercises every branch of the
    trace: identity words, cyclically unreduced words x u x^-1, products
    g h^-1 of earlier generators, which read back to the basepoint through
    arcs that already exist, and prefixes of earlier generators with a new
    tail, which stop part way along them.  Returns the rank, the words and
    how many of them are such products."""
    rank = rng.randint(1, 5)
    gens = []
    products = 0
    for _ in range(rng.randint(0, 5)):
        kind = rng.randrange(4)
        if kind == 0 or not gens:
            word = random_reduced(rng, rank, 30, min_len=0)
        elif kind == 1:
            u = random_reduced(rng, rank, 8, min_len=0)
            x = random_reduced(rng, rank, 6)
            word = concat(x, u, inverse(x))
        elif kind == 2:
            word = concat(rng.choice(gens), inverse(rng.choice(gens)))
            products += not word.is_identity
        else:
            g = rng.choice(gens).letters
            cut = rng.randint(0, len(g))
            word = reduce_word(rank, g[:cut] + random_reduced(rng, rank, 4, min_len=0).letters)
        gens.append(word)
    return rank, gens, products


def test_core_matches_reference_folder():
    rng = random.Random(20261018)
    seen = Counter()
    for _ in range(3000):
        rank, gens, products = _reference_case(rng)
        for g in gens:
            letters = g.letters
            seen["identity"] += not letters
            seen["cyclically unreduced"] += len(letters) > 1 and letters[0] == -letters[-1]
        seen["reads back"] += products
        seen[f"rank {rank}"] += 1
        assert stallings_core(rank, gens) == reference_core(rank, gens), (rank, gens)
    assert all(seen[f"rank {r}"] for r in range(1, 6))
    assert seen["identity"] and seen["cyclically unreduced"] and seen["reads back"]


@pytest.mark.parametrize(
    "gens, arcs",
    [
        # an identity word, then a cyclically unreduced word whose first
        # and last letters take the same slot at the basepoint
        ([(), (2, 1, -2)], ((0, 2, 1), (1, 1, 1))),
        # the second word is read in full up to the first word's middle
        # state, so the meet merges the 2-cycle into a loop at the basepoint
        ([(-1, -1), (1,), (-2,)], ((0, 1, 0), (0, 2, 0))),
    ],
)
def test_core_pinned_regressions(gens, arcs):
    words = [FreeWord(2, g) for g in gens]
    a = stallings_core(2, words)
    assert a.arcs == arcs
    assert a == reference_core(2, words)


def test_core_has_no_hanging_trees():
    rng = random.Random(11)
    for _ in range(500):
        rank, gens, _ = _reference_case(rng)
        a = stallings_core(rank, gens)
        for state, row in enumerate(rows_of(a)):
            assert state == 0 or len(row) - row.count(-1) >= 2


def test_folded_automaton_rows_and_fold_check():
    a = stallings_core(2, [w(2, 2), w(2, 1, 2, -1)])
    assert a.arcs == ((0, 1, 1), (0, 2, 0), (1, 2, 1))
    assert a.sources == [[0], [0, 1]] and a.targets == [[1], [0, 1]]
    assert rows_of(a) == [[0, -1, -1, 1, 0], [1, 0, -1, -1, 1]]
    # two arcs leave by one slot, enter by one slot, or a loop repeats
    for arcs in (((0, 1, 1), (0, 1, 0)), ((0, 1, 1), (1, 1, 1)), ((0, 2, 0), (0, 2, 0))):
        with pytest.raises(ValueError, match="not folded"):
            FoldedAutomaton._from_rows(2, rows_of_arcs(2, 2, arcs), *steps_of_arcs(2, arcs))


def _fold_size_case(rng):
    """Four or five rank-4 words of 90 letters or more, the size of the
    words the benchmark's fold workload folds: either plain random words,
    or images of random words under an automorphism, which share long
    stretches and so fold into each other."""
    rank = 4
    count = rng.randint(4, 5)
    if rng.random() < 0.5:
        return rank, [random_reduced(rng, rank, 110, min_len=90) for _ in range(count)]
    phi = nielsen_automorphism(rng, rank, 2 * rank)
    gens = []
    for _ in range(count):
        word = identity(rank)
        while len(image := apply_hom(phi, word)) < 90:
            word = concat(word, random_reduced(rng, rank, 1))
        gens.append(image)
    return rank, gens


def test_core_rows_are_the_rows_of_its_arcs():
    # the core's own renumbered rows, not rows rebuilt from its arcs
    rng = random.Random(20261019)
    cases = [_reference_case(rng)[:2] for _ in range(600)]
    cases += [_fold_size_case(rng) for _ in range(24)]
    largest = 0
    for rank, gens in cases:
        a = stallings_core(rank, gens)
        table = rows_of(a)
        assert table == rows_of_arcs(a.rank, a.n_states, a.arcs)
        assert all(sources == sorted(sources) for sources in a.sources)
        ref = reference_core(rank, gens)
        assert a == ref and a.arcs == ref.arcs, (rank, gens)
        assert subgroup_rank(a) == len(a.arcs) - a.n_states + 1
        shuffled = gens[:]
        rng.shuffle(shuffled)
        b = stallings_core(rank, shuffled)
        assert b == a and hash(b) == hash(a) and rows_of(b) == table
        largest = max(largest, a.n_states)
    assert largest >= 300


def test_fold_check_rejects_tampered_rows():
    rank, gens = _fold_size_case(random.Random(3))
    a = stallings_core(rank, gens)
    arcs, n = a.arcs, a.n_states
    _check_folded(rank, rows_of(a), a.sources, a.targets)
    s, l, t = arcs[len(arcs) // 2]
    empty = next(
        (q, k)
        for q, row in enumerate(rows_of(a))
        for k in range(2 * rank + 1)
        if k != rank and row[k] < 0
    )
    tampered = []
    for q, k, value in (
        (t, rank - l, (s + 1) % n),  # one reverse slot changed
        (s, rank + l, (t + 1) % n),  # one forward slot changed
        (s, rank + l, -1),  # one slot cleared
        (*empty, 0),  # one stray filled slot
        (0, rank, 0),  # a stray in the unused middle slot
    ):
        rows = rows_of(a)
        rows[q][k] = value
        tampered.append((rows, arcs))
    tampered.append((rows_of(a), arcs + (arcs[0],)))  # a duplicated arc
    for rows, arcs in tampered:
        with pytest.raises(ValueError, match="not folded"):
            _check_folded(rank, rows, *steps_of_arcs(rank, arcs))
    sources, targets = steps_of_arcs(rank, a.arcs)
    targets[l - 1].append(t)  # a target with no source
    with pytest.raises(ValueError, match="not folded"):
        _check_folded(rank, rows_of(a), sources, targets)


def test_cores_share_no_row_lists():
    # a core owns the rows that stallings_core renumbered and handed over
    rng = random.Random(29)
    cases = [_reference_case(rng)[:2] for _ in range(100)]
    cores = [stallings_core(rank, gens) for rank, gens in cases + cases]
    rows = [row for a in cores for row in a._rows]
    assert len({id(row) for row in rows}) == len(rows)


def test_contains_powers():
    a = stallings_core(2, [w(2, 1, 1)])
    assert contains(a, w(2, 1, 1, 1, 1))
    assert not contains(a, w(2, 1, 1, 1))


def test_contains_inverse_of_generator():
    a = stallings_core(3, [commutator(generator(3, 1), generator(3, 2))])
    assert contains(a, commutator(generator(3, 2), generator(3, 1)))


def test_contains_agrees_with_bounded_products():
    # brute-force expressibility: products of at most L factors from the
    # symmetrized generating set; L is generous enough that the closure holds
    # every subgroup word of length <= 8 for these cyclic instances
    cases = [
        (3, [commutator(generator(3, 1), generator(3, 2))], 3),
        (2, [w(2, 1, 1)], 4),
    ]
    for rank, gens, factors in cases:
        a = stallings_core(rank, gens)
        sym = gens + [inverse(g) for g in gens]
        closure = {identity(rank).letters}
        frontier = {identity(rank).letters}
        for _ in range(factors):
            nxt = set()
            for word in frontier:
                for g in sym:
                    prod = _reduce_concat(rank, word, g.letters)
                    if len(prod) <= 12 and prod not in closure:
                        closure.add(prod)
                        nxt.add(prod)
            frontier = nxt
        members8 = {word for word in closure if len(word) <= 8}
        # soundness: every bounded product is recognized
        for word in closure:
            assert contains(a, FreeWord(rank, word))
        # completeness on an exhaustive range plus a seeded length-8 sample
        for length in range(0, 6):
            for word in _all_reduced(rank, length):
                assert contains(a, FreeWord(rank, word)) == (word in members8), word
        rng = random.Random(17)
        for _ in range(2000):
            u = random_reduced(rng, rank, 8, min_len=6)
            assert contains(a, u) == (u.letters in members8), u.letters


def _reduce_concat(rank, a, b):
    return reduce_word(rank, a + b).letters


def _all_reduced(rank, length):
    if length == 0:
        yield ()
        return
    letters = [x for x in range(-rank, rank + 1) if x]
    for tup in itertools.product(letters, repeat=length):
        if all(x != -y for x, y in zip(tup, tup[1:])):
            yield tup


def test_subgroup_elements_enumeration():
    a = stallings_core(2, [w(2, 1, 1)])
    els = subgroup_elements_up_to(a, 4)
    assert els == [(1, 1), (-1, -1), (1, 1, 1, 1), (-1, -1, -1, -1)]


def test_subgroup_elements_are_the_accepted_words_in_shortlex_order():
    # every reduced word of length 1..L that the reference core accepts, by
    # length and then letter by letter in label order 1, -1, 2, -2, ...
    rng = random.Random(24)
    for _ in range(60):
        rank = rng.randint(1, 4)
        gens = [random_reduced(rng, rank, 6) for _ in range(rng.randint(1, 3))]
        max_len = rng.randint(1, 5)
        ref = reference_core(rank, gens)
        step = {(s, l): t for s, l, t in ref.arcs}
        step.update({(t, -l): s for s, l, t in ref.arcs})

        def accepted(word):
            state = 0
            for x in word:
                state = step.get((state, x))
                if state is None:
                    return False
            return state == 0

        words = [
            word
            for length in range(1, max_len + 1)
            for word in _all_reduced(rank, length)
            if accepted(word)
        ]
        words.sort(key=lambda word: (len(word), [(abs(x), x < 0) for x in word]))
        assert subgroup_elements_up_to(stallings_core(rank, gens), max_len) == words


# -- restriction injectivity -------------------------------------------------


def test_restriction_injective_on_surviving_commutator():
    c12 = commutator(generator(3, 1), generator(3, 2))
    assert restriction_injective(kill_third(), [c12]) is True


def test_restriction_not_injective_on_killed_commutator():
    c23 = commutator(generator(3, 2), generator(3, 3))
    assert restriction_injective(kill_third(), [c23]) is False


def test_restriction_injective_identity_hom():
    rng = random.Random(5)
    for _ in range(20):
        gens = [random_reduced(rng, 3, 5) for _ in range(rng.randrange(1, 3))]
        assert restriction_injective(identity_hom(3), gens) is True


def test_is_isomorphism_needs_onto():
    # the tests-side isomorphism check the particle-map verdicts are held
    # against: x1 -> x1^2, x2 -> x2 is injective but misses x1
    square = FreeHom(2, 2, (w(2, 1, 1), generator(2, 2)))
    assert restriction_injective(square, [generator(2, 1), generator(2, 2)]) is True
    assert is_isomorphism(square) is False
    swap = FreeHom(2, 2, (generator(2, 2), w(2, 1, 2)))
    assert is_isomorphism(swap) is True
    assert is_isomorphism(kill_third()) is False


# -- pullbacks and disjoint conjugates ----------------------------------------


def test_pullback_disjoint_letters_has_no_edges():
    p = pullback(
        stallings_core(2, [generator(2, 1)]),
        stallings_core(2, [generator(2, 2)]),
    )
    assert p.edges == ()
    assert is_forest(p)


def test_pullback_shared_loop_has_cycle():
    a = stallings_core(2, [generator(2, 1)])
    p = pullback(a, a)
    assert len(p.edges) == 1 and not is_forest(p)


def test_pullback_of_commutator_cores_is_forest():
    a = stallings_core(3, [commutator(generator(3, 1), generator(3, 2))])
    b = stallings_core(3, [commutator(generator(3, 2), generator(3, 3))])
    p = pullback(a, b)
    # exhaustive cross-check: the product of the two 4-cycles, built here by
    # hand from the arc lists, must have no cycle in any component
    edges = []
    for s, l, t in a.arcs:
        for u, l2, v in b.arcs:
            if l == l2:
                edges.append(((s, u), (t, v)))
    assert sorted(edges) == sorted((x, y) for x, y, _ in p.edges)
    seen_pairs = set()
    parent = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    acyclic = True
    for x, y in edges:
        rx, ry = find(x), find(y)
        if rx == ry:
            acyclic = False
        parent[ry] = rx
    assert acyclic and is_forest(p)


def reference_pullback(a, b):
    """The fiber product spelled out: every state pair, then one edge per
    matching pair of arcs, first core's arcs outermost."""
    nodes = tuple((i, j) for i in range(a.n_states) for j in range(b.n_states))
    edges = tuple(
        ((s, u), (t, v), l)
        for s, l, t in a.arcs
        for u, l2, v in b.arcs
        if l2 == l
    )
    return nodes, edges


def reference_is_forest(nodes, edges):
    """Union-find keyed by the state-pair tuples themselves."""
    parent = {v: v for v in nodes}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for x, y, _ in edges:
        rx, ry = find(x), find(y)
        if rx == ry:
            return False
        parent[ry] = rx
    return True


def check_pullback_against_reference(a, b):
    p = pullback(a, b)
    verdict = is_forest(p)
    nodes, edges = reference_pullback(a, b)
    assert p.nodes == nodes and p.edges == edges
    assert verdict is reference_is_forest(nodes, edges)
    return verdict


def nielsen_automorphism(rng, rank, moves):
    images = [generator(rank, i + 1) for i in range(rank)]
    for _ in range(moves):
        i = rng.randrange(rank)
        k = rng.choice([q for q in range(rank) if q != i])
        m = images[k] if rng.random() < 0.5 else inverse(images[k])
        images[i] = concat(images[i], m) if rng.random() < 0.5 else concat(m, images[i])
    return FreeHom(rank, rank, tuple(images))


def test_is_forest_matches_reference_on_small_random_pairs():
    # rank 1 is the all-cycles case: every state of a core has the same slots
    rng = random.Random(83)
    verdicts = set()
    for _ in range(1200):
        rank = rng.randint(1, 6)
        h0 = [random_reduced(rng, rank, 6) for _ in range(rng.randrange(1, 4))]
        h1 = [random_reduced(rng, rank, 6) for _ in range(rng.randrange(1, 4))]
        a, b = stallings_core(rank, h0), stallings_core(rank, h1)
        verdicts.add(check_pullback_against_reference(a, b))
    assert verdicts == {True, False}


def test_is_forest_matches_reference_on_large_cores():
    # generators of complementary free factors, moved by an automorphism,
    # have disjoint conjugates; a conjugate of an H0 generator added to H1
    # plants the opposite answer
    rng = random.Random(89)
    largest = 0
    for case in range(8):
        rank = 2 + case % 3
        split = rank // 2
        phi = nielsen_automorphism(rng, rank, 4 * rank)
        gens0, gens1 = [], []
        for gens, lo, hi in ((gens0, 1, split), (gens1, split + 1, rank)):
            letters = [x for i in range(lo, hi + 1) for x in (i, -i)]
            for _ in range(2):
                word = []
                while sum(len(phi.images[abs(x) - 1]) for x in word) < 150:
                    x = rng.choice(letters)
                    if not word or x != -word[-1]:
                        word.append(x)
                gens.append(FreeWord(rank, tuple(word)))
        planted = case % 2 == 0
        if not planted:
            g = random_reduced(rng, rank, 4)
            gens1.append(concat(g, gens0[0], inverse(g)))
        a = stallings_core(rank, [apply_hom(phi, x) for x in gens0])
        b = stallings_core(rank, [apply_hom(phi, x) for x in gens1])
        largest = max(largest, a.n_states, b.n_states)
        assert check_pullback_against_reference(a, b) is planted
    assert largest >= 200


def branch_states(a):
    """The states of a core with at least three signed slots."""
    degree = Counter()
    for s, _, t in a.arcs:
        degree[s] += 1
        degree[t] += 1
    return {s for s, d in degree.items() if d >= 3}


def test_is_forest_agrees_with_reference_sweep():
    # ranks 1-4 with identity words among the generators, so trivial and
    # circle cores occur beside branched ones
    rng = random.Random(97)
    verdicts, circles = Counter(), 0
    for _ in range(18000):
        rank = rng.randint(1, 4)
        h0 = [random_reduced(rng, rank, 6, min_len=0) for _ in range(rng.randrange(4))]
        h1 = [random_reduced(rng, rank, 6, min_len=0) for _ in range(rng.randrange(4))]
        a, b = stallings_core(rank, h0), stallings_core(rank, h1)
        verdict = is_forest(pullback(a, b))
        assert verdict is reference_is_forest(*reference_pullback(a, b)), (rank, h0, h1)
        verdicts[verdict] += 1
        circles += sum(1 for c in (a, b) if c.arcs and not branch_states(c))
    assert verdicts[True] and verdicts[False] and circles


def test_is_forest_cycle_avoids_branch_branch_pairs():
    # 0 is the only branch state of either core, and the only cycle is the
    # parallel pair of edges (0, 1) - (1, 0): it passes a branch state of
    # each core, but never both at one product node
    a = stallings_core(3, [w(3, -1, -3), w(3, 2, -1)])
    b = stallings_core(3, [w(3, -1, 2), w(3, -3)])
    assert branch_states(a) == branch_states(b) == {0}
    assert [e for e in pullback(a, b).edges if e[0] == (0, 1)] == [
        ((0, 1), (1, 0), 1),
        ((0, 1), (1, 0), 2),
    ]
    assert check_pullback_against_reference(a, b) is False
    assert check_pullback_against_reference(b, a) is False


def test_is_forest_on_circle_cores():
    # no core here has a branch state, so every state seeds: x1^2 and x1^3
    # give one 6-cycle, x1 x2 and x1 x2^-1 two disjoint edges
    a, b = stallings_core(1, [w(1, 1, 1)]), stallings_core(1, [w(1, 1, 1, 1)])
    c, d = stallings_core(2, [w(2, 1, 2)]), stallings_core(2, [w(2, 1, -2)])
    assert not any(branch_states(x) for x in (a, b, c, d))
    assert check_pullback_against_reference(a, b) is False
    assert check_pullback_against_reference(c, d) is True


def test_is_forest_basepoint_of_degree_one():
    # x1 x2 x1^-1: the basepoint has only its x1 arc, so the segment from
    # the branch state 1 back through it is a dead end
    a = stallings_core(3, [w(3, 1, 2, -1)])
    assert a.arcs == ((0, 1, 1), (1, 2, 1)) and branch_states(a) == {1}
    for gen, disjoint in ((w(3, 2, 2), False), (w(3, 1, 3, -1), True)):
        b = stallings_core(3, [gen])
        assert check_pullback_against_reference(a, b) is disjoint
        assert check_pullback_against_reference(b, a) is disjoint


def test_is_forest_product_self_loop():
    # g1 conjugated into both cores puts a loop at their non-basepoint states
    a = stallings_core(3, [w(3, 2, 1, -2)])
    b = stallings_core(3, [w(3, 3, 1, -3)])
    p = pullback(a, b)
    assert ((1, 1), (1, 1), 1) in p.edges
    assert check_pullback_against_reference(a, b) is False


def test_is_forest_parallel_edges_with_different_labels():
    a = stallings_core(2, [w(2, 1, -2)])
    p = pullback(a, a)
    assert p.edges == (((0, 0), (1, 1), 1), ((0, 0), (1, 1), 2))
    assert check_pullback_against_reference(a, a) is False


def test_is_forest_cycle_with_pendant_edges():
    # a loop at (0, 0) with a pendant edge to (1, 1), plus an isolated edge
    a = stallings_core(3, [generator(3, 1), w(3, 2, 2)])
    b = stallings_core(3, [generator(3, 1), w(3, 2, 3, -2)])
    p = pullback(a, b)
    assert sorted(p.edges) == [
        ((0, 0), (0, 0), 1),
        ((0, 0), (1, 1), 2),
        ((1, 0), (0, 1), 2),
    ]
    assert check_pullback_against_reference(a, b) is False


def test_is_forest_only_pendant_edges():
    # a path (0, 0) - (1, 1) - (2, 2) whose middle has degree 2: both of its
    # edges have one end of degree 1
    a = stallings_core(4, [w(4, 1, 2, 3)])
    b = stallings_core(4, [w(4, 1, 2, 4)])
    p = pullback(a, b)
    assert sorted(p.edges) == [((0, 0), (1, 1), 1), ((1, 1), (2, 2), 2)]
    assert check_pullback_against_reference(a, b) is True


def test_is_forest_with_a_trivial_side():
    trivial = stallings_core(3, [identity(3)])
    other = stallings_core(3, [w(3, 1, 2, -1), w(3, 3, 3)])
    for a, b in ((trivial, other), (other, trivial), (trivial, trivial)):
        p = pullback(a, b)
        assert len(p.nodes) == a.n_states * b.n_states and p.edges == ()
        assert check_pullback_against_reference(a, b) is True


def test_is_forest_segment_back_to_its_own_seed():
    # 0 is the only branch state, and both of its segments come back to it:
    # x1 x2 x3 through 1 and 2, x4 x4 through 3.  A walk along x1 x2 x3
    # ends at (0, slot -3), which must not start the same segment again
    a = stallings_core(4, [w(4, 1, 2, 3), w(4, 4, 4)])
    assert a.arcs == ((0, 1, 1), (0, 4, 3), (1, 2, 2), (2, 3, 0), (3, 4, 0))
    assert branch_states(a) == {0}
    for gen, disjoint in (
        (w(4, 1, 2, 3, 2), True),
        (w(4, 1, 2, 3, 1, 2, 3), False),
        (w(4, 3, 1, 2), False),
    ):
        b = stallings_core(4, [gen])
        assert check_pullback_against_reference(a, b) is disjoint
        assert check_pullback_against_reference(b, a) is disjoint


def theta_core():
    """Branch states 3 and 4, joined by three segments of two arcs or more:
    x2 x2 and x4 x4 from 3 to 4, and x3 x3 x1 x1 from 4 back to 3."""
    a = stallings_core(4, [w(4, 1, 1, 2, 2, 3, 3), w(4, 1, 1, 4, 4, 3, 3)])
    assert a.arcs == (
        (0, 1, 1), (1, 1, 3), (2, 3, 0), (3, 2, 5),
        (3, 4, 6), (4, 3, 2), (5, 2, 4), (6, 4, 4),
    )
    assert branch_states(a) == {3, 4}
    return a


def test_is_forest_segments_joining_one_pair_of_seeds():
    # x2^2 x4^2 runs the x2 and x4 segments in one direction each: two
    # compressed edges between seeds over 3 and 4, and no cycle; x2^2 x4^-2
    # runs them around the theta's cycle
    a = theta_core()
    for gen, disjoint in ((w(4, 2, 2, 4, 4), True), (w(4, 2, 2, -4, -4), False)):
        b = stallings_core(4, [gen])
        assert check_pullback_against_reference(a, b) is disjoint
        assert check_pullback_against_reference(b, a) is disjoint
    assert check_pullback_against_reference(a, a) is False


def test_is_forest_unions_compressed_edges_only():
    # against x2^2 x4^2 the theta's product has 8 edges, but only two walks
    # read a whole segment, so union-find roots two pairs per compressed
    # edge and none per product edge inside a segment
    a, b = theta_core(), stallings_core(4, [w(4, 2, 2, 4, 4)])
    assert len(pullback(a, b).edges) == 8
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code.co_name] += 1

    sys.setprofile(profile)
    try:
        assert is_forest(pullback(a, b))
    finally:
        sys.setprofile(None)
    assert calls["root"] == 4


def test_is_forest_circle_against_branched_core():
    # every state of the circle seeds, so each product edge is walked alone
    b = theta_core()
    for gen, disjoint in (
        (w(4, 1, 1, 2, 2), True),
        (w(4, 2, 2, 3, 3, 1, 1), False),
        (w(4, 2, 2, -4, -4, 2, 2, -4, -4), False),
    ):
        a = stallings_core(4, [gen])
        assert a.arcs and not branch_states(a)
        assert check_pullback_against_reference(a, b) is disjoint


def test_disjoint_conjugates_of_paper_pairs():
    c12 = commutator(generator(3, 1), generator(3, 2))
    c23 = commutator(generator(3, 2), generator(3, 3))
    a, b = stallings_core(3, [c12]), stallings_core(3, [c23])
    assert is_forest(pullback(a, b)) is True
    a, b = stallings_core(3, [w(3, 1, 3)]), stallings_core(3, [w(3, 2, 3)])
    assert is_forest(pullback(a, b)) is True


def test_disjoint_conjugates_same_cyclic_subgroup():
    a = stallings_core(2, [generator(2, 1)])
    assert is_forest(pullback(a, a)) is False


def test_disjoint_conjugates_conjugate_subgroups():
    a, b = stallings_core(2, [w(2, 1, 2, -1)]), stallings_core(2, [generator(2, 2)])
    assert is_forest(pullback(a, b)) is False


def test_disjoint_conjugates_symmetric():
    rng = random.Random(31)
    for _ in range(60):
        rank = rng.choice((2, 3))
        h0 = [random_reduced(rng, rank, 4) for _ in range(rng.randrange(1, 3))]
        h1 = [random_reduced(rng, rank, 4) for _ in range(rng.randrange(1, 3))]
        a, b = stallings_core(rank, h0), stallings_core(rank, h1)
        assert is_forest(pullback(a, b)) == is_forest(pullback(b, a))


def test_disjoint_conjugates_trivial_side_is_vacuous():
    trivial, a = stallings_core(2, []), stallings_core(2, [generator(2, 1)])
    assert is_forest(pullback(trivial, a)) is True
    assert is_forest(pullback(a, trivial)) is True


# -- brute force oracle -------------------------------------------------------


def test_bruteforce_finds_identity_conjugator():
    a = stallings_core(2, [generator(2, 1)])
    res = disjoint_conjugates_bruteforce(a, a, 2)
    assert res.found_violation
    g, h = res.violation
    assert g.is_identity and h == generator(2, 1)


def test_bruteforce_finds_conjugator():
    a, b = stallings_core(2, [w(2, 1, 2, -1)]), stallings_core(2, [generator(2, 2)])
    res = disjoint_conjugates_bruteforce(a, b, 3)
    assert res.found_violation
    g, h = res.violation
    assert g == w(2, -1)


def test_bruteforce_rejects_cores_of_different_rank():
    a, b = stallings_core(2, [generator(2, 1)]), stallings_core(3, [generator(3, 1)])
    with pytest.raises(ValueError, match="rank"):
        disjoint_conjugates_bruteforce(a, b, 2)


def test_bruteforce_matches_reference_enumeration():
    # the same verdict and the same witness (g, h) as the word-by-word search
    rng = random.Random(20261018)
    cases = []
    for i in range(300):
        rank = rng.randint(1, 4)
        h0 = [random_reduced(rng, rank, 4) for _ in range(rng.randint(1, 2))]
        h1 = [random_reduced(rng, rank, 4) for _ in range(rng.randint(1, 2))]
        if i % 2:
            # plant a conjugate of an H0 element, so long witnesses occur
            c = random_reduced(rng, rank, 4)
            h1[0] = concat(inverse(c), h0[0], c)
        cases.append((h0, h1, rank, rng.randint(1, 4)))
    for n in (4, 5, 6):
        h0, h1 = star_commutator_subgroups(n, 0), star_commutator_subgroups(n, 1)
        cases += [(h0, h1, n - 1, 4), (h0, h0, n - 1, 4)]
    long_witnesses = 0
    assert len(cases) == 306
    for h0, h1, rank, max_len in cases:
        a, b = stallings_core(rank, h0), stallings_core(rank, h1)
        res = disjoint_conjugates_bruteforce(a, b, max_len)
        assert res == reference_bruteforce(h0, h1, rank, max_len)
        long_witnesses += res.found_violation and len(res.violation[0]) >= 2
    assert long_witnesses >= 20


def test_bruteforce_no_violation_for_commutators():
    c12 = commutator(generator(3, 1), generator(3, 2))
    c23 = commutator(generator(3, 2), generator(3, 3))
    res = disjoint_conjugates_bruteforce(stallings_core(3, [c12]), stallings_core(3, [c23]), 6)
    assert not res.found_violation


def test_bruteforce_witnesses_are_genuine():
    rng = random.Random(47)
    for _ in range(80):
        rank = rng.choice((2, 3))
        h0 = [random_reduced(rng, rank, 3)]
        h1 = [random_reduced(rng, rank, 3)]
        a, b = stallings_core(rank, h0), stallings_core(rank, h1)
        res = disjoint_conjugates_bruteforce(a, b, 4)
        if res.found_violation:
            g, h = res.violation
            assert not h.is_identity
            assert contains(a, h)
            assert contains(b, concat(g, h, inverse(g)))
            assert is_forest(pullback(a, b)) is False


def test_pullback_true_never_contradicted_by_oracle():
    rng = random.Random(53)
    for _ in range(40):
        rank = 2
        h0 = [random_reduced(rng, rank, 4)]
        h1 = [random_reduced(rng, rank, 4)]
        a, b = stallings_core(rank, h0), stallings_core(rank, h1)
        if is_forest(pullback(a, b)):
            res = disjoint_conjugates_bruteforce(a, b, 4)
            assert not res.found_violation


# -- disjointness transport properties ----------------------------------------


def test_injective_image_disjointness_pulls_back():
    # if psi is injective on H0 and the images have disjoint conjugates,
    # so do the originals
    rng = random.Random(61)
    checked = 0
    for _ in range(150):
        rank = rng.choice((2, 3))
        images = tuple(random_reduced(rng, 3, 3) for _ in range(rank))
        psi = FreeHom(rank, 3, images)
        h0 = [random_reduced(rng, rank, 4)]
        h1 = [random_reduced(rng, rank, 4)]
        if not restriction_injective(psi, h0):
            continue
        im0 = [apply_hom(psi, x) for x in h0]
        im1 = [apply_hom(psi, x) for x in h1]
        if cores_disjoint(im0, im1, 3):
            checked += 1
            assert cores_disjoint(h0, h1, rank) is True
    assert checked > 10


def test_split_injection_preserves_disjointness():
    # a retraction of the inclusion of the first m letters exists, so
    # disjointness transports forward through that inclusion
    rng = random.Random(67)
    checked = 0
    for _ in range(100):
        m = rng.choice((2, 3))
        n = m + rng.choice((1, 2))
        incl = FreeHom(m, n, tuple(generator(n, i + 1) for i in range(m)))
        h0 = [random_reduced(rng, m, 4)]
        h1 = [random_reduced(rng, m, 4)]
        if cores_disjoint(h0, h1, m):
            checked += 1
            im0 = [apply_hom(incl, x) for x in h0]
            im1 = [apply_hom(incl, x) for x in h1]
            assert cores_disjoint(im0, im1, n) is True
    assert checked > 10


def test_kernel_criterion_implies_pullback_disjointness():
    # psi injective on H0 and trivial on H1 forces disjoint conjugates, and
    # the fiber-product decision must agree
    rng = random.Random(71)
    checked = 0
    for _ in range(200):
        rank = rng.choice((2, 3, 4))
        keep = rng.randrange(1, rank)
        images = tuple(
            generator(keep, i + 1) if i < keep else identity(keep) for i in range(rank)
        )
        psi = FreeHom(rank, keep, images)
        h0 = [random_reduced_over(rng, rank, 1, keep, 4)]
        h1 = [random_reduced_over(rng, rank, keep + 1, rank, 4)]
        if not restriction_injective(psi, h0):
            continue
        if not all(apply_hom(psi, x).is_identity for x in h1):
            continue
        checked += 1
        assert cores_disjoint(h0, h1, rank) is True
    assert checked > 50


def random_reduced_over(rng, rank, lo, hi, max_len):
    letters = []
    for _ in range(rng.randrange(1, max_len + 1)):
        choices = [
            s * i
            for i in range(lo, hi + 1)
            for s in (1, -1)
            if not letters or s * i != -letters[-1]
        ]
        letters.append(rng.choice(choices))
    return FreeWord(rank, tuple(letters))
