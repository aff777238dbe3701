"""Exact algebra of finitely generated subgroups of finite-rank free groups.

Words are freely reduced sequences of signed generator indices: +i is the
i-th generator (1-based), -i its inverse.  A subgroup is represented by its
folded core automaton in the Stallings style: a basepointed graph with arcs
labeled by generators, deterministic in both directions, in which every
non-basepoint state lies on some reduced subgroup word.  A core is built by
tracing each generator through the partial core, on per-state slot rows, so
that states fold only where the forward and backward traces of a word meet.
A core keeps its arcs as steps, two parallel state lists per label, the
sources and the targets of its arcs, which is the form its readers take.
Membership is path tracing, rank is arcs - states + 1, and intersections of
conjugates are read off the fiber product of two cores: the two subgroups
have disjoint conjugates exactly when every component of the product graph
is a forest.  Every cycle of the product passes a pair whose first state is
a branch state of the first core, so that test walks the product from those
pairs along the first core's unbranched segments, each from one end only,
and runs union-find over the walks that reach another such pair, never
materializing the product.  It reads the first core through flat lists of
state degrees and slots and the second through its step lists as stored,
so it builds no container per state or per step.  A core's ``arcs`` and the
product's ``nodes`` and ``edges`` are views built on each access.
"""

from __future__ import annotations

from .graph_core import Record


class FreeWord(Record):
    """A freely reduced word in a fixed rank context."""

    __slots__ = ("rank", "letters")

    def __init__(self, rank: int, letters: tuple[int, ...]):
        super().__init__(rank, letters)
        if not isinstance(letters, tuple):
            raise ValueError("letters must be a tuple")
        for x in self.letters:
            if type(x) is not int:
                raise ValueError(f"generator index {x!r} is not an int")
            if x == 0 or abs(x) > self.rank:
                raise ValueError(f"generator index {x} out of range for rank {self.rank}")
        for a, b in zip(self.letters, self.letters[1:]):
            if a == -b:
                raise ValueError("word is not freely reduced")

    def __len__(self) -> int:
        return len(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters


def _reduce_letters(letters) -> tuple[int, ...]:
    stack: list[int] = []
    for x in letters:
        if stack and stack[-1] == -x:
            stack.pop()
        else:
            stack.append(x)
    return tuple(stack)


def reduce_word(rank: int, letters) -> FreeWord:
    """Freely reduce a raw letter sequence."""
    for x in letters:
        if type(x) is not int:
            raise ValueError(f"generator index {x!r} is not an int")
        if x == 0 or abs(x) > rank:
            raise ValueError(f"generator index {x} out of range for rank {rank}")
    return FreeWord(rank, _reduce_letters(letters))


def identity(rank: int) -> FreeWord:
    return FreeWord(rank, ())


def generator(rank: int, i: int) -> FreeWord:
    return FreeWord(rank, (i,))


def concat(*words: FreeWord) -> FreeWord:
    if not words:
        raise ValueError("need at least one word")
    rank = words[0].rank
    letters: list[int] = []
    for w in words:
        if w.rank != rank:
            raise ValueError("rank context mismatch")
        letters.extend(w.letters)
    return FreeWord(rank, _reduce_letters(letters))


def inverse(w: FreeWord) -> FreeWord:
    return FreeWord(w.rank, tuple(-x for x in reversed(w.letters)))


def commutator(u: FreeWord, v: FreeWord) -> FreeWord:
    return concat(u, v, inverse(u), inverse(v))


class FreeHom(Record):
    """A homomorphism of free groups given by images of the generators."""

    __slots__ = ("domain_rank", "codomain_rank", "images")

    def __init__(self, domain_rank: int, codomain_rank: int, images: tuple[FreeWord, ...]):
        super().__init__(domain_rank, codomain_rank, images)
        if not isinstance(self.images, tuple):
            raise ValueError("images must be a tuple")
        if len(self.images) != self.domain_rank:
            raise ValueError("need one image word per domain generator")
        for w in self.images:
            if w.rank != self.codomain_rank:
                raise ValueError("image word lives in the wrong rank context")


def apply_hom(f: FreeHom, w: FreeWord) -> FreeWord:
    if w.rank != f.domain_rank:
        raise ValueError("word is not in the domain context")
    letters: list[int] = []
    for x in w.letters:
        img = f.images[abs(x) - 1].letters
        letters.extend(img if x > 0 else [-y for y in reversed(img)])
    return FreeWord(f.codomain_rank, _reduce_letters(letters))


def _letters(rank: int) -> list[int]:
    """The signed letters in label order: 1, -1, 2, -2, ..."""
    return [l for m in range(1, rank + 1) for l in (m, -m)]


class FoldedAutomaton(Record):
    """Folded core automaton of a finitely generated subgroup.

    States are 0..n_states-1 with basepoint 0; arcs carry positive labels
    1..rank, and a letter -l traverses the l-arc backwards.  States are
    numbered canonically (breadth-first from the basepoint in label order),
    so equal subgroups give equal automata.  The arcs are kept as steps, two
    parallel lists per label: ``sources[l - 1]`` lists the states the
    l-arcs leave, in increasing order, and ``targets[l - 1]`` the states
    they reach.  Equality compares these lists and hashing reads them as
    tuples; they must not be modified.  ``arcs`` lists the same arcs as
    sorted (s, l, t) triples, built on each access.  Each state also has a
    dense row of 2 * rank + 1 ints: ``row[l + rank]`` is the state that
    letter l leads to, or -1.  The rows take no part in equality, hashing
    or ``repr``.
    :func:`stallings_core` is the only maker; calling the class raises
    TypeError.
    """

    __slots__ = ("rank", "n_states", "sources", "targets", "_rows")
    _fields = __slots__[:-1]

    def __init__(self, *args, **kwargs):
        raise TypeError("a FoldedAutomaton is made only by stallings_core")

    @classmethod
    def _from_rows(cls, rank: int, rows: list[list[int]], sources, targets) -> FoldedAutomaton:
        """The automaton of checked rows and per-label steps; it takes
        ``rows`` as its own, so the caller must keep no other reference to
        them."""
        _check_folded(rank, rows, sources, targets)
        a = cls.__new__(cls)
        Record.__init__(a, rank, len(rows), sources, targets, rows)
        return a

    def __hash__(self):
        # the step lists as tuples, so that they hash
        return hash(
            (self.rank, self.n_states, tuple(map(tuple, self.sources)), tuple(map(tuple, self.targets)))
        )

    @property
    def arcs(self) -> tuple[tuple[int, int, int], ...]:
        """Every arc (s, l, t), s -l-> t with l positive, sorted."""
        return tuple(
            sorted(
                (s, l, t)
                for l, (sources_l, targets_l) in enumerate(zip(self.sources, self.targets), 1)
                for s, t in zip(sources_l, targets_l)
            )
        )

    def __repr__(self):
        arcs = sum(map(len, self.sources))
        return f"FoldedAutomaton(rank={self.rank}, states={self.n_states}, arcs={arcs})"


def _check_folded(rank: int, rows: list[list[int]], sources, targets) -> None:
    """Raise ValueError unless the slot rows hold exactly the steps.

    Each step s -> t of label l, at one index of ``sources[l - 1]`` and
    ``targets[l - 1]``, needs ``rows[s][rank + l] == t`` and
    ``rows[t][rank - l] == s``.  Two distinct arcs that need one slot need
    two values in it, so once every step finds its two slots the arcs are
    folded, and once exactly as many slots are filled as the lists hold
    states no slot is stray, no arc is repeated and no list is longer than
    its partner.  A repeated arc together with a stray slot would pass, but
    :func:`stallings_core` reads its steps off its rows, so it never makes
    that pair.
    """
    listed = 0
    for l in range(1, rank + 1):
        sources_l, targets_l = sources[l - 1], targets[l - 1]
        listed += len(sources_l) + len(targets_l)
        if sources_l:
            forward, backward = rank + l, rank - l
            for s, t in zip(sources_l, targets_l):
                if rows[s][forward] != t or rows[t][backward] != s:
                    raise ValueError("automaton is not folded")
    empty = sum([row.count(-1) for row in rows])
    if len(rows) * (2 * rank + 1) - empty != listed:
        raise ValueError("automaton is not folded")


def stallings_core(rank: int, gens) -> FoldedAutomaton:
    """The folded core of the subgroup generated by ``gens``.

    The result recognizes exactly the reduced words of the subgroup; an
    empty or all-identity generating set yields the basepoint-only automaton
    of the trivial subgroup.

    Each state has one slot row of 2 * rank + 1 ints: ``row[l + rank]`` is
    the state that letter l leads to, or -1.  Each word is traced through
    the partial core, forward from the basepoint as far as its arcs go, then
    backward from the basepoint up to that point, and only the unread middle
    becomes new states.  So folds happen only where the two traces meet,
    which merges the two states they stopped at, or where a cyclically
    unreduced middle leaves and re-enters one state by the same slot, which
    merges the two states next to it.  A merge folds the two rows into one
    by union-find, and a stale target in a row is resolved by ``find`` when
    it is read.  Every state lies on the closed
    path of a reduced word, which never backtracks in a folded graph, so no
    state but the basepoint has degree 1 and there is nothing to prune.
    States are numbered breadth-first from the basepoint in label order
    1, -1, 2, -2, ...  That pass rewrites each live state's row in place,
    from old ids to canonical numbers, and from the same slot loop appends
    each positive arc's two ends to its label's source and target lists,
    so each source list comes out sorted; no tuple is built per arc.  The
    renumbered rows go to the automaton as they are, and one fold check,
    :func:`_check_folded`, tests them against those lists.
    """
    gens = list(gens)
    for w in gens:
        if w.rank != rank:
            raise ValueError("generator word in the wrong rank context")

    width = 2 * rank + 1
    rows: list[list[int]] = [[-1] * width]
    parent = [0]

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a: int, b: int) -> None:
        pending = [(a, b)]
        while pending:
            x, y = pending.pop()
            x, y = find(x), find(y)
            if x == y:
                continue
            parent[y] = x
            row_x = rows[x]
            for k, t in enumerate(rows[y]):
                if t >= 0:
                    t0 = row_x[k]
                    if t0 < 0:
                        row_x[k] = t
                    else:
                        pending.append((t0, t))

    for w in gens:
        word = w.letters
        i, j = 0, len(word)
        head = tail = find(0)
        while i < j:
            t = rows[head][word[i] + rank]
            if t < 0:
                break
            head = find(t)
            i += 1
        while j > i:
            t = rows[tail][rank - word[j - 1]]
            if t < 0:
                break
            tail = find(t)
            j -= 1
        if i == j:
            union(head, tail)
            continue
        # the middle word[i:j] runs head, base, base + 1, ..., tail
        mid = word[i:j]
        base = len(rows)
        path = [head, *range(base, base + len(mid) - 1), tail]
        parent += path[1:-1]
        for q in range(len(mid) - 1):
            row = [-1] * width
            row[rank - mid[q]] = path[q]
            row[rank + mid[q + 1]] = path[q + 2]
            rows.append(row)
        rows[head][rank + mid[0]] = path[1]
        t = rows[tail][rank - mid[-1]]
        if t < 0:
            rows[tail][rank - mid[-1]] = path[-2]
        else:
            # a cyclically unreduced middle leaves and re-enters one state
            # by the same slot
            union(t, path[-2])

    # canonical breadth-first numbering from the basepoint, resolving
    # stale targets on the way; each slot of a numbered state is rewritten
    # to the canonical number of its target.  The slots go in label order
    # 1, -1, 2, -2, ..., one label per turn of the inner loop: the l slot,
    # whose arc is appended to label l's step lists, then the -l slot.
    # Taking both slots in one turn halves the turns, which saved about 5%
    # of a fold operation against a turn per slot
    sources: list[list[int]] = []
    targets: list[list[int]] = []
    order = []
    for l in range(1, rank + 1):
        sources_l, targets_l = [], []
        sources.append(sources_l)
        targets.append(targets_l)
        order.append((rank + l, rank - l, sources_l.append, targets_l.append))
    number = [-1] * len(rows)
    bfs = [find(0)]
    number[bfs[0]] = 0
    for n_s, s in enumerate(bfs):
        row = rows[s]
        for kp, kn, add_source, add_target in order:
            t = row[kp]
            if t >= 0:
                if parent[t] != t:
                    t = find(t)
                n_t = number[t]
                if n_t < 0:
                    n_t = number[t] = len(bfs)
                    bfs.append(t)
                row[kp] = n_t
                add_source(n_s)
                add_target(n_t)
            t = row[kn]
            if t >= 0:
                if parent[t] != t:
                    t = find(t)
                n_t = number[t]
                if n_t < 0:
                    n_t = number[t] = len(bfs)
                    bfs.append(t)
                row[kn] = n_t
    return FoldedAutomaton._from_rows(rank, list(map(rows.__getitem__, bfs)), sources, targets)


def _read(a: FoldedAutomaton, state: int, letters) -> int:
    """The state that reading ``letters`` from ``state`` leads to, or -1."""
    rows, rank = a._rows, a.rank
    for x in letters:
        state = rows[state][x + rank]
        if state < 0:
            break
    return state


def contains(a: FoldedAutomaton, w: FreeWord) -> bool:
    """Membership by path tracing; the identity is always contained."""
    if w.rank != a.rank:
        raise ValueError("rank context mismatch")
    return _read(a, 0, w.letters) == 0


def subgroup_rank(a: FoldedAutomaton) -> int:
    return sum(map(len, a.sources)) - a.n_states + 1


def subgroup_elements_up_to(a: FoldedAutomaton, max_len: int) -> list[tuple[int, ...]]:
    """All nontrivial reduced subgroup words of length <= max_len.

    These are the non-backtracking closed walks at the basepoint.  The walks
    of each length extend those one shorter, in order, by each letter in
    label order, so they come out by length and then in label order.
    """
    rows, rank = a._rows, a.rank
    labels = _letters(rank)
    found: list[tuple[int, ...]] = []
    walks: list[tuple[int, int, tuple[int, ...]]] = [(0, 0, ())]
    for _ in range(max_len):
        walks = [
            (t, l, word + (l,))
            for s, last, word in walks
            for l in labels
            if l != -last and (t := rows[s][rank + l]) >= 0
        ]
        found += [word for t, _, word in walks if t == 0]
    return found


def restriction_injective(f: FreeHom, subgroup_gens) -> bool:
    """Is f injective on the subgroup generated by the given words?

    Decided by rank comparison: a surjection between free groups of equal
    finite rank is an isomorphism, so the restriction is injective exactly
    when the image subgroup has the same rank as the source subgroup.
    """
    gens = list(subgroup_gens)
    r_source = subgroup_rank(stallings_core(f.domain_rank, gens))
    images = [apply_hom(f, w) for w in gens]
    r_image = subgroup_rank(stallings_core(f.codomain_rank, images))
    return r_image == r_source


class PullbackGraph(Record):
    """Fiber product of two core automata, as an undirected multigraph.

    Nodes are state pairs; for each matching pair of arcs there is one edge.
    Components containing a cycle witness a nontrivial intersection of
    conjugates of the two subgroups.  The product of two folded cores is
    folded, and a pair's degree is the number of signed slots its two
    states share.  Only the two cores are stored: :func:`is_forest` walks
    the product from the first core's branch states without building it,
    and ``nodes`` and ``edges`` list all pairs and all edges, built on each
    access.
    """

    __slots__ = ("a", "b")

    @property
    def nodes(self) -> tuple[tuple[int, int], ...]:
        """Every state pair (i, j), with i the first core's state, row-major."""
        nb = self.b.n_states
        return tuple((i, j) for i in range(self.a.n_states) for j in range(nb))

    @property
    def edges(self) -> tuple[tuple[tuple[int, int], tuple[int, int], int], ...]:
        """One ((s, u), (t, v), l) per arc s -l-> t of the first core and
        u -l-> v of the second, in the order of the two arc lists."""
        b = self.b
        return tuple(
            ((s, u), (t, v), l)
            for s, l, t in self.a.arcs
            for u, v in zip(b.sources[l - 1], b.targets[l - 1])
        )


def pullback(a: FoldedAutomaton, b: FoldedAutomaton) -> PullbackGraph:
    if a.rank != b.rank:
        raise ValueError("rank context mismatch")
    return PullbackGraph(a, b)


def is_forest(p: PullbackGraph) -> bool:
    """Is every component of the fiber product a tree?

    The product of two folded cores is folded, so an embedded cycle in it
    projects onto the first core as a closed walk that never backtracks,
    which passes a branch state (degree at least 3) unless that core is a
    circle.  So every product cycle passes a seed: a pair (s, u) with s a
    branch state, or any state when there is none.  Between seeds the first
    core runs along segments of states of degree at most 2, where the
    product has degree at most 2 too.  So a walk from a seed along a shared
    slot has one way to go on: it stops at a dead end, a tree branch, or
    reads its whole segment and ends at a seed, which gives one compressed
    edge.  Distinct compressed edges share no product edge, so the product
    is a forest exactly when the graph of compressed edges is.

    The first core is read through three flat lists, each state's degree
    and its first and last signed slots, which are its two slots when it
    lies inside a segment; a seed's slots are read off its own row.  Each
    segment is walked once, from the first of its ends the loop reaches:
    the far end (t, back) is recorded and skipped when the loop gets there.
    A segment is never its own reverse, which would need a reduced word
    equal to its inverse.  The three flat lists are built on each call from
    the first core's step lists, label by label, so a state's first and
    last slots are its least and greatest in label order.  The second
    core's steps are read as it stores them, its source and target lists
    per label; a letter -l takes label l's two lists swapped.  Union-find
    keys (s, u) as s * n + u, n the second core's state count, keeps the
    non-roots in a dict, halves paths and stops at the first edge whose
    ends are joined.
    """
    a, b = p.a, p.b
    rank, nb = a.rank, b.n_states
    width = 2 * rank + 1
    rows_a, rows_b = a._rows, b._rows
    deg = [0] * a.n_states
    k1 = [0] * a.n_states
    k2 = [0] * a.n_states
    for l in range(1, rank + 1):
        for states, k in ((a.sources[l - 1], rank + l), (a.targets[l - 1], rank - l)):
            for s in states:
                if deg[s]:
                    k2[s] = k
                else:
                    k1[s] = k
                deg[s] += 1
    seed = [d >= 3 for d in deg]
    if not any(seed):
        seed = [True] * a.n_states
    # the second core's steps by signed slot: a letter -l reads the l-arcs
    # backwards, so its lists are those of l, swapped
    us = (*b.targets[::-1], (), *b.sources)
    vs = (*b.sources[::-1], (), *b.targets)
    walked: set[int] = set()
    parent: dict[int, int] = {}

    def root(x: int) -> int:
        while (q := parent.get(x)) is not None:
            r = parent.get(q)
            if r is None:
                return q
            parent[x] = r
            x = r
        return x

    for s, row in enumerate(rows_a):
        if not seed[s]:
            continue
        for first, t in enumerate(row):
            if t < 0 or s * width + first in walked:
                continue
            # the first core's segment from s through slot `first`: the
            # slots after the first one, and the seed t it reaches
            path, back = [], 2 * rank - first
            while not seed[t] and deg[t] == 2:
                k = k2[t] if k1[t] == back else k1[t]
                path.append(k)
                t, back = rows_a[t][k], 2 * rank - k
            if not seed[t]:
                continue
            walked.add(t * width + back)
            for u, v in zip(us[first], vs[first]):
                for k in path:
                    v = rows_b[v][k]
                    if v < 0:
                        break
                else:
                    x, y = root(s * nb + u), root(t * nb + v)
                    if x == y:
                        return False
                    parent[y] = x
    return True


class ConjugacySearch(Record):
    """Outcome of the exhaustive conjugator search.

    ``violation`` holds a witness pair (g, h) with h a nontrivial element of
    the first subgroup and g h g^-1 in the second; None means no violation
    exists with |h| and |g| up to the searched length (not a proof of
    disjointness).
    """

    __slots__ = ("max_len", "violation")

    @property
    def found_violation(self) -> bool:
        return self.violation is not None


def disjoint_conjugates_bruteforce(a, b, max_len: int) -> ConjugacySearch:
    """Independent oracle on two cores: search all conjugators g and elements
    h of the first subgroup up to the given length for g h g^-1 in the second.

    For each h in :func:`subgroup_elements_up_to` order, the reduced
    conjugators g are visited depth first, outermost letter first, and the
    first g whose reduced conjugate g h g^-1 the second core accepts is the
    witness.  A word is accepted exactly when the basepoint lies in its
    fixed-state set, the states s from which reading it returns to s.  Once
    a step prepends a letter x to g without a cancellation, no step below it
    cancels either, since g stays reduced, and there the set follows one
    letter at a time: Fix(x m x^-1) is the set of s whose x-arc ends in
    Fix(m).  So these nodes carry a fixed-state bitmask instead of a word.
    The search below such a node depends only on its mask, the outermost
    letter of its g (which the next letter must not invert) and the length
    still allowed, so its first witness, as the letters to prepend to the
    node's g, or None, is memoised on that key within one call.  A memo hit
    stands for the same depth-first search, so it cannot change the
    witness.  Nodes reached through a cancellation keep their explicit word.
    The oracle calls neither :func:`pullback` nor :func:`is_forest`.
    """
    if a.rank != b.rank:
        raise ValueError("rank context mismatch")
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    rank = offset = a.rank
    tab = b._rows
    letters = _letters(rank)

    def fixed(word: tuple[int, ...]) -> int:
        return sum(1 << s for s in range(b.n_states) if _read(b, s, word) == s)

    def conjugated(mask: int, x: int) -> int:
        col = x + offset
        return sum(1 << s for s, row in enumerate(tab) if row[col] >= 0 and mask >> row[col] & 1)

    memo: dict[tuple[int, int, int], tuple[int, ...] | None] = {}

    def settled(mask: int, first: int, rem: int) -> tuple[int, ...] | None:
        if mask & 1:
            return ()
        if not mask or not rem:
            return None
        key = (mask, first, rem)
        if key in memo:
            return memo[key]
        found = None
        for x in letters:
            if x == -first:
                continue
            tail = settled(conjugated(mask, x), x, rem - 1)
            if tail is not None:
                found = tail + (x,)
                break
        memo[key] = found
        return found

    def search(g: tuple[int, ...], m: tuple[int, ...]) -> tuple[int, ...] | None:
        if _read(b, 0, m) == 0:
            return g
        if len(g) >= max_len:
            return None
        first = g[0] if g else 0
        fix = fixed(m)
        for x in letters:
            if x == -first:
                continue
            # conjugating a reduced word by one letter only cancels at the ends
            if m[0] == -x:
                lm = m[1:]
                found = search((x,) + g, lm[:-1] if lm and lm[-1] == x else lm + (-x,))
            elif m[-1] == x:
                found = search((x,) + g, (x,) + m[:-1])
            else:
                tail = settled(conjugated(fix, x), x, max_len - len(g) - 1)
                found = None if tail is None else tail + (x,) + g
            if found is not None:
                return found
        return None

    for h in subgroup_elements_up_to(a, max_len):
        g = search((), h)
        if g is not None:
            return ConjugacySearch(max_len, (FreeWord(rank, g), FreeWord(rank, h)))
    return ConjugacySearch(max_len, None)


# ---------------------------------------------------------------------------
# The specific subgroups whose disjointness is machine-checked.
# ---------------------------------------------------------------------------


def star_commutator_subgroups(n: int, a: int) -> list[FreeWord]:
    """In the rank n-1 loop basis of the two-particle model of the n-edge
    star with all leaves identified, the cyclic subgroup generated by the
    commutator of consecutive generators starting at position 1+a."""
    if a not in (0, 1):
        raise ValueError("a must be 0 or 1")
    if n < 3 + a:
        raise ValueError(f"n={n} is too small for offset a={a}")
    rank = n - 1
    return [commutator(generator(rank, 1 + a), generator(rank, 2 + a))]


def star_projection_hom(n: int) -> FreeHom:
    """Kill every loop generator beyond the first two; the commutator of the
    first two survives, the shifted commutator dies."""
    if n < 4:
        raise ValueError("need at least four star edges")
    rank = n - 1
    images = [generator(2, 1), generator(2, 2)] + [identity(2)] * (rank - 2)
    return FreeHom(rank, 2, tuple(images))


def trivalent_product_subgroups(a: int) -> list[FreeWord]:
    """In the rank-3 basis of the three-particle model at a separating
    trivalent vertex (relation identifying the last two edges), the cyclic
    subgroup generated by the product of generator 1+a with generator 3."""
    if a not in (0, 1):
        raise ValueError("a must be 0 or 1")
    return [concat(generator(3, 1 + a), generator(3, 3))]


def trivalent_collapse_hom(a: int) -> FreeHom:
    """A rank-3 -> rank-1 homomorphism injective on the a-side product
    subgroup and trivial on the other one."""
    if a not in (0, 1):
        raise ValueError("a must be 0 or 1")
    t = generator(1, 1)
    t2 = concat(t, t)
    ti = FreeWord(1, (-1,))
    if a == 0:
        # g1 g3 -> t, g2 g3 -> 1
        return FreeHom(3, 1, (t2, t, ti))
    # g2 g3 -> t, g1 g3 -> 1
    return FreeHom(3, 1, (t, t2, ti))
