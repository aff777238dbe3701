"""Stallings folding arc by arc: a reference for
``gbtc.free_groups.stallings_core``.

This folder lays out the whole bouquet of generator loops, one arc per
letter, and then folds every arc into separate incoming and outgoing label
dicts, merging states whenever two arcs share a slot.  It prunes hanging
trees and numbers the core breadth-first from the basepoint in label order.
The library builds the same core by tracing each word through the partial
core on per-state slot rows, so the two must return equal
``FoldedAutomaton`` objects on every input.  This folder writes its own
rows and per-label steps from its own arcs, so it shares only the fold
check with the library.
"""

from __future__ import annotations

from collections import deque

from gbtc.free_groups import FoldedAutomaton


def stallings_core(rank: int, gens) -> FoldedAutomaton:
    """Fold the bouquet of generator loops and prune to the core.

    The result recognizes exactly the reduced words of the subgroup generated
    by ``gens``; an empty or all-identity generating set yields the
    basepoint-only automaton of the trivial subgroup.
    """
    gens = list(gens)
    for w in gens:
        if w.rank != rank:
            raise ValueError("generator word in the wrong rank context")

    arcs0: list[tuple[int, int, int]] = []
    n = 1
    for w in gens:
        if not w.letters:
            continue
        cur = 0
        for i, x in enumerate(w.letters):
            nxt = 0 if i == len(w.letters) - 1 else n
            if nxt == n:
                n += 1
            if x > 0:
                arcs0.append((cur, x, nxt))
            else:
                arcs0.append((nxt, -x, cur))
            cur = nxt

    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    out: list[dict[int, int]] = [dict() for _ in range(n)]
    inc: list[dict[int, int]] = [dict() for _ in range(n)]
    pending: deque[tuple[int, int]] = deque()

    def union(a: int, b: int) -> None:
        pending.append((a, b))
        while pending:
            x, y = pending.popleft()
            x, y = find(x), find(y)
            if x == y:
                continue
            if len(out[x]) + len(inc[x]) < len(out[y]) + len(inc[y]):
                x, y = y, x
            parent[y] = x
            for l, t in out[y].items():
                t0 = out[x].get(l)
                if t0 is None:
                    out[x][l] = t
                else:
                    pending.append((t0, t))
            for l, s in inc[y].items():
                s0 = inc[x].get(l)
                if s0 is None:
                    inc[x][l] = s
                else:
                    pending.append((s0, s))
            out[y] = {}
            inc[y] = {}

    for s, l, t in arcs0:
        s, t = find(s), find(t)
        t0 = out[s].get(l)
        if t0 is not None:
            union(t0, t)
            continue
        s0 = inc[t].get(l)
        if s0 is not None:
            union(s0, s)
            continue
        out[s][l] = t
        inc[t][l] = s

    # canonicalize slots and prune hanging trees off the core
    reps = sorted({find(i) for i in range(n)})
    bp = find(0)
    slots: dict[int, dict[int, int]] = {r: {} for r in reps}
    for r in reps:
        for l, t in out[r].items():
            slots[r][l] = find(t)
        for l, s in inc[r].items():
            slots[r][-l] = find(s)

    live = set(reps)
    queue = deque(r for r in reps if r != bp and len(slots[r]) <= 1)
    while queue:
        r = queue.popleft()
        if r not in live or r == bp or len(slots[r]) > 1:
            continue
        live.discard(r)
        for l, t in list(slots[r].items()):
            del slots[t][-l]
            if t != bp and len(slots[t]) <= 1:
                queue.append(t)
        slots[r] = {}

    # canonical breadth-first renumbering from the basepoint, in label
    # order 1, -1, 2, -2, ...
    order = {bp: 0}
    bfs = deque((bp,))
    while bfs:
        s = bfs.popleft()
        for l in sorted(slots[s], key=lambda l: (abs(l), l < 0)):
            t = slots[s][l]
            if t not in order:
                order[t] = len(order)
                bfs.append(t)
    arcs = tuple(
        sorted(
            (order[s], l, order[t])
            for s in live
            for l, t in slots[s].items()
            if l > 0
        )
    )
    rows = rows_of_arcs(rank, len(order), arcs)
    return FoldedAutomaton._from_rows(rank, rows, *steps_of_arcs(rank, arcs))


def rows_of_arcs(rank: int, n_states: int, arcs) -> list[list[int]]:
    """The slot rows the arcs fill: ``row[l + rank]`` is the state that
    letter l leads to, or -1."""
    rows = [[-1] * (2 * rank + 1) for _ in range(n_states)]
    for s, l, t in arcs:
        rows[s][rank + l] = t
        rows[t][rank - l] = s
    return rows


def steps_of_arcs(rank: int, arcs) -> tuple[list[list[int]], list[list[int]]]:
    """The arcs as per-label steps, in arc order: ``sources[l - 1]`` and
    ``targets[l - 1]`` list the two ends of each l-arc."""
    sources: list[list[int]] = [[] for _ in range(rank)]
    targets: list[list[int]] = [[] for _ in range(rank)]
    for s, l, t in arcs:
        sources[l - 1].append(s)
        targets[l - 1].append(t)
    return sources, targets
