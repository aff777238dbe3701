"""The conjugator search spelled out word by word: a reference for
``gbtc.free_groups.disjoint_conjugates_bruteforce``.

For each subgroup element h, this search walks every reduced conjugator g up
to the length bound depth first, outermost letter first, keeps the reduced
word g h g^-1 at every node and traces it from the second core's basepoint.
The library visits the same nodes in the same order but carries fixed-state
bitmasks and memoises settled subtrees, so the two must return equal
``ConjugacySearch`` objects, witness included.  The cores come from the
arc-by-arc reference folder, so the search shares no core code with the
library.
"""

from __future__ import annotations

from gbtc.free_groups import ConjugacySearch, FreeWord, subgroup_elements_up_to
from stallings_oracle import stallings_core


def disjoint_conjugates_bruteforce(h0, h1, rank: int, max_len: int) -> ConjugacySearch:
    """Search all conjugators g and subgroup elements h up to the given word
    length for g h g^-1 landing in the second subgroup."""
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    a = stallings_core(rank, h0)
    b = stallings_core(rank, h1)
    tab = b._rows  # read only
    offset = rank
    letters = [l for m in range(1, rank + 1) for l in (m, -m)]  # label order

    def member(word: tuple[int, ...]) -> bool:
        cur = 0
        for x in word:
            cur = tab[cur][x + offset]
            if cur < 0:
                return False
        return cur == 0

    for h in subgroup_elements_up_to(a, max_len):
        # depth-first over reduced conjugators, outermost letter first
        stack: list[tuple[tuple[int, ...], tuple[int, ...]]] = [((), h)]
        while stack:
            g, m = stack.pop()
            if m and member(m):
                return ConjugacySearch(
                    max_len, (FreeWord(rank, g), FreeWord(rank, h))
                )
            if len(g) >= max_len:
                continue
            first = g[0] if g else 0
            for x in reversed(letters):
                if first and x == -first:
                    continue
                # conjugating a reduced word by one letter only cancels at the ends
                if m and m[0] == -x:
                    lm = m[1:]
                    m2 = lm[:-1] if lm and lm[-1] == x else lm + (-x,)
                else:
                    m2 = ((x,) + m[:-1]) if m and m[-1] == x else (x,) + m + (-x,)
                stack.append(((x,) + g, m2))
    return ConjugacySearch(max_len, None)
