"""Shared builders and independent oracles for the test suite.

The oracles deliberately reimplement things the library computes, with the
dumbest possible method (exhaustive enumeration, plain BFS), so agreements
are meaningful.  The helpers at the end are ones only the tests call.
"""

from __future__ import annotations

import itertools
import random

from gbtc.corpus import BUNDLED, load_bundled
from gbtc.discrete_config import BettiVector
from gbtc.free_groups import FreeHom, FreeWord, generator, is_forest, pullback, stallings_core
from gbtc.graph_core import Graph, VertexClassification
from gbtc.local_graphs import EquivRelation, build_lambda
from loop_basis_oracle import free_basis, word_of_path


def star(n: int) -> Graph:
    verts = ("c",) + tuple(f"l{i}" for i in range(1, n + 1))
    edges = tuple(("c", f"l{i}") for i in range(1, n + 1))
    return Graph(verts, edges)


def hgraph() -> Graph:
    return Graph(
        ("c1", "c2", "l1", "l2", "l3", "l4"),
        (("c1", "l1"), ("c1", "l2"), ("c1", "c2"), ("c2", "l3"), ("c2", "l4")),
    )


def theta() -> Graph:
    return Graph(("u", "v"), (("u", "v"), ("u", "v"), ("u", "v")))


def spider() -> Graph:
    return Graph(
        ("a", "b", "a1", "a2", "a3", "b1", "b2", "b3"),
        (
            ("a", "a1"),
            ("a", "a2"),
            ("a", "a3"),
            ("a", "b"),
            ("b", "b1"),
            ("b", "b2"),
            ("b", "b3"),
        ),
    )


def path_graph(n: int) -> Graph:
    verts = tuple(f"p{i}" for i in range(n))
    edges = tuple((f"p{i}", f"p{i+1}") for i in range(n - 1))
    return Graph(verts, edges)


def cycle_graph(n: int) -> Graph:
    verts = tuple(f"z{i}" for i in range(n))
    edges = tuple((f"z{i}", f"z{(i+1) % n}") for i in range(n))
    return Graph(verts, edges)


def k33() -> Graph:
    """K_{3,3}, non-planar: a test fixture, not a bundled graph, so the
    corpus output does not change."""
    a, b = ("a1", "a2", "a3"), ("b1", "b2", "b3")
    return Graph(a + b, tuple((x, y) for x in a for y in b))


def k5() -> Graph:
    """K_5, non-planar: a test fixture like :func:`k33`."""
    verts = tuple(f"v{i}" for i in range(1, 6))
    return Graph(verts, tuple(itertools.combinations(verts, 2)))


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


def oracle_valence(g: Graph, v: str) -> int:
    """Half-edge count by brute-force incidence enumeration."""
    count = 0
    for e in g.edges:
        count += sum(1 for x in e if x == v)
    return count


def oracle_components(g: Graph, removed: frozenset[str] = frozenset()) -> list[set[str]]:
    verts = [v for v in g.vertices if v not in removed]
    comps: list[set[str]] = []
    left = set(verts)
    while left:
        start = next(v for v in verts if v in left)
        comp = {start}
        frontier = [start]
        while frontier:
            x = frontier.pop()
            for u, w in g.edges:
                if u in removed or w in removed:
                    continue
                for a, b in ((u, w), (w, u)):
                    if a == x and b not in comp:
                        comp.add(b)
                        frontier.append(b)
        comps.append(comp)
        left -= comp
    return comps


def oracle_separating(g: Graph, v: str) -> bool:
    return len(oracle_components(g, frozenset((v,)))) > 1


def oracle_classify(g: Graph) -> tuple[int, int, int]:
    """(n0, n1, n2) recomputed from scratch on any subdivision-free level."""
    n0 = n1 = n2 = 0
    for v in g.vertices:
        d = oracle_valence(g, v)
        if d >= 4:
            n0 += 1
        elif d == 3:
            if oracle_separating(g, v):
                n1 += 1
            else:
                n2 += 1
    return (n0, n1, n2)


def oracle_compositions(total: int, parts: int) -> set[tuple[int, ...]]:
    """All nonnegative integer vectors of given length and sum, by filtering
    the full product."""
    if parts == 0:
        return {()} if total == 0 else set()
    out = set()
    for tup in itertools.product(range(total + 1), repeat=parts):
        if sum(tup) == total:
            out.add(tup)
    return out


def oracle_betti1(g: Graph) -> int:
    return g.n_edges - g.n_vertices + len(oracle_components(g))


def recursive_compositions(total: int, parts: int) -> list[tuple[int, ...]]:
    """Compositions in ascending lexicographic order, by recursion on the
    first part: the reference for the iterative ``compositions``."""
    if parts == 0:
        return [()] if total == 0 else []
    if parts == 1:
        return [(total,)]
    out = []
    for first in range(total + 1):
        for rest in recursive_compositions(total - first, parts - 1):
            out.append((first,) + rest)
    return out


def admissible_choices(cls: VertexClassification, k: int):
    """Every triple 0 <= ci <= ni with 2 (c0 + c2) + 3 c1 <= k."""
    for c0 in range(cls.n0 + 1):
        for c1 in range(cls.n1 + 1):
            for c2 in range(cls.n2 + 1):
                if 2 * (c0 + c2) + 3 * c1 <= k:
                    yield (c0, c1, c2)


def greedy_choice(cls: VertexClassification, k: int) -> tuple[int, int, int]:
    """Maximal ci under the k constraint, filling c0 first, then c1, then c2
    (their value per admissibility cost decreases in that order)."""
    c0 = min(cls.n0, k // 2)
    rem = k - 2 * c0
    c1 = min(cls.n1, rem // 3)
    rem -= 3 * c1
    c2 = min(cls.n2, rem // 2)
    return (c0, c1, c2)


# ---------------------------------------------------------------------------
# helpers only the tests call
# ---------------------------------------------------------------------------


def bundled_graphs() -> list[tuple[str, Graph]]:
    return [(name, load_bundled(name)) for name in BUNDLED]


def random_multigraph(rng: random.Random) -> Graph:
    """A connected graph on 1-7 vertices: a random spanning tree plus extra
    edges that are often self-loops or parallel to an existing edge."""
    n = rng.randint(1, 7)
    verts = tuple(f"v{i}" for i in range(n))
    edges = [(verts[i], verts[rng.randrange(i)]) for i in range(1, n)]
    for _ in range(rng.randint(0, 5)):
        roll = rng.random()
        if roll < 0.3:
            x = rng.choice(verts)
            edges.append((x, x))
        elif roll < 0.6 and edges:
            u, w = rng.choice(edges)
            edges.append((w, u) if rng.random() < 0.5 else (u, w))
        else:
            edges.append((rng.choice(verts), rng.choice(verts)))
    rng.shuffle(edges)
    return Graph(verts, tuple(edges))


def trimmed(bv: BettiVector) -> tuple[int, ...]:
    """The Betti numbers without trailing zeros, keeping degree 0."""
    b = list(bv.betti)
    while len(b) > 1 and b[-1] == 0:
        b.pop()
    return tuple(b)


def upper_bound(cls: VertexClassification, r: int) -> int:
    """r * m; asserted for k >= 2m, still reported (with a caveat at the
    reporting layer) below that range."""
    return r * (cls.n0 + cls.n1 + cls.n2)


def identity_hom(rank: int) -> FreeHom:
    return FreeHom(rank, rank, tuple(generator(rank, i + 1) for i in range(rank)))


def cores_disjoint(h0, h1, rank: int) -> bool:
    """Do the subgroups that h0 and h1 generate have disjoint conjugates?
    Decided as the library's callers do: fold each side once, then ask
    whether the fiber product of the two cores is a forest."""
    return is_forest(pullback(stallings_core(rank, h0), stallings_core(rank, h1)))


def gamma_loop_words(n: int) -> list[FreeWord]:
    """The consecutive-edge loops of the two-particle model of the leaf-
    identified n-star, written in the deterministic spanning-tree basis.

    The i-th loop sends one particle from the sink to the center along edge
    i-1 and back along edge i (0-based labels); there are n-1 of them and
    they form an alternative free basis.
    """
    if n < 2:
        raise ValueError("need at least two star edges")
    lam = build_lambda(EquivRelation.indiscrete(n), 2)
    basis = free_basis(lam)
    edge_by_label = {j: ei for ei, (_, _, j) in enumerate(lam.edges)}
    words = []
    for i in range(1, n):
        path = [(edge_by_label[i - 1], -1), (edge_by_label[i], 1)]
        words.append(word_of_path(basis, path))
    return words


def gamma_to_tree_hom(n: int) -> FreeHom:
    """Change of basis from the consecutive-edge loops to the spanning-tree
    basis; an automorphism of the free group of rank n-1."""
    return FreeHom(n - 1, n - 1, tuple(gamma_loop_words(n)))
