"""Graph representation, vertex classification and local relations on the
input graph, checked against the subdivide-first route of the test oracle."""

from __future__ import annotations

import copy
import inspect
import pickle
import random

import pytest

from abrams_oracle import is_normalized, normalize, normalized_blocks
from conftest import (
    bundled_graphs,
    cycle_graph,
    hgraph,
    oracle_betti1,
    oracle_classify,
    oracle_components,
    oracle_separating,
    oracle_valence,
    path_graph,
    random_multigraph,
    spider,
    star,
    theta,
)
from loop_basis_oracle import FreeBasis, free_basis
from gbtc import graph_core
from gbtc.discrete_config import (
    BettiVector,
    ChainComplex,
    NonvanishingReport,
    build_complex,
    nonvanishing_check,
)
from gbtc.free_groups import (
    ConjugacySearch,
    FoldedAutomaton,
    FreeHom,
    FreeWord,
    PullbackGraph,
    pullback,
    stallings_core,
)
from gbtc.graph_core import (
    Graph,
    GraphFormatError,
    HypothesisError,
    Record,
    VertexClassification,
    classify,
    components_without,
    graph_from_data,
    valence,
)
from gbtc.local_graphs import EquivRelation, LambdaGraph, build_lambda, local_quotient
from gbtc.tc_bounds import BoundReport, lower_bound, stable_report


def test_valence_star_center():
    assert valence(star(3), "c") == 3


def test_valence_leaf():
    for n in (3, 4, 5):
        assert valence(star(n), "l1") == 1


def test_valence_self_loop_counts_twice():
    g = Graph(("a", "b"), (("a", "a"), ("a", "b")))
    assert valence(g, "a") == oracle_valence(g, "a") == 3


def test_valence_unknown_vertex():
    with pytest.raises(GraphFormatError):
        valence(star(3), "nope")


def test_graph_holds_its_half_edges():
    g = Graph(("c", "m", "l"), (("c", "m"), ("m", "c"), ("c", "l")))
    table = {"c": (0, 1, 2), "m": (0, 1), "l": (2,)}
    assert g.half_edges == table
    # a self-loop is listed twice
    assert Graph(("a", "b"), (("a", "a"), ("a", "b"))).half_edges == {"a": (0, 0, 1), "b": (1,)}
    # the table takes no part in equality, hashing or repr
    twin = Graph(g.vertices, g.edges)
    assert twin == g and hash(twin) == hash(g)
    assert "half_edges" not in repr(g)
    assert copy.copy(g).half_edges == table
    assert pickle.loads(pickle.dumps(g)).half_edges == table


def test_graph_rejects_undeclared_endpoint():
    with pytest.raises(GraphFormatError):
        Graph(("a",), (("a", "b"),))


def test_graph_rejects_duplicate_vertex():
    with pytest.raises(GraphFormatError, match="duplicate vertex id 'a'"):
        Graph(("a", "a"), ())


def test_normalize_theta():
    g = normalize(theta())
    assert g.n_vertices == 5
    assert oracle_betti1(g) == oracle_betti1(theta()) == 2


def test_normalize_self_loop_becomes_triangle():
    g = Graph(("a",), (("a", "a"),))
    ng = normalize(g)
    assert ng.n_vertices == 3 and ng.n_edges == 3
    assert oracle_betti1(ng) == 1
    assert is_normalized(ng)


def test_normalize_path_unchanged():
    g = path_graph(4)
    assert normalize(g) is g


def test_normalize_idempotent_on_corpus():
    for _, g in bundled_graphs():
        ng = normalize(g)
        assert normalize(ng) is ng
        assert is_normalized(ng)


def test_normalize_preserves_betti_on_corpus():
    for _, g in bundled_graphs():
        assert oracle_betti1(normalize(g)) == oracle_betti1(g)


def test_normalize_makes_essential_neighbours_bivalent():
    for g in (star(3), hgraph(), spider()):
        ng = normalize(g)
        val = {v: valence(ng, v) for v in ng.vertices}
        for u, w in ng.edges:
            if val[u] >= 3:
                assert val[w] == 2
            if val[w] >= 3:
                assert val[u] == 2


def test_is_separating_h_center():
    assert len(components_without(hgraph(), "c1")) > 1
    assert len(components_without(hgraph(), "c2")) > 1


def test_is_separating_theta_vertices():
    assert len(components_without(theta(), "u")) == 1
    assert len(components_without(theta(), "v")) == 1


def test_classify_star4():
    cls = classify(star(4))
    assert (cls.n0, cls.n1, cls.n2) == (1, 0, 0)
    assert cls.m == 1


def test_classify_hgraph():
    cls = classify(hgraph())
    assert (cls.n0, cls.n1, cls.n2) == (0, 2, 0)
    assert cls.m == 2


def test_classify_theta():
    cls = classify(theta())
    assert (cls.n0, cls.n1, cls.n2) == (0, 0, 2)
    assert cls.m == 2


@pytest.mark.parametrize(
    "vertices, edges",
    [
        (("a", "b", "c", "d"), (("a", "b"), ("c", "d"))),
        ((), ()),
        (("a", "b", "c"), (("a", "b"),)),
        (("a", "b"), (("b", "b"),)),
    ],
    ids=["two-components", "no-vertices", "isolated-vertex", "loop-beside-a-point"],
)
def test_graph_refuses_disconnected(vertices, edges):
    # a Graph is connected by construction, so no reader checks again
    with pytest.raises(HypothesisError, match="^connected graph required$"):
        Graph(vertices, edges)


def test_readers_make_no_flood_fill_from_the_first_vertex(monkeypatch):
    # the one connectivity fill starts from the first vertex with only that
    # vertex labelled; a fill inside _blocks starts with the vertex removed
    # already labelled
    whole = []
    real = graph_core._fill

    def spy(g, start, label):
        if start == g.vertices[0] and label == {start: 0}:
            whole.append(g)
        return real(g, start, label)

    monkeypatch.setattr(graph_core, "_fill", spy)
    graphs = [g for _, g in bundled_graphs()]
    assert whole == graphs  # the spy sees the one fill each Graph makes
    whole.clear()
    for g in graphs:
        classify(g)
        build_complex(g, 3)
        for v in g.vertices:
            if valence(g, v) >= 3:
                local_quotient(g, v)
    assert whole == []


def test_classify_matches_bruteforce_on_corpus():
    for name, g in bundled_graphs():
        cls = classify(g)
        assert (cls.n0, cls.n1, cls.n2) == oracle_classify(g), name
        assert cls.m == cls.n0 + cls.n1 + cls.n2
        # m equals the number of essential vertices of the raw graph
        essential = sum(1 for v in g.vertices if oracle_valence(g, v) >= 3)
        assert cls.m == essential


def test_classify_cycle_has_no_essential_vertices():
    cls = classify(cycle_graph(5))
    assert cls.m == 0


def test_classification_stores_counts_and_derives_totals():
    cls = VertexClassification(1, 2, 3)
    assert VertexClassification.__slots__ == ("n0", "n1", "n2")
    assert cls.as_dict() == {"n0": 1, "n1": 2, "n2": 3, "m": 6, "trivalent_total": 5}
    for counts in ((-1, 0, 0), (0, -1, 0), (0, 0, -1)):
        with pytest.raises(ValueError, match="nonnegative"):
            VertexClassification(*counts)


def test_components_without_star_center_is_discrete():
    g = normalize(star(3))
    assert components_without(g, "c") == ((0,), (1,), (2,))


def test_components_without_theta_is_indiscrete():
    g = normalize(theta())
    assert components_without(g, "u") == ((0, 1, 2),)


def test_components_without_h_trivalent_is_discrete():
    # deleting either junction leaves the two leaf arms and the far half as
    # three separate components, so all three classes are singletons
    g = normalize(hgraph())
    blocks = components_without(g, "c1")
    assert sorted(len(b) for b in blocks) == [1, 1, 1]
    comps = oracle_components(g, frozenset(("c1",)))
    assert len(comps) == 3


def test_components_without_rejects_nonessential():
    g = normalize(star(3))
    leaf = next(v for v in g.vertices if valence(g, v) == 1)
    with pytest.raises(HypothesisError):
        components_without(g, leaf)


def test_components_without_accepts_unnormalized():
    assert components_without(theta(), "u") == ((0, 1, 2),)


def test_self_loop_is_its_own_block():
    # removing a leaves the open loop and the open edge to b: two pieces
    g = Graph(("a", "b"), (("a", "a"), ("a", "b")))
    assert len(components_without(normalize(g), "a")) > 1
    cls = classify(g)
    assert (cls.n1, cls.n2) == (1, 0)
    assert components_without(g, "a") == ((0, 1), (2,))


def test_nonseparating_iff_single_class():
    for _, g in bundled_graphs():
        ng = normalize(g)
        for v in ng.vertices:
            if valence(ng, v) != 3:
                continue
            blocks = components_without(ng, v)
            if oracle_separating(ng, v):
                assert len(blocks) > 1
            else:
                assert len(blocks) == 1


@pytest.mark.parametrize(
    "data",
    [
        {"vertices": ["a", "b", "c"], "edges": [["a", "b", "c"], ["b", "c"]]},
        {"vertices": ["a", "b"], "edges": [["a"]]},
        {"vertices": "abc", "edges": [["a", "b"]]},
        {"vertices": ["a", "b"], "edges": ["ab"]},
        {"vertices": ["a", "b"], "edges": {"a": "b"}},
        {"vertices": [1, 2], "edges": [[1, 2]]},
        {"vertices": ["1", "2"], "edges": [[1, 2]]},
        {"vertices": ["a", "b"], "edges": [["a", "b"]], "sinks": "a"},
        {"vertices": ["a", "b"], "edges": [["a", "b"]], "sinks": [None]},
        {"vertices": ["a"]},
        ["a", "b"],
        # malformed before inapplicable: the graph is checked before its sinks
        {"vertices": ["a", "a"], "edges": [], "sinks": ["a"]},
    ],
)
def test_graph_from_data_rejects_malformed_input(data):
    with pytest.raises(GraphFormatError):
        graph_from_data(data)


def test_graph_from_data_keeps_string_ids():
    # an absent or empty sinks array loads the same graph
    g = Graph(("a", "b"), (("a", "b"),))
    assert graph_from_data({"vertices": ["a", "b"], "edges": [["a", "b"]]}) == g
    assert graph_from_data({"vertices": ["a", "b"], "edges": [["a", "b"]], "sinks": []}) == g


@pytest.mark.parametrize(
    "sinks",
    [["b"], ["c"], ["a", "b", "a"]],
    ids=["declared", "undeclared", "duplicate"],
)
def test_graph_from_data_refuses_sinks(sinks):
    # a configuration space with sinks is not UConf_k: refused whether or not
    # the ids name vertices
    with pytest.raises(HypothesisError, match="graphs with sinks are not supported"):
        graph_from_data({"vertices": ["a", "b"], "edges": [["a", "b"]], "sinks": sinks})


@pytest.mark.parametrize(
    "data, error, message",
    [
        # a format error beats connectivity
        ({"vertices": ["a", "b", "b"], "edges": []}, GraphFormatError, "duplicate vertex"),
        ({"vertices": ["a", "b"], "edges": [["a"]]}, GraphFormatError, "not a pair"),
        ({"vertices": ["a", "b"], "edges": [], "sinks": "a"}, GraphFormatError, "sinks"),
        # connectivity beats a nonempty sinks list
        ({"vertices": ["a", "b"], "edges": [], "sinks": ["a"]}, HypothesisError, "connected"),
        ({"vertices": [], "edges": [], "sinks": ["a"]}, HypothesisError, "connected"),
    ],
)
def test_graph_from_data_refusal_order(data, error, message):
    # each graph here is disconnected: ids, edge shapes and the sinks array's
    # shape are checked first, then connectivity, then a nonempty sinks list
    with pytest.raises(error, match=message):
        graph_from_data(data)


def test_input_graph_matches_normalized_route():
    # every result read off the input graph equals the one computed on its
    # subdivision, as graph_core did before it stopped subdividing
    rng = random.Random(20260418)
    cases = [g for _, g in bundled_graphs()] + [random_multigraph(rng) for _ in range(1200)]
    loops = parallels = 0
    for g in cases:
        ng = normalize(g)
        loops += any(u == w for u, w in g.edges)
        parallels += len({frozenset(e) for e in g.edges}) < g.n_edges
        cls = classify(g)
        assert (cls.n0, cls.n1, cls.n2) == oracle_classify(ng), g
        assert classify(ng) == cls
        for v in g.vertices:
            if valence(g, v) < 3:
                continue
            blocks = components_without(g, v)
            assert (len(blocks) > 1) == oracle_separating(ng, v), (g, v)
            assert blocks == normalized_blocks(g, v) == components_without(ng, v), (g, v)
            assert local_quotient(g, v) == local_quotient(ng, v), (g, v)
    assert loops >= 300 and parallels >= 300


# -- value semantics of the records --------------------------------------------

PI = EquivRelation([(0,), (1, 2)])

# one builder per record type; each call builds fresh, equal field values
RECORDS = {
    Graph: lambda: Graph(("a", "b"), (("a", "b"), ("b", "b"))),
    VertexClassification: lambda: VertexClassification(1, 2, 0),
    FreeWord: lambda: FreeWord(2, (1, -2, 1)),
    FreeHom: lambda: FreeHom(2, 1, (FreeWord(1, (1,)), FreeWord(1, ()))),
    FoldedAutomaton: lambda: stallings_core(2, [FreeWord(2, (1, 2))]),
    PullbackGraph: lambda: pullback(
        stallings_core(2, [FreeWord(2, (1, 2))]), stallings_core(2, [FreeWord(2, (2, 1))])
    ),
    ConjugacySearch: lambda: ConjugacySearch(3, (FreeWord(2, (1,)), FreeWord(2, (2,)))),
    EquivRelation: lambda: EquivRelation([(0,), (1, 2)]),
    LambdaGraph: lambda: build_lambda(PI, 2),
    # the tests' loop basis, a Record like the library's
    FreeBasis: lambda: free_basis(build_lambda(PI, 2)),
    ChainComplex: lambda: build_complex(star(3), 2),
    BettiVector: lambda: BettiVector((1, 3, 0)),
    NonvanishingReport: lambda: nonvanishing_check(star(3), 2),
    BoundReport: lambda: lower_bound(classify(hgraph()), 2, 6),
}


# the slots that take no part in equality, hashing or repr
HIDDEN_SLOTS = {
    Graph: ["half_edges"],
    FoldedAutomaton: ["_rows"],
    NonvanishingReport: ["chain_complex"],
}


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
def test_record_value_semantics(cls):
    a, b = RECORDS[cls](), RECORDS[cls]()
    assert type(a) is cls and a is not b
    if cls is PullbackGraph:
        assert a.nodes and a.edges  # views built on each access, not fields
    assert a == b and not a != b
    assert repr(a) == repr(b) and repr(a).startswith(f"{cls.__name__}(")
    if cls is ChainComplex:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a

    for other, build in RECORDS.items():
        if other is not cls:
            assert a != build() and not a == build()

    hidden = [name for name in cls.__slots__ if name not in cls._fields]
    assert hidden == HIDDEN_SLOTS.get(cls, [])
    for name in cls.__slots__:
        changed = copy.copy(b)
        object.__setattr__(changed, name, object())
        if name in hidden:
            assert changed == a and hash(changed) == hash(a) and repr(changed) == repr(a)
            assert name not in repr(a)
        else:
            assert changed != a and not changed == a, name
        with pytest.raises(AttributeError):
            setattr(b, name, getattr(a, name))
        with pytest.raises(AttributeError):
            delattr(b, name)
    assert a == b


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
def test_record_constructor_refuses_a_value_too_few_or_too_many(cls):
    # a record without its own __init__ takes exactly one value per slot;
    # one with its own takes from its required parameters up to all of
    # them, except FoldedAutomaton, which takes none
    a = RECORDS[cls]()
    values = [getattr(a, name) for name in cls.__slots__]
    if cls is FoldedAutomaton:
        # stallings_core is its only maker: every call is refused
        for n in range(len(values) + 1):
            with pytest.raises(TypeError, match="stallings_core"):
                cls(*values[:n])
        # such as a trivial subgroup's core with a hanging state, which
        # would compare unequal to stallings_core(1, [])
        with pytest.raises(TypeError, match="stallings_core"):
            FoldedAutomaton(rank=1, n_states=2, arcs=((0, 1, 1),))
        return
    params = inspect.signature(cls).parameters.values()
    if cls.__init__ is Record.__init__:
        fewest = most = len(values)
    else:
        fewest = sum(p.default is p.empty for p in params)
        most = len(params)
    assert cls(*values[:most]) == a
    with pytest.raises(TypeError):
        cls(*values[: fewest - 1])
    with pytest.raises(TypeError):
        cls(*values[:most], values[-1])


def _old_classification_dict(cls):
    # the hand-written serializers that Record.as_dict replaced
    return {"n0": cls.n0, "n1": cls.n1, "n2": cls.n2, "m": cls.m, "trivalent_total": cls.trivalent_total}


def _old_bound_dict(rep):
    return {
        "classification": _old_classification_dict(rep.classification),
        "r": rep.r,
        "k": rep.k,
        "choice": list(rep.choice) if rep.choice is not None else None,
        "lower": rep.lower,
        "upper": rep.upper,
        "stable_value": rep.stable_value,
        "k0": rep.k0,
        "caveats": list(rep.caveats),
        "homology_status": rep.homology_status,
    }


def _old_nonvanishing_dict(rep):
    return {
        "k": rep.k,
        "m": rep.m,
        "degree": rep.degree,
        "betti": list(rep.betti.betti) if rep.betti else None,
        "nonzero": rep.nonzero,
        "status": rep.status,
        "cell_counts": list(rep.cell_counts),
    }


def test_as_dict_matches_the_hand_written_reports():
    # seen: lower bounds with and without a caveat, stable reports with and
    # without a stable value, verified and budget-exceeded homology reports
    seen = set()
    for _, g in bundled_graphs():
        cls = classify(g)
        assert cls.as_dict() == _old_classification_dict(cls)
        bounds = []
        for r in (2, 3) if cls.m >= 2 else ():
            bounds += [lower_bound(cls, r, cls.m), lower_bound(cls, r, 2 * cls.m)]
            bounds.append(stable_report(cls, r))
        for rep in bounds:
            assert rep.as_dict() == _old_bound_dict(rep)
            seen.add((rep.lower is None, rep.stable_value is None, bool(rep.caveats)))
        for budget in (10, 10**6):
            rep = nonvanishing_check(g, 3, budget)
            assert rep.as_dict() == _old_nonvanishing_dict(rep)
            seen.add(rep.status)
    assert seen == {
        (False, True, True),
        (False, True, False),
        (True, False, False),
        (True, True, True),
        "verified",
        "budget-exceeded",
    }
