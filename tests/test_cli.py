"""Command-line front end: output contracts, exit codes, determinism; the
package names the benchmark calls."""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys

import pytest

import gbtc
from gbtc import discrete_config, free_groups, graph_core, local_graphs
from gbtc.cli import COMMANDS, _lambda_payload, _verify_lemma_rows, main
from gbtc.corpus import BUNDLED, load_bundled

DATA = os.path.join(os.path.dirname(__file__), "..", "src", "gbtc", "data")


def datafile(name: str) -> str:
    return os.path.join(DATA, f"{name}.json")


def run(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    return code, capsys.readouterr().out


# every command that reads a graph, with options that hgraph passes
GRAPH_COMMANDS = [
    ["classify"],
    ["stable", "--r", "2"],
    ["bound", "--r", "2", "--k", "6"],
    ["bound", "--r", "2", "--k", "6", "--check-homology"],
    ["lambda", "--vertex", "c1", "--k", "2"],
    ["homology", "--k", "2"],
]


def test_classify_output(capsys):
    code, out = run(capsys, "classify", datafile("hgraph"))
    assert code == 0
    assert json.loads(out) == {"n0": 0, "n1": 2, "n2": 0, "m": 2, "trivalent_total": 2}


def test_classify_disconnected_exits_two(capsys, tmp_path):
    bad = tmp_path / "disc.json"
    bad.write_text(
        json.dumps({"vertices": ["a", "b", "c", "d"], "edges": [["a", "b"], ["c", "d"]]})
    )
    for command, *options in GRAPH_COMMANDS:
        code = main([command, str(bad), *options])
        cap = capsys.readouterr()
        assert code == 2 and cap.out == "", command
        assert cap.err.splitlines() == ["inapplicable: connected graph required"]


def test_empty_graph_is_not_connected(capsys, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text(json.dumps({"vertices": [], "edges": []}))
    for command, *options in GRAPH_COMMANDS:
        code = main([command, str(empty), *options])
        cap = capsys.readouterr()
        assert code == 2 and cap.out == "", command
        assert cap.err.splitlines() == ["inapplicable: connected graph required"]
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"vertices": ["a"], "edges": []}))
    code, out = run(capsys, "classify", str(point))
    assert code == 0 and json.loads(out)["m"] == 0


def test_missing_file_exits_one(capsys):
    code, _ = run(capsys, "classify", "/nonexistent/file.json")
    assert code == 1


def test_bad_json_exits_one(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("not json at all")
    code, _ = run(capsys, "classify", str(bad))
    assert code == 1


def test_deeply_nested_json_exits_one_without_traceback(capsys, tmp_path):
    # 100 KB of nested arrays overflow the json decoder's recursion limit;
    # Python 3.13's decoder parses 5,000 levels, so 10 KB no longer does
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 50_000 + "]" * 50_000)
    code = main(["classify", str(deep)])
    cap = capsys.readouterr()
    assert code == 1 and cap.out == ""
    assert cap.err.splitlines() == ["error: graph JSON is nested too deeply"]


@pytest.mark.parametrize(
    "data",
    [
        {"vertices": [list(range(200_000))], "edges": []},
        {"vertices": ["a"], "edges": [["a", "x" * 1_000_000]]},
        {"vertices": ["a"], "edges": {"ids": list(range(100_000))}},
    ],
    ids=["wide-id", "long-endpoint", "edges-object"],
)
def test_malformed_value_is_quoted_short(capsys, tmp_path, data):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code = main(["classify", str(bad)])
    cap = capsys.readouterr()
    assert code == 1 and cap.out == ""
    lines = cap.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert len(cap.err.encode()) < 200, cap.err


def test_bound_theta(capsys):
    code, out = run(capsys, "bound", datafile("theta"), "--r", "3", "--k", "4")
    assert code == 0
    rep = json.loads(out)
    assert rep["lower"] == 4 and rep["upper"] == 6


def test_bound_inapplicable_exits_two(capsys):
    code, _ = run(capsys, "bound", datafile("star3"), "--r", "2", "--k", "4")
    assert code == 2


def test_bad_r_exits_one(capsys):
    # r < 1 is malformed input for both commands; bound's r >= 2 is a hypothesis
    for argv in (
        ["stable", datafile("hgraph"), "--r", "0"],
        ["bound", datafile("hgraph"), "--r", "0", "--k", "4"],
    ):
        code = main(argv)
        cap = capsys.readouterr()
        assert code == 1 and cap.out == ""
        assert cap.err.startswith("error:") and "Traceback" not in cap.err
    code = main(["bound", datafile("hgraph"), "--r", "1", "--k", "4"])
    cap = capsys.readouterr()
    assert code == 2 and cap.out == ""
    assert cap.err.startswith("inapplicable:")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["bound", "--r", "0", "--k", "4"], "the motion-planning order r must be at least 1"),
        (["bound", "--r", "3", "--k", "-1"], "the particle count k must be nonnegative"),
        (["stable", "--r", "0"], "the motion-planning order r must be at least 1"),
    ],
)
def test_bad_r_or_k_exit_codes_are_pinned(capsys, tmp_path, argv, message):
    command, *options = argv
    code = main([command, datafile("hgraph"), *options])
    cap = capsys.readouterr()
    assert (code, cap.out, cap.err) == (1, "", f"error: {message}\n")
    # the graph is loaded first, so a disconnected one is refused as such
    # before its options are read
    disc = tmp_path / "disc.json"
    disc.write_text(
        json.dumps({"vertices": ["a", "b", "c", "d"], "edges": [["a", "b"], ["c", "d"]]})
    )
    code = main([command, str(disc), *options])
    cap = capsys.readouterr()
    assert (code, cap.out, cap.err) == (2, "", "inapplicable: connected graph required\n")


@pytest.mark.parametrize(
    "argv, calls",
    [
        (["corpus"], 7),
        (["bound", datafile("hgraph"), "--r", "3", "--k", "4"], 1),
        (["bound", datafile("hgraph"), "--r", "3", "--k", "4", "--check-homology"], 1),
        (["stable", datafile("hgraph"), "--r", "3"], 1),
    ],
    ids=["corpus", "bound", "bound-check-homology", "stable"],
)
def test_each_command_classifies_its_graphs_once(capsys, monkeypatch, argv, calls):
    # every gbtc module that names classify gets the counting one, so a call
    # made outside the CLI counts too
    seen = []
    real = graph_core.classify

    def counting(g):
        seen.append(g)
        return real(g)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "gbtc" and getattr(module, "classify", None) is real:
            monkeypatch.setattr(module, "classify", counting)
    assert main(argv) == 0
    capsys.readouterr()
    assert len(seen) == calls


def test_stable_hgraph(capsys):
    code, out = run(capsys, "stable", datafile("hgraph"), "--r", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["stable_value"] == 4 and rep["k0"] == 6


def test_stable_theta_caveat(capsys):
    code, out = run(capsys, "stable", datafile("theta"), "--r", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["stable_value"] is None and rep["caveats"]


def test_lambda_json(capsys):
    code, out = run(capsys, "lambda", datafile("star3"), "--vertex", "c", "--k", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["rank"] == 1
    assert len(payload["vertices"]) == 9
    assert len(payload["edges"]) == 9


def test_emit_writes_the_bytes_of_plain_json_dumps(capsys):
    # _emit skips the encoder's cycle check; on the 128,394-byte star5 model
    # at k = 12 it writes what the plain call writes
    code, out = run(capsys, "lambda", datafile("star5"), "--vertex", "c", "--k", "12")
    pi = local_graphs.local_quotient(graph_core.load_graph(datafile("star5")), "c")
    payload = _lambda_payload(local_graphs.build_lambda(pi, 12))
    assert code == 0 and out == json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    assert len(out) == 128394 + 1  # the payload and a newline


def test_lambda_size_guard(capsys):
    code, out = run(capsys, "lambda", datafile("star5"), "--vertex", "c", "--k", "20")
    payload = json.loads(out)
    assert code == 0 and (len(payload["vertices"]), len(payload["edges"])) == (19481, 44275)
    for k in ("40", "1000000"):
        code = main(["lambda", datafile("star5"), "--vertex", "c", "--k", k])
        cap = capsys.readouterr()
        assert code == 1 and cap.out == ""
        assert cap.err.startswith("error:") and "Traceback" not in cap.err


def test_bound_check_homology_statuses(capsys, tmp_path):
    # K_6 fits the fixed budget at k = 4 and not at k = 11, both below 2m = 12
    names = [f"v{i}" for i in range(6)]
    edges = [[a, b] for i, a in enumerate(names) for b in names[i + 1 :]]
    k6 = tmp_path / "k6.json"
    k6.write_text(json.dumps({"vertices": names, "edges": edges}))
    for graph, k, status in (
        (datafile("hgraph"), "6", "verified"),
        (str(k6), "4", "verified"),
        (str(k6), "11", "budget-exceeded"),
    ):
        code, out = run(capsys, "bound", graph, "--r", "2", "--k", k, "--check-homology")
        assert code == 0 and json.loads(out)["homology_status"] == status, (graph, k)


def test_bound_check_homology_contradicted_exits_two(capsys, monkeypatch):
    real = discrete_config.nonvanishing_check

    def vanishing(g, k):
        rep = real(g, k)
        return discrete_config.NonvanishingReport(
            rep.k, rep.m, rep.degree, rep.betti, False, rep.status, rep.cell_counts
        )

    monkeypatch.setattr(discrete_config, "nonvanishing_check", vanishing)
    code = main(["bound", datafile("hgraph"), "--r", "2", "--k", "6", "--check-homology"])
    cap = capsys.readouterr()
    assert code == 2
    assert json.loads(cap.out)["homology_status"] == "contradicted"
    assert cap.err.startswith("contradicted:")


def test_bound_check_homology_checks_the_bound_first(capsys, tmp_path, monkeypatch):
    # star5 has one essential vertex, so the bound is refused before any
    # complex is built, with or without the homology check
    built = []
    real = discrete_config.build_complex

    def counting(*args, **kwargs):
        built.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(discrete_config, "build_complex", counting)
    refused = ["inapplicable: connected graph with m >= 2 required (at least two essential vertices)"]
    for extra in ([], ["--check-homology"]):
        code = main(["bound", datafile("star5"), "--r", "3", "--k", "40", *extra])
        cap = capsys.readouterr()
        assert code == 2 and cap.out == "" and cap.err.splitlines() == refused
    assert built == []
    # a star with a sink fails both checks; the load gate answers first
    star = tmp_path / "star_sink.json"
    star.write_text(
        json.dumps(
            {"vertices": ["c", "a", "b", "d"], "edges": [["c", "a"], ["c", "b"], ["c", "d"]], "sinks": ["a"]}
        )
    )
    for argv in (["bound", "--r", "3", "--k", "4", "--check-homology"], ["homology", "--k", "4"]):
        code = main([argv[0], str(star), *argv[1:]])
        cap = capsys.readouterr()
        assert code == 2 and cap.out == "" and cap.err.splitlines() == [
            "inapplicable: graphs with sinks are not supported: sinks ['a']"
        ]


def test_homology_star3(capsys):
    code, out = run(capsys, "homology", datafile("star3"), "--k", "2")
    assert code == 0
    rep = json.loads(out)
    assert rep["betti"][:2] == [1, 1]
    assert rep["nonzero"] is True and rep["status"] == "verified"


def test_homology_budget_env(capsys, monkeypatch):
    # the budget is fixed: GBTC_CELL_BUDGET changes nothing
    monkeypatch.setenv("GBTC_CELL_BUDGET", "10")
    code, out = run(capsys, "homology", datafile("star3"), "--k", "2")
    assert code == 0 and json.loads(out)["status"] == "verified"
    code, out = run(capsys, "homology", datafile("star3"), "--k", "100000000")
    assert code == 0 and json.loads(out)["status"] == "budget-exceeded"


@pytest.mark.parametrize(
    "data, head",
    [
        ({"vertices": ["p"], "edges": []}, [0, 0]),
        ({"vertices": ["a", "b"], "edges": [["a", "b"]]}, [1, 0]),
        ({"vertices": ["a", "b"], "edges": [["a", "b"], ["b", "a"]]}, [1, 1]),
    ],
    ids=["point", "interval", "circle"],
)
def test_homology_budget_env_counts_k_plus_one(capsys, monkeypatch, tmp_path, data, head):
    # at most two generators at every k, so only k + 1 can exceed the budget;
    # test_budget_counts_k_plus_one pins the exact boundary in the library
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    monkeypatch.setenv("GBTC_CELL_BUDGET", "50")
    code, out = run(capsys, "homology", str(path), "--k", "49")
    rep = json.loads(out)
    assert code == 0 and rep["status"] == "verified"
    assert rep["betti"] == head + [0] * 48
    code, out = run(capsys, "homology", str(path), "--k", "100000000")
    assert code == 0 and json.loads(out)["status"] == "budget-exceeded"


def test_homology_reports_the_complex_it_builds(capsys, monkeypatch):
    # one complex per call, and the reported cell counts are its own
    built = []
    real = discrete_config.build_complex

    def counting(*args, **kwargs):
        built.append(real(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(discrete_config, "build_complex", counting)
    code, out = run(capsys, "homology", datafile("theta"), "--k", "3")
    assert code == 0
    (c,) = built
    assert json.loads(out)["cell_counts"] == c.cell_counts()


def test_zero_particles_is_one_point(capsys, tmp_path):
    # UConf_0 is one point: bound accepts k = 0, so its homology check does
    code, out = run(capsys, "homology", datafile("hgraph"), "--k", "0")
    assert code == 0
    rep = json.loads(out)
    assert rep["betti"] == [1] and rep["cell_counts"] == [1]
    assert rep["nonzero"] is True and rep["status"] == "verified"
    code, out = run(capsys, "bound", datafile("hgraph"), "--r", "3", "--k", "0", "--check-homology")
    assert code == 0 and json.loads(out)["homology_status"] == "verified"
    point = tmp_path / "point.json"
    point.write_text(json.dumps({"vertices": ["a"], "edges": []}))
    code, out = run(capsys, "homology", str(point), "--k", "0")
    assert code == 0 and json.loads(out)["betti"] == [1]
    for argv in (
        ["homology", datafile("hgraph"), "--k", "-1"],
        ["homology", str(point), "--k", "-1"],
        ["bound", datafile("hgraph"), "--r", "3", "--k", "-1", "--check-homology"],
    ):
        code = main(argv)
        cap = capsys.readouterr()
        assert code == 1 and cap.out == "", argv
        assert cap.err.startswith("error:") and "Traceback" not in cap.err


def test_homology_with_sinks_is_inapplicable(capsys, tmp_path):
    g = tmp_path / "theta_sink.json"
    g.write_text(
        json.dumps({"vertices": ["u", "v"], "edges": [["u", "v"]] * 3, "sinks": ["u"]})
    )
    code = main(["homology", str(g), "--k", "2"])
    cap = capsys.readouterr()
    assert code == 2 and cap.out == ""
    assert cap.err.splitlines() == ["inapplicable: graphs with sinks are not supported: sinks ['u']"]


@pytest.mark.parametrize(
    "argv",
    GRAPH_COMMANDS,
    ids=["classify", "stable", "bound", "bound-check-homology", "lambda", "homology"],
)
def test_every_command_refuses_a_graph_with_sinks(capsys, tmp_path, argv):
    # the sinks of a graph file are refused at load, in one wording for every
    # command, including those that never read a configuration space
    with open(datafile("hgraph"), encoding="utf-8") as fh:
        data = json.load(fh)
    g = tmp_path / "hgraph_sink.json"
    g.write_text(json.dumps({**data, "sinks": ["l4"]}))
    code = main([argv[0], str(g), *argv[1:]])
    cap = capsys.readouterr()
    assert code == 2 and cap.out == ""
    assert cap.err.splitlines() == ["inapplicable: graphs with sinks are not supported: sinks ['l4']"]


def test_verify_lemmas_passes(capsys):
    code, out = run(capsys, "verify-lemmas", "--n", "5")
    assert code == 0
    rows = json.loads(out)
    assert rows and all(r["ok"] for r in rows)


@pytest.mark.parametrize(
    "n, digest",
    [
        ("4", "e78f5df85a6cb720819b40ca1512129c77b6e485d863f5f0d1790b95cf19b9aa"),
        ("6", "dd4ae847d7d950d81720493edf8ccff34070bd1f65eb8d4b5f8ce97dcd6aef7f"),
        ("12", "8f96f040181c55e7e8ddad4db69a48d29bb67a36e417f6665a8221d9eb0ad521"),
        ("64", "17768af7ea31c61fdf2d50ad97c5bd269083ec2fc11d529bda422d7858e94136"),
    ],
)
def test_verify_lemmas_stdout_is_pinned(capsys, n, digest):
    # SHA-256 of the stdout bytes from before the free-group checks took
    # cores, and from before the star rows checked one rank-3 pair for every
    # n and the kernel-criterion row checked the paper's instances instead of
    # random samples; how the rows reach their verdicts must not change what
    # they say
    code, out = run(capsys, "verify-lemmas", "--n", n)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_verify_lemmas_stallings_core_calls(monkeypatch):
    # at any n: the star rows fold 4 once (two cores, plus the source and
    # image cores of restriction_injective), the trivalent row 6 (two cores
    # and two per side), the kernel-criterion row none, as it reuses the
    # verdicts of those two, and the particle rows none, as they check the
    # graph map; it was 38 = 4 + 6 + 12 * 2 + 4 * 1 when the 12 split models
    # folded 2 each and the 4 isomorphisms 1 each, and 302 when each n
    # refolded its star pair and the kernel row folded 4 per random sample
    calls = []
    fold = free_groups.stallings_core

    def counted(rank, gens):
        calls.append(rank)
        return fold(rank, gens)

    monkeypatch.setattr(free_groups, "stallings_core", counted)
    rows = _verify_lemma_rows(6)
    assert all(r["ok"] for r in rows)
    assert len(calls) == 4 + 6 == 10


@pytest.mark.parametrize("n", [6, 64])
def test_verify_lemmas_runs_the_oracle_once(monkeypatch, n):
    # the rank-3 star pair is folded and searched once for every n; it was
    # n - 3 oracle calls when each n searched its own pair; the folds are
    # 4 + 6, as counted above
    calls = {"stallings_core": 0, "disjoint_conjugates_bruteforce": 0}
    for name in calls:
        real = getattr(free_groups, name)

        def counted(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(free_groups, name, counted)
    rows = _verify_lemma_rows(n)
    assert len(rows) == n + 1 and all(r["ok"] for r in rows)
    assert calls == {"stallings_core": 10, "disjoint_conjugates_bruteforce": 1}


def test_verify_lemmas_star_rows_need_the_retraction(capsys, monkeypatch):
    # the rank-3 check proves n only while both subgroups keep the letters
    # of n = 4; a subgroup using x4 is outside what the retraction fixes
    real = free_groups.star_commutator_subgroups

    def using_x4(n, a):
        if n < 5:
            return real(n, a)
        return [free_groups.concat(w, free_groups.generator(n - 1, 4)) for w in real(n, a)]

    monkeypatch.setattr(free_groups, "star_commutator_subgroups", using_x4)
    rows = _verify_lemma_rows(6)
    assert [r["ok"] for r in rows[:3]] == [True, False, False]
    assert all(r["ok"] for r in rows[3:])
    code, out = run(capsys, "verify-lemmas", "--n", "6")
    assert code == 2 and json.loads(out) == rows


def reference_star_rows(max_n: int) -> list[dict]:
    """The star rows as each n checked its own pair at rank n - 1."""
    rows = []
    for n in range(4, max_n + 1):
        h0 = free_groups.star_commutator_subgroups(n, 0)
        h1 = free_groups.star_commutator_subgroups(n, 1)
        a = free_groups.stallings_core(n - 1, h0)
        b = free_groups.stallings_core(n - 1, h1)
        ok = free_groups.is_forest(free_groups.pullback(a, b))
        ok = ok and free_groups.subgroup_rank(a) == 1 and free_groups.subgroup_rank(b) == 1
        psi = free_groups.star_projection_hom(n)
        ok = ok and free_groups.restriction_injective(psi, h0)
        ok = ok and all(free_groups.apply_hom(psi, w).is_identity for w in h1)
        ok = ok and not free_groups.disjoint_conjugates_bruteforce(a, b, 4).found_violation
        check = f"star commutator subgroups have disjoint conjugates (n={n})"
        rows.append({"check": check, "ok": ok, "detail": ""})
    return rows


def test_verify_lemmas_star_rows_match_the_per_n_reference():
    rows = _verify_lemma_rows(12)
    assert rows[:9] == reference_star_rows(12)
    assert all(r["ok"] for r in rows)


def test_verify_lemmas_builds_each_particle_model_once(monkeypatch):
    # the trivalent row builds 1 model; the split rows pass each model they
    # build to the particle-adding map as the target of k and then as the
    # source of k + 1: 3 n times 5 models (k = 1..5) for the leaf-separated
    # row, 4 n times 2 (k = 1 and 2) for the leaf-identified row; it was 65
    # when each k rebuilt the model its predecessor had built as a target
    calls = []
    build = local_graphs.build_lambda

    def counted(pi, k):
        calls.append((pi, k))
        return build(pi, k)

    monkeypatch.setattr(local_graphs, "build_lambda", counted)
    rows = _verify_lemma_rows(6)
    assert all(r["ok"] for r in rows)
    assert len(calls) == len(set(calls)) == 1 + 3 * 5 + 4 * 2 == 24


def added_edge(lam):
    return lam.edges + ((1, 0, 0),)


def reversed_labels(lam):
    # on one block this reorders the edges and keeps the edge set
    return tuple((u, l, len(lam.edges) - 1 - j) for u, l, j in lam.edges)


def changed_label(lam):
    # the first edge moves from block 0 to block 1 with its ends kept
    (u, l, j), *rest = lam.edges
    return ((u, l, j + 1), *rest)


def doubled_edge(lam):
    # two edges of the source then map onto one edge of the target
    return lam.edges + lam.edges[:1]


def leaf_identified(pi):
    return pi.n_blocks == 1


def leaf_separated(pi):
    return pi.n_blocks == len(pi.ground)


@pytest.mark.parametrize(
    "edges, relations, false_row",
    [
        (added_edge, leaf_identified, -1),
        (reversed_labels, leaf_identified, None),
        (changed_label, leaf_separated, -2),
        (doubled_edge, leaf_separated, -2),
    ],
    ids=["added_edge", "reversed_labels", "changed_label", "doubled_edge"],
)
def test_verify_lemmas_leaf_identified_row_needs_the_same_edges(
    capsys, monkeypatch, edges, relations, false_row
):
    # the particle rows check the graph map on the models of k >= 2: an edge
    # with no preimage leaves the one-block map not onto, an edge whose label
    # names another block has no image, and an edge given twice leaves the
    # edge map not injective; reordering the edges of a one-block model
    # leaves the same graph, so its row stays true
    real = local_graphs.build_lambda

    def changed(pi, k):
        lam = real(pi, k)
        if not relations(pi) or k < 2:
            return lam
        return local_graphs.LambdaGraph(pi, k, lam.vertices, edges(lam))

    monkeypatch.setattr(local_graphs, "build_lambda", changed)
    rows = _verify_lemma_rows(6)
    want = [True] * len(rows)
    if false_row is not None:
        want[false_row] = False
    assert [r["ok"] for r in rows] == want
    code, out = run(capsys, "verify-lemmas")
    assert code == (0 if false_row is None else 2) and json.loads(out) == rows


def test_verify_lemmas_maps_each_particle_step_once(monkeypatch):
    # the leaf-separated row maps k = 1..4 into k + 1 for 3 n, the
    # leaf-identified row k = 1 into 2 for 4 n
    calls = []
    add = local_graphs.add_particle

    def counted(lam, target, block):
        calls.append((lam, target, block))
        return add(lam, target, block)

    monkeypatch.setattr(local_graphs, "add_particle", counted)
    rows = _verify_lemma_rows(6)
    assert all(r["ok"] for r in rows)
    assert len(calls) == len(set(calls)) == 3 * 4 + 4 == 16
    assert all(target.k == lam.k + 1 and block == 0 for lam, target, block in calls)


def test_verify_lemmas_refuses_n_over_the_limit(capsys):
    from gbtc.cli import VERIFY_LEMMAS_MAX_N

    code = main(["verify-lemmas", "--n", str(VERIFY_LEMMAS_MAX_N + 1)])
    cap = capsys.readouterr()
    assert code == 1 and cap.out == ""
    assert cap.err.startswith("error:") and "Traceback" not in cap.err


def test_verify_lemmas_refuses_n_below_four(capsys):
    # the star rows start at n=4; a smaller n used to drop them and exit 0
    for n in ("3", "2", "-1"):
        code = main(["verify-lemmas", "--n", n])
        cap = capsys.readouterr()
        assert code == 1 and cap.out == ""
        assert cap.err.startswith("error:")


def test_corpus_deterministic(capsys):
    code1, out1 = run(capsys, "corpus")
    code2, out2 = run(capsys, "corpus")
    assert code1 == code2 == 0
    assert out1 == out2
    entries = json.loads(out1)
    assert [e["name"] for e in entries] == list(BUNDLED)


def test_indented_corpus_is_json_tool_of_the_output(capsys):
    # the one output encoding is compact; python -m json.tool --indent 2
    # indents it to the bytes that the removed --pretty option wrote
    code, out = run(capsys, "corpus")
    proc = subprocess.run(
        [sys.executable, "-m", "json.tool", "--indent", "2"],
        input=out.encode(),
        capture_output=True,
        timeout=60,
    )
    assert code == 0 and proc.returncode == 0, proc.stderr
    digest = "29cb7c27724f4f1c166c18a71f5a0a19472320422eed9c642a5a100553238423"
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_argument_forms_read_alike(capsys):
    # --opt=value and options before the graph read as the plain form does
    want = run(capsys, "bound", datafile("hgraph"), "--r", "3", "--k", "4")
    assert want[0] == 0
    for argv in (
        ["bound", datafile("hgraph"), "--r=3", "--k=4"],
        ["bound", "--r", "3", "--k", "4", datafile("hgraph")],
        ["bound", "--k=4", datafile("hgraph"), "--r", "3"],
    ):
        assert run(capsys, *argv) == want, argv


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "no command given (see gbtc --help)"),
        (["frobnicate"], "unknown command 'frobnicate' (see gbtc --help)"),
        (["--pretty", "corpus"], "unknown command '--pretty' (see gbtc --help)"),
        (["corpus", "--fast"], "corpus: unknown option '--fast' (see gbtc corpus --help)"),
        # no prefix stands for an option
        (["bound", "G", "--r", "3", "--k", "4", "--check"], "bound: unknown option '--check' "
         "(see gbtc bound --help)"),
        (["stable", "G"], "stable: --r is required (see gbtc stable --help)"),
        (["bound", "G", "--r", "3", "--r", "3", "--k", "4"], "bound: --r given twice"),
        (["bound", "G", "--r", "3", "--k", "4", "--check-homology", "--check-homology"],
         "bound: --check-homology given twice"),
        (["bound", "G", "--r", "x", "--k", "4"], "bound: --r wants an integer, got 'x'"),
        (["bound", "G", "--r", "3", "--k", "4.0"], "bound: --k wants an integer, got '4.0'"),
        (["verify-lemmas", "--n=six"], "verify-lemmas: --n wants an integer, got 'six'"),
        (["homology", "G", "--k"], "homology: --k needs a value"),
        (["bound", "G", "--r", "3", "--k", "4", "--check-homology=yes"],
         "bound: --check-homology takes no value"),
        (["classify"], "classify: takes one GRAPH argument, got 0"),
        (["classify", "G", "H"], "classify: takes one GRAPH argument, got 2"),
        (["corpus", "G"], "corpus: takes no arguments, got 1"),
    ],
    ids=[
        "bare",
        "unknown-command",
        "option-for-command",
        "unknown-option",
        "prefix",
        "missing-option",
        "repeated-option",
        "repeated-flag",
        "non-int-r",
        "non-int-k",
        "non-int-n",
        "missing-value",
        "flag-value",
        "missing-graph",
        "two-graphs",
        "extra-argument",
    ],
)
def test_argument_errors_exit_one_with_one_line(capsys, argv, message):
    # no file is read: the arguments are refused first
    argv = [datafile("hgraph") if a == "G" else a for a in argv]
    code = main(argv)
    cap = capsys.readouterr()
    assert (code, cap.out, cap.err) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "argv",
    GRAPH_COMMANDS + [["verify-lemmas"], ["corpus"]],
    ids=lambda argv: " ".join(argv),
)
def test_pretty_is_refused_by_every_command(capsys, argv):
    # one output encoding: --pretty is an unknown option like any other
    command, *options = argv
    graph = [datafile("hgraph")] if COMMANDS[command][1] else []
    code = main([command, *graph, *options, "--pretty"])
    cap = capsys.readouterr()
    message = f"error: {command}: unknown option '--pretty' (see gbtc {command} --help)\n"
    assert (code, cap.out, cap.err) == (1, "", message)


LONG = "x" * 5000


@pytest.mark.parametrize(
    "argv",
    [["bound", "G", "--r", LONG, "--k", "4"], [LONG], ["corpus", "--" + LONG]],
    ids=["non-int-value", "unknown-command", "unknown-option"],
)
def test_argument_error_quotes_a_long_argument_in_short(capsys, argv):
    argv = [datafile("hgraph") if a == "G" else a for a in argv]
    code = main(argv)
    cap = capsys.readouterr()
    assert (code, cap.out) == (1, "")
    assert cap.err.startswith("error:") and cap.err.count("\n") == 1, cap.err[:200]
    assert len(cap.err.encode()) < 300


def fresh(argv, stdout=subprocess.PIPE, **variables) -> subprocess.CompletedProcess:
    """gbtc in a fresh ``python -m gbtc.cli`` process, with stdout block
    buffered as it is by default; ``variables`` set environment variables,
    or unset those given as None."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gbtc.__file__)))
    env.pop("PYTHONUNBUFFERED", None)
    for name, value in variables.items():
        if value is None:
            env.pop(name, None)
        else:
            env[name] = value
    return subprocess.run(
        [sys.executable, "-m", "gbtc.cli", *argv],
        env=env,
        stdout=stdout,
        stderr=subprocess.PIPE,
        timeout=60,
    )


def test_argument_error_in_a_fresh_process(tmp_path):
    # the installed entry point and python -m gbtc.cli share run
    proc = fresh(["bound", datafile("hgraph"), "--r", "x", "--k", "4"])
    assert (proc.returncode, proc.stdout) == (1, b"")
    assert proc.stderr == b"error: bound: --r wants an integer, got 'x'\n"


def test_refused_graph_in_a_fresh_process(tmp_path):
    g = tmp_path / "sink.json"
    g.write_text(json.dumps({"vertices": ["a", "b"], "edges": [["a", "b"]], "sinks": ["a"]}))
    proc = fresh(["classify", str(g)])
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr == b"inapplicable: graphs with sinks are not supported: sinks ['a']\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["corpus"],
        ["verify-lemmas", "--n", "6"],
        ["lambda", datafile("star5"), "--vertex", "c", "--k", "12"],
        ["homology", datafile("theta"), "--k", "3"],
        ["bound", datafile("theta"), "--r", "3", "--k", "6", "--check-homology"],
    ],
    ids=lambda argv: argv[0],
)
def test_stdout_does_not_depend_on_the_environment(argv):
    # the output is a function of argv and the graph file: neither the hash
    # seed nor GBTC_CELL_BUDGET changes a byte
    def answer(**variables):
        proc = fresh(argv, **variables)
        return proc.returncode, proc.stdout

    unset = answer(GBTC_CELL_BUDGET=None)
    assert unset[0] == 0 and unset[1].endswith(b"\n")
    assert answer(PYTHONHASHSEED="0") == answer(PYTHONHASHSEED="1") == unset
    for raw in ("5", "0", "lots"):
        assert answer(GBTC_CELL_BUDGET=raw) == unset, raw


@pytest.mark.parametrize(
    "graph, argv, limit",
    [
        (None, ["verify-lemmas", "--n", "9" * 4000], "4..64"),
        ("star5", ["--vertex", "c", "--k", "9" * 1000], "100000"),
        ("star5", ["--vertex", "c", "--k", "9" * 4000], "100000"),
        ("star300", ["--vertex", "c", "--k", "9" * 50], "100000"),
    ],
    ids=["n-4000-digits", "k-1000-digits", "k-4000-digits", "star300-k-50-digits"],
)
def test_range_error_quotes_a_huge_value_in_short(tmp_path, graph, argv, limit):
    # the value is quoted in at most 60 characters, and lambda refuses a huge
    # k without writing out a model size that may be too long to format
    if graph == "star300":
        g = tmp_path / "star300.json"
        leaves = [f"l{i}" for i in range(300)]
        g.write_text(json.dumps({"vertices": ["c", *leaves], "edges": [["c", l] for l in leaves]}))
        argv = ["lambda", str(g), *argv]
    elif graph:
        argv = ["lambda", datafile(graph), *argv]
    proc = fresh(argv)
    err = proc.stderr.decode()
    assert (proc.returncode, proc.stdout) == (1, b""), err[:200]
    assert err.startswith("error:") and err.count("\n") == 1, err[:200]
    assert len(proc.stderr) < 300 and limit in err


# star5 at k=12 writes 128 KB, more than two pipe buffers
@pytest.mark.parametrize(
    "argv", [["lambda", datafile("star5"), "--vertex", "c", "--k", "12"], ["corpus"]]
)
def test_fresh_process_writes_all_of_main_output(capsys, argv):
    code, out = run(capsys, *argv)
    proc = fresh(argv)
    assert code == 0
    assert (proc.returncode, proc.stderr, proc.stdout) == (0, b"", out.encode())


# classify's few bytes fail at _write's flush, the 128 KB lambda output at
# its write; both fail inside main, before run's os._exit
@pytest.mark.parametrize(
    "argv",
    [["classify", datafile("hgraph")], ["lambda", datafile("star5"), "--vertex", "c", "--k", "12"]],
)
def test_failed_write_exits_one_with_one_line(argv):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    with open("/dev/full", "wb") as full:
        proc = fresh(argv, stdout=full)
    err = proc.stderr.decode()
    assert proc.returncode == 1, err
    assert len(err.splitlines()) == 1 and err.startswith("error:"), err
    assert "Exception ignored" not in err and "Traceback" not in err


# every write of the output: the JSON payload and the help
@pytest.mark.parametrize(
    "argv", [["classify", datafile("hgraph")], ["--help"]], ids=["json", "help"]
)
def test_closed_stdout_exits_one_with_one_line(argv):
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gbtc.__file__)))
    proc = subprocess.run(
        ["sh", "-c", 'exec "$0" -m gbtc.cli "$@" >&-', sys.executable, *argv],
        env=env,
        stderr=subprocess.PIPE,
        timeout=60,
    )
    err = proc.stderr.decode()
    assert proc.returncode == 1, err
    assert err == "error: standard output is closed\n", err


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_lists_the_commands(capsys, flag):
    code = main([flag])
    cap = capsys.readouterr()
    assert code == 0 and cap.err == ""
    lines = cap.out.splitlines()
    assert lines[0] == "usage: gbtc [-h] COMMAND ..."
    listed = [line.split()[0] for line in lines[lines.index("commands:") + 1 :] if line[2] != " "]
    assert listed == list(COMMANDS)


@pytest.mark.parametrize("flag", ["-h", "--help"])
@pytest.mark.parametrize(
    "command", ["classify", "bound", "stable", "lambda", "homology", "verify-lemmas", "corpus"]
)
def test_command_help_gives_usage_options_and_description(capsys, command, flag):
    # help wins over arguments that are missing
    code = main([command, "--r", "3", flag] if command == "bound" else [command, flag])
    cap = capsys.readouterr()
    assert code == 0 and cap.err == ""
    assert cap.out.startswith(f"usage: gbtc {command} [-h]")
    assert "--pretty" not in cap.out
    _, graph, options, description = COMMANDS[command]
    text = " ".join(cap.out.split())
    assert description in text
    for opt, _, _, help_ in options:
        assert f"{opt} {help_}" in text, opt
    assert ("GRAPH graph JSON file" in text) == graph


def test_malformed_graph_exits_one(capsys, tmp_path):
    bad = tmp_path / "triple.json"
    bad.write_text(
        json.dumps({"vertices": ["a", "b", "c"], "edges": [["a", "b", "c"], ["b", "c"]]})
    )
    code = main(["classify", str(bad)])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err.startswith("error:") and "Traceback" not in captured.err


def test_import_loads_neither_dataclasses_nor_inspect():
    # every command pays for what importing gbtc.cli loads, in a fresh
    # process; reading the arguments and running a command load no argument
    # parser, no translation catalog and no locale either
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import gbtc.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
        "gbtc.cli.main(['classify', sys.argv[1]])\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gbtc.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script, datafile("theta")],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    imported, _, ran = proc.stdout.splitlines()
    loaded = set(imported.split())
    assert "gbtc.cli" in loaded
    unwanted = {"dataclasses", "inspect", "argparse", "gettext", "locale"}
    assert not loaded & unwanted, sorted(loaded)
    assert not set(ran.split()) & unwanted, sorted(ran.split())
    # classify needs graph_core alone
    assert {m for m in ran.split() if m.startswith("gbtc.")} == {"gbtc.cli", "gbtc.graph_core"}


# the gbtc modules each command loads, beyond those importing gbtc.cli loads
COMMAND_MODULES = [
    (["classify", "theta"], {"cli", "graph_core"}),
    (["--help"], {"cli", "graph_core"}),
    (["bound", "--help"], {"cli", "graph_core"}),
    (["stable", "theta", "--r", "2"], {"cli", "graph_core", "tc_bounds"}),
    (["bound", "theta", "--r", "2", "--k", "4"], {"cli", "graph_core", "tc_bounds"}),
    (
        ["bound", "theta", "--r", "2", "--k", "4", "--check-homology"],
        {"cli", "graph_core", "tc_bounds", "discrete_config"},
    ),
    (["homology", "theta", "--k", "3"], {"cli", "graph_core", "discrete_config"}),
    (["corpus"], {"cli", "graph_core", "tc_bounds", "corpus", "data"}),
    (["verify-lemmas"], {"cli", "graph_core", "free_groups", "local_graphs"}),
    (["lambda", "star5", "--vertex", "c", "--k", "3"], {"cli", "graph_core", "local_graphs"}),
]


@pytest.mark.parametrize(
    "argv, modules", COMMAND_MODULES, ids=[" ".join(argv) for argv, _ in COMMAND_MODULES]
)
def test_each_command_loads_only_the_modules_it_runs(argv, modules):
    # in a fresh process: plain bound builds no complex and lambda folds no
    # subgroup, so neither loads the module that would
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import gbtc.cli\n"
        "code = gbtc.cli.main(sys.argv[1:])\n"
        "new = set(sys.modules) - before\n"
        "print(' '.join(sorted(m[5:] for m in new if m.startswith('gbtc.'))))\n"
        "sys.exit(code)\n"
    )
    argv = [datafile(a) if a in BUNDLED else a for a in argv]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gbtc.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.splitlines()[-1].split()) == modules


def test_bare_import_loads_no_submodule_and_defines_nothing():
    # each name is imported from the module that defines it: the package
    # holds no function or class of its own, and loads no module
    script = (
        "import sys\n"
        "import gbtc\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('gbtc.'))))\n"
        "print(' '.join(sorted(n for n, v in vars(gbtc).items() if callable(v))))\n"
        "from gbtc import graph_core\n"
        "print(graph_core.__name__)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(gbtc.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["", "", "gbtc.graph_core"]


def test_names_the_benchmark_calls_stay_public():
    # perfbench/workloads.py calls these, and perfbench/tracing.py finds its
    # hooks by name: were one deleted or renamed, its counters would stop
    # without an error
    names = {
        free_groups: (
            "stallings_core",
            "pullback",
            "is_forest",
            "contains",
            "disjoint_conjugates_bruteforce",
            "subgroup_elements_up_to",
            "FreeWord",
        ),
        discrete_config: ("build_complex", "nonvanishing_check"),
        graph_core: ("graph_from_data",),
    }
    for module, attrs in names.items():
        for attr in attrs:
            assert callable(getattr(module, attr, None)), (module.__name__, attr)


def test_tracer_complex_counts_have_closed_forms():
    # perfbench/tracing.py counts generators with len() of each layer and
    # nonzeros by iterating every boundary; both have closed forms on the
    # factors, which is what the tracer could read instead
    for name in BUNDLED:
        for k in range(1, 6):
            c = discrete_config.build_complex(load_bundled(name), k)
            assert sum(len(layer) for layer in c.cells) == sum(c.cell_counts())
            nnz = sum(
                len(terms) * len(bd.up[0]) for bd in c.boundaries[1:] for terms in bd.terms
            )
            assert sum(len(col) for bd in c.boundaries for col in bd) == nnz, (name, k)


def test_tracer_pullback_counts_have_closed_forms():
    # the tracer reads len(p.nodes) and len(p.edges) of each pullback
    cores = []
    for n in range(4, 9):
        for side in (0, 1):
            cores.append(
                free_groups.stallings_core(n - 1, free_groups.star_commutator_subgroups(n, side))
            )
    cores += [
        free_groups.stallings_core(3, free_groups.trivalent_product_subgroups(side))
        for side in (0, 1)
    ]
    pairs = [(a, b) for a in cores for b in cores if a.rank == b.rank]
    assert len(pairs) > len(cores)
    for a, b in pairs:
        p = free_groups.pullback(a, b)
        assert len(p.nodes) == a.n_states * b.n_states
        labels = range(1, a.rank + 1)
        arcs_a = [sum(l == x for _, x, _ in a.arcs) for l in labels]
        arcs_b = [sum(l == x for _, x, _ in b.arcs) for l in labels]
        assert len(p.edges) == sum(x * y for x, y in zip(arcs_a, arcs_b))
