"""Batch command-line front end.

Subcommands cover classification, bound and stable-value reports, the local
particle models, homology of the configuration space, the lemma
verification table, and a deterministic sweep over the bundled corpus.
Output is compact canonical JSON (sorted keys) on stdout, which
``python -m json.tool --indent 2`` indents; exit code 2 flags failed
hypotheses or a homology check that contradicts a bound, 1 flags I/O or
format problems, requests over a size guard and malformed arguments, and
``main`` writes each ``error:`` or ``inapplicable:`` line.  Arguments are
read from one table, ``COMMANDS``; a command imports only what it runs.

``run`` is the program entry, for the console script and ``python -m
gbtc.cli`` alike: it calls ``main`` and ends the process with ``os._exit``,
since a process runs one command and holds nothing that must be freed once
its output is flushed.  Each write of the output is flushed at once, so one
that fails exits 1 with one ``error:`` line like any other I/O error.
"""

import json
import os
import sys

from .graph_core import HypothesisError, _short, classify, load_graph

# Largest k-particle model `lambda` writes, in vertices plus edges: star5 at
# k=20 (63,756) fits, k=40 (876,211, 14 MB of JSON) does not.
LAMBDA_MAX_SIZE = 100_000

# Largest star size `verify-lemmas` reports.  The star rows fold and search
# the rank-3 pair once, which proves every n through the retraction onto F_3,
# so n only bounds how many rows are written (Python 3.11.7 on a 2-vCPU Xeon
# host, medians of 5 in-process calls in four processes: the rows take
# 2.9-3.6 ms at n=6 and 4.0-4.1 ms at n=64).  The star rows start at n=4, so
# a smaller n would report none of them.
VERIFY_LEMMAS_MAX_N = 64


def _write(text: str) -> None:
    # the one writer of the output; with stdout closed (``>&-``) sys.stdout
    # is None, which main reports as it does a full disk or a closed pipe
    if sys.stdout is None:
        raise OSError("standard output is closed")
    sys.stdout.write(text)
    sys.stdout.flush()


def _emit(obj) -> None:
    # every payload is a fresh tree of dicts, lists, tuples, ints and
    # strings, so the encoder need not track the containers it is inside
    _write(json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False) + "\n")


def _cmd_classify(graph) -> int:
    _emit(classify(load_graph(graph)).as_dict())
    return 0


def _cmd_bound(graph, r, k, check_homology) -> int:
    from . import tc_bounds

    g = load_graph(graph)
    cls = classify(g)
    status = "assumed"
    # checks the bound's hypotheses before any complex is built
    bound = tc_bounds.lower_bound(cls, r, k, homology_status=status)
    if check_homology:
        from . import discrete_config

        report = discrete_config.nonvanishing_check(g, k)
        status = report.status
        if status == "verified" and not report.nonzero:
            status = "contradicted"
        bound = tc_bounds.lower_bound(cls, r, k, homology_status=status)
    _emit(bound.as_dict())
    if status == "contradicted":
        sys.stderr.write(f"contradicted: homology vanishes in degree {report.degree} at k={k}\n")
        return 2
    return 0


def _cmd_stable(graph, r) -> int:
    from . import tc_bounds

    cls = classify(load_graph(graph))
    _emit(tc_bounds.stable_report(cls, r).as_dict())
    return 0


def _lambda_payload(lam) -> dict:
    from .local_graphs import pi1_rank

    return {
        "k": lam.k,
        "blocks": lam.pi.blocks,
        "vertices": lam.vertices,
        "edges": lam.edges,
        "rank": pi1_rank(lam),
    }


def _cmd_lambda(graph, vertex, k) -> int:
    from . import local_graphs

    pi = local_graphs.local_quotient(load_graph(graph), vertex)
    # with two or more blocks the model has at least k + 1 vertices, so a
    # huge k is refused before its size, which may be huge too, is computed
    too_big = pi.n_blocks >= 2 and k >= LAMBDA_MAX_SIZE
    if too_big or sum(local_graphs.expected_counts(pi, k)) > LAMBDA_MAX_SIZE:
        raise ValueError(
            f"the k={_short(k)} model is over the limit of {LAMBDA_MAX_SIZE} vertices plus edges"
        )
    _emit(_lambda_payload(local_graphs.build_lambda(pi, k)))
    return 0


def _cmd_homology(graph, k) -> int:
    from . import discrete_config

    _emit(discrete_config.nonvanishing_check(load_graph(graph), k).as_dict())
    return 0


def _verify_lemma_rows(max_n: int) -> list[dict]:
    from . import free_groups, local_graphs

    rows = []

    def row(check: str, ok: bool) -> None:
        rows.append({"check": check, "ok": bool(ok), "detail": ""})

    def criterion(psi, h0, h1) -> bool:
        # the kernel criterion: psi is injective on h0 and kills h1
        return free_groups.restriction_injective(psi, h0) and all(
            free_groups.apply_hom(psi, w).is_identity for w in h1
        )

    # Both star subgroups lie in <x1, x2, x3>, which the retraction of F_(n-1)
    # onto F_3 killing x4, x5, ... fixes.  A violation in F_(n-1), h != 1 in
    # H0 with g h g^-1 in H1, maps to r(g) h r(g)^-1 in H1, a violation in
    # F_3; so the rank-3 check at n = 4 proves every n whose subgroups have
    # the same letters.
    h0 = free_groups.star_commutator_subgroups(4, 0)
    h1 = free_groups.star_commutator_subgroups(4, 1)
    a, b = free_groups.stallings_core(3, h0), free_groups.stallings_core(3, h1)
    forest = free_groups.is_forest(free_groups.pullback(a, b))
    applies = criterion(free_groups.star_projection_hom(4), h0, h1)
    kernel_ok = forest or not applies
    ok = forest and free_groups.subgroup_rank(a) == 1 and free_groups.subgroup_rank(b) == 1
    ok = ok and applies and not free_groups.disjoint_conjugates_bruteforce(a, b, 4).found_violation
    star, letters = free_groups.star_commutator_subgroups, [w.letters for w in h0 + h1]
    for n in range(4, max_n + 1):
        same = [w.letters for w in star(n, 0) + star(n, 1)] == letters
        row(f"star commutator subgroups have disjoint conjugates (n={n})", ok and same)

    h0 = free_groups.trivalent_product_subgroups(0)
    h1 = free_groups.trivalent_product_subgroups(1)
    a, b = free_groups.stallings_core(3, h0), free_groups.stallings_core(3, h1)
    forest = free_groups.is_forest(free_groups.pullback(a, b))
    sides = [
        criterion(free_groups.trivalent_collapse_hom(0), h0, h1),
        criterion(free_groups.trivalent_collapse_hom(1), h1, h0),
    ]
    kernel_ok = kernel_ok and (forest or not any(sides))
    lam = local_graphs.build_lambda(local_graphs.EquivRelation([(0,), (1, 2)]), 3)
    ok = forest and all(sides) and local_graphs.pi1_rank(lam) == 3
    row("trivalent product subgroups have disjoint conjugates", ok)

    # the kernel criterion on the paper's instances above: wherever it
    # applies, the fiber product must be a forest
    row("kernel criterion verdicts match the fiber-product decision", kernel_ok)

    # the particle rows check the graph map itself, whose injectivity and
    # bijectivity decide what it does on pi1 (see add_particle)
    def injective(images) -> bool:
        return None not in images and len(set(images)) == len(images)

    ok = True
    for n in range(2, 5):
        pi = local_graphs.EquivRelation.discrete(n)
        lam = local_graphs.build_lambda(pi, 1)
        for k in range(1, 5):
            # each model is built once: the target of k is the source of k + 1
            target = local_graphs.build_lambda(pi, k + 1)
            ok = ok and all(map(injective, local_graphs.add_particle(lam, target, 0)))
            lam = target
    row("adding a particle splits into the next leaf-separated model", ok)

    # One block gives the k model two vertices, (k-1,) and (k,), and the same
    # edges (1, 0, j), j < n, at every k; so the map from k to k + 1 is the map
    # from 1 to 2, and one bijective step proves all k.
    ok = True
    for n in range(2, 6):
        pi = local_graphs.EquivRelation.indiscrete(n)
        lam, target = local_graphs.build_lambda(pi, 1), local_graphs.build_lambda(pi, 2)
        vertices, edges = local_graphs.add_particle(lam, target, 0)
        ok = ok and injective(vertices) and len(vertices) == target.n_vertices
        ok = ok and injective(edges) and len(edges) == target.n_edges
    row("adding a particle is an isomorphism for the leaf-identified model", ok)

    return rows


def _cmd_verify_lemmas(n) -> int:
    if not 4 <= n <= VERIFY_LEMMAS_MAX_N:
        raise ValueError(f"--n must lie in 4..{VERIFY_LEMMAS_MAX_N}, got {_short(n)}")
    rows = _verify_lemma_rows(n)
    _emit(rows)
    return 0 if all(r["ok"] for r in rows) else 2


def _cmd_corpus() -> int:
    from . import corpus, tc_bounds

    out = []
    for name in corpus.BUNDLED:
        cls = classify(corpus.load_bundled(name))
        stable = {}
        bounds = {}
        for r in (2, 3) if cls.m >= 2 else ():
            rep = tc_bounds.stable_report(cls, r).as_dict()
            stable[f"r{r}"] = {key: rep[key] for key in ("stable_value", "k0", "caveats")}
            k = rep["k0"] if rep["k0"] is not None else 2 * cls.m
            b = tc_bounds.lower_bound(cls, r, k).as_dict()
            bounds[f"r{r}"] = {key: b[key] for key in ("k", "lower", "upper", "choice")}
        out.append(
            {"name": name, "classification": cls.as_dict(), "stable": stable, "bounds": bounds}
        )
    _emit(out)
    return 0


DESCRIPTION = (
    "Bounds on the sequential topological complexity of unordered particle configurations on "
    "graphs, plus the machine-checked free-group facts behind them."
)

# command -> (handler, whether it reads a GRAPH argument, options, help).  An
# option is "--flag" or "--name METAVAR", with its type (bool for a flag), its
# default (... when it is required) and its help.
COMMANDS = {
    "classify": (_cmd_classify, True, (),
        "Count vertices of valence >= 4, separating trivalent vertices, and non-separating "
        "trivalent vertices of a connected graph; self-loops and parallel edges are read as given."),
    "bound": (_cmd_bound, True, (
        ("--r R", int, ..., "motion-planning order, r >= 2"),
        ("--k K", int, ..., "particle count"),
        ("--check-homology", bool, False, "also verify the homology nonvanishing input at this k")),
        "Best certified lower bound (r-2)*min(floor(k/2), m) + 2(c0+c1) + c2 over admissible "
        "(c0,c1,c2), together with the r*m upper bound."),
    "stable": (_cmd_stable, True, (("--r R", int, ..., "motion-planning order, r >= 1"),),
        "Stable value r*m and stable range start 2m + #trivalent for graphs without "
        "non-separating trivalent vertices."),
    "lambda": (_cmd_lambda, True, (
        ("--vertex VERTEX", str, ..., "essential vertex id"),
        ("--k K", int, ..., "particle count, k >= 1")),
        "Build the k-particle model of the local relation at a vertex: compositions of k and "
        "k-1 joined by single-particle moves."),
    "homology": (_cmd_homology, True, (("--k K", int, ..., "particle count, k >= 0"),),
        "Exact rational Betti numbers of the k-particle configuration space in degrees 0..k, "
        "from the reduced Swiatkowski complex, with the verdict on nonvanishing in degree "
        "min(floor(k/2), m)."),
    "verify-lemmas": (_cmd_verify_lemmas, False, (
        ("--n N", int, 6, f"largest star size to check, 4..{VERIFY_LEMMAS_MAX_N} (default 6)"),),
        "Machine-check the disjoint-conjugates facts for the star commutator and trivalent "
        "product subgroups, the kernel-criterion consistency, and the particle-adding map facts."),
    "corpus": (_cmd_corpus, False, (),
        "Classify every bundled graph and report stable values and bounds; output is "
        "deterministic byte for byte."),
}


def _cmd_help(command=None) -> int:
    """Write the usage text of gbtc, or of one command."""
    from textwrap import TextWrapper

    def fill(text: str, first: str = "", rest: str = "") -> str:
        return TextWrapper(79, first, rest, break_on_hyphens=False).fill(text)

    def item(name: str, text: str) -> str:
        return fill(text, f"  {name:<24}", " " * 26)

    if command is None:
        usage, text = "gbtc [-h] COMMAND ...", DESCRIPTION
        items = ["commands:"] + [item(name, spec[3]) for name, spec in COMMANDS.items()]
    else:
        _, graph, options, text = COMMANDS[command]
        usage = [f"gbtc {command} [-h]"] + [o if d is ... else f"[{o}]" for o, _, d, _ in options]
        usage = " ".join(usage + ["GRAPH"] * graph)
        items = ["arguments:"] + [item("GRAPH", "graph JSON file")] * graph
        items += [item("-h, --help", "show this help message and exit")]
        items += [item(opt, help_) for opt, _, _, help_ in options]
    _write("\n".join([f"usage: {usage}", "", fill(text), "", *items]) + "\n")
    return 0


def _parse(argv: list[str]):
    """The handler argv names and its keyword arguments; bad arguments raise ValueError."""
    if not argv:
        raise ValueError("no command given (see gbtc --help)")
    command, *rest = argv
    if command in ("-h", "--help"):
        return _cmd_help, {}
    if command not in COMMANDS:
        raise ValueError(f"unknown command {_short(command)} (see gbtc --help)")
    func, graph, options, _ = COMMANDS[command]
    specs = {opt.split()[0]: (kind, default) for opt, kind, default, _ in options}
    given, positionals = {}, []
    args = iter(rest)
    for arg in args:
        if arg in ("-h", "--help"):
            return _cmd_help, {"command": command}
        if not arg.startswith("-"):
            positionals.append(arg)
            continue
        flag, eq, raw = arg.partition("=")
        if flag not in specs:
            raise ValueError(
                f"{command}: unknown option {_short(flag)} (see gbtc {command} --help)"
            )
        if flag in given:
            raise ValueError(f"{command}: {flag} given twice")
        kind = specs[flag][0]
        if kind is bool and eq:
            raise ValueError(f"{command}: {flag} takes no value")
        if kind is not bool and not eq:
            # the next argument is the value even when it starts with '-', so
            # that --k -1 reaches the command's own range check
            raw = next(args, None)
            if raw is None:
                raise ValueError(f"{command}: {flag} needs a value")
        try:
            given[flag] = True if kind is bool else kind(raw)
        except ValueError:
            raise ValueError(f"{command}: {flag} wants an integer, got {_short(raw)}") from None
    if len(positionals) != graph:
        want = "one GRAPH argument" if graph else "no arguments"
        raise ValueError(f"{command}: takes {want}, got {len(positionals)}")
    kwargs = {"graph": positionals[0]} if graph else {}
    for flag, (_, default) in specs.items():
        if flag not in given and default is ...:
            raise ValueError(f"{command}: {flag} is required (see gbtc {command} --help)")
        kwargs[flag[2:].replace("-", "_")] = given.get(flag, default)
    return func, kwargs


def main(argv=None) -> int:
    try:
        func, kwargs = _parse(sys.argv[1:] if argv is None else list(argv))
        return func(**kwargs)
    except HypothesisError as exc:
        sys.stderr.write(f"inapplicable: {exc}\n")
        return 2
    except (OSError, ValueError) as exc:
        # GraphFormatError and json.JSONDecodeError are ValueErrors too
        sys.stderr.write(f"error: {exc}\n")
        return 1


def run() -> None:
    """Run ``main`` on ``sys.argv`` and end the process without tearing the
    interpreter down: ``_write`` has flushed the output, and every stderr
    line is written whole, stderr being line-buffered or unbuffered."""
    os._exit(main())


if __name__ == "__main__":
    run()
