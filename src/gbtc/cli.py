"""Batch command-line front end.

Subcommands cover classification, bound and stable-value reports, the local
particle models (JSON or DOT), homology of the configuration space, the
lemma verification table, and a deterministic sweep over the bundled
corpus.  Output is canonical JSON (sorted keys) on stdout; exit code
2 flags failed mathematical hypotheses or a homology check that
contradicts a bound, 1 flags I/O or format problems and requests over a
size guard.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import corpus, discrete_config, free_groups, local_graphs, tc_bounds
from .graph_core import GraphFormatError, HypothesisError, classify, load_graph

# Largest k-particle model `lambda` writes, in vertices plus edges: star5 at
# k=20 (63,756) fits, k=40 (876,211, 14 MB of JSON) does not.
LAMBDA_MAX_SIZE = 100_000

# Largest star size `verify-lemmas` checks.  Its run time grows about
# quadratically with n; at 64 it stays a cheap query (Python 3.11 on a 2-core
# Xeon host, median of 5 in-process calls: the rows take 0.048 s at n=64,
# 0.17 s at n=128).  The star rows start at n=4, so a smaller n would check
# none of them.
VERIFY_LEMMAS_MAX_N = 64


def _emit(obj, pretty: bool) -> None:
    # every payload is a fresh tree of dicts, lists, tuples, ints and
    # strings, so the encoder need not track the containers it is inside
    if pretty:
        out = json.dumps(obj, sort_keys=True, indent=2, check_circular=False)
    else:
        out = json.dumps(obj, sort_keys=True, separators=(",", ":"), check_circular=False)
    sys.stdout.write(out + "\n")


def _cell_budget() -> int:
    raw = os.environ.get("GBTC_CELL_BUDGET")
    if raw is None:
        return discrete_config.DEFAULT_CELL_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        budget = 0
    if budget <= 0:
        raise GraphFormatError(f"bad GBTC_CELL_BUDGET value {raw!r}: want a positive integer")
    return budget


def _cmd_classify(args) -> int:
    g = load_graph(args.graph)
    _emit(classify(g).as_dict(), args.pretty)
    return 0


def _cmd_bound(args) -> int:
    g = load_graph(args.graph)
    cls = classify(g)
    status = "assumed"
    # checks the bound's hypotheses before any complex is built
    bound = tc_bounds.lower_bound(cls, args.r, args.k, homology_status=status)
    if args.check_homology:
        report = discrete_config.nonvanishing_check(g, args.k, _cell_budget())
        status = report.status
        if status == "verified" and not report.nonzero:
            status = "contradicted"
        bound = tc_bounds.lower_bound(cls, args.r, args.k, homology_status=status)
    _emit(bound.as_dict(), args.pretty)
    if status == "contradicted":
        sys.stderr.write(
            f"contradicted: homology vanishes in degree {report.degree} at k={args.k}\n"
        )
        return 2
    return 0


def _cmd_stable(args) -> int:
    cls = classify(load_graph(args.graph))
    _emit(tc_bounds.stable_report(cls, args.r).as_dict(), args.pretty)
    return 0


def _lambda_payload(lam: local_graphs.LambdaGraph) -> dict:
    return {
        "k": lam.k,
        "blocks": lam.pi.blocks,
        "vertices": lam.vertices,
        "edges": lam.edges,
        "rank": local_graphs.pi1_rank(lam),
    }


def _lambda_dot(lam: local_graphs.LambdaGraph) -> str:
    def name(i: int) -> str:
        return '"' + ",".join(str(x) for x in lam.vertices[i]) + '"'

    lines = ["graph model {"]
    for i in range(lam.n_vertices):
        lines.append(f"  {name(i)};")
    for u, l, j in lam.edges:
        lines.append(f"  {name(u)} -- {name(l)} [label={j}];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _cmd_lambda(args) -> int:
    pi = local_graphs.local_quotient(load_graph(args.graph), args.vertex)
    size = sum(local_graphs.expected_counts(pi, args.k))
    if size > LAMBDA_MAX_SIZE:
        raise ValueError(
            f"the k={args.k} model has {size} vertices plus edges, "
            f"over the limit of {LAMBDA_MAX_SIZE}"
        )
    lam = local_graphs.build_lambda(pi, args.k)
    if args.dot:
        sys.stdout.write(_lambda_dot(lam))
    else:
        _emit(_lambda_payload(lam), args.pretty)
    return 0


def _cmd_homology(args) -> int:
    g = load_graph(args.graph)
    report = discrete_config.nonvanishing_check(g, args.k, _cell_budget())
    if args.dump_boundaries:
        complex_ = report.chain_complex
        if complex_ is None:
            sys.stderr.write("error: generator budget exceeded, no boundaries written\n")
            return 1
        with open(args.dump_boundaries, "w", encoding="utf-8") as fh:
            for d in range(1, complex_.dimension + 1):
                fh.write(f"# boundary {d}\n")
                for col_idx, col in enumerate(complex_.boundaries[d]):
                    for row in sorted(col):
                        fh.write(f"{row} {col_idx} {col[row]}\n")
    _emit(report.as_dict(), args.pretty)
    return 0


def _verify_lemma_rows(max_n: int) -> list[dict]:
    rows = []

    def row(check: str, ok: bool, detail: str = "") -> None:
        rows.append({"check": check, "ok": bool(ok), "detail": detail})

    for n in range(4, max_n + 1):
        h0 = local_graphs.star_commutator_subgroups(n, 0)
        h1 = local_graphs.star_commutator_subgroups(n, 1)
        rank = n - 1
        a = free_groups.stallings_core(rank, h0)
        b = free_groups.stallings_core(rank, h1)
        ok = free_groups.is_forest(free_groups.pullback(a, b))
        ok = ok and free_groups.subgroup_rank(a) == 1 and free_groups.subgroup_rank(b) == 1
        psi = local_graphs.star_projection_hom(n)
        ok = ok and free_groups.restriction_injective(psi, h0)
        ok = ok and all(free_groups.apply_hom(psi, w).is_identity for w in h1)
        search = free_groups.disjoint_conjugates_bruteforce(a, b, 4)
        ok = ok and not search.found_violation
        row(f"star commutator subgroups have disjoint conjugates (n={n})", ok)

    h0 = local_graphs.trivalent_product_subgroups(0)
    h1 = local_graphs.trivalent_product_subgroups(1)
    a, b = free_groups.stallings_core(3, h0), free_groups.stallings_core(3, h1)
    ok = free_groups.is_forest(free_groups.pullback(a, b))
    for side, pair in ((0, (h0, h1)), (1, (h1, h0))):
        psi = local_graphs.trivalent_collapse_hom(side)
        ok = ok and free_groups.restriction_injective(psi, pair[0])
        ok = ok and all(free_groups.apply_hom(psi, w).is_identity for w in pair[1])
    lam = local_graphs.build_lambda(local_graphs.EquivRelation([(0,), (1, 2)]), 3)
    ok = ok and local_graphs.pi1_rank(lam) == 3
    row("trivalent product subgroups have disjoint conjugates", ok)

    rng = random.Random(405060)
    agree = True
    for _ in range(60):
        rank = rng.choice((2, 3))
        keep = rng.randrange(1, rank)
        images = [
            free_groups.generator(keep, i + 1) if i < keep else free_groups.identity(keep)
            for i in range(rank)
        ]
        psi = free_groups.FreeHom(rank, keep, tuple(images))
        h0 = [_random_word(rng, rank, 1, keep) for _ in range(rng.choice((1, 2)))]
        h1 = [_random_word(rng, rank, keep + 1, rank) for _ in range(rng.choice((1, 2)))]
        applies = free_groups.restriction_injective(psi, h0) and all(
            free_groups.apply_hom(psi, w).is_identity for w in h1
        )
        if applies:
            a, b = free_groups.stallings_core(rank, h0), free_groups.stallings_core(rank, h1)
            agree = agree and free_groups.is_forest(free_groups.pullback(a, b))
    row("kernel criterion verdicts match the fiber-product decision", agree)

    ok = True
    for n in range(2, 5):
        # the basis of k + 1 particles is the k-particle basis's target
        lam = local_graphs.build_lambda(local_graphs.EquivRelation.discrete(n), 1)
        basis = local_graphs.free_basis(lam)
        for k in range(1, 5):
            stab = local_graphs.sink_stabilization(basis, 0)
            gens = [
                free_groups.generator(stab.hom.domain_rank, i + 1)
                for i in range(stab.hom.domain_rank)
            ]
            ok = ok and free_groups.restriction_injective(stab.hom, gens)
            ok = ok and stab.target.rank >= basis.rank
            basis = stab.target
    row("adding a particle splits into the next leaf-separated model", ok)

    ok = True
    for n in range(2, 6):
        lam = local_graphs.build_lambda(local_graphs.EquivRelation.indiscrete(n), 1)
        basis = local_graphs.free_basis(lam)
        for k in range(1, 6):
            stab = local_graphs.sink_stabilization(basis, 0)
            ok = ok and free_groups.is_isomorphism(stab.hom)
            ok = ok and stab.hom.domain_rank == n - 1
            basis = stab.target
    row("adding a particle is an isomorphism for the leaf-identified model", ok)

    return rows


def _random_word(rng, rank: int, lo: int, hi: int) -> free_groups.FreeWord:
    if lo > hi:
        return free_groups.identity(rank)
    letters = []
    for _ in range(rng.randrange(1, 5)):
        i = rng.randrange(lo, hi + 1)
        letters.append(i if rng.random() < 0.5 else -i)
    return free_groups.reduce_word(rank, letters)


def _cmd_verify_lemmas(args) -> int:
    if not 4 <= args.n <= VERIFY_LEMMAS_MAX_N:
        raise ValueError(f"--n must lie in 4..{VERIFY_LEMMAS_MAX_N}, got {args.n}")
    rows = _verify_lemma_rows(args.n)
    _emit(rows, args.pretty)
    return 0 if all(r["ok"] for r in rows) else 2


def _cmd_corpus(args) -> int:
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
    _emit(out, args.pretty)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gbtc",
        description=(
            "Bounds on the sequential topological complexity of unordered "
            "particle configurations on graphs, plus the machine-checked "
            "free-group facts behind them."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text, description=help_text)
        p.add_argument("--pretty", action="store_true", help="indent the JSON output")
        p.set_defaults(func=func)
        return p

    p = add(
        "classify",
        _cmd_classify,
        "Count vertices of valence >= 4, separating trivalent vertices, and "
        "non-separating trivalent vertices of a connected graph; self-loops "
        "and parallel edges are read as given.",
    )
    p.add_argument("graph", help="graph JSON file")

    p = add(
        "bound",
        _cmd_bound,
        "Best certified lower bound (r-2)*min(floor(k/2), m) + 2(c0+c1) + c2 "
        "over admissible (c0,c1,c2), together with the r*m upper bound.",
    )
    p.add_argument("graph")
    p.add_argument("--r", type=int, required=True, help="motion-planning order, r >= 2")
    p.add_argument("--k", type=int, required=True, help="particle count")
    p.add_argument(
        "--check-homology",
        action="store_true",
        help="also verify the homology nonvanishing input at this k",
    )

    p = add(
        "stable",
        _cmd_stable,
        "Stable value r*m and stable range start 2m + #trivalent for graphs "
        "without non-separating trivalent vertices.",
    )
    p.add_argument("graph")
    p.add_argument("--r", type=int, required=True, help="motion-planning order, r >= 1")

    p = add(
        "lambda",
        _cmd_lambda,
        "Build the k-particle model of the local relation at a vertex: "
        "compositions of k and k-1 joined by single-particle moves.",
    )
    p.add_argument("graph")
    p.add_argument("--vertex", required=True, help="essential vertex id")
    p.add_argument("--k", type=int, required=True, help="particle count, k >= 1")
    p.add_argument("--dot", action="store_true", help="emit DOT text instead of JSON")

    p = add(
        "homology",
        _cmd_homology,
        "Exact rational Betti numbers of the k-particle configuration space "
        "in degrees 0..k, from the reduced Swiatkowski complex, with the "
        "verdict on nonvanishing in degree min(floor(k/2), m).",
    )
    p.add_argument("graph")
    p.add_argument("--k", type=int, required=True, help="particle count, k >= 0")
    p.add_argument(
        "--dump-boundaries",
        metavar="PATH",
        help="also write the complex's boundary matrices as 'row col value' "
        "triplets, rows and columns indexing generators",
    )

    p = add(
        "verify-lemmas",
        _cmd_verify_lemmas,
        "Machine-check the disjoint-conjugates facts for the star commutator "
        "and trivalent product subgroups, the kernel-criterion consistency, "
        "and the particle-adding rank facts.",
    )
    p.add_argument(
        "--n",
        type=int,
        default=6,
        help=f"largest star size to check, 4..{VERIFY_LEMMAS_MAX_N} (default 6)",
    )

    add(
        "corpus",
        _cmd_corpus,
        "Classify every bundled graph and report stable values and bounds; "
        "output is deterministic byte for byte.",
    )

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except HypothesisError as exc:
        sys.stderr.write(f"inapplicable: {exc}\n")
        return 2
    except (GraphFormatError, OSError, json.JSONDecodeError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
