"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line (the project pytest config tees captured
output through, so the lines always appear) and enforces the stated time
limit where one applies.  Expected values are exact; no tolerances anywhere.
"""

from __future__ import annotations

import random
import time

from conftest import bundled_graphs, hgraph, star, theta, trimmed, upper_bound
from gbtc.cli import main as cli_main
from gbtc.discrete_config import nonvanishing_check
from gbtc.free_groups import (
    FreeHom,
    FreeWord,
    apply_hom,
    concat,
    contains,
    disjoint_conjugates_bruteforce,
    generator,
    identity,
    inverse,
    is_forest,
    pullback,
    restriction_injective,
    stallings_core,
)
from gbtc.graph_core import classify
from gbtc.local_graphs import (
    EquivRelation,
    build_lambda,
    compositions,
    expected_counts,
    pi1_rank,
    star_commutator_subgroups,
    trivalent_collapse_hom,
    trivalent_product_subgroups,
)
from gbtc.tc_bounds import lower_bound, stable_report


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_star_commutator_disjointness():
    ok = True
    details = []
    for n in (4, 5, 6):
        rank = n - 1
        h0 = star_commutator_subgroups(n, 0)
        h1 = star_commutator_subgroups(n, 1)
        t0 = time.perf_counter()
        a, b = stallings_core(rank, h0), stallings_core(rank, h1)
        disjoint = is_forest(pullback(a, b))
        dt = time.perf_counter() - t0
        ok = ok and disjoint and dt < 1.0
        search = disjoint_conjugates_bruteforce(a, b, 6)
        ok = ok and not search.found_violation
        details.append(f"n={n}: disjoint in {dt * 1000:.1f}ms, oracle(6) clean")
    report(1, ok, "; ".join(details))


def test_criterion_2_trivalent_product_disjointness():
    t0 = time.perf_counter()
    h0 = trivalent_product_subgroups(0)
    h1 = trivalent_product_subgroups(1)
    disjoint = is_forest(pullback(stallings_core(3, h0), stallings_core(3, h1)))
    inj = []
    for a, (keep, kill) in ((0, (h0, h1)), (1, (h1, h0))):
        psi = trivalent_collapse_hom(a)
        inj.append(
            restriction_injective(psi, keep)
            and all(apply_hom(psi, x).is_identity for x in kill)
        )
    dt = time.perf_counter() - t0
    ok = disjoint and all(inj) and dt < 1.0
    report(2, ok, f"disjoint={disjoint}, both injectivity checks pass, {dt * 1000:.1f}ms")


def _random_reduced(rng, rank, lo_letter, hi_letter, max_len, min_len=1):
    letters = []
    for _ in range(rng.randrange(min_len, max_len + 1)):
        choices = [
            s * i
            for i in range(lo_letter, hi_letter + 1)
            for s in (1, -1)
            if not letters or s * i != -letters[-1]
        ]
        letters.append(rng.choice(choices))
    return FreeWord(rank, tuple(letters))


def test_criterion_3_kernel_criterion_and_oracle_consistency():
    rng = random.Random(97531)
    t0 = time.perf_counter()
    instances = []
    for _ in range(150):  # short free-form: violations common
        rank = rng.choice((2, 2, 3))
        h0 = [_random_reduced(rng, rank, 1, rank, 3) for _ in range(rng.choice((1, 2)))]
        h1 = [_random_reduced(rng, rank, 1, rank, 3) for _ in range(rng.choice((1, 2)))]
        instances.append((rank, h0, h1, None))
    for _ in range(150):  # longer free-form, rank up to 4
        rank = rng.choice((2, 3, 3, 4, 4))
        h0 = [_random_reduced(rng, rank, 1, rank, 6, 3) for _ in range(rng.choice((1, 2)))]
        h1 = [_random_reduced(rng, rank, 1, rank, 6, 3) for _ in range(rng.choice((1, 2)))]
        instances.append((rank, h0, h1, None))
    for _ in range(200):  # structured: the kernel criterion applies
        rank = rng.choice((2, 3, 3, 3, 4))
        keep = rng.randrange(1, rank)
        images = tuple(
            generator(keep, i + 1) if i < keep else identity(keep) for i in range(rank)
        )
        psi = FreeHom(rank, keep, images)
        h0 = [_random_reduced(rng, rank, 1, keep, 4)]
        h1 = [_random_reduced(rng, rank, keep + 1, rank, 4)]
        instances.append((rank, h0, h1, psi))

    assert len(instances) == 500
    kernel_applied = 0
    oracle_violations = 0
    for rank, h0, h1, psi in instances:
        a, b = stallings_core(rank, h0), stallings_core(rank, h1)
        decided = is_forest(pullback(a, b))
        if psi is not None:
            applies = restriction_injective(psi, h0) and all(
                apply_hom(psi, x).is_identity for x in h1
            )
            if applies:
                kernel_applied += 1
                assert decided is True, "kernel criterion disagrees with the fiber product"
        search = disjoint_conjugates_bruteforce(a, b, 5)
        if search.found_violation:
            oracle_violations += 1
            g, h = search.violation
            assert decided is False, "oracle violation but fiber product says disjoint"
            assert contains(a, h)
            assert contains(b, concat(g, h, inverse(g)))
    dt = time.perf_counter() - t0
    ok = dt < 60.0 and kernel_applied >= 100 and oracle_violations >= 50
    report(
        3,
        ok,
        f"500 instances in {dt:.1f}s; kernel criterion applied {kernel_applied}x, "
        f"oracle found {oracle_violations} violations, all consistent",
    )


def test_criterion_4_model_counts_and_stable_rank():
    t0 = time.perf_counter()
    shapes = [
        EquivRelation.indiscrete(2),
        EquivRelation.indiscrete(4),
        EquivRelation([(0,), (1, 2)]),
        EquivRelation([(0, 1), (2, 3)]),
        EquivRelation([(0,), (1,), (2, 3)]),
        EquivRelation.discrete(3),
        EquivRelation.discrete(4),
    ]
    ok = True
    for pi in shapes:
        assert pi.n_blocks <= 4
        for k in range(1, 9):
            lam = build_lambda(pi, k)
            lower = compositions(k - 1, pi.n_blocks)
            upper = compositions(k, pi.n_blocks)
            ok = ok and lam.n_vertices == len(set(lower)) + len(set(upper))
            ok = ok and lam.n_edges == len(pi.ground) * len(set(lower))
            ok = ok and (lam.n_vertices, lam.n_edges) == expected_counts(pi, k)
    ranks_ok = True
    for n in range(2, 7):
        for k in range(2, 9):
            lam = build_lambda(EquivRelation.indiscrete(n), k)
            ranks_ok = ranks_ok and pi1_rank(lam) == n - 1
    dt = time.perf_counter() - t0
    ok = ok and ranks_ok and dt < 10.0
    report(4, ok, f"counts for 7 shapes, k<=8; stable rank n-1 for n<=6, k in 2..8 ({dt:.1f}s)")


def test_criterion_5_homology_desk_scale():
    details = []
    ok = True

    t0 = time.perf_counter()
    rep = nonvanishing_check(star(3), 2)
    dt = time.perf_counter() - t0
    ok = ok and trimmed(rep.betti) == (1, 1) and dt < 120.0
    details.append(f"3-star k2 betti={trimmed(rep.betti)} ({dt:.1f}s)")

    for n in (3, 4, 5):
        t0 = time.perf_counter()
        rep = nonvanishing_check(star(n), 2)
        dt = time.perf_counter() - t0
        golden = (n - 1) * (n - 2) // 2
        ok = ok and rep.betti.betti[1] == golden and dt < 120.0
        details.append(f"S{n} k2 b1={rep.betti.betti[1]}")

    for g, k, label in ((theta(), 2, "theta k2"), (theta(), 4, "theta k4"), (hgraph(), 4, "H k4")):
        t0 = time.perf_counter()
        rep = nonvanishing_check(g, k)
        dt = time.perf_counter() - t0
        ok = ok and rep.status == "verified" and rep.nonzero is True and dt < 120.0
        ok = ok and rep.degree == min(k // 2, classify(g).m)
        details.append(f"{label} deg={rep.degree} nonzero ({dt:.1f}s)")

    report(5, ok, "; ".join(details))


def test_criterion_6_stable_equality_on_corpus():
    t0 = time.perf_counter()
    ok = True
    checked = []
    for name, g in bundled_graphs():
        cls = classify(g)
        if cls.n2 > 0 or cls.m < 2:
            continue
        k0 = 2 * cls.m + cls.trivalent_total
        for r in range(2, 7):
            for k in range(k0, k0 + 5):
                rep = lower_bound(cls, r, k)
                up = upper_bound(cls, r)
                ok = ok and rep.lower == up == r * cls.m
            rep = stable_report(cls, r)
            ok = ok and rep.k0 == k0 and rep.stable_value == r * cls.m
        checked.append(name)
    dt = time.perf_counter() - t0
    ok = ok and dt < 5.0 and set(checked) == {"hgraph", "random10", "spider"}
    report(6, ok, f"lower = upper = r*m on {checked} for r in 2..6, k0..k0+4 ({dt:.2f}s)")


def test_criterion_7_theta_gap():
    cls = classify(theta())
    ok = True
    for r in range(2, 7):
        for k in range(4, 13):
            rep = lower_bound(cls, r, k)
            up = upper_bound(cls, r)
            ok = ok and rep.lower == (r - 2) * 2 + 2 and up == 2 * r
            ok = ok and rep.lower < up
    report(7, ok, "theta: lower = 2r-2 < upper = 2r for r in 2..6, k in 4..12")


def test_criterion_8_corpus_determinism(capsys):
    code1 = cli_main(["corpus"])
    out1 = capsys.readouterr().out
    code2 = cli_main(["corpus"])
    out2 = capsys.readouterr().out
    ok = code1 == code2 == 0 and out1 == out2 and len(out1) > 100
    report(8, ok, f"two corpus runs emit identical bytes ({len(out1)} bytes)")
