"""The bound engine: certified lower bounds, upper bounds, stable values."""

from __future__ import annotations

import itertools

import pytest

from conftest import (
    admissible_choices,
    bundled_graphs,
    cycle_graph,
    greedy_choice,
    hgraph,
    spider,
    star,
    theta,
    upper_bound,
)
from gbtc.graph_core import HypothesisError, VertexClassification, classify
from gbtc.tc_bounds import (
    BoundReport,
    _best_choice,
    bound_value,
    lower_bound,
    stable_report,
)


def test_lower_bound_hgraph_example():
    rep = lower_bound(classify(hgraph()), 2, 6)
    assert rep.choice == (0, 2, 0)
    assert rep.lower == 4


def test_lower_bound_theta_example():
    rep = lower_bound(classify(theta()), 3, 4)
    assert rep.choice == (0, 0, 2)
    assert rep.lower == 4
    assert rep.upper == 6


def test_lower_bound_k_zero_forces_empty_choice():
    rep = lower_bound(classify(hgraph()), 2, 0)
    assert rep.choice == (0, 0, 0)
    assert rep.lower == 0


def test_lower_bound_rejects_r_one():
    with pytest.raises(HypothesisError):
        lower_bound(classify(hgraph()), 1, 6)


def test_lower_bound_rejects_small_m():
    with pytest.raises(HypothesisError):
        lower_bound(classify(star(4)), 2, 6)


def test_bounds_reject_bad_order_and_count():
    # malformed input, checked before the hypotheses: a plain ValueError even
    # where m < 2 would also refuse the bound
    for cls in (classify(hgraph()), classify(star(4))):
        with pytest.raises(ValueError, match="order r must be at least 1") as bad_r:
            lower_bound(cls, 0, 4)
        with pytest.raises(ValueError, match="order r must be at least 1") as stable_r:
            stable_report(cls, 0)
        with pytest.raises(ValueError, match="particle count k must be nonnegative") as bad_k:
            lower_bound(cls, 1, -1)
        assert {type(e.value) for e in (bad_r, stable_r, bad_k)} == {ValueError}


def test_upper_bound_examples():
    assert upper_bound(classify(theta()), 3) == 6
    assert upper_bound(classify(hgraph()), 2) == 4
    assert upper_bound(classify(theta()), 1) == 2


def test_upper_bound_caveat_below_range():
    rep = lower_bound(classify(hgraph()), 2, 3)
    assert any("range" in c for c in rep.caveats)
    rep = lower_bound(classify(hgraph()), 2, 6)
    assert rep.caveats == ()


def test_stable_report_hgraph():
    rep = stable_report(classify(hgraph()), 2)
    assert rep.stable_value == 4
    assert rep.k0 == 6


def test_stable_report_spider():
    rep = stable_report(classify(spider()), 3)
    assert rep.stable_value == 6
    assert rep.k0 == 4


def test_stable_report_theta_has_no_value():
    rep = stable_report(classify(theta()), 2)
    assert rep.stable_value is None and rep.k0 is None
    assert rep.caveats


def test_stable_report_r_one_uses_same_formula():
    rep = stable_report(classify(hgraph()), 1)
    assert rep.stable_value == 2
    assert rep.k0 == 6


def test_stable_report_rejects_bad_inputs():
    with pytest.raises(HypothesisError):
        stable_report(classify(star(3)), 2)
    with pytest.raises(HypothesisError):
        stable_report(classify(cycle_graph(4)), 2)
    with pytest.raises(ValueError):
        stable_report(classify(hgraph()), 0)


def test_proof_chain_hgraph_r5():
    # every ci maximal costs k0 = 2 c0 + 3 c1 and certifies r m
    rep = stable_report(classify(hgraph()), 5)
    assert (rep.stable_value, rep.k0) == (10, 6)
    at_k0 = lower_bound(classify(hgraph()), 5, 6)
    assert at_k0.choice == (0, 2, 0)
    assert at_k0.lower == at_k0.upper == 10


def test_proof_chain_spider_r2():
    rep = stable_report(classify(spider()), 2)
    assert (rep.stable_value, rep.k0) == (4, 4)
    at_k0 = lower_bound(classify(spider()), 2, 4)
    assert at_k0.choice == (2, 0, 0)
    assert at_k0.lower == at_k0.upper == 4


def test_proof_chain_theta_inapplicable():
    rep = stable_report(classify(theta()), 2)
    assert rep.stable_value is None
    assert any("non-separating" in c for c in rep.caveats)


def test_lower_at_most_upper_in_range():
    for name, g in bundled_graphs():
        cls = classify(g)
        if cls.m < 2:
            continue
        for r in range(2, 7):
            for k in range(0, 13):
                rep = lower_bound(cls, r, k)
                if k >= 2 * cls.m:
                    assert rep.lower <= rep.upper, (name, r, k)


def test_lower_bound_monotone_in_k_and_r():
    for name, g in bundled_graphs():
        cls = classify(g)
        if cls.m < 2:
            continue
        grid = {
            (r, k): lower_bound(cls, r, k).lower
            for r in range(2, 7)
            for k in range(0, 13)
        }
        for r in range(2, 7):
            for k in range(0, 12):
                assert grid[(r, k)] <= grid[(r, k + 1)], (name, r, k)
        for r in range(2, 6):
            for k in range(0, 13):
                assert grid[(r, k)] <= grid[(r + 1, k)], (name, r, k)


def test_exhaustive_matches_greedy_on_corpus():
    for name, g in bundled_graphs():
        cls = classify(g)
        if cls.m < 2:
            continue
        for r in range(2, 7):
            for k in range(0, 13):
                rep = lower_bound(cls, r, k)
                assert rep.choice == greedy_choice(cls, k), (name, r, k)


def test_stable_equality_from_k0():
    for name, g in bundled_graphs():
        cls = classify(g)
        if cls.m < 2 or cls.n2 > 0:
            continue
        k0 = 2 * cls.m + cls.trivalent_total
        for r in range(2, 7):
            for k in range(k0, k0 + 5):
                rep = lower_bound(cls, r, k)
                assert rep.lower == rep.upper == r * cls.m, (name, r, k)
            rep = stable_report(cls, r)
            assert (rep.k0, rep.stable_value) == (k0, r * cls.m), (name, r)


def test_admissibility_constraint_enforced():
    cls = classify(hgraph())
    for k in range(0, 10):
        for c in admissible_choices(cls, k):
            assert 2 * (c[0] + c[2]) + 3 * c[1] <= k
    # bound_value is the certified formula
    assert bound_value(3, 4, 2, (0, 0, 2)) == 1 * 2 + 2


def test_best_choice_matches_exhaustive_search():
    cases = 0
    for n0, n1, n2 in itertools.product(range(7), repeat=3):
        if n0 + n1 + n2 < 2:
            continue
        cls = VertexClassification(n0, n1, n2)
        for k in range(40):
            for r in (2, 3, 5):
                best = max(
                    admissible_choices(cls, k),
                    key=lambda c: (bound_value(r, k, cls.m, c), c),
                )
                assert _best_choice(cls, k) == best, (n0, n1, n2, r, k)
                cases += 1
    assert cases == 40680


def test_best_choice_with_two_hundred_of_each_kind():
    # exhaustive search reads 201^3 triples per choice at this size
    cls = VertexClassification(200, 200, 200)
    for k in range(0, 1410, 7):
        assert _best_choice(cls, k) == greedy_choice(cls, k), k


def test_report_validation():
    cls = classify(hgraph())
    with pytest.raises(ValueError):
        BoundReport(cls, r=2, k=6, choice=(1, 0, 0), lower=0, upper=4)
    with pytest.raises(ValueError):
        BoundReport(cls, r=2, k=0, choice=(0, 2, 0), lower=0, upper=4)
    with pytest.raises(ValueError):
        BoundReport(cls, r=2, lower=5, upper=4)


def test_report_serialization_fields():
    rep = lower_bound(classify(theta()), 3, 4)
    d = rep.as_dict()
    assert set(d) == {
        "classification",
        "r",
        "k",
        "choice",
        "lower",
        "upper",
        "stable_value",
        "k0",
        "caveats",
        "homology_status",
    }
    assert d["lower"] == 4 and d["upper"] == 6 and d["choice"] == [0, 0, 2]


def test_homology_status_passthrough():
    rep = lower_bound(classify(hgraph()), 2, 6, homology_status="verified")
    assert rep.homology_status == "verified"
    rep = lower_bound(classify(hgraph()), 2, 6)
    assert rep.homology_status == "assumed"
    with pytest.raises(ValueError):
        lower_bound(classify(hgraph()), 2, 6, homology_status="unverified at desk scale")
