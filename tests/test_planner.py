"""Edgifier DP planner: optimality vs brute force + plan invariants."""
from __future__ import annotations

import pytest

from repro.core.catalog import Catalog
from repro.core.planner import brute_force_plan, plan
from repro.core.query import cq
from repro.core.queries_table1 import ALL_QUERIES, DIAMONDS


def skewed_catalog() -> Catalog:
    """Chain A-B-C with a very selective C so good plans start there."""
    n = {"A": 10_000, "B": 5_000, "C": 10}
    ds = {"A": 3_000, "B": 2_000, "C": 10}
    do = {"A": 2_000, "B": 1_500, "C": 10}
    match, pairs = {}, {}
    for p in n:
        for q in n:
            for pi in "so":
                for rho in "so":
                    match[(p, pi, q, rho)] = min(
                        (ds if pi == "s" else do)[p], (ds if rho == "s" else do)[q]
                    )
                    pairs[(p, pi, q, rho)] = n[p] * n[q] // 1000 + 1
    return Catalog(n, ds, do, match, pairs)


CHAIN = cq("chain", ("w", "A", "x"), ("x", "B", "y"), ("y", "C", "z"))


def test_plan_is_connected_complete_order(catalog):
    for q in ALL_QUERIES:
        p = plan(q, catalog)
        assert q.is_connected_order(list(p.order)), q.name
        assert p.cost >= 0


def test_chain_plan_starts_from_selective_end():
    p = plan(CHAIN, skewed_catalog())
    assert p.order[0] == 2  # the C edge: 10 rows vs 10k/5k
    assert p.cost <= 10 + 5000 + 10000  # never worse than right-to-left scan total


def test_disconnected_query_rejected(catalog):
    q = cq("disc", ("a", "livesIn", "b"), ("c", "diedIn", "d"))
    with pytest.raises(ValueError):
        plan(q, catalog)


@pytest.mark.parametrize("q", ALL_QUERIES, ids=lambda q: q.name)
def test_dp_matches_brute_force(catalog, q):
    """The subset DP is exact for its cost model (Bellman holds)."""
    dp = plan(q, catalog)
    bf = brute_force_plan(q, catalog)
    assert dp.cost == pytest.approx(bf.cost, rel=1e-9)


def test_dp_matches_brute_force_skewed():
    dp = plan(CHAIN, skewed_catalog())
    bf = brute_force_plan(CHAIN, skewed_catalog())
    assert dp.cost == pytest.approx(bf.cost)
    assert dp.order == bf.order


@pytest.mark.parametrize("q", DIAMONDS, ids=lambda q: q.name)
def test_diamond_plans_cover_cycle(catalog, q):
    p = plan(q, catalog)
    assert sorted(p.order) == [0, 1, 2, 3]


def test_plan_cost_not_worse_than_textual_order(catalog):
    """DP must be at least as cheap as the naive textual order."""
    from repro.core.cardinality import Estimator

    for q in ALL_QUERIES:
        est = Estimator(catalog, q)
        cost, s = 0.0, frozenset()
        for i in range(len(q.edges)):
            cost += est.extension_walks(s, i)
            s = s | {i}
        assert plan(q, catalog).cost <= cost + 1e-6, q.name
