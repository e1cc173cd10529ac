"""Cardinality-estimator invariants (pure Python over hand-made catalogs)."""
from __future__ import annotations

import pytest

from repro.core.cardinality import Estimator
from repro.core.catalog import Catalog
from repro.core.query import cq
from repro.core.queries_table1 import ALL_QUERIES


def uniform_catalog() -> Catalog:
    """A-B-C chain where everything joins perfectly: n=100, d=50 each side."""
    preds = ["A", "B", "C"]
    n = {p: 100 for p in preds}
    ds = {p: 50 for p in preds}
    do = {p: 50 for p in preds}
    match = {}
    for p in preds:
        for q in preds:
            for pi in "so":
                for rho in "so":
                    match[(p, pi, q, rho)] = 50
    return Catalog(n, ds, do, match)


CHAIN = cq("chain", ("w", "A", "x"), ("x", "B", "y"), ("y", "C", "z"))


def test_start_edge_costs_full_scan():
    est = Estimator(uniform_catalog(), CHAIN)
    for i in range(3):
        assert est.extension_walks(frozenset(), i) == 100.0


def test_extension_with_full_overlap_costs_full_scan():
    est = Estimator(uniform_catalog(), CHAIN)
    # after edge A, x is bound with 50 candidates = all of B's subjects
    assert est.extension_walks(frozenset([0]), 1) == pytest.approx(100.0)


def test_extension_scales_with_match_fraction():
    c = uniform_catalog()
    c.match[("B", "s", "A", "o")] = 10  # only 10 of B's 50 subjects join A
    c.match[("A", "o", "B", "s")] = 10
    est = Estimator(c, CHAIN)
    assert est.extension_walks(frozenset([0]), 1) == pytest.approx(100.0 * 10 / 50)


def test_unconnected_extension_costs_full_scan():
    est = Estimator(uniform_catalog(), CHAIN)
    assert est.extension_walks(frozenset([0]), 2) == 100.0  # A then C share no var


def test_var_cards_bounded_by_distinct():
    est = Estimator(uniform_catalog(), CHAIN)
    cards = est.var_cards(frozenset([0, 1, 2]))
    for v in ("w", "x", "y", "z"):
        assert 0 <= cards[v] <= 50


def test_var_cards_monotone_in_subset():
    """More edges = more constraints = no variable grows."""
    c = uniform_catalog()
    c.match[("B", "o", "C", "s")] = 5
    c.match[("C", "s", "B", "o")] = 5
    est = Estimator(c, CHAIN)
    small = est.var_cards(frozenset([0, 1]))
    big = est.var_cards(frozenset([0, 1, 2]))
    for v in small:
        assert big[v] <= small[v] + 1e-9


def test_match_bound_applies_to_shared_var():
    c = uniform_catalog()
    c.match[("A", "o", "B", "s")] = 7
    c.match[("B", "s", "A", "o")] = 7
    est = Estimator(c, CHAIN)
    cards = est.var_cards(frozenset([0, 1]))
    assert cards["x"] <= 7


def test_edge_sizes_shrink_with_cards():
    c = uniform_catalog()
    c.match[("A", "o", "B", "s")] = 5
    c.match[("B", "s", "A", "o")] = 5
    est = Estimator(c, CHAIN)
    sizes = est.edge_sizes(frozenset([0, 1]))
    # x restricted to <=5 of 50 values on both edges
    assert sizes[0] <= 100 * 5 / 50 + 1e-9
    assert sizes[1] <= 100 * 5 / 50 + 1e-9


def test_zero_match_kills_everything():
    c = uniform_catalog()
    c.match[("A", "o", "B", "s")] = 0
    c.match[("B", "s", "A", "o")] = 0
    est = Estimator(c, CHAIN)
    assert est.extension_walks(frozenset([0]), 1) == 0.0
    assert est.var_cards(frozenset([0, 1]))["x"] == 0.0


def test_missing_predicate_gives_zero():
    est = Estimator(uniform_catalog(), cq("m", ("a", "Z", "b")))
    assert est.extension_walks(frozenset(), 0) == 0.0


@pytest.mark.parametrize("q", ALL_QUERIES, ids=lambda q: q.name)
def test_real_queries_estimates_finite_and_nonneg(catalog, q):
    est = Estimator(catalog, q)
    full = frozenset(range(len(q.edges)))
    cards = est.var_cards(full)
    assert all(0 <= c < float("inf") for c in cards.values())
    sizes = est.edge_sizes(full)
    for i, e in enumerate(q.edges):
        assert 0 <= sizes[i] <= catalog.count(e.label) + 1e-9
    for i in range(len(q.edges)):
        w = est.extension_walks(full - {i}, i)
        assert 0 <= w <= catalog.count(q.edges[i].label) + 1e-9


def test_subset_cache_is_per_query(catalog):
    q = ALL_QUERIES[0]
    est1, est2 = Estimator(catalog, q), Estimator(catalog, q)
    s = frozenset([0, 1])
    assert est1.var_cards(s) == est2.var_cards(s)
