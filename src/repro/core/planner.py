"""The Edgifier: cost-based answer-graph planner.

Bottom-up dynamic programming over *subsets* of query edges producing an
optimal **left-deep** edge order (the paper's phase-1 plan shape): the
order in which query edges are materialized into the answer graph. Cost
is the total number of estimated **edge walks** (see
:mod:`repro.core.cardinality`). Because the per-step cost depends only on
(already-materialized subset, next edge), Bellman's principle holds
exactly and the DP is optimal for the cost model — verified against
brute-force enumeration in the tests.

Only *connected* orders are considered (:meth:`QueryGraph.extends`: every
appended edge shares a variable with the AG so far, the paper's
edge-extension step); disconnected CQs are rejected.
"""
from __future__ import annotations

from dataclasses import dataclass

from repro.core.cardinality import Estimator
from repro.core.catalog import Catalog
from repro.core.query import QueryGraph


@dataclass(frozen=True)
class Plan:
    """A left-deep phase-1 plan: materialize ``query.edges[i]`` for i in order."""

    query: QueryGraph
    order: tuple[int, ...]
    cost: float


def plan(query: QueryGraph, catalog: Catalog) -> Plan:
    """Optimal connected left-deep edge order by subset DP."""
    if not query.is_connected():
        raise ValueError(f"{query.name or 'query'} is not connected")
    est = Estimator(catalog, query)
    k = len(query.edges)
    # best[S] = (cost, last_edge, prev_subset)
    best: dict[frozenset[int], tuple[float, int, frozenset[int]]] = {}
    empty: frozenset[int] = frozenset()
    for i in range(k):
        s = frozenset([i])
        best[s] = (est.extension_walks(empty, i), i, empty)

    frontier = list(best)
    for _ in range(k - 1):
        nxt: dict[frozenset[int], tuple[float, int, frozenset[int]]] = {}
        for s in frontier:
            cost_s = best[s][0]
            for j in range(k):
                if j in s or not query.extends(s, j):
                    continue
                s2 = s | {j}
                c2 = cost_s + est.extension_walks(s, j)
                if s2 not in nxt or c2 < nxt[s2][0]:
                    best[s2] = (c2, j, s)
                    nxt[s2] = best[s2]
        frontier = list(nxt)

    full = frozenset(range(k))
    if full not in best:
        raise ValueError("no connected order found (disconnected query?)")
    order: list[int] = []
    s = full
    while s:
        cost, last, prev = best[s]
        order.append(last)
        s = prev
    order.reverse()
    return Plan(query, tuple(order), best[full][0])


def brute_force_plan(query: QueryGraph, catalog: Catalog) -> Plan:
    """Exhaustive minimum over all connected orders (tests; ≤ ~7 edges)."""
    est = Estimator(catalog, query)
    k = len(query.edges)
    best_cost = float("inf")
    best_order: tuple[int, ...] | None = None

    def rec(s: frozenset[int], order: tuple[int, ...], cost: float) -> None:
        nonlocal best_cost, best_order
        if cost >= best_cost:
            return
        if len(order) == k:
            best_cost, best_order = cost, order
            return
        for j in range(k):
            if j in s or not query.extends(s, j):
                continue
            rec(s | {j}, order + (j,), cost + est.extension_walks(s, j))

    rec(frozenset(), (), 0.0)
    assert best_order is not None
    return Plan(query, best_order, best_cost)
