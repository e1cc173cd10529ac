"""Cardinality estimation for answer-graph planning.

Estimates, for any *subset* S of a CQ's query edges, the surviving node
cardinality of every variable of S and the surviving size of every edge
relation of S after node burnback — by monotone fixpoint propagation of
the catalog's 1-gram / 2-gram bounds. Because the estimate is a function
of the *subset* (not of an edge order), the planner's subset DP is exact
for its own cost model.

The planner's cost unit is the paper's **edge walk**: the number of edges
retrieved from **G** when a query edge is appended to the current answer
graph. Appending edge ``e`` (predicate ``q``) to subset ``S``:

    walks(S, e) = n(q) * prod over shared vars v of
                  min(1, eligible(v) / distinct(q, pos_e(v)))

where ``eligible(v)`` caps the already-bound node set of ``v`` by the
2-gram match counts between ``q`` and each S-edge incident to ``v``.
A start edge (S empty / no shared variable) costs a full predicate scan.
"""
from __future__ import annotations

from functools import lru_cache

from repro.core.catalog import Catalog
from repro.core.query import QueryGraph

_FIXPOINT_REL_EPS = 1e-3


class Estimator:
    """Subset-cardinality estimator for one query over one catalog.

    ``twogram=False`` drops the cross-predicate match bounds and falls
    back to pure 1-gram + independence estimation — the statistics level
    of a classical relational optimizer (used by the PostgreSQL baseline
    simulator; WIREFRAME itself plans with the full 2-gram catalog).
    """

    def __init__(self, catalog: Catalog, query: QueryGraph, *, twogram: bool = True):
        self.catalog = catalog
        self.query = query
        self.twogram = twogram
        self._cards = lru_cache(maxsize=None)(self._var_cards_uncached)

    # -- public ----------------------------------------------------------
    def var_cards(self, subset: frozenset[int]) -> dict[str, float]:
        """Estimated surviving node count per variable of ``subset``."""
        return dict(self._cards(subset))

    def edge_sizes(self, subset: frozenset[int]) -> dict[int, float]:
        """Estimated surviving edge count per edge of ``subset``."""
        cards = dict(self._cards(subset))
        return {i: self._edge_size(i, cards) for i in subset}

    def extension_walks(self, subset: frozenset[int], edge_idx: int) -> float:
        """Edge walks to append ``edge_idx`` to the AG built for ``subset``."""
        e = self.query.edges[edge_idx]
        scan = float(self.catalog.count(e.label))
        if not subset:
            return scan
        cards = dict(self._cards(subset))
        walks = scan
        shared = False
        for v in e.vars():
            if v not in cards:
                continue
            shared = True
            d = self.catalog.distinct(e.label, e.position(v))
            if d == 0:
                return 0.0
            eligible = cards[v]
            if self.twogram:
                for j in subset:
                    f = self.query.edges[j]
                    if v in f.vars():
                        m = self.catalog.match_count(
                            e.label, e.position(v), f.label, f.position(v)
                        )
                        eligible = min(eligible, float(m))
            walks *= min(1.0, eligible / d)
        return walks if shared else scan

    # -- internals ---------------------------------------------------------
    def _edge_size(self, i: int, cards: dict[str, float]) -> float:
        e = self.query.edges[i]
        size = float(self.catalog.count(e.label))
        for v in e.vars():
            d = self.catalog.distinct(e.label, e.position(v))
            if d == 0:
                return 0.0
            size *= min(1.0, cards[v] / d)
        return size

    def _var_cards_uncached(self, subset: frozenset[int]) -> tuple[tuple[str, float], ...]:
        q, cat = self.query, self.catalog
        incident: dict[str, list[int]] = {}
        for i in subset:
            for v in q.edges[i].vars():
                incident.setdefault(v, []).append(i)

        cards: dict[str, float] = {}
        for v, inc in incident.items():
            c = min(
                float(cat.distinct(q.edges[i].label, q.edges[i].position(v))) for i in inc
            )
            # pairwise 2-gram join-value bounds (WIREFRAME's catalog edge)
            if self.twogram:
                for a in range(len(inc)):
                    for b in range(a + 1, len(inc)):
                        e, f = q.edges[inc[a]], q.edges[inc[b]]
                        m = cat.match_count(
                            e.label, e.position(v), f.label, f.position(v)
                        )
                        c = min(c, float(m))
            cards[v] = c

        # monotone fixpoint: an edge of size n̂ binds at most n̂ distinct
        # values at either endpoint; shrinking a var shrinks its edges.
        for _ in range(2 * len(subset) + 2):
            changed = False
            sizes = {i: self._edge_size(i, cards) for i in subset}
            for v, inc in incident.items():
                new = min(cards[v], min(sizes[i] for i in inc))
                if new < cards[v] * (1 - _FIXPOINT_REL_EPS):
                    changed = True
                cards[v] = new
            if not changed:
                break
        return tuple(sorted(cards.items()))
