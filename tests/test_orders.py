"""Every edge order the system chooses on the session catalog, pinned.

The Edgifier's plan, the four baselines' join orders/trees and phase 2's
greedy order all rest on the same connected-order rule; these literals
fix what each of them picks for the 10 Table-1 queries (SF=0.01, seed 42),
so that a refactor of the rule shows up as a changed order, not only as a
changed timing.
"""
from __future__ import annotations

import pytest

from repro.baselines.direct_join import md_tree, nj_order, pg_order, vt_order
from repro.core import defactorize, wireframe
from repro.core.planner import plan
from repro.core.queries_table1 import ALL_QUERIES

# name: (plan, PG, NJ, MD tree, phase-2 greedy over the instrumented AG sizes)
ORDERS = {
    "S1": (
        (7, 8, 6, 5, 2, 1, 0, 3, 4),
        [7, 8, 6, 5, 4, 2, 1, 0, 3],
        [7, 8, 6, 5, 4, 2, 3, 1, 0],
        ((5, (6, (7, 8))), ((3, (0, 1)), (2, 4))),
        [3, 2, 4, 5, 6, 7, 8, 1, 0],
    ),
    "S2": (
        (7, 8, 5, 3, 2, 0, 1, 4, 6),
        [7, 8, 5, 4, 3, 2, 0, 1, 6],
        [7, 8, 5, 4, 3, 2, 0, 1, 6],
        ((6, (4, (5, (7, 8)))), ((0, 1), (2, 3))),
        [4, 5, 7, 8, 3, 6, 2, 0, 1],
    ),
    "S3": (
        (7, 8, 6, 5, 3, 0, 1, 2, 4),
        [1, 0, 2, 3, 4, 5, 6, 7, 8],
        [1, 0, 2, 3, 4, 5, 6, 7, 8],
        ((5, (6, (7, 8))), ((2, (0, 1)), (3, 4))),
        [7, 6, 8, 5, 4, 3, 0, 1, 2],
    ),
    "S4": (
        (7, 8, 5, 3, 2, 0, 1, 4, 6),
        [7, 8, 5, 4, 3, 2, 0, 1, 6],
        [7, 8, 5, 4, 3, 2, 0, 1, 6],
        ((6, (4, (5, (7, 8)))), ((0, 1), (2, 3))),
        [4, 5, 7, 8, 3, 6, 2, 0, 1],
    ),
    "S5": (
        (7, 6, 8, 2, 0, 1, 3, 4, 5),
        [7, 6, 8, 2, 5, 0, 1, 3, 4],
        [7, 6, 8, 2, 4, 0, 1, 3, 5],
        ((3, (1, (0, 4))), ((8, (6, 7)), (2, 5))),
        [0, 1, 2, 3, 4, 6, 7, 8, 5],
    ),
    "D6": ((2, 3, 0, 1), [2, 3, 1, 0], [2, 0, 1, 3], (3, (2, (0, 1))), [2, 3, 1, 0]),
    "D7": ((2, 3, 1, 0), [2, 3, 1, 0], [2, 0, 1, 3], (3, (2, (0, 1))), [2, 3, 1, 0]),
    "D8": ((2, 3, 0, 1), [2, 3, 0, 1], [2, 1, 0, 3], (3, (2, (0, 1))), [0, 3, 1, 2]),
    "D9": ((1, 0, 2, 3), [2, 3, 1, 0], [2, 3, 1, 0], (0, (1, (2, 3))), [2, 3, 0, 1]),
    "D10": ((0, 1, 2, 3), [2, 3, 0, 1], [2, 3, 0, 1], (1, (0, (2, 3))), [2, 3, 0, 1]),
}


@pytest.mark.parametrize("q", ALL_QUERIES, ids=lambda q: q.name)
def test_orders_are_pinned(triples, catalog, q):
    plan_order, pg, nj, md, greedy = ORDERS[q.name]
    assert plan(q, catalog).order == plan_order
    assert pg_order(q, catalog) == pg
    assert vt_order(q, catalog) == list(range(len(q.edges)))
    assert nj_order(q, catalog) == nj
    assert md_tree(q, catalog) == md
    r = wireframe.run(triples, q, catalog, instrument=True)
    try:
        assert defactorize.greedy_order(r.ag, r.ag_edge_counts) == greedy
    finally:
        r.unpersist()
