"""Work-metric harness: exact intermediate-tuple accounting."""
from __future__ import annotations

import pandas as pd
import pytest

from repro.baselines.direct_join import JOIN_TREES, md_tree, nj_order, pg_order, vt_order
from repro.core.query import cq
from repro.core.queries_table1 import ALL_QUERIES
from repro.experiments.workcount import Work, baseline_work, tree_work, wireframe_work

CHAIN = cq("chain", ("w", "A", "x"), ("x", "B", "y"), ("y", "C", "z"))
MICRO = pd.DataFrame(
    [
        (1, "A", 10), (2, "A", 10), (3, "A", 11),
        (10, "B", 20), (11, "B", 21),
        (20, "C", 30), (20, "C", 31),
    ],
    columns=["s", "p", "o"],
)
# |A|=3, |B|=2, |C|=2; |A⋈B|=3, |B⋈C|=2 (only y=20 has C edges)


@pytest.mark.parametrize(
    "tree, expect",
    [
        (((0, 1), 2), Work(total=3 + 2 + 2 + 3, peak=3)),
        (((2, 1), 0), Work(total=2 + 2 + 3 + 2, peak=3)),
        ((0, (1, 2)), Work(total=3 + 2 + 2 + 2, peak=3)),
    ],
    ids=["textual", "reverse", "bushy"],
)
def test_tree_work_counts_every_node_but_the_root(tree, expect):
    assert tree_work(MICRO, CHAIN, tree) == expect


def test_baseline_work_reads_the_executed_tree(catalog):
    """VT's left-deep tree counts its scans like any other tree."""
    assert JOIN_TREES["VT"](CHAIN, catalog) == ((0, 1), 2)
    assert baseline_work(MICRO, CHAIN, catalog, "VT") == Work(total=10, peak=3)


def test_wireframe_work_arithmetic():
    w = wireframe_work({0: 3, 1: 1}, {0: 4, 1: 2})
    assert w.total == (3 + 1) + (4 + 2)
    assert w.peak == 4


def test_baseline_work_unknown_system(catalog):
    with pytest.raises(ValueError):
        baseline_work(MICRO, CHAIN, catalog, "XX")


@pytest.mark.parametrize("q", ALL_QUERIES, ids=lambda q: q.name)
def test_order_functions_are_connected_permutations(catalog, q):
    for fn in (pg_order, vt_order, nj_order):
        assert q.is_connected_order(list(fn(q, catalog))), fn.__name__


@pytest.mark.parametrize("q", ALL_QUERIES, ids=lambda q: q.name)
def test_md_tree_covers_all_edges(catalog, q):
    def leaves(t):
        return [t] if isinstance(t, int) else leaves(t[0]) + leaves(t[1])

    assert sorted(leaves(md_tree(q, catalog))) == list(range(len(q.edges)))


@pytest.mark.parametrize("system", ["PG", "VT", "MD", "NJ"])
def test_baseline_work_on_real_data(triples_pdf, catalog, system):
    q = ALL_QUERIES[5]  # D6, cheap
    w = baseline_work(triples_pdf, q, catalog, system)
    assert w.total >= w.peak > 0
    assert w == tree_work(triples_pdf, q, JOIN_TREES[system](q, catalog))

