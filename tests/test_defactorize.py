"""Defactorizer: greedy order and embedding-join correctness."""
from __future__ import annotations

import pytest

from repro.core.answer_graph import build_answer_graph
from repro.core.defactorize import embeddings, greedy_order
from repro.core.query import cq
from repro import oracle
from repro.core.queries_table1 import ALL_QUERIES
from tests.conftest import micro_triples

CHAIN = cq("chain", ("w", "A", "x"), ("x", "B", "y"), ("y", "C", "z"))
ROWS = [
    (1, "A", 10), (2, "A", 10),
    (10, "B", 20), (10, "B", 21),
    (20, "C", 30), (21, "C", 31),
]


@pytest.fixture(scope="module")
def chain_ag(spark):
    df = micro_triples(spark, ROWS).persist()
    df.count()
    ag = build_answer_graph(df, CHAIN)
    yield ag
    ag.unpersist()
    df.unpersist()


def test_greedy_order_is_permutation(chain_ag):
    order = greedy_order(chain_ag)
    assert sorted(order) == [0, 1, 2]


def test_greedy_order_starts_smallest(chain_ag):
    sizes = {0: 5, 1: 1, 2: 9}
    assert greedy_order(chain_ag, sizes)[0] == 1


def test_greedy_order_stays_connected(chain_ag):
    sizes = {0: 1, 1: 100, 2: 2}  # tempted to jump 0 -> 2, but 2 is unconnected
    assert greedy_order(chain_ag, sizes) == [0, 1, 2]


def test_embeddings_column_order(chain_ag):
    assert embeddings(chain_ag).columns == list(CHAIN.variables)


def test_embeddings_rows(chain_ag):
    rows = sorted(tuple(r) for r in embeddings(chain_ag).collect())
    assert rows == [
        (1, 10, 20, 30), (1, 10, 21, 31),
        (2, 10, 20, 30), (2, 10, 21, 31),
    ]


def test_join_order_immaterial_from_iag(chain_ag):
    expect = sorted(tuple(r) for r in embeddings(chain_ag, [0, 1, 2]).collect())
    for order in ([2, 1, 0], [1, 0, 2], [1, 2, 0]):
        got = sorted(tuple(r) for r in embeddings(chain_ag, order).collect())
        assert got == expect, order


@pytest.mark.parametrize("q", ALL_QUERIES, ids=lambda q: q.name)
def test_embeddings_match_oracle_textual_order(triples, triples_pdf, q):
    """AG built in textual order + greedy defactorization == DuckDB."""
    ag = build_answer_graph(triples, q)
    emb = embeddings(ag)
    if q.name in ("S2", "S3", "S4"):  # large results: compare counts
        assert emb.count() == oracle.count(triples_pdf, q)
    else:
        oracle.assert_equivalent(emb, q, triples_pdf)
    ag.unpersist()
