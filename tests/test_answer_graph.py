"""Answer-graph engine: extension, node burnback, edge burnback.

Micro data graphs are hand-built so the expected AGs are known exactly,
including the paper's Fig. 1 chain example and a Fig. 4-style cyclic
instance where node burnback provably leaves spurious edges.
"""
from __future__ import annotations

import pandas as pd
import pytest

from repro import oracle
from repro.core import answer_graph as agmod
from repro.core.answer_graph import build_answer_graph, edge_burnback
from repro.core.catalog import build_catalog
from repro.core.defactorize import embeddings
from repro.core.query import cq
from repro.core.triangulate import triangulate, triangulate_query
from tests.conftest import micro_triples

CHAIN = cq("chain", ("w", "A", "x"), ("x", "B", "y"), ("y", "C", "z"))

# Paper Fig. 1 shape: A-edges fan in to x=10, C-edges fan out of y=20,
# plus dead-end edges that must burn back.
FIG1_ROWS = [
    (1, "A", 10), (2, "A", 10), (3, "A", 10),          # fan-in
    (4, "A", 11),                                       # 11 has no B edge -> burns
    (10, "B", 20),
    (12, "B", 21),                                      # 12 unreachable by A -> burns
    (20, "C", 30), (20, "C", 31), (20, "C", 32),        # fan-out
    (40, "C", 41),                                      # unreachable -> burns
]


@pytest.fixture(scope="module")
def fig1(spark):
    df = micro_triples(spark, FIG1_ROWS).persist()
    df.count()
    yield df
    df.unpersist()


def _edge_rows(ag, i):
    e = ag.query.edges[i]
    return sorted((r[e.src], r[e.dst]) for r in ag.edges[i].collect())


def test_chain_iag_is_factorized(fig1):
    """3 A-edges + 1 B-edge + 3 C-edges = 7 AG edges vs 9 embeddings."""
    ag = build_answer_graph(fig1, CHAIN)
    counts = ag.edge_counts()
    assert counts == {0: 3, 1: 1, 2: 3}
    assert ag.triple_count() == 7
    assert embeddings(ag).count() == 3 * 1 * 3
    ag.unpersist()


def test_chain_iag_contents(fig1):
    ag = build_answer_graph(fig1, CHAIN)
    assert _edge_rows(ag, 0) == [(1, 10), (2, 10), (3, 10)]
    assert _edge_rows(ag, 1) == [(10, 20)]
    assert _edge_rows(ag, 2) == [(20, 30), (20, 31), (20, 32)]
    ag.unpersist()


def test_order_does_not_change_iag(fig1):
    for order in [(0, 1, 2), (2, 1, 0), (1, 0, 2), (1, 2, 0)]:
        ag = build_answer_graph(fig1, CHAIN, order)
        assert ag.edge_counts() == {0: 3, 1: 1, 2: 3}, order
        assert all(ag.edges[i].columns == [e.src, e.dst] for i, e in enumerate(CHAIN.edges)), order
        ag.unpersist()


def test_disconnected_order_rejected(fig1):
    with pytest.raises(ValueError):
        build_answer_graph(fig1, CHAIN, (0, 2, 1))
    with pytest.raises(ValueError):
        build_answer_graph(fig1, CHAIN, (0, 1))


@pytest.mark.parametrize(
    "order", [(0, 1, 2), (1, 0, 2), (1, 2, 0), (2, 1, 0)], ids=lambda o: "-".join(map(str, o))
)
def test_tree_round_runs_2k_minus_2_semijoins(fig1, monkeypatch, order):
    """One bottom-up + one top-down pass: k-1 semijoins each, whatever the
    plan's root, and the result is already the iAG."""
    calls = []
    real = agmod._semi
    monkeypatch.setattr(agmod, "_semi", lambda *a: calls.append(a[2]) or real(*a))
    ag = build_answer_graph(fig1, CHAIN, order)
    assert len(calls) == 2 * (len(CHAIN.edges) - 1)
    assert ag.edge_counts() == {0: 3, 1: 1, 2: 3}
    ag.unpersist()


def test_instrumented_walks(fig1):
    ag = build_answer_graph(fig1, CHAIN, (0, 1, 2), instrument=True)
    # forward extension: A scan=4, B constrained to x in {10,11} -> 1, C -> 3
    assert ag.extension_walks == {0: 4, 1: 1, 2: 3}
    ag.unpersist()


@pytest.mark.parametrize("shape", ["chain", "diamond"])
def test_instrumented_ag_equals_timed_ag(fig1, dia_data, shape):
    """Counting the extension walks does not change the AG phase 1 yields."""
    data, q = (fig1, CHAIN) if shape == "chain" else (dia_data, DIA)
    a = build_answer_graph(data, q, instrument=True)
    b = build_answer_graph(data, q)
    assert all(_edge_rows(a, i) == _edge_rows(b, i) for i in range(len(q.edges)))
    a.unpersist()
    b.unpersist()


def test_empty_result_burns_everything(spark):
    rows = [(1, "A", 10), (11, "B", 20)]  # A and B never connect
    df = micro_triples(spark, rows)
    q = cq("q", ("a", "A", "b"), ("b", "B", "c"))
    ag = build_answer_graph(df, q)
    assert ag.edge_counts() == {0: 0, 1: 0}
    assert ag.triple_count() == 0
    assert embeddings(ag).count() == 0
    ag.unpersist()


def test_ag_is_subset_of_data(fig1):
    ag = build_answer_graph(fig1, CHAIN)
    for i, e in enumerate(CHAIN.edges):
        got = {(r[e.src], r[e.dst]) for r in ag.edges[i].collect()}
        base = {(s, o) for s, p, o in FIG1_ROWS if p == e.label}
        assert got <= base
    ag.unpersist()


def test_tree_iag_minimality(fig1):
    """Every iAG edge of an acyclic CQ participates in >=1 embedding."""
    ag = build_answer_graph(fig1, CHAIN)
    emb = embeddings(ag)
    for i, e in enumerate(CHAIN.edges):
        used = {(r[e.src], r[e.dst]) for r in emb.select(e.src, e.dst).distinct().collect()}
        have = {(r[e.src], r[e.dst]) for r in ag.edges[i].collect()}
        assert have == used
    ag.unpersist()


# --- cyclic: spurious edges and edge burnback (paper Fig. 4) -------------------
# Diamond query a-A->b, b-B->c, a-C->d, d-D->c. Two clean embeddings
# (a=1 and a=2) plus edge (1,A,11) whose b-side pairs with the wrong c:
# node burnback keeps it (every node extends), edge burnback removes it.
DIA = cq("dia", ("a", "A", "b"), ("b", "B", "c"), ("a", "C", "d"), ("d", "D", "c"))
DIA_ROWS = [
    (1, "A", 10), (2, "A", 11),
    (10, "B", 20), (11, "B", 21),
    (1, "C", 30), (2, "C", 31),
    (30, "D", 20), (31, "D", 21),
    (1, "A", 11),  # spurious: b=11 forces c=21 but a=1 forces c=20
]


@pytest.fixture(scope="module")
def dia_data(spark):
    df = micro_triples(spark, DIA_ROWS).persist()
    df.count()
    yield df
    df.unpersist()


def test_node_burnback_keeps_spurious_edge(dia_data):
    ag = build_answer_graph(dia_data, DIA)
    assert ag.edge_counts()[0] == 3  # (1,10),(2,11),(1,11) all survive
    assert embeddings(ag).count() == 2  # defactorization still correct
    ag.unpersist()


def test_edge_burnback_restores_ideal(spark, dia_data):
    cat = build_catalog(dia_data)
    tri = triangulate_query(DIA, cat)
    assert tri is not None
    ag = build_answer_graph(dia_data, DIA)
    ag = edge_burnback(ag, tri)
    assert ag.edge_counts() == {0: 2, 1: 2, 2: 2, 3: 2}
    assert _edge_rows(ag, 0) == [(1, 10), (2, 11)]
    assert embeddings(ag).count() == 2
    ag.unpersist()


# Hexagon a-b-c-d-e-f: two clean embeddings (1..6 and 11..16) plus edge
# (1,A,12), which node burnback keeps and edge burnback removes.
HEX = cq("hex", ("a", "A", "b"), ("b", "B", "c"), ("c", "C", "d"),
         ("d", "D", "e"), ("e", "E", "f"), ("f", "F", "a"))
HEX_ROWS = [
    (base + i, label, base + (i + 1) % 6)
    for base in (1, 11)
    for i, label in enumerate("ABCDEF")
] + [(1, "A", 12)]


def test_edge_burnback_on_hexagon_with_middle_diagonal_first(spark):
    """A triangulation may list a chord before the shorter chords its
    triangles rest on: here (a,d) comes before (a,c) and (d,f)."""
    cheap = {("a", "d"), ("a", "c"), ("d", "f")}
    tri = triangulate(list("abcdef"), lambda u, w: 1.0 if (u, w) in cheap else 100.0)
    assert tri.chords == (("a", "d"), ("a", "c"), ("d", "f"))
    df = micro_triples(spark, HEX_ROWS)
    ag = build_answer_graph(df, HEX)
    try:
        assert ag.edge_counts()[0] == 3  # the spurious edge survives node burnback
        ag = edge_burnback(ag, tri)
        assert ag.edge_counts() == {i: 2 for i in range(6)}
        assert _edge_rows(ag, 0) == [(1, 2), (11, 12)]
        assert embeddings(ag).count() == 2
    finally:
        ag.unpersist()


# The diamond plus a path c-E->e-F->f. Two crossed a's (3 and 4) add
# c=24, whose every node extends but which is in no embedding, and the
# path's branch off c=24 is spurious with it.
DIAP = cq("diap", *((e.src, e.label, e.dst) for e in DIA.edges), ("c", "E", "e"), ("e", "F", "f"))
DIAP_ROWS = DIA_ROWS + [
    (3, "A", 12), (12, "B", 24), (3, "C", 32), (32, "D", 20),
    (4, "A", 13), (13, "B", 20), (4, "C", 33), (33, "D", 24),
    (20, "E", 40), (40, "F", 50), (21, "E", 41), (41, "F", 51), (41, "F", 52),
    (24, "E", 44), (44, "F", 54),  # the spurious branch
]


def test_edge_burnback_reaches_edges_off_the_cycle(spark):
    df = micro_triples(spark, DIAP_ROWS)
    ag = build_answer_graph(df, DIAP)
    try:
        assert ag.edge_counts()[4] == 3  # node burnback keeps (24, 44)
        ag = edge_burnback(ag, triangulate_query(DIAP, build_catalog(df)))
        expect = oracle.edge_pairs(pd.DataFrame(DIAP_ROWS, columns=["s", "p", "o"]), DIAP)
        assert ag.edge_counts() == {i: len(p) for i, p in expect.items()}
        assert all(_edge_rows(ag, i) == p for i, p in expect.items())
        assert _edge_rows(ag, 5) == [(40, 50), (41, 51), (41, 52)]
    finally:
        ag.unpersist()


# A 3-cycle: one closed triangle plus a 6-cycle that winds around the
# query's 3-cycle twice, so every node extends but none closes.
TRI = cq("tri", ("a", "A", "b"), ("b", "B", "c"), ("c", "C", "a"))
TRI_ROWS = [(1, "A", 2), (2, "B", 3), (3, "C", 1)] + [
    (11 + i, "ABC"[i % 3], 11 + (i + 1) % 6) for i in range(6)
]


def test_edge_burnback_on_triangle_without_chords(spark):
    df = micro_triples(spark, TRI_ROWS)
    tri = triangulate(["a", "b", "c"], lambda u, w: 1.0)
    assert tri.chords == ()
    ag = build_answer_graph(df, TRI)
    try:
        assert ag.edge_counts() == {0: 3, 1: 3, 2: 3}
        ag = edge_burnback(ag, tri)
        assert ag.edge_counts() == {0: 1, 1: 1, 2: 1}
        assert [_edge_rows(ag, i) for i in range(3)] == [[(1, 2)], [(2, 3)], [(3, 1)]]
    finally:
        ag.unpersist()


def test_edge_burnback_requires_cycle(spark, fig1):
    cat = build_catalog(fig1)
    assert triangulate_query(CHAIN, cat) is None


def test_triple_count_dedups_shared_data_edges(spark):
    """Two query edges with the same label can match the same data edge."""
    rows = [(100, "P", 200), (100, "P", 201)]
    df = micro_triples(spark, rows)
    q = cq("two", ("m", "P", "d1"), ("m", "P", "d2"))
    ag = build_answer_graph(df, q)
    assert ag.edge_counts() == {0: 2, 1: 2}
    assert ag.triple_count() == 2  # not 4
    assert embeddings(ag).count() == 4
    ag.unpersist()


def test_edge_burnback_rejects_multi_cycle_cq(spark):
    """A 4-cycle plus a diagonal has two independent cycles."""
    rows = [(1, "A", 2), (2, "B", 3), (1, "C", 4), (4, "D", 3), (1, "E", 3)]
    df = micro_triples(spark, rows)
    q = cq("k4", ("a", "A", "b"), ("b", "B", "c"), ("a", "C", "d"), ("d", "D", "c"),
           ("a", "E", "c"))
    tri = triangulate_query(q, build_catalog(df))
    ag = build_answer_graph(df, q)
    with pytest.raises(ValueError, match="cycles"):
        edge_burnback(ag, tri)
    ag.unpersist()
