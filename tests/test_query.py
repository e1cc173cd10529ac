"""Query-graph model and CQ→SQL translation tests."""
from __future__ import annotations

import pandas as pd
import pytest

from repro import oracle
from repro.core.query import QueryEdge, QueryGraph, cq
from repro.core.queries_table1 import ALL_QUERIES, DIAMONDS, PAPER_TABLE1, SNOWFLAKES

CHAIN = cq("chain", ("w", "A", "x"), ("x", "B", "y"), ("y", "C", "z"))
DIAMOND = cq("dia", ("a", "A", "b"), ("a", "B", "c"), ("b", "C", "d"), ("c", "D", "d"))


# -- QueryEdge ---------------------------------------------------------------
def test_edge_positions():
    e = QueryEdge("x", "A", "y")
    assert e.position("x") == "s" and e.position("y") == "o"
    assert e.other("x") == "y" and e.other("y") == "x"
    with pytest.raises(ValueError):
        e.position("z")


def test_edge_rejects_self_loop():
    with pytest.raises(ValueError):
        QueryEdge("x", "A", "x")


def test_edge_rejects_bad_identifier():
    with pytest.raises(ValueError):
        QueryEdge("x-1", "A", "y")


# -- QueryGraph structure -----------------------------------------------------
def test_variables_first_appearance_order():
    assert CHAIN.variables == ("w", "x", "y", "z")
    assert DIAMOND.variables == ("a", "b", "c", "d")


def test_empty_query_rejected():
    with pytest.raises(ValueError):
        QueryGraph(())


def test_incident():
    assert CHAIN.incident("x") == [0, 1]
    assert DIAMOND.incident("d") == [2, 3]


def test_connectivity():
    assert CHAIN.is_connected()
    disc = cq("disc", ("a", "A", "b"), ("c", "B", "d"))
    assert not disc.is_connected()


def test_tree_detection():
    assert CHAIN.is_tree()
    assert not DIAMOND.is_tree()


@pytest.mark.parametrize("q", SNOWFLAKES, ids=lambda q: q.name)
def test_snowflakes_are_trees_with_9_edges(q):
    assert len(q.edges) == 9
    assert len(q.variables) == 10
    assert q.is_tree()
    assert q.find_cycle() is None


@pytest.mark.parametrize("q", DIAMONDS, ids=lambda q: q.name)
def test_diamonds_are_4_cycles(q):
    assert len(q.edges) == 4
    assert len(q.variables) == 4
    assert q.is_connected() and not q.is_tree()


@pytest.mark.parametrize("q", DIAMONDS, ids=lambda q: q.name)
def test_diamond_cycle_order_is_a_real_cycle(q):
    cyc = q.find_cycle()
    assert cyc is not None and len(cyc) == 4
    pairs = {frozenset((e.src, e.dst)) for e in q.edges}
    for i in range(len(cyc)):
        assert frozenset((cyc[i], cyc[(i + 1) % len(cyc)])) in pairs


def test_find_cycle_on_tree_with_appendage():
    q = cq(
        "tail",
        ("a", "A", "b"),
        ("b", "B", "c"),
        ("c", "C", "a"),
        ("c", "D", "t"),
    )
    cyc = q.find_cycle()
    assert cyc is not None and set(cyc) == {"a", "b", "c"}


def test_is_connected_order():
    assert CHAIN.is_connected_order([0, 1, 2])
    assert CHAIN.is_connected_order([1, 0, 2])
    assert not CHAIN.is_connected_order([0, 2, 1])  # gap: w-x then y-z
    assert not CHAIN.is_connected_order([0, 1])  # incomplete
    assert not CHAIN.is_connected_order([0, 1, 1])


def test_greedy_order_prefers_connected_edges():
    # Edge 2 (y-C-z) has the least key but joins nothing until B is in.
    assert CHAIN.greedy_order(lambda prefix, j: -j if prefix else j) == [0, 1, 2]
    assert CHAIN.greedy_order(lambda prefix, j: 0) == [0, 1, 2]  # ties: lower index
    # Two components: the second starts only once the first is exhausted.
    two = cq("two", ("a", "A", "b"), ("c", "B", "d"), ("b", "C", "e"))
    assert two.greedy_order(lambda prefix, j: j) == [0, 2, 1]


def test_labels_match_paper_rows():
    """Rows 1-8 use exactly the paper's per-row label multisets."""
    expected = {
        "S1": ["actedIn", "actedIn", "created", "diedIn", "hasDuration",
               "influences", "owns", "wasCreatedOnDate", "wasCreatedOnDate"],
        "S2": ["actedIn", "actedIn", "actedIn", "created", "hasChild",
               "hasDuration", "influences", "wasBornIn", "wasCreatedOnDate"],
        "S3": ["actedIn", "actedIn", "created", "exports", "hasDuration",
               "influences", "isCitizenOf", "wasCreatedOnDate", "wasCreatedOnDate"],
        "S4": ["actedIn", "actedIn", "actedIn", "created", "hasDuration",
               "influences", "isMarriedTo", "wasBornOnDate", "wasCreatedOnDate"],
        "S5": ["actedIn", "actedIn", "diedIn", "hasDuration", "isMarriedTo",
               "owns", "wasBornIn", "wasCreatedOnDate", "wasCreatedOnDate"],
        "D6": ["isCitizenOf", "isLocatedIn", "linksTo", "livesIn"],
        "D7": ["happenedIn", "isCitizenOf", "linksTo", "livesIn"],
        "D8": ["diedIn", "graduatedFrom", "linksTo", "wasBornIn"],
    }
    for q in ALL_QUERIES:
        if q.name in expected:
            assert sorted(q.labels) == expected[q.name], q.name


def test_paper_table_rows_align_with_queries():
    assert [r.query.name for r in PAPER_TABLE1] == [q.name for q in ALL_QUERIES]
    for r in PAPER_TABLE1:
        assert r.shape == ("snowflake" if r.query.name.startswith("S") else "diamond")


# -- CQ -> SQL ---------------------------------------------------------------
MICRO = pd.DataFrame(
    [
        (1, "A", 10), (2, "A", 10), (3, "A", 11),
        (10, "B", 20), (11, "B", 21), (12, "B", 22),
        (20, "C", 30), (20, "C", 31), (21, "C", 32),
    ],
    columns=["s", "p", "o"],
)


def _run_sql(q: QueryGraph) -> list[tuple]:
    with oracle.connect(MICRO, q) as con:
        return sorted(con.execute(q.to_sql()).fetchall())


def test_to_sql_chain_semantics():
    rows = _run_sql(CHAIN)
    # w-A->x-B->y-C->z: via 10->20->{30,31} for w in {1,2}; 11->21->32 for 3
    assert rows == [
        (1, 10, 20, 30), (1, 10, 20, 31),
        (2, 10, 20, 30), (2, 10, 20, 31),
        (3, 11, 21, 32),
    ]


def test_to_sql_projects_variables_in_order():
    sql = CHAIN.to_sql()
    head = sql.split("FROM")[0]
    assert head.index(" AS w") < head.index(" AS x") < head.index(" AS y") < head.index(" AS z")


def test_to_sql_single_edge():
    q = cq("one", ("u", "B", "v"))
    assert _run_sql(q) == [(10, 20), (11, 21), (12, 22)]


def test_to_sql_shared_subject():
    q = cq("fork", ("x", "C", "u"), ("x", "C", "v"))
    rows = _run_sql(q)
    # x=20 has objects {30,31} -> 4 combos; x=21 -> 1
    assert rows == [
        (20, 30, 30), (20, 30, 31), (20, 31, 30), (20, 31, 31), (21, 32, 32),
    ]


def test_to_sql_quotes_labels():
    """Quotes in a label are escaped, so the SQL stays valid and exact."""
    label = 'O\'Hare "Intl"'
    pdf = pd.DataFrame([(1, label, 10), (10, "B", 20), (2, "O", 10)], columns=["s", "p", "o"])
    q = cq("quoted", ("a", label, "b"), ("b", "B", "c"))
    assert oracle.count(pdf, q) == 1
    assert oracle.edge_pairs(pdf, q) == {0: [(1, 10)], 1: [(10, 20)]}
