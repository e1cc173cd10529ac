"""Property-based tests (hypothesis): random instances vs reference impls."""
from __future__ import annotations

import pandas as pd
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import oracle
from repro.core.catalog import Catalog
from repro.core.planner import brute_force_plan, plan
from repro.core.query import QueryEdge, QueryGraph
from repro.core.triangulate import brute_force_triangulate, triangulate

# --- random pure-python instances ---------------------------------------------
PREDS = ["A", "B", "C", "D"]


@st.composite
def catalogs(draw) -> Catalog:
    n = {p: draw(st.integers(1, 10_000)) for p in PREDS}
    ds = {p: draw(st.integers(1, n[p])) for p in PREDS}
    do = {p: draw(st.integers(1, n[p])) for p in PREDS}
    match = {}
    for p in PREDS:
        for q in PREDS:
            for pi in "so":
                for rho in "so":
                    cap = min((ds if pi == "s" else do)[p], (ds if rho == "s" else do)[q])
                    match[(p, pi, q, rho)] = draw(st.integers(0, cap))
    return Catalog(n, ds, do, match)


@st.composite
def tree_queries(draw) -> QueryGraph:
    """Random connected tree query with 2-5 edges."""
    k = draw(st.integers(2, 5))
    edges = []
    for i in range(k):
        # new node vi+1 attaches to a random existing node
        anchor = draw(st.integers(0, i))
        label = draw(st.sampled_from(PREDS))
        flip = draw(st.booleans())
        a, b = f"v{anchor}", f"v{i + 1}"
        edges.append(QueryEdge(b, label, a) if flip else QueryEdge(a, label, b))
    return QueryGraph(tuple(edges), name="rand")


@settings(max_examples=40, deadline=None)
@given(q=tree_queries(), cat=catalogs())
def test_dp_plan_matches_brute_force(q, cat):
    dp = plan(q, cat)
    bf = brute_force_plan(q, cat)
    assert abs(dp.cost - bf.cost) <= 1e-6 * max(1.0, bf.cost)
    assert q.is_connected_order(list(dp.order))


@settings(max_examples=40, deadline=None)
@given(
    L=st.integers(4, 7),
    weights=st.lists(st.floats(1, 1e6, allow_nan=False), min_size=30, max_size=30),
)
def test_triangulation_matches_brute_force(L, weights):
    vars_ = [f"v{i}" for i in range(L)]
    idx = {v: i for i, v in enumerate(vars_)}

    def w(u: str, v: str) -> float:
        a, b = sorted((idx[u], idx[v]))
        return weights[a * L + b - 1 if a * L + b - 1 < len(weights) else (a + b) % len(weights)]

    dp = triangulate(vars_, w)
    bf = brute_force_triangulate(vars_, w)
    assert abs(dp.cost - bf.cost) <= 1e-9 * max(1.0, bf.cost)
    assert len(dp.triangles) == L - 2


# --- random data graphs: WIREFRAME vs DuckDB (Spark, few examples) -------------
@st.composite
def data_graphs(draw) -> pd.DataFrame:
    n_nodes = draw(st.integers(3, 12))
    rows = draw(
        st.lists(
            st.tuples(
                st.integers(0, n_nodes - 1),
                st.sampled_from(PREDS),
                st.integers(0, n_nodes - 1),
            ),
            min_size=3,
            max_size=60,
        )
    )
    return pd.DataFrame(sorted(set(rows)), columns=["s", "p", "o"])


@settings(max_examples=8, deadline=None, suppress_health_check=list(HealthCheck))
@given(pdf=data_graphs(), q=tree_queries())
def test_wireframe_matches_duckdb_on_random_graphs(spark, pdf, q):
    from repro.core.catalog import build_catalog
    from repro.core.wireframe import count_embeddings

    triples = spark.createDataFrame(pdf)
    cat = build_catalog(triples)
    assert count_embeddings(triples, q, cat) == oracle.count(pdf, q)


@st.composite
def single_cycle_queries(draw) -> tuple[list[str], QueryGraph]:
    """Random L-cycle (L = 3..6) with random edge directions, maybe plus a
    pendant edge at a random position; returns (cycle order, query)."""
    L = draw(st.integers(3, 6))
    cycle = [f"v{i}" for i in range(L)]
    edges = []
    for i in range(L):
        a, b = cycle[i], cycle[(i + 1) % L]
        label = draw(st.sampled_from(PREDS))
        edges.append(QueryEdge(b, label, a) if draw(st.booleans()) else QueryEdge(a, label, b))
    if draw(st.booleans()):
        a, label = draw(st.sampled_from(cycle)), draw(st.sampled_from(PREDS))
        pendant = QueryEdge("p", label, a) if draw(st.booleans()) else QueryEdge(a, label, "p")
        edges.insert(draw(st.integers(0, L)), pendant)
    return cycle, QueryGraph(tuple(edges), name="cyc")


def _double_cover(cycle: list[str], q: QueryGraph) -> pd.DataFrame:
    """Rows that wind ``q``'s cycle twice around a 2L-cycle of fresh nodes
    (100, 101, ...), with a pendant edge off both copies of its anchor.
    Every node extends, so node burnback keeps them all, but unless the
    labels let a walk fold back, no closed L-cycle exists: spurious edges
    that random small graphs almost never produce."""
    L, pos = len(cycle), {v: i for i, v in enumerate(cycle)}
    rows = []
    for e in q.edges:
        if e.src in pos and e.dst in pos:
            for k in range(2 * L):
                u, w = cycle[k % L], cycle[(k + 1) % L]
                if {u, w} == {e.src, e.dst}:
                    a, b = 100 + k, 100 + (k + 1) % (2 * L)
                    rows.append((a, e.label, b) if e.src == u else (b, e.label, a))
        else:
            anchor = e.src if e.src in pos else e.dst
            for n in (100 + pos[anchor], 100 + pos[anchor] + L):
                rows.append((n, e.label, 200) if e.src == anchor else (200, e.label, n))
    return pd.DataFrame(rows, columns=["s", "p", "o"])


@settings(max_examples=8, deadline=None, suppress_health_check=list(HealthCheck))
@given(
    pdf=data_graphs(),
    cyc=single_cycle_queries(),
    weights=st.lists(st.floats(1, 1e6, allow_nan=False), min_size=36, max_size=36),
)
def test_edge_burnback_ag_is_duckdb_projection(spark, pdf, cyc, weights):
    """Under any triangulation, each edge-burnback AG relation is exactly
    the projection of the CQ's embeddings onto that edge's variables."""
    from repro.core.answer_graph import build_answer_graph, edge_burnback

    cycle, q = cyc
    pdf = pd.concat([pdf, _double_cover(cycle, q)], ignore_index=True)
    idx = {v: i for i, v in enumerate(cycle)}
    tri = triangulate(cycle, lambda u, w: weights[6 * idx[u] + idx[w]])
    ag = build_answer_graph(
        spark.createDataFrame(pdf), q, q.greedy_order(lambda prefix, j: 0.0)
    )
    try:
        edge_burnback(ag, tri)
        expect = {i: set(pairs) for i, pairs in oracle.edge_pairs(pdf, q).items()}
        got = {
            i: set(map(tuple, ag.edges[i].select(e.src, e.dst).collect()))
            for i, e in enumerate(q.edges)
        }
        assert got == expect
        assert ag.edge_counts() == {i: len(rows) for i, rows in expect.items()}
    finally:
        ag.unpersist()
