"""End-to-end WIREFRAME: correctness vs oracle, factorization invariants."""
from __future__ import annotations

import contextlib
import uuid

import pytest

from repro.core import answer_graph, defactorize, wireframe
from repro.core.answer_graph import build_answer_graph, edge_burnback
from repro.core.planner import plan
from repro.core.queries_table1 import ALL_QUERIES, DIAMONDS, SNOWFLAKES
from repro.core.triangulate import triangulate_query
from repro import oracle

SMALL = [q for q in ALL_QUERIES if q.name not in ("S2", "S3", "S4")]
BIG = [q for q in ALL_QUERIES if q.name in ("S2", "S3", "S4")]


@pytest.mark.parametrize("q", SMALL, ids=lambda q: q.name)
def test_wireframe_matches_oracle(triples, triples_pdf, catalog, q):
    r = wireframe.run(triples, q, catalog)
    oracle.assert_equivalent(r.embedding_df, q, triples_pdf)
    r.unpersist()


@pytest.mark.parametrize("q", BIG, ids=lambda q: q.name)
def test_wireframe_matches_oracle_count(triples, triples_pdf, catalog, q):
    assert wireframe.count_embeddings(triples, q, catalog) == oracle.count(triples_pdf, q)


@pytest.mark.parametrize("q", ALL_QUERIES, ids=lambda q: q.name)
def test_instrumented_run_fields(triples, triples_pdf, catalog, q):
    r = wireframe.run(triples, q, catalog, instrument=True)
    try:
        assert r.embedding_count == oracle.count(triples_pdf, q)
        assert r.ag_triples is not None and r.ag_triples > 0
        assert set(r.ag_edge_counts) == set(range(len(q.edges)))
        assert r.ag_triples <= sum(r.ag_edge_counts.values())
        assert r.triangulation is None  # triangulated only for edge burnback
    finally:
        r.unpersist()


@pytest.mark.parametrize("q", SNOWFLAKES, ids=lambda q: q.name)
def test_snowflake_ag_much_smaller_than_embeddings(triples, catalog, q):
    """The paper's core claim: |AG| << |embeddings| for snowflakes.

    At the SF=0.01 test scale S5's fan-through is barely populated (its
    embedding count collapses to ~60), so it only gets the weak bound;
    at bench scale (SF=0.1) all five are 15x-394x (EXPERIMENTS.md).
    """
    r = wireframe.run(triples, q, catalog, instrument=True)
    try:
        if q.name == "S5":
            assert r.ag_triples <= 2 * r.embedding_count
        else:
            assert r.ag_triples < r.embedding_count
    finally:
        r.unpersist()


def test_ag_not_larger_than_data(triples, catalog):
    n = triples.count()
    r = wireframe.run(triples, SNOWFLAKES[0], catalog, instrument=True)
    try:
        assert r.ag_triples <= n
    finally:
        r.unpersist()


@pytest.mark.parametrize("q", DIAMONDS, ids=lambda q: q.name)
def test_edge_burnback_shrinks_ag_preserves_result(triples, triples_pdf, catalog, q):
    base = wireframe.run(triples, q, catalog, instrument=True)
    eb = wireframe.run(triples, q, catalog, instrument=True, use_edge_burnback=True)
    try:
        assert eb.triangulation is not None and len(eb.triangulation.chords) == 1
        assert eb.embedding_count == base.embedding_count == oracle.count(triples_pdf, q)
        assert eb.ag_triples <= base.ag_triples
    finally:
        base.unpersist()
        eb.unpersist()


def _assert_ideal(r, q):
    """Every AG edge participates in an embedding."""
    emb = r.embedding_df
    sizes = r.ag.edge_counts()
    for i, e in enumerate(q.edges):
        used = emb.select(e.src, e.dst).distinct().count()
        assert sizes[i] == used, (q.name, i)


@pytest.mark.parametrize("q", DIAMONDS, ids=lambda q: q.name)
def test_edge_burnback_yields_ideal_ag(triples, catalog, q):
    """After edge burnback every AG edge participates in an embedding."""
    r = wireframe.run(triples, q, catalog, instrument=True, use_edge_burnback=True)
    try:
        _assert_ideal(r, q)
    finally:
        r.unpersist()


@pytest.mark.parametrize("q", SNOWFLAKES, ids=lambda q: q.name)
def test_tree_ag_is_ideal(triples, catalog, q):
    """Phase 1 alone yields the iAG of a tree CQ."""
    r = wireframe.run(triples, q, catalog)
    try:
        _assert_ideal(r, q)
    finally:
        r.unpersist()


def _node_burnback_reference(triples_pdf, q) -> dict[int, set[tuple[int, int]]]:
    """Node-burnback fixpoint in pandas: restrict every edge relation to
    the nodes all incident edges agree on, until nothing changes."""
    pdf = triples_pdf.drop_duplicates()
    rels = {
        i: pdf[pdf.p == e.label][["s", "o"]].set_axis([e.src, e.dst], axis=1)
        for i, e in enumerate(q.edges)
    }
    while True:
        before = [len(r) for r in rels.values()]
        for v in q.variables:
            inc = q.incident(v)
            common = set.intersection(*(set(rels[i][v]) for i in inc))
            for i in inc:
                rels[i] = rels[i][rels[i][v].isin(common)]
        if [len(r) for r in rels.values()] == before:
            return {i: set(r.itertuples(index=False, name=None)) for i, r in rels.items()}


@pytest.mark.parametrize("q", DIAMONDS, ids=lambda q: q.name)
def test_cyclic_ag_is_node_burnback_fixpoint(triples, triples_pdf, catalog, q):
    expect = _node_burnback_reference(triples_pdf, q)
    r = wireframe.run(triples, q, catalog)
    try:
        got = {
            i: set(map(tuple, r.ag.edges[i].select(e.src, e.dst).collect()))
            for i, e in enumerate(q.edges)
        }
        assert got == expect
        assert r.ag.edge_counts() == {i: len(rows) for i, rows in expect.items()}
    finally:
        r.unpersist()


@contextlib.contextmanager
def _job_group(sc):
    """Run the body's Spark jobs in a fresh job group; yields its id."""
    group = f"phase1-{uuid.uuid4().hex}"
    saved = sc.getLocalProperty("spark.jobGroup.id")
    sc.setJobGroup(group, "phase 1", False)
    try:
        yield group
    finally:
        sc.setLocalProperty("spark.jobGroup.id", saved)


def _job_count(sc, group) -> int:
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    return len(sc.statusTracker().getJobIdsForGroup(group))


def test_phase1_jobs_bounded_by_semijoins(spark, triples, catalog):
    """A k-edge tree CQ costs at most one Spark job per semijoin: 2(k-1)."""
    q = SNOWFLAKES[0]
    sc = spark.sparkContext
    with _job_group(sc) as group:
        ag = build_answer_graph(triples, q, plan(q, catalog).order)
    try:
        ag.edge_counts()  # waits for every broadcast the build started
        assert 0 < _job_count(sc, group) <= 2 * (len(q.edges) - 1)
    finally:
        ag.unpersist()


def test_edge_burnback_jobs_bounded_by_node_burnback(spark, triples, catalog):
    """Phase 1 on D6 with edge burnback, its counts included, launches at
    most twice the jobs of phase 1 with node burnback alone."""
    q = DIAMONDS[0]
    sc = spark.sparkContext
    order, tri = plan(q, catalog).order, triangulate_query(q, catalog)
    jobs = []
    for eb in (False, True):
        with _job_group(sc) as group:
            ag = build_answer_graph(triples, q, order)
            try:
                if eb:
                    edge_burnback(ag, tri)
                ag.edge_counts()
            finally:
                ag.unpersist()
        jobs.append(_job_count(sc, group))
    node, edge = jobs
    assert 0 < node < edge <= 2 * node, jobs


@pytest.mark.parametrize(
    "q, eb", [(SNOWFLAKES[0], False), (DIAMONDS[0], False), (DIAMONDS[0], True)],
    ids=["S1", "D6", "D6-edge-burnback"],
)
def test_runs_release_all_checkpoints(spark, triples, catalog, q, eb):
    persistent = spark.sparkContext._jsc.getPersistentRDDs
    before = persistent().size()
    if eb:
        r = wireframe.run(triples, q, catalog, use_edge_burnback=True)
        r.embedding_df.count()
        r.unpersist()
    else:
        wireframe.count_embeddings(triples, q, catalog)
    assert persistent().size() == before


def test_phase2_error_releases_checkpoints(spark, triples, catalog, monkeypatch):
    """An error after phase 1 leaves no checkpoint behind."""
    persistent = spark.sparkContext._jsc.getPersistentRDDs
    made: list[int] = []

    def boom(ag, order=None):
        made.append(len(ag._persisted))
        raise RuntimeError("phase 2 failed")

    monkeypatch.setattr(defactorize, "embeddings", boom)
    before = persistent().size()
    with pytest.raises(RuntimeError, match="phase 2 failed"):
        wireframe.count_embeddings(triples, SNOWFLAKES[0], catalog)
    assert made and made[0] > 0
    assert persistent().size() == before


def test_mid_build_error_releases_checkpoints(spark, triples, catalog, monkeypatch):
    """An error inside phase 1 (a failed or cancelled semijoin job) leaves no
    checkpoint behind, including those the build made before it."""
    persistent = spark.sparkContext._jsc.getPersistentRDDs
    before = persistent().size()
    semi = answer_graph._semi
    calls: list[int] = []

    def failing_semi(df, rel, var):
        calls.append(persistent().size() - before)
        if len(calls) == 6:
            raise RuntimeError("semijoin failed")
        return semi(df, rel, var)

    monkeypatch.setattr(answer_graph, "_semi", failing_semi)
    with pytest.raises(RuntimeError, match="semijoin failed"):
        wireframe.count_embeddings(triples, DIAMONDS[0], catalog)
    assert calls[-1] > 0  # checkpoints existed when the build failed
    assert persistent().size() == before


def test_edge_burnback_rejected_for_trees(triples, catalog):
    with pytest.raises(ValueError):
        wireframe.run(triples, SNOWFLAKES[0], catalog, use_edge_burnback=True)


def test_count_embeddings_repeatable(triples, catalog):
    """Repeated evaluations are deterministic and leave no stale state."""
    a = wireframe.count_embeddings(triples, DIAMONDS[0], catalog)
    b = wireframe.count_embeddings(triples, DIAMONDS[0], catalog)
    assert a == b > 0
