"""Table-1 harness: timing protocol, timeouts, markdown formatting."""
from __future__ import annotations

import threading
import time

import pytest
from pyspark.sql import functions as F

from repro import oracle
from repro.core import answer_graph, wireframe
from repro.core.queries_table1 import PAPER_TABLE1
from repro.experiments import table1 as t1
from repro.rdf.yago_lite import yago_lite_pdf


def test_run_with_timeout_returns_value(spark):
    assert t1.run_with_timeout(spark, lambda: 41 + 1, timeout_s=10) == 42


def test_run_with_timeout_propagates_errors(spark):
    with pytest.raises(RuntimeError, match="boom"):
        t1.run_with_timeout(spark, lambda: (_ for _ in ()).throw(RuntimeError("boom")), 10)


def test_run_with_timeout_times_out(spark):
    t0 = time.perf_counter()
    with pytest.raises(t1.Timeout):
        t1.run_with_timeout(spark, lambda: time.sleep(30), timeout_s=0.5)
    assert time.perf_counter() - t0 < 10


def test_timed_out_cell_launches_no_more_jobs(spark):
    """After ``Timeout`` the cell's group starts no job, even between jobs."""
    sc = spark.sparkContext
    box: dict = {}
    stop = threading.Event()

    def fn():
        box["gid"] = sc.getLocalProperty("spark.jobGroup.id")
        while not stop.is_set():
            spark.range(100).count()
            time.sleep(0.05)

    try:
        with pytest.raises(t1.Timeout):
            t1.run_with_timeout(spark, fn, timeout_s=1.0)
        tracker = sc.statusTracker()
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        seen = set(tracker.getJobIdsForGroup(box["gid"]))
        assert seen
        time.sleep(1.0)
        sc._jsc.sc().listenerBus().waitUntilEmpty()
        assert set(tracker.getJobIdsForGroup(box["gid"])) == seen
        assert not seen & set(tracker.getActiveJobsIds())
    finally:
        stop.set()


def test_timed_out_wf_cell_releases_checkpoints(spark, triples, catalog, monkeypatch):
    """A WF cell cancelled mid-build by the timeout leaves no checkpoint."""
    persistent = spark.sparkContext._jsc.getPersistentRDDs
    before = persistent().size()
    semi = answer_graph._semi
    calls: list[int] = []
    stalled = threading.Event()

    def stalling_semi(df, rel, var):
        calls.append(persistent().size() - before)
        if len(calls) == 6:  # a job that outlives the budget, then is cancelled
            stalled.set()
            spark.range(1).rdd.map(lambda x: time.sleep(60) or x).count()
        return semi(df, rel, var)

    monkeypatch.setattr(answer_graph, "_semi", stalling_semi)
    with pytest.raises(t1.Timeout):
        t1.run_with_timeout(
            spark, lambda: wireframe.count_embeddings(triples, PAPER_TABLE1[5].query, catalog), 5
        )
    assert stalled.is_set() and calls[-1] > 0
    assert persistent().size() == before


def test_time_cell_wf_returns_count(spark, triples, catalog, triples_pdf):
    row = PAPER_TABLE1[5]  # D6, cheap
    secs, n = t1.time_cell(
        spark, "WF", triples, row.query, catalog, timeout_s=300, rounds=1
    )
    assert n == oracle.count(triples_pdf, row.query)
    assert secs is not None and secs > 0


def test_time_cell_timeout_gives_star(spark, triples, catalog):
    row = PAPER_TABLE1[0]
    secs, n = t1.time_cell(
        spark, "PG", triples, row.query, catalog, timeout_s=0.01, rounds=1
    )
    assert secs is None and n is None


def test_instrument_row(spark, triples, catalog):
    ag_n, emb_n, work = t1.instrument_row(triples, PAPER_TABLE1[5].query, catalog)
    assert ag_n > 0 and emb_n > 0
    assert work.total >= work.peak > 0


def test_prepare_keys_store_and_catalog_on_seed(spark, tmp_path):
    """A second seed in the same workdir gets its own data, not the cache."""
    for seed in (42, 7):
        store, catalog = t1.prepare(spark, sf=0.01, seed=seed, workdir=str(tmp_path))
        pdf = yago_lite_pdf(sf=0.01, seed=seed)
        assert store.count() == len(pdf), seed
        assert store.agg(F.sum("s")).first()[0] == pdf["s"].sum(), seed
        assert catalog.n == pdf.groupby("p").size().to_dict(), seed
        assert catalog.ds == pdf.groupby("p")["s"].nunique().to_dict(), seed


def test_run_table1_smoke_and_markdown(spark, triples, catalog):
    conf_before = spark.conf.getAll
    rows = t1.run_table1(
        spark,
        triples,
        catalog,
        rows=(PAPER_TABLE1[5], PAPER_TABLE1[8]),
        systems=("WF", "NJ"),
        timeout_s=300,
        rounds=1,
        verbose=False,
    )
    assert spark.conf.getAll == conf_before  # the caller's session is untouched
    assert len(rows) == 2
    for m in rows:
        assert m.counts["WF"] == m.counts["NJ"] == m.embeddings
        assert m.times["WF"] is not None and m.times["NJ"] is not None
    md = t1.format_markdown(rows, timeout_s=300)
    assert "| Q | shape |" in md
    assert "D6" in md and "D9" in md
    assert "paper 103" in md  # D6's paper WF time
    assert "paper ?" in md  # D9 is a mined substitute with unknown paper numbers


def test_format_markdown_star_for_timeouts():
    m = t1.MeasuredRow(
        PAPER_TABLE1[0].query,
        "snowflake",
        {s: None for s in t1.SYSTEMS},
        ag_triples=1,
        embeddings=2,
        paper=PAPER_TABLE1[0],
    )
    md = t1.format_markdown([m], timeout_s=60)
    assert "* (paper 51)" in md
