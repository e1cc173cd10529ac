"""Table-1 harness: run the 10-query workload on WF and the 4 baselines.

Protocol mirrors the paper at reduced scale: per (query, system) cell,
one warm-up execution then the mean of ``rounds`` timed executions of the
*full* evaluation (retrieving/counting all result tuples); cells
exceeding ``timeout_s`` are reported as ``None`` and printed ``*``. An
additional untimed instrumented WIREFRAME pass per query collects the AG
size (node-burnback fixpoint, matching the paper's AG/iAG column) and the
embedding count. :func:`prepare` writes (or reuses) the Parquet store and
catalog a run measures.
"""
from __future__ import annotations

import os
import threading
import time
import uuid
from dataclasses import dataclass, field

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.baselines import BASELINES
from repro.core import wireframe
from repro.core.catalog import Catalog, build_catalog
from repro.core.query import QueryGraph
from repro.core.queries_table1 import PAPER_TABLE1, PaperRow
from repro.experiments.workcount import Work, baseline_work, wireframe_work
from repro.rdf import triple_store
from repro.rdf.yago_lite import yago_lite

SYSTEMS = ("PG", "WF", "VT", "MD", "NJ")


def prepare(
    spark: SparkSession, *, sf: float, seed: int, workdir: str
) -> tuple[DataFrame, Catalog]:
    """Parquet triple store + catalog for a run, cached in ``workdir``
    under names that carry both the scale factor and the seed."""
    os.makedirs(workdir, exist_ok=True)
    tag = f"sf{sf}_seed{seed}"
    store = os.path.join(workdir, f"yago_{tag}")
    triples = triple_store.materialize(spark, yago_lite(spark, sf=sf, seed=seed), store)
    cat_path = os.path.join(workdir, f"catalog_{tag}.json")
    if os.path.exists(cat_path):
        catalog = Catalog.from_json(cat_path)
    else:
        catalog = build_catalog(triples)
        catalog.to_json(cat_path)
    return triples, catalog


class Timeout(Exception):
    """Raised internally when a cell exceeds the budget."""


def run_with_timeout(spark: SparkSession, fn, timeout_s: float):
    """Run ``fn()`` (which may launch many Spark jobs) with a wall-clock
    budget; on timeout the call's job group is cancelled together with
    every job it would still submit, and ``Timeout`` is raised.
    """
    gid = f"table1-{uuid.uuid4().hex[:8]}"
    sc = spark.sparkContext
    box: dict = {}

    def work() -> None:
        sc.setJobGroup(gid, "table1 cell", True)
        try:
            box["value"] = fn()
        except Exception as e:  # noqa: BLE001 - transported to caller
            box["error"] = e
        finally:
            sc.setJobGroup("", "")

    th = threading.Thread(target=work, daemon=True)
    th.start()
    th.join(timeout_s)
    if th.is_alive():
        # cancelJobGroup alone stops only running jobs; fn() keeps going
        # in its thread and would start the next one.
        sc._jsc.sc().cancelJobGroupAndFutureJobs(gid)
        th.join(5)  # short grace period; cancelled jobs die asynchronously
        raise Timeout
    if "error" in box:
        raise box["error"]
    return box["value"]


def _make_runner(system: str, triples: DataFrame, query: QueryGraph, catalog: Catalog):
    """A zero-arg callable that evaluates the query fully and returns the
    number of result tuples."""
    if system == "WF":
        return lambda: wireframe.count_embeddings(triples, query, catalog)
    baseline = BASELINES[system]
    return lambda: baseline(triples, query, catalog).count()


def time_cell(
    spark: SparkSession,
    system: str,
    triples: DataFrame,
    query: QueryGraph,
    catalog: Catalog,
    *,
    timeout_s: float,
    rounds: int,
) -> tuple[float | None, int | None]:
    """(mean seconds or None on timeout, result count from the last run)."""
    runner = _make_runner(system, triples, query, catalog)
    try:
        run_with_timeout(spark, runner, timeout_s)  # warm-up
        times, n = [], None
        for _ in range(rounds):
            t0 = time.perf_counter()
            n = run_with_timeout(spark, runner, timeout_s)
            times.append(time.perf_counter() - t0)
        return sum(times) / len(times), n
    except Timeout:
        return None, None


@dataclass
class MeasuredRow:
    """One measured Table-1 row (paper numbers attached for diffing)."""

    query: QueryGraph
    shape: str
    times: dict[str, float | None]
    ag_triples: int | None = None
    embeddings: int | None = None
    counts: dict[str, int | None] = field(default_factory=dict)
    paper: PaperRow | None = None
    work: dict[str, Work] = field(default_factory=dict)  # incl. "WF"


def instrument_row(
    triples: DataFrame, query: QueryGraph, catalog: Catalog
) -> tuple[int, int, Work]:
    """(AG size at node-burnback fixpoint, #embeddings, WF work) — untimed."""
    r = wireframe.run(triples, query, catalog, instrument=True)
    try:
        assert r.ag_triples is not None and r.embedding_count is not None
        work = wireframe_work(r.ag_edge_counts, r.ag.extension_walks)
        return r.ag_triples, r.embedding_count, work
    finally:
        r.unpersist()


def run_table1(
    spark: SparkSession,
    triples: DataFrame,
    catalog: Catalog,
    *,
    rows: tuple[PaperRow, ...] = PAPER_TABLE1,
    systems: tuple[str, ...] = SYSTEMS,
    timeout_s: float = 120.0,
    rounds: int = 2,
    verbose: bool = True,
    triples_pdf: pd.DataFrame | None = None,
) -> list[MeasuredRow]:
    """Measure every (row, system) cell plus the instrumented AG columns.

    ``triples_pdf`` (same triples as pandas) additionally enables the
    exact intermediate-tuple work profiles (DuckDB-computed).
    """
    out: list[MeasuredRow] = []
    for row in rows:
        q = row.query
        ag_n, emb_n, wf_work = instrument_row(triples, q, catalog)
        m = MeasuredRow(q, row.shape, {}, ag_n, emb_n, paper=row)
        m.work["WF"] = wf_work
        for system in systems:
            t, n = time_cell(
                spark, system, triples, q, catalog, timeout_s=timeout_s, rounds=rounds
            )
            m.times[system] = t
            m.counts[system] = n
            if triples_pdf is not None and system in BASELINES:
                m.work[system] = baseline_work(triples_pdf, q, catalog, system)
            if verbose:
                shown = "*" if t is None else f"{t:.2f}s"
                print(f"[table1] {q.name} {system}: {shown} (n={n})", flush=True)
        out.append(m)
    return out


def _fmt_time(t: float | None) -> str:
    return "*" if t is None else f"{t:.2f}"


def _fmt_paper(t: float | None, known: bool) -> str:
    if not known:
        return "?"
    return "*" if t is None else f"{t:g}"


def format_markdown(rows: list[MeasuredRow], *, timeout_s: float) -> str:
    """Paper-vs-measured Table 1 as markdown (for EXPERIMENTS.md)."""
    lines = [
        "| Q | shape | labels | PG | WF | VT | MD | NJ | AG | Embeddings |",
        "|---|---|---|---|---|---|---|---|---|---|",
    ]
    for m in rows:
        p = m.paper
        known = p is not None and p.embeddings is not None
        cells = [
            m.query.name,
            m.shape,
            "/".join(m.query.labels),
        ]
        for system, paper_t in zip(
            SYSTEMS, (p.pg, p.wf, p.vt, p.md, p.nj) if p else (None,) * 5
        ):
            cells.append(
                f"{_fmt_time(m.times.get(system))} (paper {_fmt_paper(paper_t, known)})"
            )
        cells.append(f"{m.ag_triples} (paper {p.ag_size if known else '?'})")
        cells.append(f"{m.embeddings} (paper {p.embeddings if known else '?'})")
        lines.append("| " + " | ".join(str(c) for c in cells) + " |")
    lines.append("")
    lines.append(f"`*` = cell exceeded the {timeout_s:.0f} s budget "
                 "(paper budget: 300 s). Times in seconds.")
    return "\n".join(lines)


def format_work_markdown(rows: list[MeasuredRow]) -> str:
    """Intermediate-tuple work table (the scheduler-independent shape)."""
    lines = [
        "| Q | WF work (edge walks + AG) | PG interm. | VT interm. | "
        "MD interm. | NJ interm. | best-baseline / WF |",
        "|---|---|---|---|---|---|---|",
    ]
    for m in rows:
        if "WF" not in m.work:
            continue
        wf = m.work["WF"].total
        cells = [m.query.name, f"{wf:,}"]
        totals = []
        for s in ("PG", "VT", "MD", "NJ"):
            w = m.work.get(s)
            cells.append("-" if w is None else f"{w.total:,} (peak {w.peak:,})")
            if w is not None:
                totals.append(w.total)
        ratio = (min(totals) / wf) if totals and wf else float("nan")
        cells.append(f"{ratio:,.1f}x")
        lines.append("| " + " | ".join(cells) + " |")
    lines.append("")
    lines.append(
        "Work = tuples materialized before the final result: every "
        "predicate scan and intermediate join result of the join tree for "
        "the direct baselines (exact, DuckDB); "
        "retrieved edge walks + reduced AG relations for WIREFRAME."
    )
    return "\n".join(lines)
