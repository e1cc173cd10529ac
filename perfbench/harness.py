"""One benchmark run: set-up, oracle, closed loop, and the traced pass.

Protocol of :func:`run_workload`:

1. Set-up (timed as ``setup_s``, from process start): Spark session
   start, ``yago_lite`` generation, a fresh ``triple_store`` write and
   read, ``build_catalog``.
2. Oracle (untimed): the expected result count of every query, from
   ``QueryGraph.to_sql()`` in DuckDB over the generated triples.
3. One warm-up evaluation of the workload's first item (untimed).
4. The timed closed loop: one client runs the workload's list in order,
   each evaluation starting when the previous count has returned, in whole
   passes until ``seconds`` of evaluation time have been measured. Every
   count is checked against the oracle.
5. With tracing on, every evaluation of the loop is paired with a traced
   one, whose spans give the per-layer metrics; then, untimed, one
   ``wireframe.run(instrument=True)`` per WF query for edge walks and
   q-error, and DuckDB intermediate-tuple counts per direct join.
"""
from __future__ import annotations

import json
import os
import re
import statistics
import time
import uuid
from dataclasses import asdict, dataclass, field

import duckdb
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from perfbench import session
from perfbench.spans import Span, Tracer, instrumented
from perfbench.workloads import Workload
from repro.baselines import BASELINES
from repro.core import wireframe
from repro.core.cardinality import Estimator
from repro.core.catalog import Catalog, build_catalog
from repro.core.queries_table1 import PAPER_TABLE1
from repro.core.query import QueryGraph
from repro.experiments.table1 import Timeout, run_with_timeout
from repro.experiments.workcount import baseline_work
from repro.rdf import triple_store
from repro.rdf.yago_lite import yago_lite_pdf

QUERIES: dict[str, QueryGraph] = {r.query.name: r.query for r in PAPER_TABLE1}

# One evaluation takes seconds; a minute means it hangs. A run also stops
# starting passes once this much wall time has gone, so that it always
# ends well within three minutes.
EVAL_TIMEOUT_S = 60.0
LOOP_WALL_LIMIT_S = 60.0

END_TO_END = (
    ("queries_per_s", "1/s"),
    ("latency_p50_s", "s"),
    ("setup_s", "s"),
)

PER_LAYER = (
    ("yago_lite.gen_s", "s"),
    ("triple_store.write_s", "s"),
    ("triple_store.bytes_per_triple", "B"),
    ("catalog.build_s", "s"),
    ("catalog.jobs", "count"),
    ("planner.plan_s", "s"),
    ("planner.est_walks", "count"),
    ("planner.actual_walks", "count"),
    ("planner.qerror_max", "ratio"),
    ("triangulate.wall_s", "s"),
    ("answer_graph.wall_s", "s"),
    ("answer_graph.jobs", "count"),
    ("answer_graph.stages", "count"),
    ("answer_graph.tasks", "count"),
    ("answer_graph.ag_edges", "count"),
    ("answer_graph.survival", "ratio"),
    ("answer_graph.rdds_left", "count"),
    ("defactorize.wall_s", "s"),
    ("defactorize.jobs", "count"),
    ("defactorize.stages", "count"),
    ("defactorize.tasks", "count"),
    ("defactorize.embeddings", "count"),
    ("direct_join.wall_s", "s"),
    ("direct_join.jobs", "count"),
    ("direct_join.stages", "count"),
    ("direct_join.tasks", "count"),
    ("direct_join.intermediate_tuples", "count"),
    ("wireframe.glue_s", "s"),
    ("spark.failed_tasks", "count"),
    ("spark.jvm_peak_rss_mb", "MB"),
    ("trace.overhead", "ratio"),
)

# Per-evaluation layer quantities of the traced loop: the median over an
# item's evaluations, summed over the workload's items.
_SUMMED = [
    "planner.plan_s", "triangulate.wall_s", "wireframe.glue_s", "spark.failed_tasks",
    "answer_graph.wall_s", "answer_graph.jobs", "answer_graph.stages",
    "answer_graph.tasks", "answer_graph.ag_edges", "answer_graph.rdds_left",
    "defactorize.wall_s", "defactorize.jobs", "defactorize.stages",
    "defactorize.tasks", "defactorize.embeddings",
    "direct_join.wall_s", "direct_join.jobs", "direct_join.stages", "direct_join.tasks",
]


@dataclass
class Sample:
    """One evaluation of one (query, system) item."""

    query: str
    system: str
    seconds: float
    count: int | None
    expected: int
    error: str | None = None
    layers: dict[str, float] = field(default_factory=dict)

    @property
    def failed(self) -> bool:
        return self.error is not None or self.count != self.expected


@dataclass
class Env:
    triples: DataFrame
    catalog: Catalog
    pdf: pd.DataFrame
    setup: dict[str, float]


def set_up(spark: SparkSession, sf: float, seed: int, workdir: str,
           tracer: Tracer | None = None) -> Env:
    """Generate the store fresh and build the catalog (never reuses a path)."""
    now = time.perf_counter
    t = now()
    pdf = yago_lite_pdf(sf=sf, seed=seed)
    gen_s = now() - t
    path = os.path.join(workdir, f"store-{uuid.uuid4().hex}")
    t = now()
    triple_store.write(spark.createDataFrame(pdf), path)
    triples = triple_store.read(spark, path)
    write_s = now() - t
    if tracer is None:
        t = now()
        catalog = build_catalog(triples)
        build_s = now() - t
        catalog_jobs = 0
    else:
        with tracer.span("catalog.build") as s:
            catalog = build_catalog(triples)
        build_s = s.seconds
        tracer.count_spark_work([s])
        catalog_jobs = s.jobs
    size = sum(
        os.path.getsize(os.path.join(d, f)) for d, _, fs in os.walk(path) for f in fs
    )
    return Env(triples, catalog, pdf, {
        "yago_lite.gen_s": gen_s,
        "triple_store.write_s": write_s,
        "triple_store.bytes_per_triple": size / len(pdf),
        "catalog.build_s": build_s,
        "catalog.jobs": catalog_jobs,
    })


def oracle_counts(pdf: pd.DataFrame, queries: set[str]) -> dict[str, int]:
    """Expected result count per query: ``QueryGraph.to_sql()`` in DuckDB.

    Each ``triples tN`` of the SQL reads a table holding only that edge's
    predicate (same rows as ``triples WHERE p = label``), so that DuckDB
    knows the exact input sizes and picks a sane join order.
    """
    con = duckdb.connect()
    try:
        con.register("triples_df", pdf)
        labels = {e.label for q in queries for e in QUERIES[q].edges}
        for lab in labels:
            con.execute(f'CREATE TABLE "p_{lab}" AS SELECT * FROM triples_df WHERE p = ?', [lab])
        out = {}
        for q in sorted(queries):
            edges = QUERIES[q].edges
            sql = re.sub(r"\btriples t(\d+)\b",
                         lambda m: f'"p_{edges[int(m[1])].label}" t{m[1]}',
                         QUERIES[q].to_sql())
            out[q] = con.execute(f"SELECT COUNT(*) FROM ({sql})").fetchone()[0]
        return out
    finally:
        con.close()


def _count(env: Env, q: str, system: str) -> int:
    if system == "WF":
        return wireframe.count_embeddings(env.triples, QUERIES[q], env.catalog)
    return BASELINES[system](env.triples, QUERIES[q], env.catalog).count()


def _traced_count(tracer: Tracer, env: Env, q: str, system: str) -> int:
    with tracer.evaluation(f"{q}/{system}"):
        if system == "WF":
            return wireframe.count_embeddings(env.triples, QUERIES[q], env.catalog)
        with tracer.span("direct_join.plan"):
            df = BASELINES[system](env.triples, QUERIES[q], env.catalog)
        return df.count()


def evaluate(spark: SparkSession, env: Env, q: str, system: str, expected: int,
             tracer: Tracer | None = None) -> Sample:
    """One full evaluation, timed, with its count checked."""
    fn = (lambda: _count(env, q, system)) if tracer is None else (
        lambda: _traced_count(tracer, env, q, system))
    t = time.perf_counter()
    try:
        n = run_with_timeout(spark, fn, EVAL_TIMEOUT_S)
        return Sample(q, system, time.perf_counter() - t, n, expected)
    except Timeout:
        return Sample(q, system, time.perf_counter() - t, None, expected, "timeout")
    except Exception as e:  # noqa: BLE001 - a failed evaluation is a result
        return Sample(q, system, time.perf_counter() - t, None, expected, repr(e))


def closed_loop(spark: SparkSession, env: Env, wl: Workload, expected: dict[str, int],
                seconds: float, tracer: Tracer | None = None
                ) -> tuple[list[Sample], list[Sample]]:
    """Whole passes over the workload's items until ``seconds`` of untraced
    evaluation time have been measured (at least one pass).

    With a tracer, every item is also evaluated traced, right after or
    right before its untraced evaluation (alternately), so that both see
    the same JVM warmth and their difference is the tracing overhead.
    Returns (untraced samples, traced samples).
    """
    timed: list[Sample] = []
    traced: list[Sample] = []
    start = time.perf_counter()
    while True:
        for q, system in wl.items:
            order = (False, True) if len(timed) % 2 == 0 else (True, False)
            for with_trace in order if tracer else (False,):
                if not with_trace:
                    timed.append(evaluate(spark, env, q, system, expected[q]))
                    continue
                before = spark.sparkContext._jsc.getPersistentRDDs().size()
                with instrumented(tracer):
                    s = evaluate(spark, env, q, system, expected[q], tracer)
                if s.error is None:
                    s.layers = layer_times(tracer, tracer._eval_id, s.seconds)
                    if system == "WF":
                        s.layers["answer_graph.rdds_left"] = (
                            spark.sparkContext._jsc.getPersistentRDDs().size() - before)
                        s.layers["defactorize.embeddings"] = s.count
                traced.append(s)
        if (sum(s.seconds for s in timed) >= seconds
                or time.perf_counter() - start >= LOOP_WALL_LIMIT_S):
            return timed, traced


def layer_times(tracer: Tracer, eval_id: int, wall: float) -> dict[str, float]:
    """Per-layer time and Spark work of one traced evaluation.

    Phase 2's joins run in the final ``count``: its time is the root span's
    self time outside ``run`` and ``unpersist``, and its jobs are those of
    the root span's own group. ``wireframe.glue_s`` is what no layer span
    covers. ``_sanity`` > 0 flags spans that do not fit their evaluation.
    """
    spans = tracer.eval_spans(eval_id)
    tracer.count_spark_work(spans)
    root = next(s for s in spans if s.parent is None)
    by: dict[str, list[Span]] = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)

    def tot(names: tuple[str, ...], attr: str = "seconds") -> float:
        return sum(getattr(s, attr) for n in names for s in by.get(n, ()))

    out = {k: 0.0 for k in _SUMMED}
    # Every span's children fit inside it, and the root inside the wall time.
    excess = max(0.0, root.seconds - wall)
    for p in spans:
        kids = sum(c.seconds for c in spans if c.parent == p.index)
        excess = max(excess, kids - p.seconds)
    out["_sanity"] = excess
    out["spark.failed_tasks"] = tot(tuple(by), "failed_tasks")
    if "wireframe.run" not in by:
        out["direct_join.wall_s"] = root.seconds
        for a in ("jobs", "stages", "tasks"):
            out[f"direct_join.{a}"] = tot(tuple(by), a)
        return out
    p1 = ("answer_graph.build", "answer_graph.edge_counts")
    p2 = ("defactorize.greedy_order", "defactorize.embeddings")
    final_count = root.seconds - tot(("wireframe.run", "wireframe.unpersist"))
    out["planner.plan_s"] = tot(("planner.plan",))
    out["triangulate.wall_s"] = tot(("triangulate",))
    out["answer_graph.wall_s"] = tot(p1)
    out["defactorize.wall_s"] = tot(p2) + final_count
    for a in ("jobs", "stages", "tasks"):
        out[f"answer_graph.{a}"] = tot(p1, a)
        out[f"defactorize.{a}"] = tot(p2, a) + getattr(root, a)
    out["answer_graph.ag_edges"] = sum(
        sum(s.result.values()) for s in by["answer_graph.edge_counts"]
    )
    out["wireframe.glue_s"] = root.seconds - sum(
        out[k] for k in ("planner.plan_s", "triangulate.wall_s",
                         "answer_graph.wall_s", "defactorize.wall_s")
    )
    return out


def walks_and_qerror(env: Env, q: str, expected: int) -> dict:
    """Untimed instrumented run: estimated against actual edge walks per
    plan step. ``instrument=True`` forces the fixpoint and extra counts,
    so it never enters a timed path."""
    query = QUERIES[q]
    r = wireframe.run(env.triples, query, env.catalog, instrument=True)
    try:
        est = Estimator(env.catalog, query)
        order = r.plan.order
        steps = [
            (est.extension_walks(frozenset(order[:k]), i), r.ag.extension_walks[i])
            for k, i in enumerate(order)
        ]
        return {
            "planner.est_walks": r.plan.cost,
            "planner.actual_walks": sum(a for _, a in steps),
            "planner.qerror_max": max(
                max((e + 1) / (a + 1), (a + 1) / (e + 1)) for e, a in steps
            ),
            "steps": steps,
            "order": list(order),
            "count_ok": r.embedding_count == expected,
        }
    finally:
        r.unpersist()


def _median_by_item(samples: list[Sample], key) -> dict[tuple[str, str], float]:
    groups: dict[tuple[str, str], list[float]] = {}
    for s in samples:
        groups.setdefault((s.query, s.system), []).append(key(s))
    return {k: statistics.median(v) for k, v in groups.items()}


def _jvm_peak_rss_mb() -> float:
    pid = session.jvm_pid()
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except (OSError, TypeError):
        pass
    return 0.0


def _commit(root: str) -> str:
    """The checkout's commit, read from ``.git`` inside it if there is one."""
    try:
        with open(os.path.join(root, ".git", "HEAD")) as f:
            head = f.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(root, ".git", head[5:])) as f:
                return f.read().strip()
        return head
    except OSError:
        return "unknown"


def run_record(spark: SparkSession, root: str, wl: Workload, sf: float, seed: int,
               seconds: float, trace: bool) -> dict:
    conf = spark.conf
    return {
        "commit": _commit(root),
        "nproc": os.cpu_count(),
        "spark_version": spark.version,
        "master": spark.sparkContext.master,
        "default_parallelism": spark.sparkContext.defaultParallelism,
        "shuffle_partitions": conf.get("spark.sql.shuffle.partitions"),
        "auto_broadcast_threshold": conf.get("spark.sql.autoBroadcastJoinThreshold"),
        "aqe_enabled": conf.get("spark.sql.adaptive.enabled"),
        "aqe_broadcast_threshold": conf.get(
            "spark.sql.adaptive.autoBroadcastJoinThreshold", None),
        "driver_memory": spark.sparkContext.getConf().get("spark.driver.memory", "unset"),
        "workload": wl.name,
        "sf": sf,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
    }


def traced_layers(env: Env, wl: Workload, expected: dict[str, int],
                  untraced: list[Sample], traced: list[Sample], log):
    """Per-layer metrics of a traced run, from its traced samples plus
    untimed walks, q-error and intermediate-tuple counts. Returns
    (per-layer metrics, per-item layers, instrumented runs that failed,
    whether every evaluation's spans fit inside its wall time)."""
    walks = {}
    walks_failed = 0
    for q in wl.wf_queries:
        try:
            walks[q] = walks_and_qerror(env, q, expected[q])
            walks_failed += not walks[q]["count_ok"]
        except Exception as e:  # noqa: BLE001 - reported as a failed evaluation
            log(f"[perfbench] instrumented {q} failed: {e!r}")
            walks_failed += 1
    work = {
        (q, s): baseline_work(env.pdf, QUERIES[q], env.catalog, s).total
        for q, s in wl.items if s != "WF"
    }
    sane = all(s.layers.pop("_sanity", 0.0) <= 1e-6 for s in traced)

    med = {k: _median_by_item(traced, lambda s, k=k: s.layers.get(k, 0.0)) for k in _SUMMED}
    per_item: dict[str, dict] = {}
    for q, system in dict.fromkeys(wl.items):
        wf = system == "WF"
        pq = {k: m[(q, system)] for k, m in med.items()
              if k.startswith("spark.") or wf != k.startswith("direct_join.")}
        if wf and q in walks:
            pq.update({k: v for k, v in walks[q].items() if k.startswith("planner.")})
        if not wf:
            pq["direct_join.intermediate_tuples"] = work[(q, system)]
        per_item[f"{q}/{system}"] = pq

    layers = dict(env.setup)
    layers.update({k: sum(m.values()) for k, m in med.items()})
    act = sum(w["planner.actual_walks"] for w in walks.values())
    layers["planner.est_walks"] = sum(w["planner.est_walks"] for w in walks.values())
    layers["planner.actual_walks"] = act
    layers["planner.qerror_max"] = max(
        (w["planner.qerror_max"] for w in walks.values()), default=0.0)
    layers["answer_graph.survival"] = layers["answer_graph.ag_edges"] / act if act else 0.0
    layers["direct_join.intermediate_tuples"] = sum(work.values())
    layers["spark.jvm_peak_rss_mb"] = _jvm_peak_rss_mb()
    layers["trace.overhead"] = (
        sum(_median_by_item(traced, lambda s: s.seconds).values())
        / sum(_median_by_item(untraced, lambda s: s.seconds).values()) - 1.0
    )
    for q, w in walks.items():
        log(f"[perfbench] plan {q}: order {w['order']}, (estimated, actual) walks "
            f"per step {[(round(e, 1), a) for e, a in w['steps']]}")
    return layers, per_item, walks_failed, sane


def run_workload(spark: SparkSession, wl: Workload, *, root: str, workdir: str,
                 seed: int, seconds: float, trace: bool, t0: float,
                 sf: float | None = None, expected: dict[str, int] | None = None,
                 log=print) -> tuple[dict, list[Sample]]:
    """One benchmark run: the result object printed as the last line, and
    every checked evaluation (timed loop, then traced loop).

    ``t0`` is the process start (``setup_s`` runs from it to the moment the
    first evaluation can run). ``expected`` replaces the DuckDB oracle.
    """
    sf = wl.sf if sf is None else sf
    tracer = Tracer(spark.sparkContext) if trace else None
    env = set_up(spark, sf, seed, workdir, tracer)
    setup_s = time.perf_counter() - t0
    record = run_record(spark, root, wl, sf, seed, seconds, trace)
    record["triples"] = len(env.pdf)
    t = time.perf_counter()
    if expected is None:
        expected = oracle_counts(env.pdf, {q for q, _ in wl.items})
    record["oracle_s"] = time.perf_counter() - t
    q0, s0 = wl.items[0]
    record["warmup_s"] = evaluate(spark, env, q0, s0, expected[q0]).seconds

    samples, traced = closed_loop(spark, env, wl, expected, seconds, tracer)
    times = [s.seconds for s in samples if s.error is None]
    result = {
        "queries_per_s": len(times) / sum(times) if times else 0.0,
        "latency_p50_s": statistics.median(times) if times else 0.0,
        "setup_s": setup_s,
    }
    checked = list(samples)
    failed, attempted, sane, per_item = 0, 0, True, {}
    if trace:
        layers, per_item, failed, sane = traced_layers(
            env, wl, expected, samples, traced, log)
        checked += traced
        attempted = len(wl.wf_queries)
        metrics = {n: {"value": layers[n], "unit": u} for n, u in PER_LAYER}
    else:
        metrics = {n: {"value": result[n], "unit": u} for n, u in END_TO_END}
    failed += sum(s.failed for s in checked)
    attempted += len(checked)
    for s in checked:
        if s.failed:
            log(f"[perfbench] FAILED {s.query}/{s.system}: count={s.count} "
                f"expected={s.expected} error={s.error}")
    if not sane:
        log("[perfbench] FAILED trace sanity: layer spans exceed an evaluation's wall time")

    record["evaluations"] = len(samples)
    record["samples_per_item"] = len(samples) // len(wl.items)
    log(f"[perfbench] record {json.dumps(record, sort_keys=True)}")
    log(f"[perfbench] setup_s = {setup_s:.4f} s (n=1; "
        + ", ".join(f"{k}={v:.4g}" for k, v in env.setup.items()) + ")")
    log(f"[perfbench] queries_per_s = {result['queries_per_s']:.4f} 1/s (n={len(times)})")
    log(f"[perfbench] latency_p50_s = {result['latency_p50_s']:.4f} s (n={len(times)})")
    log(f"[perfbench] failed_frac = {failed / attempted:.4f} ratio ({failed}/{attempted})")
    for (q, s), t in _median_by_item(samples, lambda s: s.seconds).items():
        log(f"[perfbench]   {q}/{s}: median {t:.4f} s, count {expected[q]}")
    for item, pq in per_item.items():
        log(f"[perfbench] layers {item} "
            + json.dumps({k: round(v, 4) for k, v in pq.items()}, sort_keys=True))

    out = {"correct": failed == 0 and sane, "attempted": attempted, "failed": failed,
           "metrics": metrics}
    _store(root, record, out, checked, per_item, tracer)
    return out, checked


def _store(root, record, out, samples, per_item, tracer) -> None:
    """Write the run record, samples and spans under ``.perfbench_work``."""
    d = os.path.join(root, ".perfbench_work", "results")
    os.makedirs(d, exist_ok=True)
    stem = (f"{record['workload']}-seed{record['seed']}-trace{record['trace']}-"
            f"{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    with open(os.path.join(d, stem + ".json"), "w") as f:
        json.dump({"record": record, "result": out,
                   "samples": [asdict(s) for s in samples],
                   "per_item": per_item}, f, indent=1, default=str)
    if tracer is not None:
        with open(os.path.join(d, stem + ".spans.jsonl"), "w") as f:
            for s in tracer.spans:
                f.write(json.dumps(asdict(s)) + "\n")
