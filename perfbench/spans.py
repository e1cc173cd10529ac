"""Spans around the public calls into each layer, with Spark work per span.

The traced run wraps, from the benchmark's side, the names that
``wireframe.run`` and ``wireframe.count_embeddings`` resolve at call time,
so the traced path runs the same program code as the timed path. Each
span runs under its own Spark job group (the parent's group is restored
on exit); jobs, stages and tasks per span are read afterwards through
``sparkContext.statusTracker()``, outside every timed region. Spans are
kept in memory and written out when the run ends.

Spark is lazy, so time is attributed by call boundary: phase-1 jobs fire
inside ``build_answer_graph`` (``localCheckpoint`` plans) and
``edge_counts``; phase 2's joins fire in the final ``count`` of
``count_embeddings``, i.e. in the evaluation span's own job group after
``run`` has returned.
"""
from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from pyspark import SparkContext

from repro.core import answer_graph, defactorize, wireframe

# Local properties that make up a Spark job group.
_GROUP_KEYS = ("spark.jobGroup.id", "spark.job.description", "spark.job.interruptOnCancel")


@dataclass
class Span:
    name: str
    index: int
    eval_id: int
    parent: int | None
    group: str
    start: float
    end: float = 0.0
    jobs: int = 0
    stages: int = 0
    tasks: int = 0
    failed_tasks: int = 0
    result: object = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Records spans of one process; one instance per traced run."""

    sc: SparkContext
    spans: list[Span] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _eval_id: int = -1

    @contextmanager
    def span(self, name: str):
        saved = [self.sc.getLocalProperty(k) for k in _GROUP_KEYS]
        idx = len(self.spans)
        s = Span(
            name,
            idx,
            self._eval_id,
            self._stack[-1] if self._stack else None,
            f"perfbench-{idx}",
            0.0,
        )
        self.spans.append(s)
        self._stack.append(idx)
        self.sc.setJobGroup(s.group, name, False)
        s.start = time.perf_counter()
        try:
            yield s
        finally:
            s.end = time.perf_counter()
            self._stack.pop()
            for k, v in zip(_GROUP_KEYS, saved):
                self.sc.setLocalProperty(k, v)

    @contextmanager
    def evaluation(self, name: str):
        """Root span of one evaluation; its spans share an ``eval_id``."""
        self._eval_id += 1
        with self.span(name) as s:
            yield s

    def wrap(self, name: str, fn, keep_result: bool = False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as s:
                out = fn(*args, **kwargs)
                if keep_result:
                    s.result = out
                return out

        return traced

    def count_spark_work(self, spans: list[Span]) -> None:
        """Fill jobs/stages/tasks of ``spans`` from the status tracker.

        Waits for the listener bus to drain first, so that every job the
        spans launched is known to the tracker. Stages count every stage of
        the span's jobs, skipped ones included (as the Spark UI lists them);
        tasks count only the tasks that ran.
        """
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        tracker = self.sc.statusTracker()
        for s in spans:
            jobs = tracker.getJobIdsForGroup(s.group)
            s.jobs = len(jobs)
            s.stages = s.tasks = s.failed_tasks = 0
            for jid in jobs:
                info = tracker.getJobInfo(jid)
                for sid in info.stageIds if info else ():
                    s.stages += 1
                    st = tracker.getStageInfo(sid)
                    if st is not None:
                        s.tasks += st.numCompletedTasks
                        s.failed_tasks += st.numFailedTasks

    def eval_spans(self, eval_id: int) -> list[Span]:
        return [s for s in self.spans if s.eval_id == eval_id]


# (owner, attribute, span name, keep result): every name a WF evaluation
# resolves at call time, i.e. the public entry point of each layer it
# crosses. Only the AG edge sizes are kept; holding on to DataFrames would
# keep their cached blocks alive and change what is measured.
WF_ENTRY_POINTS = (
    (wireframe, "plan", "planner.plan", False),
    (wireframe, "triangulate_query", "triangulate", False),
    (answer_graph, "build_answer_graph", "answer_graph.build", False),
    (answer_graph.AnswerGraph, "edge_counts", "answer_graph.edge_counts", True),
    (defactorize, "greedy_order", "defactorize.greedy_order", False),
    (defactorize, "embeddings", "defactorize.embeddings", False),
    (wireframe, "run", "wireframe.run", False),
    (wireframe.WireframeRun, "unpersist", "wireframe.unpersist", False),
)


@contextmanager
def instrumented(tracer: Tracer):
    """Wrap every WF entry point in a span for the duration of the block."""
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in WF_ENTRY_POINTS]
    try:
        for owner, attr, name, keep in WF_ENTRY_POINTS:
            setattr(owner, attr, tracer.wrap(name, owner.__dict__[attr], keep))
        yield tracer
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
