"""WIREFRAME: the end-to-end two-phase, cost-based CQ evaluator.

Ties the pieces together exactly as the paper's Figure 3 describes:

1. **Edgifier** plans a left-deep query-edge order from the catalog
   (:mod:`repro.core.planner`); a cyclic query evaluated with edge
   burnback additionally gets a **Triangulator** chordification
   (:mod:`repro.core.triangulate`).
2. **Answer-graph generation** reduces the plan's edge relations with
   edge extension and cascading node burnback, one bottom-up and one
   top-down semijoin pass over the plan's spanning tree
   (:mod:`repro.core.answer_graph`); optionally edge burnback for cyclic
   queries (off by default — the paper's experiments run without it).
3. **Defactorizer** greedily joins the reduced AG edge relations into
   the embedding tuples (:mod:`repro.core.defactorize`).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from pyspark.sql import DataFrame

from repro.core import answer_graph as agmod
from repro.core import defactorize
from repro.core.catalog import Catalog
from repro.core.planner import Plan, plan
from repro.core.query import QueryGraph
from repro.core.triangulate import Triangulation, triangulate_query


@dataclass
class WireframeRun:
    """Everything one evaluation produced (embeddings left lazy)."""

    query: QueryGraph
    plan: Plan
    triangulation: Triangulation | None  # set only under edge burnback
    ag: agmod.AnswerGraph
    embedding_df: DataFrame
    # instrumentation (filled only when requested)
    ag_edge_counts: dict[int, int] = field(default_factory=dict)
    ag_triples: int | None = None
    embedding_count: int | None = None

    def unpersist(self) -> None:
        self.ag.unpersist()


def run(
    triples: DataFrame,
    query: QueryGraph,
    catalog: Catalog,
    *,
    use_edge_burnback: bool = False,
    instrument: bool = False,
) -> WireframeRun:
    """Plan and evaluate ``query``; returns the lazy embedding DataFrame
    plus the phase-1 artifacts.

    Phase 1 yields the AG the paper reports: the iAG for a tree CQ, the
    node-burnback fixpoint for a cyclic one (unless edge burnback is
    requested). ``instrument=True`` additionally counts the plan-order
    extension sizes (edge walks), and keeps the AG edge counts, the AG
    triple count and the embedding count (the Table-1 columns). If the
    evaluation raises, the AG's checkpoints are released before the error
    propagates.
    """
    p = plan(query, catalog)
    tri = triangulate_query(query, catalog) if use_edge_burnback else None
    if use_edge_burnback and tri is None:
        raise ValueError("edge burnback only applies to cyclic queries")
    # The build releases its own checkpoints if it raises.
    ag = agmod.build_answer_graph(triples, query, p.order, instrument=instrument)
    try:
        if use_edge_burnback:
            ag = agmod.edge_burnback(ag, tri)
        sizes = ag.edge_counts()  # phase-1 statistics drive the greedy phase 2
        order = defactorize.greedy_order(ag, sizes)
        emb = defactorize.embeddings(ag, order)

        run_ = WireframeRun(query, p, tri, ag, emb)
        if instrument:
            run_.ag_edge_counts = sizes
            run_.ag_triples = ag.triple_count()
            run_.embedding_count = emb.count()
    except BaseException:
        ag.unpersist()
        raise
    return run_


def count_embeddings(
    triples: DataFrame, query: QueryGraph, catalog: Catalog, **kw
) -> int:
    """Evaluate fully and return the number of embeddings; releases caches."""
    r = run(triples, query, catalog, **kw)
    try:
        return r.embedding_df.count()
    finally:
        r.unpersist()
