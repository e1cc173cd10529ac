"""Answer-graph generation: edge extension + node burnback (+ edge burnback).

Phase 1 of the paper's evaluation model. Each query edge is materialized
as the data edges that satisfy the join constraints with the rest of the
answer graph (*edge extension*); nodes that fail to extend are removed,
removals cascading through every edge that touches them (*node burnback*).

For a tree CQ the result is the full semijoin reduction — the **ideal
answer graph** (iAG) — which, as in Yannakakis' algorithm, one bottom-up
and one top-down pass over a rooted spanning tree reach. The tree comes
from the plan: the first plan edge's source variable is the root, each
later edge hangs off the bound variable through which it joins, and an
edge whose two variables are already bound is a *non-tree* edge. Every
variable is *owned* by the plan edge that binds it first. One round:

* bottom-up, in reverse plan order: each edge is semijoined, on each
  variable it owns, with every other incident edge (its child edges and
  the non-tree edges there);
* top-down, in plan order: each edge is semijoined, on each variable it
  does not own, with that variable's owner (its parent; for a non-tree
  edge, both endpoints).

That is 2(k−1) semijoins for a k-edge tree. A cyclic CQ repeats the round
until the edge counts stop changing: then all edges at a variable agree
on its node set, the node-burnback fixpoint the paper reports — possibly
with spurious edges (its Fig. 4), never without an embedding's edge.
Every rewritten relation is ``localCheckpoint``-ed once.

``edge_burnback`` implements the paper's §4 edge-burnback mechanism over
a triangulated cycle: chords are maintained as intersections of the
join-projections of their triangles' opposite sides, and every side is
semijoined against the join of the other two, to fixpoint — restoring the
iAG for cyclic CQs (the paper describes this but evaluates without it;
our Table-1 harness follows the paper and disables it).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, field

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from repro.core.query import QueryGraph
from repro.core.triangulate import Triangulation
from repro.rdf import triple_store


def _union(parts: list[DataFrame]) -> DataFrame:
    return functools.reduce(DataFrame.unionByName, parts)


def _row_counts(rels: list[DataFrame]) -> list[int]:
    """Row count of every relation in one Spark job (a tagged union +
    groupBy): per-action overhead dominates at small AG sizes."""
    tagged = _union([df.select(F.lit(i).alias("__rel")) for i, df in enumerate(rels)])
    counts = [0] * len(rels)
    for r in tagged.groupBy("__rel").count().collect():
        counts[r["__rel"]] = r["count"]
    return counts


@dataclass
class AnswerGraph:
    """Phase-1 output: one reduced edge relation per query edge.

    ``edges[i]`` has exactly two columns named after the i-th query
    edge's variables (subject column first).
    """

    query: QueryGraph
    edges: dict[int, DataFrame]
    order: tuple[int, ...]
    extension_walks: dict[int, int] = field(default_factory=dict)
    # Edge counts taken by the last fixpoint check, valid until the edges change.
    _sizes: dict[int, int] | None = None
    _persisted: list[DataFrame] = field(default_factory=list)

    def edge_counts(self) -> dict[int, int]:
        """Materialized size of each reduced edge relation.

        A cyclic CQ's fixpoint loop has already counted them; otherwise
        this costs one Spark job for all edges.
        """
        if self._sizes is None:
            return dict(zip(self.edges, _row_counts(list(self.edges.values()))))
        return dict(self._sizes)

    def triple_count(self) -> int:
        """#distinct data-graph triples in the AG (the paper's AG size).

        Two query edges with the same label can match the same data edge;
        the AG is a sub*graph*, so those count once.
        """
        return _union([
            df.select(
                F.col(self.query.edges[i].src).alias("s"),
                F.lit(self.query.edges[i].label).alias("p"),
                F.col(self.query.edges[i].dst).alias("o"),
            )
            for i, df in self.edges.items()
        ]).distinct().count()

    def persist(self, df: DataFrame) -> DataFrame:
        """Cache *and truncate the lineage of* an intermediate relation.

        Without truncation each relation's plan embeds the plans of every
        relation it was reduced by, and Catalyst analysis time grows with
        each pass. ``eager=False`` keeps laziness so untimed work is never
        forced early.
        """
        out = df.localCheckpoint(eager=False)
        self._persisted.append(out)
        return out

    def unpersist(self) -> None:
        """Release every checkpoint this AG made.

        ``DataFrame.unpersist()`` does not free a ``localCheckpoint``
        output: its blocks belong to the checkpointed RDD inside the
        plan's ``LogicalRDD`` leaf, which is released directly.
        """
        for df in self._persisted:
            df._jdf.queryExecution().logical().rdd().unpersist(False)
        self._persisted.clear()


def _scan(triples: DataFrame, query: QueryGraph, i: int) -> DataFrame:
    e = query.edges[i]
    return triple_store.scan(triples, e.label).select(
        F.col("s").alias(e.src), F.col("o").alias(e.dst)
    )


def _semi(df: DataFrame, rel: DataFrame, var: str) -> DataFrame:
    """Semijoin ``df`` with ``rel``'s projection onto ``var``.

    The projection is bounded by the AG size — the very quantity the
    paper shows to be tiny — so it is broadcast explicitly and burnback
    never shuffles the edge relations. A broadcast left-semi build side
    ignores duplicate keys, so no ``distinct()`` (a shuffle stage and a
    second job) is needed. (The session disables *automatic* broadcasting
    so the baselines' large data-data joins exercise the shuffle path;
    this hint is the WF operator design, not a global setting.)"""
    return df.join(F.broadcast(rel.select(var)), on=var, how="left_semi")


def _round(ag: AnswerGraph, owner: dict[str, int]) -> None:
    """One bottom-up + one top-down pass (see the module docstring)."""
    q = ag.query
    for i in reversed(ag.order):
        df = ag.edges[i]
        for v in q.edges[i].vars():
            if owner[v] == i:
                for j in q.incident(v):
                    if j != i:
                        df = _semi(df, ag.edges[j], v)
        if df is not ag.edges[i]:
            ag.edges[i] = ag.persist(df)
    for i in ag.order:
        df = ag.edges[i]
        for v in q.edges[i].vars():
            if owner[v] != i:
                df = _semi(df, ag.edges[owner[v]], v)
        if df is not ag.edges[i]:
            ag.edges[i] = ag.persist(df)


def _burnback(ag: AnswerGraph) -> None:
    """Node burnback: one round for a tree CQ (the iAG), rounds until the
    edge counts stop changing for a cyclic one (the fixpoint)."""
    owner: dict[str, int] = {}
    for i in ag.order:
        for v in ag.query.edges[i].vars():
            owner.setdefault(v, i)
    ag._sizes = prev = None
    while True:
        _round(ag, owner)
        if ag.query.is_tree():
            return
        cur = _row_counts([ag.edges[i] for i in ag.order])
        if cur == prev:
            ag._sizes = dict(zip(ag.order, cur))
            return
        prev = cur


def build_answer_graph(
    triples: DataFrame,
    query: QueryGraph,
    order: tuple[int, ...] | None = None,
    *,
    instrument: bool = False,
) -> AnswerGraph:
    """Run phase 1 and return the (persisted) answer graph: the iAG for a
    tree CQ, the node-burnback fixpoint for a cyclic one. If the build
    raises, every checkpoint it made is released first.

    ``order`` must be a connected left-deep order (defaults to textual
    order); it fixes the spanning tree. ``instrument`` records the
    paper's *edge walks*: each edge's plan-order extension size, its scan
    semijoined with the latest extended edge at each bound variable. The
    reduction then starts from those extensions; the AG is the same.
    """
    k = len(query.edges)
    order = tuple(order) if order is not None else tuple(range(k))
    if not query.is_connected_order(list(order)):
        raise ValueError(f"not a connected left-deep order for {query.name}: {order}")

    ag = AnswerGraph(query, {i: _scan(triples, query, i) for i in order}, order)
    try:
        if instrument:
            latest: dict[str, DataFrame] = {}
            for i in order:
                df = ag.edges[i]
                for v in query.edges[i].vars():
                    if v in latest:
                        df = _semi(df, latest[v], v)
                df = ag.edges[i] = ag.persist(df)
                ag.extension_walks[i] = df.count()
                latest.update((v, df) for v in query.edges[i].vars())
        _burnback(ag)
    except BaseException:
        # A checkpoint is registered as soon as it is made, and the
        # semijoins' broadcasts run jobs mid-build: an error or a
        # cancelled job group must not leave the checkpoints behind.
        ag.unpersist()
        raise
    return ag


# ---------------------------------------------------------------------------
# Edge burnback over a triangulated cycle (paper §4, beyond their experiments)
# ---------------------------------------------------------------------------


def _side_relation(ag: AnswerGraph, u: str, w: str) -> DataFrame | None:
    """The AG relation for cycle side (u, w), as a two-column DF, if (u, w)
    is a query edge (in either direction)."""
    for i, e in enumerate(ag.query.edges):
        if {e.src, e.dst} == {u, w}:
            return ag.edges[i].select(u, w)
    return None


def edge_burnback(
    ag: AnswerGraph,
    tri: Triangulation,
    *,
    max_rounds: int = 10,
) -> AnswerGraph:
    """Cull spurious edges from a cyclic CQ's AG, restoring the iAG.

    Chords are materialized as the intersection over their triangles of
    the join-projection of the opposite two sides; then every triangle
    side is semijoined with the join of the other two sides, iterating to
    fixpoint; finally node burnback re-cascades the shrunken node sets.
    Only single-cycle queries (our diamonds) are supported; a CQ with more
    than one independent cycle raises ``ValueError``.
    """
    query = ag.query
    cycles = len(query.edges) - len(query.variables) + 1
    if cycles > 1:
        raise ValueError(
            f"edge burnback supports single-cycle CQs; {query.name} has {cycles} cycles"
        )

    # side registry: var pair -> relation; query edges first, then chords.
    def pair_key(u: str, w: str) -> tuple[str, str]:
        return (u, w) if u <= w else (w, u)

    sides: dict[tuple[str, str], DataFrame] = {}
    is_chord: dict[tuple[str, str], bool] = {}
    for a, b, c in tri.triangles:
        for u, w in ((a, b), (b, c), (a, c)):
            key = pair_key(u, w)
            if key in sides:
                continue
            rel = _side_relation(ag, u, w)
            if rel is not None:
                sides[key] = rel
                is_chord[key] = False
    # chords: intersection of the join-projections across their triangles
    for u, w in tri.chords:
        key = pair_key(u, w)
        parts = []
        for a, b, c in tri.triangles:
            if {u, w} <= {a, b, c}:
                (m,) = {a, b, c} - {u, w}
                s1 = sides.get(pair_key(u, m))
                s2 = sides.get(pair_key(m, w))
                if s1 is None or s2 is None:
                    continue
                parts.append(s1.join(s2, on=m).select(u, w).distinct())
        if not parts:
            raise ValueError(f"chord {u},{w} has no fully-based triangle")
        rel = parts[0]
        for p in parts[1:]:
            rel = rel.intersect(p)
        sides[key] = ag.persist(rel)
        is_chord[key] = True

    prev = _row_counts(list(sides.values()))
    for _ in range(max_rounds):
        for a, b, c in tri.triangles:
            for u, w in ((a, b), (b, c), (a, c)):
                (m,) = {a, b, c} - {u, w}
                key, k1, k2 = pair_key(u, w), pair_key(u, m), pair_key(m, w)
                support = sides[k1].join(sides[k2], on=m).select(u, w).distinct()
                sides[key] = ag.persist(sides[key].join(support, on=[u, w], how="left_semi"))
        cur = _row_counts(list(sides.values()))
        if cur == prev:
            break
        prev = cur

    # fold the reduced sides back into the AG's query-edge relations
    for i, e in enumerate(query.edges):
        key = pair_key(e.src, e.dst)
        if key in sides and not is_chord[key]:
            ag.edges[i] = sides[key].select(e.src, e.dst)

    _burnback(ag)  # node burnback re-cascades the shrunken node sets
    return ag
