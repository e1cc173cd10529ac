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

``edge_burnback`` implements the paper's §4 edge-burnback mechanism for a
single-cycle CQ (the paper describes it but evaluates without it; the
Table-1 harness follows the paper and leaves it off). The Triangulator's
triangles are the bags of a tree decomposition of the cycle, adjacent
when they share a chord, so Yannakakis over that bag tree is a full
reducer (Tarjan & Yannakakis, SIAM J. Comput. 1984; Gottlob, Leone &
Scarcello, JCSS 2002): one pass from the ears inward builds each bag
from its query edges and its children's chord projections, one pass
from the root outward semijoins each child bag with its parent's, and
each cycle edge becomes its bag's projection — the iAG, with no fixpoint.
"""
from __future__ import annotations

import functools
import itertools
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
    # Edge counts taken by the last fixpoint check; None once the edges change.
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
        plan's ``LogicalRDD`` leaf, which is released directly. The
        SparkContext does so without ``RDD.unpersist``'s WARN line about
        truncated lineage, one per checkpoint.
        """
        for df in self._persisted:
            rdd = df._jdf.queryExecution().logical().rdd()
            rdd.context().unpersistRDD(rdd.id(), False)
        self._persisted.clear()


def _semi(df: DataFrame, rel: DataFrame, var: str | list[str]) -> DataFrame:
    """Semijoin ``df`` with ``rel``'s projection onto ``var`` (one column
    or several).

    The projection is bounded by the AG size — the very quantity the
    paper shows to be tiny — so it is broadcast explicitly and burnback
    never shuffles the edge relations. A broadcast left-semi build side
    ignores duplicate keys, so no ``distinct()`` (a shuffle stage and a
    second job) is needed. (The session disables *automatic* broadcasting
    so the baselines' large data-data joins exercise the shuffle path;
    this hint is the WF operator design, not a global setting.) The
    result keeps ``df``'s column order; the join alone would put ``var``
    first."""
    return df.join(F.broadcast(rel.select(var)), on=var, how="left_semi").select(*df.columns)


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


def _owners(ag: AnswerGraph) -> dict[str, int]:
    """Each variable's owner: the first plan edge that binds it."""
    owner: dict[str, int] = {}
    for i in ag.order:
        for v in ag.query.edges[i].vars():
            owner.setdefault(v, i)
    return owner


def _burnback(ag: AnswerGraph) -> None:
    """Node burnback: one round for a tree CQ (the iAG), rounds until the
    edge counts stop changing for a cyclic one (the fixpoint)."""
    owner = _owners(ag)
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

    ag = AnswerGraph(query, {i: triple_store.scan(triples, query.edges[i]) for i in order}, order)
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


def edge_burnback(ag: AnswerGraph, tri: Triangulation) -> AnswerGraph:
    """Cull spurious edges from a single-cycle CQ's AG, restoring the iAG
    by Yannakakis over ``tri``'s bag tree (see the module docstring).
    Edges off the cycle then get one node-burnback round. A CQ with more
    than one independent cycle raises ``ValueError``.
    """
    query = ag.query
    cycles = len(query.edges) - len(query.variables) + 1
    if cycles > 1:
        raise ValueError(
            f"edge burnback supports single-cycle CQs; {query.name} has {cycles} cycles"
        )
    edge_of = {frozenset(e.vars()): i for i, e in enumerate(query.edges)}
    tris = [frozenset(t) for t in tri.triangles]

    def sides(t: int) -> list[frozenset[str]]:
        return [frozenset(p) for p in itertools.combinations(tri.triangles[t], 2)]

    # The dual tree, rooted at the first triangle: triangles sharing two
    # vertices share a chord. ``order`` lists parents before children.
    parent: dict[int, int] = {}
    chord: dict[int, frozenset[str]] = {}  # a child's chord to its parent
    order = [0]
    for t in order:
        for c, tc in enumerate(tris):
            if c not in order and len(tris[t] & tc) == 2:
                parent[c], chord[c] = t, tris[t] & tc
                order.append(c)

    bags: dict[int, DataFrame] = {}
    up: dict[frozenset[str], DataFrame] = {}  # chord -> its child bag's projection
    for t in reversed(order):  # ears inward: join all sides but the parent chord
        rels = [
            ag.edges[edge_of[s]] if s in edge_of else up[s]
            for s in sides(t)
            if s != chord.get(t)
        ]
        bag = rels[0]
        for r in rels[1:]:
            on = [v for v in r.columns if v in bag.columns]
            bag = _semi(bag, r, on) if len(on) == 2 else bag.join(F.broadcast(r), on=on)
        bags[t] = ag.persist(bag)
        if t in chord:
            up[chord[t]] = bags[t].select(*sorted(chord[t])).distinct()
    for t in order[1:]:  # root outward: keep what the parent bag supports
        bags[t] = ag.persist(_semi(bags[t], bags[parent[t]], sorted(chord[t])))

    for t in order:  # each cycle edge is a side of exactly one triangle
        for s in sides(t):
            if s in edge_of:
                e = query.edges[edge_of[s]]
                ag.edges[edge_of[s]] = ag.persist(bags[t].select(e.src, e.dst).distinct())
    ag._sizes = None  # the node-burnback counts are stale
    if len(query.edges) > len(tri.cycle):
        _round(ag, _owners(ag))  # carry the cycle's node sets to the other edges
    return ag
