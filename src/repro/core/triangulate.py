"""The Triangulator: chord selection for cyclic CQs.

Cycles of length > 3 in a query graph are *triangulated* by adding chord
"query edges". The triangles are the bags of a tree decomposition of the
cycle, adjacent when they share a chord; edge burnback runs Yannakakis
over that tree, where a chord carries the projection of the bag below it
(see :func:`repro.core.answer_graph.edge_burnback`).

Chord choice is a bottom-up dynamic program over the cycle polygon —
the classic O(L^3) minimum-weight convex-polygon triangulation, where the
weight of chord (u, w) is the estimated size of its materialization.
Verified against brute-force enumeration of all triangulations in tests.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

from repro.core.cardinality import Estimator
from repro.core.catalog import Catalog
from repro.core.query import QueryGraph


@dataclass(frozen=True)
class Triangulation:
    """Chords and triangles (as variable triples) for one cycle."""

    cycle: tuple[str, ...]
    chords: tuple[tuple[str, str], ...]
    triangles: tuple[tuple[str, str, str], ...]
    cost: float


def _is_side(i: int, j: int, L: int) -> bool:
    """Is (i, j) a polygon side (an existing query edge) rather than a chord?"""
    return abs(i - j) == 1 or {i, j} == {0, L - 1}


def triangulate(cycle: list[str], weight: Callable[[str, str], float]) -> Triangulation:
    """Minimum-weight triangulation of ``cycle`` (vars in cycle order).

    ``weight(u, w)`` is the cost of materializing chord (u, w); polygon
    sides (consecutive cycle vars) cost nothing — they are already
    materialized query edges.
    """
    L = len(cycle)
    if L < 3:
        raise ValueError("a cycle has at least 3 variables")
    if L == 3:
        return Triangulation(tuple(cycle), (), (tuple(cycle),), 0.0)

    def w(i: int, j: int) -> float:
        return 0.0 if _is_side(i, j, L) else weight(cycle[i], cycle[j])

    INF = float("inf")
    cost = [[0.0] * L for _ in range(L)]
    split = [[-1] * L for _ in range(L)]
    # cost[i][j]: min weight to triangulate sub-polygon v_i..v_j given that
    # segment (i, j) is provided from outside (side or parent chord).
    for span in range(2, L):
        for i in range(0, L - span):
            j = i + span
            best, arg = INF, -1
            for k in range(i + 1, j):
                c = cost[i][k] + cost[k][j] + w(i, k) + w(k, j)
                if c < best:
                    best, arg = c, k
            cost[i][j] = best
            split[i][j] = arg

    chords: list[tuple[str, str]] = []
    triangles: list[tuple[str, str, str]] = []

    def emit(i: int, j: int) -> None:
        if j - i < 2:
            return
        k = split[i][j]
        triangles.append((cycle[i], cycle[k], cycle[j]))
        for a, b in ((i, k), (k, j)):
            if b - a >= 2 and not _is_side(a, b, L):
                chords.append((cycle[a], cycle[b]))
            emit(a, b)

    emit(0, L - 1)
    return Triangulation(tuple(cycle), tuple(chords), tuple(triangles), cost[0][L - 1])


def _all_triangulations(i: int, j: int) -> Iterator[list[tuple[int, int, int]]]:
    """All triangulations of sub-polygon v_i..v_j (as index triangles)."""
    if j - i < 2:
        yield []
        return
    for k in range(i + 1, j):
        for left in _all_triangulations(i, k):
            for right in _all_triangulations(k, j):
                yield left + [(i, k, j)] + right


def brute_force_triangulate(
    cycle: list[str], weight: Callable[[str, str], float]
) -> Triangulation:
    """Exhaustive minimum over all (Catalan-many) triangulations; tests only."""
    L = len(cycle)
    best_cost = float("inf")
    best_tris: list[tuple[int, int, int]] = []
    for tris in _all_triangulations(0, L - 1):
        chord_set = {
            tuple(sorted(pair))
            for tri in tris
            for pair in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2]))
            if not _is_side(*pair, L)
        }
        c = sum(weight(cycle[a], cycle[b]) for a, b in chord_set)
        if c < best_cost:
            best_cost, best_tris = c, tris
    chords = sorted(
        {
            tuple(sorted(pair))
            for tri in best_tris
            for pair in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[0], tri[2]))
            if not _is_side(*pair, L)
        }
    )
    return Triangulation(
        tuple(cycle),
        tuple((cycle[a], cycle[b]) for a, b in chords),
        tuple((cycle[a], cycle[b], cycle[c]) for a, b, c in best_tris),
        best_cost,
    )


def chord_weight(est: Estimator, query: QueryGraph) -> Callable[[str, str], float]:
    """Chord-size estimate: a chord (u, w) materializes node pairs, at most
    the cross product of the surviving endpoint node sets under the
    full-query cardinality estimate."""
    cards = est.var_cards(frozenset(range(len(query.edges))))

    def weight(u: str, w: str) -> float:
        return max(1.0, cards.get(u, 1.0)) * max(1.0, cards.get(w, 1.0))

    return weight


def triangulate_query(query: QueryGraph, catalog: Catalog) -> Triangulation | None:
    """Triangulate the query's cycle (None for acyclic queries)."""
    cycle = query.find_cycle()
    if cycle is None:
        return None
    est = Estimator(catalog, query)
    return triangulate(cycle, chord_weight(est, query))
