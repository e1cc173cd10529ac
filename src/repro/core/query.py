"""Conjunctive-query (CQ) model.

A SPARQL CQ is a *query graph*: nodes are binding variables, directed
edges carry predicate labels. An answer is a homomorphic embedding — a
tuple of data-graph node ids, one per variable, such that every query
edge maps to a data edge with the same label.

This module provides the query-graph data structure, shape predicates
(connected / tree / cycle extraction), the connected-order rule that
every edge order in the system follows, and a translation of a CQ to the
equivalent SQL join over one ``(s, o)`` table per predicate — the
vertically partitioned layout the DuckDB oracle (:mod:`repro.oracle`)
builds.
"""
from __future__ import annotations

from collections.abc import Callable, Collection
from dataclasses import dataclass
from functools import cached_property


@dataclass(frozen=True)
class QueryEdge:
    """One triple pattern ``?src --label--> ?dst``."""

    src: str
    label: str
    dst: str

    def __post_init__(self) -> None:
        if self.src == self.dst:
            raise ValueError(f"self-loop query edges are not supported: {self}")
        for v in (self.src, self.dst):
            if not v.isidentifier():
                raise ValueError(f"variable {v!r} must be a SQL-safe identifier")

    def position(self, var: str) -> str:
        """``'s'`` if ``var`` is this edge's subject, ``'o'`` if object."""
        if var == self.src:
            return "s"
        if var == self.dst:
            return "o"
        raise ValueError(f"{var!r} not in {self}")

    def vars(self) -> tuple[str, str]:
        return (self.src, self.dst)

    def other(self, var: str) -> str:
        return self.dst if var == self.src else self.src


@dataclass(frozen=True)
class QueryGraph:
    """A CQ as an ordered tuple of query edges (order = textual order)."""

    edges: tuple[QueryEdge, ...]
    name: str = ""

    def __post_init__(self) -> None:
        if not self.edges:
            raise ValueError("a CQ needs at least one query edge")
        object.__setattr__(self, "edges", tuple(self.edges))

    # -- structure ------------------------------------------------------
    @property
    def variables(self) -> tuple[str, ...]:
        """All variables, in order of first appearance."""
        seen: dict[str, None] = {}
        for e in self.edges:
            seen.setdefault(e.src)
            seen.setdefault(e.dst)
        return tuple(seen)

    def adjacency(self) -> dict[str, set[str]]:
        """Undirected variable adjacency."""
        adj: dict[str, set[str]] = {v: set() for v in self.variables}
        for e in self.edges:
            adj[e.src].add(e.dst)
            adj[e.dst].add(e.src)
        return adj

    def incident(self, var: str) -> list[int]:
        """Indices of edges touching ``var``."""
        return [i for i, e in enumerate(self.edges) if var in e.vars()]

    def is_connected(self) -> bool:
        adj = self.adjacency()
        seen = {self.variables[0]}
        stack = [self.variables[0]]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self.variables)

    def is_tree(self) -> bool:
        """Acyclic and connected (tree-shaped CQ)."""
        return self.is_connected() and len(self.edges) == len(self.variables) - 1

    def find_cycle(self) -> list[str] | None:
        """Variables of one simple cycle, in cycle order; None if acyclic.

        Recursive DFS on the variable multigraph (edges identified by
        index, so parallel query edges between the same pair form a
        2-cycle — our workloads have none). In undirected DFS every
        non-tree edge is a back edge, so the parent chain from ``v`` to
        the back-edge target ``w`` recovers the cycle in order.
        """
        parent: dict[str, str | None] = {}

        def dfs(v: str, via: int | None) -> list[str] | None:
            for i in self.incident(v):
                if i == via:
                    continue
                w = self.edges[i].other(v)
                if w in parent:
                    cyc = [v]
                    while cyc[-1] != w:
                        cyc.append(parent[cyc[-1]])  # type: ignore[arg-type]
                    return cyc
                parent[w] = v
                found = dfs(w, i)
                if found is not None:
                    return found
            return None

        for start in self.variables:
            if start in parent:
                continue
            parent[start] = None
            found = dfs(start, None)
            if found is not None:
                return found
        return None

    # -- connected orders -------------------------------------------------
    @cached_property
    def _touching(self) -> tuple[frozenset[int], ...]:
        """Per edge, the indices of the edges that share a variable with it."""
        return tuple(
            frozenset(i for i, f in enumerate(self.edges) if set(e.vars()) & set(f.vars()))
            for e in self.edges
        )

    def extends(self, prefix: Collection[int], j: int) -> bool:
        """May edge ``j`` follow the edges ``prefix`` in a connected
        left-deep order? Only if it shares a variable with one of them
        (the paper's edge extension); the first edge may be any."""
        return not prefix or not self._touching[j].isdisjoint(prefix)

    def greedy_order(self, key: Callable[[frozenset[int], int], float]) -> list[int]:
        """Greedy connected order: append the edge ``j`` with the least
        ``key(prefix, j)`` at each step, ties to the lower index. An edge
        that shares no variable with the prefix is taken only when no
        other edge does (the next component of a disconnected CQ)."""
        prefix: frozenset[int] = frozenset()
        order: list[int] = []
        while len(order) < len(self.edges):
            rest = [j for j in range(len(self.edges)) if j not in prefix]
            nxt = min(
                [j for j in rest if self.extends(prefix, j)] or rest,
                key=lambda j: (key(prefix, j), j),
            )
            order.append(nxt)
            prefix |= {nxt}
        return order

    def is_connected_order(self, order: list[int]) -> bool:
        """Is ``order`` (edge indices) a connected left-deep sequence?"""
        return sorted(order) == list(range(len(self.edges))) and all(
            self.extends(order[:n], j) for n, j in enumerate(order)
        )

    # -- translation -----------------------------------------------------
    def to_sql(self) -> str:
        """Equivalent SQL: a join of one ``(s, o)`` relation per query
        edge, each named by :func:`predicate_table`.

        Every variable is projected under its own name; with set-semantic
        triples the result rows are exactly the CQ's embeddings.
        """
        first: dict[str, str] = {}
        where: list[str] = []
        for i, e in enumerate(self.edges):
            for var, col in ((e.src, "s"), (e.dst, "o")):
                ref = f"t{i}.{col}"
                if var in first:
                    where.append(f"{ref} = {first[var]}")
                else:
                    first[var] = ref
        select = ", ".join(f"{first[v]} AS {v}" for v in self.variables)
        tables = ", ".join(f"{predicate_table(e.label)} t{i}" for i, e in enumerate(self.edges))
        return f"SELECT {select} FROM {tables} WHERE {' AND '.join(where) or 'TRUE'}"

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(e.label for e in self.edges)

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        body = ", ".join(f"(?{e.src} {e.label} ?{e.dst})" for e in self.edges)
        return f"{self.name or 'CQ'}[{body}]"


def predicate_table(label: str) -> str:
    """The quoted SQL name of ``label``'s ``(s, o)`` relation."""
    return '"p_' + label.replace('"', '""') + '"'


def cq(name: str, *triples: tuple[str, str, str]) -> QueryGraph:
    """Shorthand constructor: ``cq('q', ('a','livesIn','b'), ...)``."""
    return QueryGraph(tuple(QueryEdge(s, p, o) for s, p, o in triples), name=name)
