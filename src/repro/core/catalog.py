"""Offline 1-gram / 2-gram edge-label statistics (the WIREFRAME catalog).

The paper's planner estimates node and edge cardinalities from a catalog
of 1-gram and 2-gram edge-label statistics computed offline. Here:

* **1-gram**, per predicate ``p``: ``n(p)`` (triple count), ``ds(p)``
  (distinct subjects), ``do(p)`` (distinct objects).
* **2-gram**, per ordered predicate pair ``(p, q)`` and position pair
  ``(pi, rho)`` in ``{s,o}^2``:
  ``match(p,pi,q,rho)`` — distinct nodes occurring at position ``pi`` of a
  ``p``-triple *and* at position ``rho`` of a ``q``-triple (how many join
  values exist), and
  ``pairs(p,pi,q,rho) = sum_v deg_{p,pi}(v) * deg_{q,rho}(v)`` — the exact
  size of the one-join ``p ⋈ q`` on those positions.

All of it comes from one Spark aggregation and one ``collect()``. A single
degree table ``deg(p, pos, v, d)`` (size ≤ 2·#triples, unique per
``(p, pos, v)``) is self-joined on ``v`` and grouped by both sides'
``(p, pos)``: each group's row count is ``match`` and its ``sum(d·d)`` is
``pairs``. The 1-gram values are read off the diagonal ``(p, pos, p, pos)``,
where the row count is ``ds(p)`` (``pos = s``) or ``do(p)`` (``pos = o``)
and ``sum(d)`` at ``s`` is ``n(p)``. With ~100 predicates the catalog is a
few thousand numbers on the driver.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

Pos = str  # 's' | 'o'
TwoGramKey = tuple[str, Pos, str, Pos]


@dataclass
class Catalog:
    """Driver-side statistics used by the cardinality estimator."""

    n: dict[str, int]
    ds: dict[str, int]
    do: dict[str, int]
    match: dict[TwoGramKey, int] = field(default_factory=dict)
    pairs: dict[TwoGramKey, int] = field(default_factory=dict)

    # -- lookups ---------------------------------------------------------
    def count(self, p: str) -> int:
        """Total triples with predicate ``p`` (0 if absent)."""
        return self.n.get(p, 0)

    def distinct(self, p: str, pos: Pos) -> int:
        """Distinct nodes at position ``pos`` of predicate ``p``."""
        d = self.ds if pos == "s" else self.do
        return d.get(p, 0)

    def match_count(self, p: str, pi: Pos, q: str, rho: Pos) -> int:
        """Distinct shared nodes between (p, pi) and (q, rho)."""
        return self.match.get((p, pi, q, rho), 0)

    @property
    def predicates(self) -> list[str]:
        return sorted(self.n)

    # -- persistence ------------------------------------------------------
    def to_json(self, path: str) -> None:
        """Serialize to a JSON file (tuple keys flattened to '|')."""
        blob = {
            "n": self.n,
            "ds": self.ds,
            "do": self.do,
            "match": {"|".join(k): v for k, v in self.match.items()},
            "pairs": {"|".join(k): v for k, v in self.pairs.items()},
        }
        with open(path, "w") as f:
            json.dump(blob, f)

    @classmethod
    def from_json(cls, path: str) -> "Catalog":
        with open(path) as f:
            blob = json.load(f)

        def unkey(d: dict[str, int]) -> dict[TwoGramKey, int]:
            return {tuple(k.split("|")): v for k, v in d.items()}  # type: ignore[misc]

        return cls(blob["n"], blob["ds"], blob["do"], unkey(blob["match"]), unkey(blob["pairs"]))


def build_catalog(triples: DataFrame) -> Catalog:
    """Compute the full catalog from a (s, p, o) triple DataFrame."""
    deg = (
        triples.select("p", F.lit("s").alias("pos"), F.col("s").alias("v"))
        .unionByName(triples.select("p", F.lit("o").alias("pos"), F.col("o").alias("v")))
        .groupBy("p", "pos", "v")
        .agg(F.count("*").alias("d"))
    )
    rows = (
        deg.alias("a")
        .join(deg.alias("b"), "v")
        .groupBy(
            F.col("a.p").alias("p1"), F.col("a.pos").alias("pi"),
            F.col("b.p").alias("p2"), F.col("b.pos").alias("rho"),
        )
        .agg(
            F.count("*").alias("m"),
            F.sum(F.col("a.d") * F.col("b.d")).alias("j"),
            F.sum("a.d").alias("n"),
        )
        .collect()
    )
    n: dict[str, int] = {}
    ds: dict[str, int] = {}
    do: dict[str, int] = {}
    match: dict[TwoGramKey, int] = {}
    pairs: dict[TwoGramKey, int] = {}
    for r in rows:
        p, pi, q, rho = key = (r["p1"], r["pi"], r["p2"], r["rho"])
        match[key] = r["m"]
        pairs[key] = int(r["j"])
        if (p, pi) == (q, rho):  # the diagonal carries the 1-gram counts
            (ds if pi == "s" else do)[p] = r["m"]
            if pi == "s":
                n[p] = int(r["n"])
    return Catalog(n, ds, do, match, pairs)
