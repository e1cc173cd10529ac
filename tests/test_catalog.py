"""Catalog statistics: Spark aggregates vs brute-force pandas recomputation."""
from __future__ import annotations

import itertools
import json
import os
import uuid

import pandas as pd
import pytest

from repro.core.catalog import Catalog, build_catalog
from repro.rdf import triple_store
from tests.conftest import micro_triples

MICRO_ROWS = [
    (1, "A", 10), (2, "A", 10), (3, "A", 11), (3, "A", 12),
    (10, "B", 20), (11, "B", 21), (12, "B", 22), (10, "B", 22),
    (20, "C", 30), (20, "C", 31), (21, "C", 32), (2, "C", 10),
]
MICRO_PDF = pd.DataFrame(MICRO_ROWS, columns=["s", "p", "o"])


@pytest.fixture(scope="module")
def micro_catalog(spark) -> Catalog:
    return build_catalog(micro_triples(spark, MICRO_ROWS))


@pytest.mark.parametrize("p", ["A", "B", "C"])
def test_onegram_counts(micro_catalog, p):
    sub = MICRO_PDF[MICRO_PDF["p"] == p]
    assert micro_catalog.count(p) == len(sub)
    assert micro_catalog.distinct(p, "s") == sub["s"].nunique()
    assert micro_catalog.distinct(p, "o") == sub["o"].nunique()


def test_onegram_missing_predicate(micro_catalog):
    assert micro_catalog.count("nope") == 0
    assert micro_catalog.distinct("nope", "s") == 0


@pytest.mark.parametrize(
    "p,pi,q,rho",
    list(itertools.product(["A", "B", "C"], ["s", "o"], ["A", "B", "C"], ["s", "o"])),
)
def test_twogram_vs_bruteforce(micro_catalog, p, pi, q, rho):
    left = MICRO_PDF[MICRO_PDF["p"] == p][[pi]].rename(columns={pi: "v"})
    right = MICRO_PDF[MICRO_PDF["p"] == q][[rho]].rename(columns={rho: "v"})
    joined = left.merge(right, on="v")
    expect_match = joined["v"].nunique()
    if expect_match:
        assert micro_catalog.match_count(p, pi, q, rho) == expect_match
    else:
        assert micro_catalog.match_count(p, pi, q, rho) == 0


def test_twogram_symmetry(micro_catalog):
    for p, q in itertools.product(["A", "B", "C"], repeat=2):
        for pi, rho in itertools.product("so", repeat=2):
            assert micro_catalog.match_count(p, pi, q, rho) == micro_catalog.match_count(
                q, rho, p, pi
            )


def test_twogram_self_join_is_count(micro_catalog):
    # (p, s) vs (p, s) match = distinct subjects of p
    assert micro_catalog.match_count("A", "s", "A", "s") == 3


def test_predicates_listing(micro_catalog):
    assert micro_catalog.predicates == ["A", "B", "C"]


def test_json_roundtrip(micro_catalog, tmp_path):
    path = os.path.join(tmp_path, "cat.json")
    micro_catalog.to_json(path)
    back = Catalog.from_json(path)
    assert back.n == micro_catalog.n
    assert back.ds == micro_catalog.ds
    assert back.do == micro_catalog.do
    assert back.match == micro_catalog.match


def test_json_from_older_catalog_with_pairs(micro_catalog, tmp_path):
    """Catalogs cached before ``pairs`` was dropped still load."""
    path = os.path.join(tmp_path, "cat.json")
    micro_catalog.to_json(path)
    with open(path) as f:
        blob = json.load(f)
    blob["pairs"] = {"|".join(k): 1 for k in micro_catalog.match}
    with open(path, "w") as f:
        json.dump(blob, f)
    assert Catalog.from_json(path) == micro_catalog


# -- on the real SF=0.01 dataset ----------------------------------------------
def test_full_catalog_onegram_spotcheck(catalog, triples_pdf):
    for p in ("actedIn", "linksTo", "isLocatedIn"):
        sub = triples_pdf[triples_pdf["p"] == p]
        assert catalog.count(p) == len(sub)
        assert catalog.distinct(p, "s") == sub["s"].nunique()
        assert catalog.distinct(p, "o") == sub["o"].nunique()


def test_full_catalog_twogram_spotcheck(catalog, triples_pdf):
    lives = triples_pdf[triples_pdf["p"] == "livesIn"][["o"]].rename(columns={"o": "v"})
    loc = triples_pdf[triples_pdf["p"] == "isLocatedIn"][["s"]].rename(columns={"s": "v"})
    joined = lives.merge(loc, on="v")
    assert catalog.match_count("livesIn", "o", "isLocatedIn", "s") == joined["v"].nunique()


def test_full_catalog_covers_all_predicates(catalog, triples_pdf):
    assert set(catalog.predicates) == set(triples_pdf["p"].unique())


def _pandas_catalog(pdf: pd.DataFrame) -> Catalog:
    """The whole catalog recomputed in pandas from its definitions."""
    deg = pd.concat(
        pdf.groupby(["p", pos]).size().rename("d").reset_index()
        .rename(columns={pos: "v"}).assign(pos=pos)
        for pos in ("s", "o")
    )
    j = deg.merge(deg, on="v", suffixes=("1", "2"))
    m = j.groupby(["p1", "pos1", "p2", "pos2"])["v"].nunique()
    return Catalog(
        pdf.groupby("p").size().to_dict(),
        pdf.groupby("p")["s"].nunique().to_dict(),
        pdf.groupby("p")["o"].nunique().to_dict(),
        m.to_dict(),
    )


def test_full_catalog_equals_pandas_reference(catalog, triples_pdf):
    ref = _pandas_catalog(triples_pdf)
    assert catalog.n == ref.n
    assert catalog.ds == ref.ds
    assert catalog.do == ref.do
    # equal dicts: same 2-gram keys (none missing, none extra) and values
    assert catalog.match == ref.match
    assert min(catalog.match.values()) > 0


def test_catalog_build_is_one_aggregation(spark, triples, catalog, tmp_path):
    """The whole catalog is one aggregation: at most 4 Spark jobs on a
    Parquet triple store, as in the benchmark (the session's in-memory
    frame takes 6)."""
    path = str(tmp_path / "store")
    triple_store.write(triples, path)
    store = triple_store.read(spark, path)
    sc = spark.sparkContext
    group = f"catalog-{uuid.uuid4().hex}"
    saved = sc.getLocalProperty("spark.jobGroup.id")
    sc.setJobGroup(group, "build_catalog", False)
    try:
        built = build_catalog(store)
    finally:
        sc.setLocalProperty("spark.jobGroup.id", saved)
    sc._jsc.sc().listenerBus().waitUntilEmpty()
    assert 0 < len(sc.statusTracker().getJobIdsForGroup(group)) <= 4
    assert built == catalog
