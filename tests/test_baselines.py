"""Baseline (PG/VT/MD/NJ sim) correctness and planning behaviour."""
from __future__ import annotations

import pytest

from repro.baselines import BASELINES
from repro.core.queries_table1 import ALL_QUERIES, DIAMONDS, SNOWFLAKES
from repro.core.query import cq
from repro import oracle

# Two components (4,000 embeddings at SF=0.01): every baseline returns
# their cross product.
DISCONNECTED = cq(
    "disconnected", ("a", "exports", "b"), ("c", "hasDuration", "d"), ("e", "isLocatedIn", "a")
)
SMALL = [q for q in ALL_QUERIES if q.name in ("S1", "S5", "D6", "D7", "D8", "D9", "D10")] + [
    DISCONNECTED
]
BIG = [q for q in ALL_QUERIES if q.name in ("S2", "S3", "S4")]


@pytest.mark.parametrize("system", sorted(BASELINES))
@pytest.mark.parametrize("q", SMALL, ids=lambda q: q.name)
def test_baseline_matches_oracle(triples, triples_pdf, catalog, system, q):
    df = BASELINES[system](triples, q, catalog)
    oracle.assert_equivalent(df, q, triples_pdf)


@pytest.mark.parametrize("system", sorted(BASELINES))
@pytest.mark.parametrize("q", BIG, ids=lambda q: q.name)
def test_baseline_matches_oracle_count(triples, triples_pdf, catalog, system, q):
    df = BASELINES[system](triples, q, catalog)
    assert df.count() == oracle.count(triples_pdf, q)


@pytest.mark.parametrize("system", sorted(BASELINES))
def test_baseline_output_columns(triples, catalog, system):
    q = SNOWFLAKES[0]
    assert BASELINES[system](triples, q, catalog).columns == list(q.variables)


@pytest.mark.parametrize("q", DIAMONDS, ids=lambda q: q.name)
def test_baselines_agree_with_each_other(triples, catalog, q):
    counts = {s: BASELINES[s](triples, q, catalog).count() for s in BASELINES}
    assert len(set(counts.values())) == 1, counts


def test_all_four_systems_registered():
    assert sorted(BASELINES) == ["MD", "NJ", "PG", "VT"]
