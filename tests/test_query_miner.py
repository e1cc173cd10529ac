"""Query miner: 2-gram screening and non-emptiness validation."""
from __future__ import annotations

import pytest

from repro import oracle
from repro.baselines.direct_join import BASELINES
from repro.core.query import QueryGraph
from repro.rdf.query_miner import (
    DIAMOND_TEMPLATE,
    SNOWFLAKE_TEMPLATE,
    candidate_queries,
    mine,
)


def test_templates_have_right_shapes():
    from repro.core.query import QueryEdge

    dia = QueryGraph(tuple(QueryEdge(s, "linksTo", o) for s, o in DIAMOND_TEMPLATE))
    assert not dia.is_tree() and dia.is_connected()
    snow = QueryGraph(tuple(QueryEdge(s, "linksTo", o) for s, o in SNOWFLAKE_TEMPLATE))
    assert snow.is_tree() and len(snow.edges) == 9


def test_candidates_respect_twogram_screen(catalog):
    for q in list(candidate_queries(catalog, DIAMOND_TEMPLATE, limit=25)):
        for i, e in enumerate(q.edges):
            for j in range(i):
                f = q.edges[j]
                for v in set(e.vars()) & set(f.vars()):
                    assert (
                        catalog.match_count(
                            e.label, e.position(v), f.label, f.position(v)
                        )
                        > 0
                    )


def test_candidate_limit_respected(catalog):
    assert len(list(candidate_queries(catalog, DIAMOND_TEMPLATE, limit=7))) == 7


def test_candidates_have_template_wiring(catalog):
    q = next(iter(candidate_queries(catalog, DIAMOND_TEMPLATE, limit=1)))
    assert [(e.src, e.dst) for e in q.edges] == list(DIAMOND_TEMPLATE)


def test_mined_diamonds_nonempty(triples, catalog):
    mined = mine(triples, catalog, DIAMOND_TEMPLATE, limit=2, candidate_limit=40)
    assert 1 <= len(mined) <= 2
    for q in mined:
        assert BASELINES["PG"](triples, q, catalog).limit(1).count() == 1


def test_mined_snowflakes_nonempty(triples, triples_pdf, catalog):
    mined = mine(triples, catalog, SNOWFLAKE_TEMPLATE, limit=2, candidate_limit=6)
    assert 1 <= len(mined) <= 2
    for q in mined:
        with oracle.connect(triples_pdf, q) as con:
            assert con.execute(f"{q.to_sql()} LIMIT 1").fetchall(), q


def test_mined_names_prefixed(triples, catalog):
    mined = mine(
        triples, catalog, DIAMOND_TEMPLATE, limit=1, candidate_limit=40, name_prefix="dia"
    )
    assert mined and mined[0].name.startswith("dia-")
