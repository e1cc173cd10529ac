"""DuckDB correctness oracle: the one place a CQ runs outside Spark.

:func:`connect` loads the triples one ``(s, o)`` table per predicate
(vertical partitioning, Abadi et al., VLDB 2007), under the names that
:meth:`QueryGraph.to_sql` joins, so DuckDB sees each predicate's size
when it orders the joins (Leis et al., PVLDB 2015). Each connection is
capped at :data:`MEMORY_LIMIT` and never spills: a query too large for
the oracle raises ``duckdb.OutOfMemoryException`` instead of taking the
Spark driver's memory or the disk.
"""
import duckdb
import pandas as pd
from pyspark.sql import DataFrame

from repro.core.query import QueryGraph, predicate_table

MEMORY_LIMIT = "1GB"


def connect(triples_pdf: pd.DataFrame, q: QueryGraph) -> duckdb.DuckDBPyConnection:
    """An in-memory DuckDB holding one ``(s, o)`` table per label of ``q``
    (empty when the label has no triples)."""
    con = duckdb.connect(config={"memory_limit": MEMORY_LIMIT, "temp_directory": ""})
    con.register("triples", triples_pdf)
    for label in set(q.labels):
        con.execute(
            f"CREATE TABLE {predicate_table(label)} AS SELECT s, o FROM triples WHERE p = ?",
            [label],
        )
    con.unregister("triples")
    return con


def count(triples_pdf: pd.DataFrame, q: QueryGraph) -> int:
    """Number of embeddings of ``q``."""
    with connect(triples_pdf, q) as con:
        return con.execute(f"SELECT COUNT(*) FROM ({q.to_sql()})").fetchone()[0]


def edge_pairs(triples_pdf: pd.DataFrame, q: QueryGraph) -> dict[int, list[tuple[int, int]]]:
    """Per query edge, the sorted distinct ``(src, dst)`` pairs of the
    embeddings: the ideal answer graph."""
    with connect(triples_pdf, q) as con:
        sql = q.to_sql()
        return {
            i: sorted(con.execute(f"SELECT DISTINCT {e.src}, {e.dst} FROM ({sql})").fetchall())
            for i, e in enumerate(q.edges)
        }


def _canon(pdf: pd.DataFrame) -> pd.DataFrame:
    # Canonical column order first, then row order by those columns, so
    # two results that differ only in projection order compare equal.
    cols = sorted(pdf.columns)
    return pdf[cols].sort_values(cols).reset_index(drop=True)


def assert_equivalent(spark_df: DataFrame, q: QueryGraph, triples_pdf: pd.DataFrame) -> None:
    """Assert that ``spark_df`` holds exactly ``q``'s embeddings, one
    column per variable, in any column and row order."""
    with connect(triples_pdf, q) as con:
        expected = con.execute(q.to_sql()).fetchdf()
    got = spark_df.toPandas()
    assert set(expected.columns) == set(got.columns), (
        f"column mismatch: {sorted(got.columns)} vs {sorted(expected.columns)}"
    )
    pd.testing.assert_frame_equal(_canon(got), _canon(expected), check_dtype=False)
