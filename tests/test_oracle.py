"""The DuckDB oracle: bounded memory, and the only module that opens DuckDB."""
from __future__ import annotations

import ast
from pathlib import Path

import pandas as pd
import pytest

from repro import oracle
from repro.core.query import cq

ROOT = Path(__file__).resolve().parents[1]


def test_oracle_fails_loudly_instead_of_spilling(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    pdf = pd.DataFrame([(1, "A", 2)], columns=["s", "p", "o"])
    with oracle.connect(pdf, cq("one", ("a", "A", "b"))) as con:
        with pytest.raises(oracle.duckdb.OutOfMemoryException):
            con.execute("SELECT COUNT(*) FROM (SELECT DISTINCT range FROM range(200000000))")
    assert not (tmp_path / ".tmp").exists()


def test_only_the_oracle_imports_duckdb():
    importers = set()
    for path in (p for d in ("src", "tests", "jobs") for p in (ROOT / d).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(n.split(".")[0] == "duckdb" for n in names):
                importers.add(str(path.relative_to(ROOT)))
    assert importers == {"src/repro/oracle.py"}
