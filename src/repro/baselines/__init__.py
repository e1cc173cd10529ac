"""Non-factorized baseline evaluators standing in for PG/VT/MD/NJ.

The paper's Table 1 compares WIREFRAME against PostgreSQL, Virtuoso,
MonetDB and Neo4J — four systems that all evaluate CQs *directly*: they
join triple scans into embedding tuples without first factorizing into
an answer graph. Those systems cannot be installed in this offline
container, so each is substituted by a join *strategy* that preserves its
defining planning behaviour while sharing the Spark executor (DESIGN.md
§2). What the substitution keeps intact is exactly the paper's
contrast: factorized (WF) vs direct embedding materialization.
"""
from repro.baselines.direct_join import BASELINES

__all__ = ["BASELINES"]
