"""The benchmark's workloads: fixed (query, system) lists at a fixed scale.

Each workload is a closed loop with one client over its list, in order,
at the stated YAGO2s-lite scale factor. ``system`` is ``"WF"`` for
``wireframe.count_embeddings`` or a ``BASELINES`` key for a direct join.
"""
from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    sf: float
    items: tuple[tuple[str, str], ...]
    why: str

    @property
    def wf_queries(self) -> tuple[str, ...]:
        return tuple(q for q, s in self.items if s == "WF")


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "wf-sf0.1",
            0.1,
            (("D6", "WF"), ("S1", "WF")),
            "WF on a tree CQ (S1: 90 phase-1 jobs, 9-edge Edgifier DP) and a cyclic CQ "
            "(D6: Triangulator, burnback fixpoint, heaviest phase 2) at SF=0.1",
        ),
        Workload(
            "direct-best-sf0.1",
            0.1,
            (("D6", "MD"), ("S1", "MD"), ("S4", "PG")),
            "best direct join on the WF rows (D6, S1: MD) and on S4 (PG, 1-gram "
            "estimator) at SF=0.1: same scans and shuffle as WF, no answer-graph code",
        ),
    )
}
