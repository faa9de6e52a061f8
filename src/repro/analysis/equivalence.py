"""Cross-validation harness: check that every BFS formulation agrees.

Theorem 1 (Algorithm 1 equals BFS on the static expansion) and Theorem 4
(Algorithm 1 equals the algebraic Algorithm 2) are the paper's central
correctness claims.  This module turns them into executable checks used by
the integration tests and ``examples/matrix_vs_list.py``: given a graph and a
root, run the five implementations — Algorithm 1, BFS on the Theorem-1
static expansion, the explicit and the blocked Algorithm 2, and the
vectorized engine — and compare the ``reached`` dictionaries exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.algebraic import algebraic_bfs, algebraic_bfs_blocked
from repro.core.bfs import evolving_bfs
from repro.core.expansion import expansion_bfs
from repro.graph.base import BaseEvolvingGraph, TemporalNodeTuple

__all__ = ["EquivalenceReport", "check_bfs_equivalence", "all_implementations"]


def all_implementations() -> dict[str, Callable]:
    """The BFS implementations compared by the equivalence harness.

    Keys are human-readable names; values are callables
    ``(graph, root) -> dict[temporal node, distance]``.  The legacy
    formulations are pinned to ``backend="python"`` so the harness keeps
    cross-validating genuinely independent implementations; the shared
    vectorized engine participates as its own entry.
    """
    return {
        "algorithm1_adjacency_list": lambda g, r: evolving_bfs(
            g, r, backend="python"
        ).reached,
        "theorem1_static_expansion": lambda g, r: expansion_bfs(g, r),
        "algorithm2_block_matrix": lambda g, r: algebraic_bfs(g, r).reached,
        "algorithm2_blocked_matrix_free": lambda g, r: algebraic_bfs_blocked(
            g, r, backend="python"
        ).reached,
        "engine_vectorized_frontier": lambda g, r: evolving_bfs(
            g, r, backend="vectorized"
        ).reached,
    }


@dataclass
class EquivalenceReport:
    """Outcome of comparing every implementation on one (graph, root) pair."""

    root: TemporalNodeTuple
    agree: bool
    results: dict[str, dict[TemporalNodeTuple, int]] = field(default_factory=dict)
    mismatches: list[str] = field(default_factory=list)

    def summary(self) -> str:
        """One-line human-readable summary."""
        if self.agree:
            names = ", ".join(sorted(self.results))
            return f"root {self.root!r}: all implementations agree ({names})"
        return f"root {self.root!r}: MISMATCH — " + "; ".join(self.mismatches)


def check_bfs_equivalence(
    graph: BaseEvolvingGraph,
    root: TemporalNodeTuple,
    *,
    implementations: dict[str, Callable] | None = None,
) -> EquivalenceReport:
    """Run every implementation from ``root`` and compare the distance maps exactly.

    The first implementation (Algorithm 1) is the reference; every other
    result is compared key-by-key against it, and differences are described
    in the report's ``mismatches`` list.
    """
    root = (root[0], root[1])
    impls = implementations if implementations is not None else all_implementations()
    names = list(impls)
    results: dict[str, dict[TemporalNodeTuple, int]] = {}
    for name in names:
        results[name] = dict(impls[name](graph, root))

    reference_name = names[0]
    reference = results[reference_name]
    mismatches: list[str] = []
    for name in names[1:]:
        other = results[name]
        if other == reference:
            continue
        missing = set(reference) - set(other)
        extra = set(other) - set(reference)
        different = {
            tn for tn in set(reference) & set(other) if reference[tn] != other[tn]
        }
        parts = []
        if missing:
            parts.append(f"{len(missing)} nodes missing")
        if extra:
            parts.append(f"{len(extra)} spurious nodes")
        if different:
            parts.append(f"{len(different)} distance mismatches")
        mismatches.append(f"{name} vs {reference_name}: " + ", ".join(parts))

    return EquivalenceReport(
        root=root,
        agree=not mismatches,
        results=results,
        mismatches=mismatches,
    )
