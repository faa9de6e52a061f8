#!/usr/bin/env python
"""Compare every formulation of the evolving-graph BFS on the same graphs.

The paper gives two algorithms (adjacency-list BFS and algebraic BFS) and a
correctness construction (the Theorem-1 static expansion).  This example runs
all of them — plus the vectorized frontier engine — on a random evolving
graph, verifies they agree, and reports their relative cost, echoing
the paper's conclusion that the adjacency-list formulation is the one to use
in practice (Section III-E).

Run with::

    python examples/matrix_vs_list.py [num_nodes] [num_edges]
"""

from __future__ import annotations

import sys
import time

from repro.analysis import check_bfs_equivalence, compute_stats
from repro.core import algebraic_bfs, algebraic_bfs_blocked, evolving_bfs, expansion_bfs
from repro.generators import random_evolving_graph


def main() -> None:
    num_nodes = int(sys.argv[1]) if len(sys.argv) > 1 else 1_500
    num_edges = int(sys.argv[2]) if len(sys.argv) > 2 else 9_000
    graph = random_evolving_graph(num_nodes, 8, num_edges, seed=1)
    stats = compute_stats(graph)
    root = next((min(graph.active_nodes_at(t)), t)
                for t in graph.timestamps if graph.active_nodes_at(t))
    print(f"random evolving graph: {num_nodes} nodes, 8 timestamps, "
          f"|E~|={stats.num_static_edges}, |E'|={stats.num_causal_edges}, "
          f"|V| active={stats.num_active_temporal_nodes}")
    print(f"root: {root}\n")

    implementations = [
        ("Algorithm 1 (adjacency lists)", lambda: evolving_bfs(graph, root, backend="python")),
        ("Theorem 1 (materialised static expansion)", lambda: expansion_bfs(graph, root)),
        ("Algorithm 2 (explicit block matrix)", lambda: algebraic_bfs(graph, root)),
        ("Algorithm 2 (blocked, matrix-free)", lambda: algebraic_bfs_blocked(graph, root,
                                                                             backend="python")),
        ("Vectorized frontier engine (backend default)", lambda: evolving_bfs(
            graph, root, backend="vectorized")),
    ]

    reference = None
    print(f"{'formulation':<45} {'time [s]':>10} {'reached':>9}")
    for name, run in implementations:
        start = time.perf_counter()
        outcome = run()
        elapsed = time.perf_counter() - start
        reached = outcome if isinstance(outcome, dict) else outcome.reached
        if reference is None:
            reference = reached
        agree = "" if reached == reference else "  <-- MISMATCH"
        print(f"{name:<45} {elapsed:>10.4f} {len(reached):>9}{agree}")

    print()
    report = check_bfs_equivalence(graph, root)
    print("equivalence harness:", report.summary())


if __name__ == "__main__":
    main()
