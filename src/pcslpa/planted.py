"""Self-contained planted-overlap test fixture generator.

Builds a chain of equally sized communities in which adjacent communities
share a fixed number of boundary nodes, then samples intra-community pairs
with probability p_in and all remaining pairs with p_out. This is test
plumbing for the benchmark harness, not a degree-sequence benchmark
generator.
"""

from __future__ import annotations

import random

from .graph import Cover, Graph, build_graph


def gen_planted_overlap(n_comms: int, comm_size: int, overlap_per_boundary: int,
                        p_in: float, p_out: float, seed: int) -> tuple[Graph, Cover]:
    """Generate (graph, planted cover); deterministic per seed.

    Community i spans nodes [i*(comm_size-overlap), i*(comm_size-overlap)+comm_size);
    consecutive communities share overlap_per_boundary nodes. A pair inside at
    least one community is an edge with probability p_in, every other pair with
    p_out. Requires p_in > p_out and a strictly positive non-overlap core.
    """
    if n_comms < 1 or comm_size < 1:
        raise ValueError("community count and size must be positive")
    if not 0 <= overlap_per_boundary < comm_size:
        raise ValueError("overlap must be smaller than the community size")
    if n_comms > 1 and comm_size - overlap_per_boundary < 1:
        raise ValueError("communities would collapse into each other")
    if not (0.0 <= p_out < p_in <= 1.0):
        raise ValueError("need 0 <= p_out < p_in <= 1")

    step = comm_size - overlap_per_boundary
    n = comm_size + (n_comms - 1) * step
    communities = [frozenset(range(i * step, i * step + comm_size)) for i in range(n_comms)]

    rng = random.Random(seed)
    edges: list[tuple[int, int]] = []
    for u in range(n):
        # the last community holding u ends at end: a later v shares a
        # community with u exactly when v < end
        end = min(u // step, n_comms - 1) * step + comm_size
        for v in range(u + 1, n):
            p = p_in if v < end else p_out
            if p >= 1.0 or rng.random() < p:
                edges.append((u, v))
    return build_graph(n, edges), Cover(communities)
