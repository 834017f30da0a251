"""Personalized PageRank via Monte-Carlo walks.

The use case from the paper's introduction: PPR powers recommendation
and graph databases, and GRW sampling is its scalable estimator.  This
example personalizes on one vertex of a citation-network stand-in, runs
the walks — by default on the vectorized batch engine, the
high-throughput serving path; ``--engine sim`` uses the cycle-level
accelerator model — and compares the Monte-Carlo estimate against an
exact power-iteration solution of the same PPR system, demonstrating
end-to-end statistical correctness, not just throughput.

Run:  python examples/ppr_ranking.py [--engine {batch,reference,sim}]
"""

import argparse

import numpy as np

from common import add_engine_arguments, run_with_engine
from repro.graph import load_dataset
from repro.walks import PPRSpec, WalkBatch, estimate_ppr

ALPHA = 0.2
NUM_WALKS = 3000


def exact_ppr(graph, source: int, alpha: float, iterations: int = 200) -> np.ndarray:
    """Power iteration on the walk-termination PPR formulation.

    Matches the Monte-Carlo walker's semantics exactly (Algorithm II.1):
    the walk always attempts a first hop; *after* each hop it terminates
    with probability ``alpha``; a dangling arrival absorbs outright.
    ``scores[v]`` is then the probability the walk's endpoint is ``v``.
    """
    n = graph.num_vertices
    degrees = graph.degrees()
    scores = np.zeros(n)
    frontier = np.zeros(n)
    frontier[source] = 1.0
    if degrees[source] == 0:
        scores[source] = 1.0
        return scores
    for _ in range(iterations):
        arrived = np.zeros(n)
        for v in np.nonzero(frontier > 1e-12)[0]:
            share = frontier[v] / degrees[v]
            for u in graph.neighbors(v):
                arrived[u] += share
        dangling = degrees == 0
        scores[dangling] += arrived[dangling]
        live = arrived.copy()
        live[dangling] = 0.0
        scores += alpha * live
        frontier = (1.0 - alpha) * live
        if frontier.sum() < 1e-9:
            break
    return scores / scores.sum()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    add_engine_arguments(parser)
    args = parser.parse_args()

    graph = load_dataset("CP", scale=0.2, seed=1)
    source = int(np.argmax(graph.degrees()))  # personalize on a hub
    print(f"graph: {graph}; personalization vertex: {source}")

    spec = PPRSpec(alpha=ALPHA, max_length=200)
    queries = WalkBatch(np.arange(NUM_WALKS), np.full(NUM_WALKS, source))
    results = run_with_engine(args.engine, graph, spec, queries, seed=7)

    estimated = estimate_ppr(results, graph.num_vertices)
    exact = exact_ppr(graph, source, ALPHA)

    top_exact = np.argsort(exact)[::-1][:10]
    print("\nrank | vertex | exact PPR | Monte-Carlo estimate")
    for rank, v in enumerate(top_exact, start=1):
        print(f"{rank:4d} | {v:6d} | {exact[v]:.4f}    | {estimated[v]:.4f}")

    # Quantitative agreement on the top set.
    top_est = set(np.argsort(estimated)[::-1][:10])
    overlap = len(top_est & set(int(v) for v in top_exact))
    l1 = float(np.abs(estimated - exact).sum())
    print(f"\ntop-10 overlap: {overlap}/10, L1 distance: {l1:.3f}")


if __name__ == "__main__":
    main()
