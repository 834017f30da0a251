"""DeepWalk walk corpus for graph embeddings.

The dominant GRW workload in graph learning (the paper's DeepWalk rows):
fixed-length weighted walks whose sliding windows feed a skip-gram
model.  This example generates the corpus — by default on the vectorized
batch engine, the high-throughput software path; ``--engine sim`` runs
the cycle-level RidgeWalker model instead — then builds a co-occurrence
PPMI matrix plus truncated-SVD embeddings (no ML framework needed), and
sanity-checks that embedding similarity reflects graph proximity.

Run:  python examples/deepwalk_embeddings.py [--engine {batch,reference,sim}]
"""

import argparse

import numpy as np

from common import add_engine_arguments, run_with_engine
from repro.graph import load_dataset
from repro.walks import DeepWalkSpec, cooccurrence_counts, make_queries

WINDOW = 4
DIMENSIONS = 16


def ppmi_embeddings(counts, num_vertices: int, dims: int) -> np.ndarray:
    """Positive-PMI matrix factorized by truncated SVD — the classic
    count-based equivalent of skip-gram embeddings."""
    matrix = np.zeros((num_vertices, num_vertices))
    for (center, context), count in counts.items():
        matrix[center, context] += count
    total = matrix.sum()
    if total == 0:
        raise ValueError("empty co-occurrence matrix")
    row = matrix.sum(axis=1, keepdims=True)
    col = matrix.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        pmi = np.log(matrix * total / (row @ col))
    pmi[~np.isfinite(pmi)] = 0.0
    pmi[pmi < 0] = 0.0
    u, s, _ = np.linalg.svd(pmi, full_matrices=False)
    return u[:, :dims] * np.sqrt(s[:dims])


def cosine(a: np.ndarray, b: np.ndarray) -> float:
    denom = np.linalg.norm(a) * np.linalg.norm(b)
    return float(a @ b / denom) if denom > 0 else 0.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    add_engine_arguments(parser)
    args = parser.parse_args()

    graph = load_dataset("WG", scale=0.08, seed=1, weighted=True)
    print(f"graph: {graph}")

    spec = DeepWalkSpec(max_length=40)
    queries = make_queries(graph, 600, seed=2)
    results = run_with_engine(args.engine, graph, spec, queries, seed=3)
    print(f"corpus: {results.num_queries} walks, {results.total_steps} hops")

    counts = cooccurrence_counts(results, window=WINDOW)
    embeddings = ppmi_embeddings(counts, graph.num_vertices, DIMENSIONS)
    print(f"embeddings: {embeddings.shape[0]} vertices x {embeddings.shape[1]} dims")

    # Sanity check: direct neighbors should be more similar than random
    # vertex pairs, on average.
    rng = np.random.default_rng(4)
    neighbor_sims = []
    random_sims = []
    walked = {int(v) for path in results.paths for v in path}
    candidates = [v for v in walked if graph.degree(v) > 0]
    for v in rng.choice(candidates, size=min(200, len(candidates)), replace=False):
        v = int(v)
        u = int(rng.choice(graph.neighbors(v)))
        w = int(rng.integers(0, graph.num_vertices))
        neighbor_sims.append(cosine(embeddings[v], embeddings[u]))
        random_sims.append(cosine(embeddings[v], embeddings[w]))
    print(f"mean cosine(neighbors): {np.mean(neighbor_sims):+.3f}")
    print(f"mean cosine(random):    {np.mean(random_sims):+.3f}")
    assert np.mean(neighbor_sims) > np.mean(random_sims), "embeddings look broken"
    print("embedding locality check passed")


if __name__ == "__main__":
    main()
