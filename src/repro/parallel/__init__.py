"""Sharded multicore walk execution over shared-memory graphs.

The software analogue of RidgeWalker's pipeline replication: the
vectorized batch engine on every core at once, fed from one
shared-memory CSR graph, balanced by a degree-aware shard planner, and
merged deterministically (bit-identical results for any worker count).
"""

from repro.parallel.engine import ParallelWalkEngine, default_workers
from repro.parallel.planner import QueryCostModel, expected_query_costs, plan_shards
from repro.parallel.shared_graph import (
    SharedArrayStore,
    SharedStoreHandle,
    graph_arrays,
    graph_from_store,
)

__all__ = [
    "ParallelWalkEngine",
    "QueryCostModel",
    "SharedArrayStore",
    "SharedStoreHandle",
    "default_workers",
    "expected_query_costs",
    "graph_arrays",
    "graph_from_store",
    "plan_shards",
]
