"""Distributed shard-routed walk engine (``--engine dist``).

The CSR graph is partitioned across N worker processes with the
degree-aware cost model of :mod:`repro.parallel.planner`; each shard
runs the vectorized batch superstep over its own shared-memory segment,
and in-flight walkers are *forwarded* between shards through per-pair
message queues — the software analogue of RidgeWalker's butterfly-routed
walker dispatch, and of ThunderRW/LightRW's move-the-walker-to-the-data
placement.  Results are bit-identical to ``--engine batch`` for any
shard count and any forwarding interleave, because every walker carries
its own ``SeedSequence((seed, query_id))`` substream state with it.
"""

from repro.dist.engine import DistWalkEngine
from repro.dist.shard import (
    ShardGraphView,
    build_shard_stores,
    partition_vertices,
    shard_view_from_store,
)

__all__ = [
    "DistWalkEngine",
    "ShardGraphView",
    "build_shard_stores",
    "partition_vertices",
    "shard_view_from_store",
]
