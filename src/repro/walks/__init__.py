"""Walk algorithms: URW, PPR, DeepWalk, Node2Vec, MetaPath + reference engine."""

from repro.walks.base import (
    DEFAULT_MAX_LENGTH,
    Query,
    WalkBatch,
    WalkResults,
    WalkSpec,
    make_queries,
)
from repro.walks.batch import run_walks_batch
from repro.walks.deepwalk import DeepWalkSpec, cooccurrence_counts, skip_gram_pairs
from repro.walks.engine import EngineStats
from repro.walks.metapath import MetaPathSpec
from repro.walks.node2vec import (
    PAPER_P,
    PAPER_Q,
    Node2VecSpec,
    exact_step_distribution,
)
from repro.walks.ppr import PPRSpec, estimate_ppr
from repro.walks.reference import run_walks
from repro.walks.urw import URWSpec

__all__ = [
    "DEFAULT_MAX_LENGTH",
    "DeepWalkSpec",
    "EngineStats",
    "MetaPathSpec",
    "Node2VecSpec",
    "PAPER_P",
    "PAPER_Q",
    "PPRSpec",
    "Query",
    "URWSpec",
    "WalkBatch",
    "WalkResults",
    "WalkSpec",
    "cooccurrence_counts",
    "estimate_ppr",
    "exact_step_distribution",
    "make_queries",
    "run_walks",
    "run_walks_batch",
    "skip_gram_pairs",
]
