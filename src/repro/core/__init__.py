"""RidgeWalker core: the paper's primary contribution, cycle-simulated."""

from repro.core.access_engine import AccessEngine, ResponseRouter
from repro.core.accelerator import RidgeWalker, RidgeWalkerRun
from repro.core.config import RidgeWalkerConfig, theorem_fifo_depth
from repro.core.endpoints import QueryLoader, QueryWriter, TaskDemux
from repro.core.interconnect import ButterflyBalancer, DistributionTree, Forwarder
from repro.core.pipeline import AsyncPipeline
from repro.core.recorder import WalkRecorder
from repro.core.sampling_module import SamplingModule
from repro.core.scheduling import Dispatcher, Merger
from repro.core.task import TERMINAL_STATUSES, Task, TaskStatus

__all__ = [
    "AccessEngine",
    "AsyncPipeline",
    "ButterflyBalancer",
    "Dispatcher",
    "DistributionTree",
    "Forwarder",
    "Merger",
    "QueryLoader",
    "QueryWriter",
    "ResponseRouter",
    "RidgeWalker",
    "RidgeWalkerConfig",
    "RidgeWalkerRun",
    "SamplingModule",
    "TERMINAL_STATUSES",
    "Task",
    "TaskDemux",
    "TaskStatus",
    "WalkRecorder",
    "theorem_fifo_depth",
]
