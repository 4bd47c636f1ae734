"""Scheduling substrate (S5): the dual problem of C7.

Allocation (queue-ordering + placement policies, EASY backfilling),
provisioning (static / on-demand / reserved+on-demand), portfolio
scheduling [112], a workflow execution engine, and the Schopf-style
eleven-stage scheduling reference architecture (§6.1).
"""

from .architectures import (
    JobRouter,
    LeastLoadedRouter,
    MultiClusterDeployment,
    RandomRouter,
    Site,
    run_architecture,
)
from .policies import (
    EDF,
    FCFS,
    LJF,
    ORDER_FALLBACKS,
    PLACEMENT_POLICIES,
    QUEUE_POLICIES,
    SJF,
    BestFit,
    CheapestFit,
    FairShare,
    FastestFit,
    FirstFit,
    GreenestFit,
    PlacementPolicy,
    QueuePolicy,
    RandomOrder,
    RoundRobin,
    SmallestTaskFirst,
    WorstFit,
    incremental_sort_key,
    vectorized_placement,
)
from .portfolio import PolicyScore, PortfolioScheduler, estimate_mean_slowdown
from .provisioning import (
    OnDemandProvisioning,
    ReservedPlusOnDemand,
    StaticProvisioning,
)
from .reference import (
    STAGE_DESCRIPTIONS,
    PipelineContext,
    PlacementDecision,
    SchedulingPipeline,
    SchedulingStage,
)
from .scheduler import ClusterScheduler
from .workflow_engine import WorkflowEngine, WorkflowFailed

__all__ = [
    "QueuePolicy",
    "PlacementPolicy",
    "FCFS",
    "SJF",
    "LJF",
    "EDF",
    "SmallestTaskFirst",
    "RandomOrder",
    "FairShare",
    "FirstFit",
    "BestFit",
    "WorstFit",
    "RoundRobin",
    "FastestFit",
    "CheapestFit",
    "GreenestFit",
    "QUEUE_POLICIES",
    "PLACEMENT_POLICIES",
    "ORDER_FALLBACKS",
    "incremental_sort_key",
    "vectorized_placement",
    "ClusterScheduler",
    "Site",
    "JobRouter",
    "RandomRouter",
    "LeastLoadedRouter",
    "MultiClusterDeployment",
    "run_architecture",
    "WorkflowEngine",
    "WorkflowFailed",
    "StaticProvisioning",
    "OnDemandProvisioning",
    "ReservedPlusOnDemand",
    "PortfolioScheduler",
    "PolicyScore",
    "estimate_mean_slowdown",
    "SchedulingPipeline",
    "SchedulingStage",
    "PipelineContext",
    "PlacementDecision",
    "STAGE_DESCRIPTIONS",
]
