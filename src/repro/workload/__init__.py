"""Workload substrate (S4): tasks, workflows, traces, and generators.

Implements the paper's workload models: bags-of-tasks and scientific
workflows ([107], [114]), Grid-Workloads-Archive traces [139], bursty
arrival processes [113], long-term fragmentation [39], and vicissitude
mixes [22].
"""

from .arrivals import (
    MMPPArrivals,
    PoissonArrivals,
    index_of_dispersion,
    peak_to_mean_ratio,
)
from .generators import (
    DEFAULT_PROFILES,
    TaskProfile,
    VicissitudeMix,
    VicissitudePhase,
    WorkloadGenerator,
)
from .task import BagOfTasks, Job, Task, TaskState
from .trace import (
    GWF_FIELDS,
    GWFRecord,
    downsample_records,
    jobs_to_records,
    read_gwf,
    records_to_jobs,
    rescale_records,
    trace_statistics,
    write_gwf,
)
from .wfformat import (
    WfFormatError,
    load_wfformat,
    scenario_from_wfformat,
    wfformat_workflow,
)
from .workflow import (
    Workflow,
    chain_workflow,
    fork_join_workflow,
    montage_workflow,
    random_workflow,
)

__all__ = [
    "Task",
    "TaskState",
    "Job",
    "BagOfTasks",
    "Workflow",
    "montage_workflow",
    "chain_workflow",
    "fork_join_workflow",
    "random_workflow",
    "PoissonArrivals",
    "MMPPArrivals",
    "index_of_dispersion",
    "peak_to_mean_ratio",
    "TaskProfile",
    "VicissitudePhase",
    "VicissitudeMix",
    "WorkloadGenerator",
    "DEFAULT_PROFILES",
    "GWFRecord",
    "GWF_FIELDS",
    "read_gwf",
    "write_gwf",
    "records_to_jobs",
    "jobs_to_records",
    "trace_statistics",
    "downsample_records",
    "rescale_records",
    "WfFormatError",
    "load_wfformat",
    "wfformat_workflow",
    "scenario_from_wfformat",
]
