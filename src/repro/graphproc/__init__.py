"""Graph-processing substrate (S10): Graphalytics made executable (§6.6).

Graph structures and generators, the six Graphalytics algorithms with
work accounting, platform cost models from the cross-platform studies
([45], [46]), and the benchmark harness with scalability, robustness,
and workload-renewal support ([42]).
"""

from .algorithms import ALGORITHMS, OpCount, bfs, cdlp, lcc, pagerank, sssp, wcc
from .graph import (
    Graph,
    grid_graph,
    preferential_attachment_graph,
    random_graph,
)
from .graphalytics import (
    BenchmarkResult,
    GraphalyticsHarness,
    Workload,
    default_workload,
)
from .csr import CSRGraph, pagerank_csr
from .platforms import PLATFORMS, PlatformModel

__all__ = [
    "Graph",
    "random_graph",
    "preferential_attachment_graph",
    "grid_graph",
    "OpCount",
    "bfs",
    "pagerank",
    "wcc",
    "cdlp",
    "lcc",
    "sssp",
    "ALGORITHMS",
    "PlatformModel",
    "PLATFORMS",
    "BenchmarkResult",
    "Workload",
    "GraphalyticsHarness",
    "default_workload",
    "CSRGraph",
    "pagerank_csr",
]
