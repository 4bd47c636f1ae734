"""Self-awareness substrate (S7): the adaptation taxonomy and recovery.

The 10-problem / 7-approach adaptation taxonomy of the paper's survey
[95] (C6), with the repro component that implements each approach
class, and retry-based recovery planning.  The feedback loops C6 calls
for run in :mod:`repro.autoscaling`: the autoscaling controller's tick
loop and its alert-driven response.
"""

from .adaptation import (
    APPLICABILITY,
    APPROACH_IMPLEMENTATIONS,
    AdaptationApproach,
    AdaptationProblem,
    approaches_for,
    problems_addressed_by,
)
from .anomaly import RecoveryPlanner

__all__ = [
    "AdaptationProblem",
    "AdaptationApproach",
    "APPROACH_IMPLEMENTATIONS",
    "APPLICABILITY",
    "approaches_for",
    "problems_addressed_by",
    "RecoveryPlanner",
]
