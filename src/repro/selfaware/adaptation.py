"""The adaptation taxonomy of the paper's self-awareness survey (C6, [95]).

C6 cites the authors' 2017 survey [95], which identified **10 classes
of problems** with immediate practical use and **7 classes of existing
approaches**.  This module encodes both taxonomies, the
problem-to-approach applicability map, and — because this reproduction
is executable — the :mod:`repro` component implementing each approach
class where one exists.
"""

from __future__ import annotations

import enum

__all__ = ["AdaptationProblem", "AdaptationApproach",
           "APPROACH_IMPLEMENTATIONS", "APPLICABILITY", "approaches_for",
           "problems_addressed_by"]


class AdaptationProblem(enum.Enum):
    """The 10 problem classes of [95] (paper C6, list (i)-(x))."""

    RECOVERY_PLANNING = "recovery planning"
    AUTOSCALING = "autoscaling of resources"
    RECONFIGURATION = "runtime architectural reconfiguration and load balancing"
    FAULT_TOLERANCE = "fault-tolerance in distributed systems"
    ENERGY_PROPORTIONALITY = "energy-proportionality and energy-efficient operation"
    WORKLOAD_PREDICTION = "workload prediction"
    PERFORMANCE_ISOLATION = "performance isolation"
    DIAGNOSIS = "diagnosis and troubleshooting"
    TOPOLOGY_DISCOVERY = "discovery of application topology"
    INTRUSION_DETECTION = "intrusion detection and prevention"


class AdaptationApproach(enum.Enum):
    """The 7 approach classes of [95] (paper C6, list (i)-(vii))."""

    FEEDBACK_CONTROL = "feedback control-based techniques"
    METRIC_OPTIMIZATION = "metric optimization with constraints"
    MACHINE_LEARNING = "machine learning-based techniques"
    PORTFOLIO_SCHEDULING = "portfolio scheduling"
    SELF_AWARE_RECONFIGURATION = "self-aware architecture reconfiguration"
    STOCHASTIC_MODELS = "stochastic performance models"
    OTHER = "other approaches"


#: Approach class -> repro component that implements it (where built).
APPROACH_IMPLEMENTATIONS: dict[AdaptationApproach, str] = {
    AdaptationApproach.FEEDBACK_CONTROL:
        "repro.autoscaling.autoscalers.AdaptAutoscaler",
    AdaptationApproach.METRIC_OPTIMIZATION:
        "repro.navigation.selection",
    AdaptationApproach.MACHINE_LEARNING:
        "repro.autoscaling.autoscalers.RegAutoscaler",
    AdaptationApproach.PORTFOLIO_SCHEDULING:
        "repro.scheduling.portfolio.PortfolioScheduler",
    AdaptationApproach.SELF_AWARE_RECONFIGURATION:
        "repro.autoscaling.controller.AutoscalingController",
    AdaptationApproach.STOCHASTIC_MODELS:
        "repro.solvers.queueing",
    AdaptationApproach.OTHER:
        "repro.autoscaling.autoscalers",
}

#: Problem class -> approach classes applied to it in practice ([95]).
APPLICABILITY: dict[AdaptationProblem, tuple[AdaptationApproach, ...]] = {
    AdaptationProblem.RECOVERY_PLANNING: (
        AdaptationApproach.SELF_AWARE_RECONFIGURATION,
        AdaptationApproach.STOCHASTIC_MODELS,
        AdaptationApproach.OTHER),
    AdaptationProblem.AUTOSCALING: (
        AdaptationApproach.FEEDBACK_CONTROL,
        AdaptationApproach.MACHINE_LEARNING,
        AdaptationApproach.PORTFOLIO_SCHEDULING,
        AdaptationApproach.STOCHASTIC_MODELS),
    AdaptationProblem.RECONFIGURATION: (
        AdaptationApproach.SELF_AWARE_RECONFIGURATION,
        AdaptationApproach.METRIC_OPTIMIZATION,
        AdaptationApproach.FEEDBACK_CONTROL),
    AdaptationProblem.FAULT_TOLERANCE: (
        AdaptationApproach.SELF_AWARE_RECONFIGURATION,
        AdaptationApproach.STOCHASTIC_MODELS,
        AdaptationApproach.OTHER),
    AdaptationProblem.ENERGY_PROPORTIONALITY: (
        AdaptationApproach.FEEDBACK_CONTROL,
        AdaptationApproach.METRIC_OPTIMIZATION),
    AdaptationProblem.WORKLOAD_PREDICTION: (
        AdaptationApproach.MACHINE_LEARNING,
        AdaptationApproach.STOCHASTIC_MODELS),
    AdaptationProblem.PERFORMANCE_ISOLATION: (
        AdaptationApproach.FEEDBACK_CONTROL,
        AdaptationApproach.METRIC_OPTIMIZATION),
    AdaptationProblem.DIAGNOSIS: (
        AdaptationApproach.MACHINE_LEARNING,
        AdaptationApproach.OTHER),
    AdaptationProblem.TOPOLOGY_DISCOVERY: (
        AdaptationApproach.MACHINE_LEARNING,
        AdaptationApproach.OTHER),
    AdaptationProblem.INTRUSION_DETECTION: (
        AdaptationApproach.MACHINE_LEARNING,
        AdaptationApproach.OTHER),
}


def approaches_for(problem: AdaptationProblem) -> tuple[AdaptationApproach, ...]:
    """The approach classes applied in practice to ``problem``."""
    return APPLICABILITY[problem]


def problems_addressed_by(
        approach: AdaptationApproach) -> list[AdaptationProblem]:
    """The problem classes an approach class has been applied to."""
    return [problem for problem, approaches in APPLICABILITY.items()
            if approach in approaches]
