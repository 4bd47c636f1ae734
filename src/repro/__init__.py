"""repro: a reproduction of "Massivizing Computer Systems" (ICDCS 2018).

An ecosystem-simulation library implementing the vision paper's
conceptual artifacts as executable systems: a discrete-event simulation
kernel, the §2.1 ecosystem model with first-class NFRs, an OpenDC-style
datacenter substrate with dual-problem scheduling, autoscaling with
SPEC elasticity metrics, correlated-failure models, the Figure 1-5
reference architectures (big data, technology lineage, datacenter,
gaming, FaaS), Graphalytics-style graph processing, the PSD2 banking
scenario, Ecosystem Navigation, the §3.5 queueing models, and the §3.2
evolution dynamics.

Subpackages are imported explicitly (``import repro.datacenter``); the
top level re-exports only the ecosystem core, which every scenario
shares.
"""

from .core import (
    SLA,
    SLO,
    CollectiveFunction,
    Direction,
    Ecosystem,
    NFRKind,
    Requirement,
    System,
)
from .sim import Simulator

__version__ = "1.0.0"

__all__ = [
    "Simulator",
    "System",
    "Ecosystem",
    "CollectiveFunction",
    "NFRKind",
    "Direction",
    "Requirement",
    "SLO",
    "SLA",
    "__version__",
]
