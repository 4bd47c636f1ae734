"""FaaS / serverless substrate (S11): the Figure 5 architecture (§6.5).

The four-layer FaaS reference architecture with real-platform
validation, a simulated platform with cold starts / warm pools /
fine-grained billing, and a function-composition meta-scheduler.
"""

from .architecture import (
    FAAS_LAYERS,
    PLATFORM_MAPPINGS,
    FaaSLayer,
    FaaSReferenceArchitecture,
    validate_platform_mapping,
)
from .composition import (
    Composition,
    CompositionEngine,
    CompositionResult,
    parallel,
    sequence,
    step,
)
from .platform import FaaSPlatform, FunctionSpec, Invocation

__all__ = [
    "FaaSLayer",
    "FAAS_LAYERS",
    "FaaSReferenceArchitecture",
    "PLATFORM_MAPPINGS",
    "validate_platform_mapping",
    "FunctionSpec",
    "Invocation",
    "FaaSPlatform",
    "Composition",
    "step",
    "sequence",
    "parallel",
    "CompositionEngine",
    "CompositionResult",
]
