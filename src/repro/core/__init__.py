"""Ecosystem core model (substrate S2).

Executable forms of the paper's conceptual artifacts: the §2.1 system /
ecosystem definitions, first-class non-functional requirements (P3),
and the registries that regenerate Tables 1-5.
"""

from .challenges import CHALLENGES, Challenge, ChallengeRegistry
from .curriculum import (
    CURRICULUM_ADDITIONS,
    CurriculumAddition,
    CurriculumRegistry,
)
from .entity import CollectiveFunction, Ecosystem, System
from .fields import (
    CHARACTER_CODES,
    FIELDS,
    METHODOLOGY_CODES,
    OBJECTIVE_CODES,
    FieldComparison,
    FieldRegistry,
)
from .nfr import SLA, SLO, Direction, NFRKind, Requirement, SLAReport
from .overview import OVERVIEW_ENTRIES, MCSOverview, OverviewEntry
from .principles import PRINCIPLES, Principle, PrincipleRegistry, PrincipleType
from .profession import (
    CertificationBody,
    License,
    Privilege,
    Professional,
    UnlicensedOperationError,
    require_license,
)
from .usecases import USE_CASES, UseCase, UseCaseDirection, UseCaseRegistry

__all__ = [
    "System",
    "Ecosystem",
    "CollectiveFunction",
    "NFRKind",
    "Direction",
    "Requirement",
    "SLO",
    "SLA",
    "SLAReport",
    "Principle",
    "PrincipleType",
    "PrincipleRegistry",
    "PRINCIPLES",
    "Challenge",
    "ChallengeRegistry",
    "CHALLENGES",
    "CurriculumAddition",
    "CurriculumRegistry",
    "CURRICULUM_ADDITIONS",
    "Privilege",
    "Professional",
    "License",
    "CertificationBody",
    "UnlicensedOperationError",
    "require_license",
    "OverviewEntry",
    "MCSOverview",
    "OVERVIEW_ENTRIES",
    "UseCase",
    "UseCaseDirection",
    "UseCaseRegistry",
    "USE_CASES",
    "FieldComparison",
    "FieldRegistry",
    "FIELDS",
    "OBJECTIVE_CODES",
    "METHODOLOGY_CODES",
    "CHARACTER_CODES",
]
