"""The BOKMCS curriculum additions (C12).

C12 asks for "a teachable common body of knowledge for MCS" and lists
five concrete additions to the ACM/IEEE and NSF/IEEE-TCPP curricula.
The registry encodes them with the audience they target and — because
this reproduction is executable — the :mod:`repro` modules a student
would study for each addition.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = ["CurriculumAddition", "CURRICULUM_ADDITIONS",
           "CurriculumRegistry"]


@dataclass(frozen=True)
class CurriculumAddition:
    """One of the C12 additions (i)-(v)."""

    index: str
    title: str
    description: str
    audience: str
    study_modules: tuple[str, ...]


#: The five C12 additions, in the paper's order.
CURRICULUM_ADDITIONS: tuple[CurriculumAddition, ...] = (
    CurriculumAddition(
        "i", "General problem-solving techniques",
        "the computer-centric and human-centric techniques of §3.5: "
        "heuristic search, evolutionary computing, queueing models, "
        "performance models",
        "all students",
        ("repro.solvers.queueing",)),
    CurriculumAddition(
        "ii", "Systems Thinking",
        "elements of Complex Adaptive Systems and Control Theory: "
        "analyzing ecosystems to find laws, synthesizing and tuning them",
        "all students",
        ("repro.core.entity", "repro.autoscaling.controller",
         "repro.evolution.model")),
    CurriculumAddition(
        "iii", "Design Thinking",
        "representation and evaluation of designs, designs with "
        "quantitative, qualitative, and even no final goals",
        "all students",
        ("repro.navigation.selection", "repro.scheduling.reference")),
    CurriculumAddition(
        "iv", "Requirements engineering and user-centered design",
        "in-depth non-functional-requirements analysis with realistic "
        "and quantitative aspects",
        "students from low-quality SE courses",
        ("repro.core.nfr",)),
    CurriculumAddition(
        "v", "Experiment design and systematic surveys",
        "basics of experiment design with software artifacts, "
        "systematic literature surveys, user studies",
        "students from traditional curricula",
        ("repro.sim.rng", "repro.graphproc.graphalytics")),
)


class CurriculumRegistry:
    """Queryable form of the C12 additions."""

    def __init__(self, additions: tuple[CurriculumAddition, ...]
                 = CURRICULUM_ADDITIONS) -> None:
        indices = [a.index for a in additions]
        if len(set(indices)) != len(indices):
            raise ValueError("duplicate addition indices")
        self._additions = additions

    def __iter__(self) -> Iterator[CurriculumAddition]:
        return iter(self._additions)

    def __len__(self) -> int:
        return len(self._additions)

    def get(self, index: str) -> CurriculumAddition:
        """Look up an addition by its roman index ('i'..'v')."""
        for addition in self._additions:
            if addition.index == index:
                return addition
        raise KeyError(index)

    def for_all_students(self) -> list[CurriculumAddition]:
        """The universally recommended additions (i)-(iii)."""
        return [a for a in self._additions if a.audience == "all students"]

    def study_plan(self) -> list[tuple[str, str]]:
        """(module, addition title) pairs — the executable syllabus."""
        return [(module, addition.title)
                for addition in self._additions
                for module in addition.study_modules]
