"""The twenty research challenges of MCS (paper §5, Table 3).

Each challenge row records its type, index, key aspects, the principles
it derives from, and which :mod:`repro` modules address it in this
reproduction — giving an executable cross-reference from the paper's
research agenda to the code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .principles import PrincipleRegistry

__all__ = ["Challenge", "ChallengeRegistry", "CHALLENGES"]


@dataclass(frozen=True)
class Challenge:
    """One challenge row of Table 3."""

    index: str
    type: str
    key_aspects: str
    principles: tuple[str, ...]
    statement: str
    addressed_by: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.index.startswith("C"):
            raise ValueError(f"challenge index must start with 'C': {self.index}")

    @property
    def number(self) -> int:
        """Numeric part of the index (C7 -> 7)."""
        return int(self.index[1:])


#: Table 3 of the paper: index, type, key aspects, principle mapping.
CHALLENGES: tuple[Challenge, ...] = (
    Challenge("C1", "Systems", "Ecosystems, overall", ("P1",),
              "Ecosystems instead of systems.",
              ("repro.core.entity",)),
    Challenge("C2", "Systems", "Software-defined everything", ("P2",),
              "Make ecosystems fully software-defined, and cope with legacy "
              "and partially software-defined systems.",
              ("repro.datacenter.layers",)),
    Challenge("C3", "Systems", "Non-functional requirements", ("P3", "P5"),
              "Make non-functional requirements first-class considerations, "
              "understand key trade-offs between them, and enable ways to "
              "specify targets (dynamically) with minimal (specialist) input.",
              ("repro.core.nfr",)),
    Challenge("C4", "Systems", "Extreme heterogeneity", ("P4",),
              "Manage extreme heterogeneity.",
              ("repro.datacenter.machine", "repro.workload.generators")),
    Challenge("C5", "Systems", "Socially aware", ("P4",),
              "Socially aware systems, with the human in the control loop.",
              ("repro.gaming.metagaming",)),
    Challenge("C6", "Systems", "Adaptation, self-awareness", ("P4",),
              "Make use of adaptation approaches, from simple feedback loops "
              "to self-awareness, to respond automatically to anomalies and "
              "to changes in requirements.",
              ("repro.autoscaling.controller", "repro.selfaware.adaptation")),
    Challenge("C7", "Systems", "Scheduling, the dual problem", ("P4", "P5"),
              "Scheduling, consisting of both provisioning and allocation, on "
              "behalf of different, possibly delegating stakeholders.",
              ("repro.scheduling.scheduler", "repro.scheduling.provisioning")),
    Challenge("C8", "Systems", "Sophisticated services", ("P4",),
              "Sophisticated components in the ecosystem offered as services.",
              ("repro.faas.platform",)),
    Challenge("C9", "Systems", "The Ecosystem Navigation challenge",
              ("P2", "P3", "P4", "P5"),
              "Solving problems of comparison, selection, composition, "
              "replacement, and adaptation of components (and assemblies) on "
              "behalf of the user.",
              ("repro.navigation.selection", "repro.navigation.catalog")),
    Challenge("C10", "Systems", "Interoperability, federation, delegation",
              ("P4", "P5"),
              "Interoperate assemblies, dynamically: geo-distributed, "
              "federated, multi-DC operation, and service delegation.",
              ("repro.datacenter.federation",)),
    Challenge("C11", "Peopleware", "Community engagement", ("P6",),
              "Create communities and environments for people to engage with "
              "the design and operation of ecosystems.",
              ("repro.reporting.tables",)),
    Challenge("C12", "Peopleware", "Curriculum, BOKMCS", ("P6",),
              "Create a teachable common body of knowledge for MCS (BOKMCS).",
              ("repro.core.overview",)),
    Challenge("C13", "Peopleware", "Explaining to all stakeholders",
              ("P4", "P6"),
              "Support for showing and explaining the operation of the "
              "ecosystem to all stakeholders, continuously.",
              ("repro.sim.monitor", "repro.reporting.tables")),
    Challenge("C14", "Peopleware", "The Design of Design challenge",
              ("P6", "P7"),
              "The Design of Design.",
              ("repro.navigation.selection",)),
    Challenge("C15", "Methodology", "Simulation and Real-world experimentation",
              ("P7", "P8"),
              "Simulation-based calibrated approaches and real-world "
              "experimentation with methodology that ensures reproducibility "
              "as key instruments.",
              ("repro.sim.engine", "repro.sim.rng")),
    Challenge("C16", "Methodology", "Reproducibility and benchmarking",
              ("P7", "P8"),
              "Reproducibility of analysis results regarding functional and "
              "non-functional properties of systems, including through a new "
              "generation of evolving benchmarks.",
              ("repro.graphproc.graphalytics", "repro.workload.trace")),
    Challenge("C17", "Methodology", "Testing, validation, verification", ("P8",),
              "Testing, validation, verification in this new world. Manage "
              "the trade-offs between accuracy and time to results.",
              ("tests",)),
    Challenge("C18", "Methodology", "A Science of MCS", ("P8", "P9"),
              "Build a science of Massivizing Computer Systems.",
              ("repro.core.fields",)),
    Challenge("C19", "Methodology", "The New World challenge", ("P8", "P9"),
              "Understanding and explaining new modes of use, including new, "
              "realistic, accurate, yet tractable models of workloads and "
              "environments.",
              ("repro.workload.generators", "repro.workload.arrivals")),
    Challenge("C20", "Methodology", "The ethics of MCS", ("P10",),
              "Understand challenges in the ethics of MCS, and evolve our "
              "instruments to support ethics in this context.",
              ("repro.core.principles",)),
)


class ChallengeRegistry:
    """Queryable collection of the twenty challenges."""

    def __init__(self, challenges: Sequence[Challenge] = CHALLENGES) -> None:
        indices = [c.index for c in challenges]
        if len(set(indices)) != len(indices):
            raise ValueError("duplicate challenge indices")
        self._challenges = tuple(challenges)

    def __iter__(self) -> Iterator[Challenge]:
        return iter(self._challenges)

    def __len__(self) -> int:
        return len(self._challenges)

    def get(self, index: str) -> Challenge:
        """Look up a challenge by index (e.g. ``"C7"``)."""
        for challenge in self._challenges:
            if challenge.index == index:
                return challenge
        raise KeyError(index)

    def by_type(self, type_: str) -> list[Challenge]:
        """All challenges in one Table 3 row group."""
        return [c for c in self._challenges if c.type == type_]

    def by_principle(self, principle_index: str) -> list[Challenge]:
        """Challenges derived from a given principle."""
        return [c for c in self._challenges if principle_index in c.principles]

    def validate_against(self, principles: PrincipleRegistry) -> None:
        """Check that every referenced principle exists (cross-table check)."""
        for challenge in self._challenges:
            for index in challenge.principles:
                principles.get(index)  # raises KeyError when dangling

    def table_rows(self) -> list[tuple[str, str, str, str]]:
        """(type, index, key aspects, principles) rows as in Table 3."""
        return [(c.type, c.index, c.key_aspects, ", ".join(c.principles))
                for c in self._challenges]
