"""Unit tests for the BOKMCS curriculum registry (C12)."""

import importlib

import pytest

from repro.core import CURRICULUM_ADDITIONS, CurriculumRegistry


def test_five_additions_in_paper_order():
    registry = CurriculumRegistry()
    assert len(registry) == 5
    assert [a.index for a in registry] == ["i", "ii", "iii", "iv", "v"]


def test_first_three_target_all_students():
    registry = CurriculumRegistry()
    universal = registry.for_all_students()
    assert [a.index for a in universal] == ["i", "ii", "iii"]
    assert universal[1].title == "Systems Thinking"
    assert universal[2].title == "Design Thinking"


def test_gap_additions_have_specific_audiences():
    registry = CurriculumRegistry()
    assert "SE courses" in registry.get("iv").audience
    assert "traditional" in registry.get("v").audience


def test_unknown_index_raises():
    with pytest.raises(KeyError):
        CurriculumRegistry().get("vi")


def test_every_study_module_imports():
    """The executable syllabus: every referenced module must exist."""
    for addition in CURRICULUM_ADDITIONS:
        for module in addition.study_modules:
            importlib.import_module(module)


def test_study_plan_covers_all_additions():
    plan = CurriculumRegistry().study_plan()
    titles = {title for _, title in plan}
    assert titles == {a.title for a in CURRICULUM_ADDITIONS}
    assert plan == [
        ("repro.solvers.queueing", "General problem-solving techniques"),
        ("repro.core.entity", "Systems Thinking"),
        ("repro.autoscaling.controller", "Systems Thinking"),
        ("repro.evolution.model", "Systems Thinking"),
        ("repro.navigation.selection", "Design Thinking"),
        ("repro.scheduling.reference", "Design Thinking"),
        ("repro.core.nfr",
         "Requirements engineering and user-centered design"),
        ("repro.sim.rng", "Experiment design and systematic surveys"),
        ("repro.graphproc.graphalytics",
         "Experiment design and systematic surveys"),
    ]
