"""Unit tests for the Table 1-5 registries."""

import pytest

from repro.core import (
    CHALLENGES,
    USE_CASES,
    Challenge,
    ChallengeRegistry,
    FieldRegistry,
    MCSOverview,
    Principle,
    PrincipleRegistry,
    PrincipleType,
    UseCaseDirection,
    UseCaseRegistry,
)


# ---------------------------------------------------------------------------
# Table 2 — principles
# ---------------------------------------------------------------------------
class TestPrinciples:
    def test_exactly_ten(self):
        assert len(PrincipleRegistry()) == 10

    def test_indices_p1_to_p10(self):
        assert [p.index for p in PrincipleRegistry()] == [
            f"P{i}" for i in range(1, 11)]

    def test_type_groups_match_table2(self):
        registry = PrincipleRegistry()
        assert [p.index for p in registry.by_type(PrincipleType.SYSTEMS)] == \
            ["P1", "P2", "P3", "P4", "P5"]
        assert [p.index for p in registry.by_type(PrincipleType.PEOPLEWARE)] == \
            ["P6", "P7"]
        assert [p.index for p in registry.by_type(PrincipleType.METHODOLOGY)] == \
            ["P8", "P9", "P10"]

    def test_key_aspects_verbatim(self):
        registry = PrincipleRegistry()
        assert registry.get("P1").key_aspects == "The Age of Ecosystems"
        assert registry.get("P4").key_aspects == "RM&S, Self-Awareness"
        assert registry.get("P10").key_aspects == "ethics and transparency"

    def test_get_unknown_raises(self):
        with pytest.raises(KeyError):
            PrincipleRegistry().get("P11")

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            Principle("X1", PrincipleType.SYSTEMS, "a", "b", "4")

    def test_revise_creates_new_revision(self):
        registry = PrincipleRegistry()
        updated = registry.get("P1")
        revised = registry.revise(updates=[Principle(
            "P1", PrincipleType.SYSTEMS, updated.key_aspects,
            "Revised statement.", "4")])
        assert revised.revision == registry.revision + 1
        assert revised.get("P1").statement == "Revised statement."
        assert registry.get("P1").statement != "Revised statement."

    def test_revise_can_add_principle(self):
        revised = PrincipleRegistry().revise(additions=[Principle(
            "P11", PrincipleType.METHODOLOGY, "new", "New principle.", "4.3")])
        assert len(revised) == 11

    def test_revise_rejects_unknown_update(self):
        with pytest.raises(KeyError):
            PrincipleRegistry().revise(updates=[Principle(
                "P99", PrincipleType.SYSTEMS, "x", "y", "4")])

    def test_revise_rejects_duplicate_addition(self):
        with pytest.raises(ValueError):
            PrincipleRegistry().revise(additions=[Principle(
                "P1", PrincipleType.SYSTEMS, "x", "y", "4")])

    def test_table_rows_shape(self):
        rows = PrincipleRegistry().table_rows()
        assert len(rows) == 10
        assert rows[0] == ("Systems", "P1", "The Age of Ecosystems")


# ---------------------------------------------------------------------------
# Table 3 — challenges
# ---------------------------------------------------------------------------
class TestChallenges:
    def test_exactly_twenty(self):
        assert len(ChallengeRegistry()) == 20

    def test_indices_c1_to_c20(self):
        assert [c.index for c in ChallengeRegistry()] == [
            f"C{i}" for i in range(1, 21)]

    def test_type_groups_match_table3(self):
        registry = ChallengeRegistry()
        assert len(registry.by_type("Systems")) == 10
        assert len(registry.by_type("Peopleware")) == 4
        assert len(registry.by_type("Methodology")) == 6

    def test_principle_mapping_matches_table3(self):
        registry = ChallengeRegistry()
        assert registry.get("C3").principles == ("P3", "P5")
        assert registry.get("C7").principles == ("P4", "P5")
        assert registry.get("C9").principles == ("P2", "P3", "P4", "P5")
        assert registry.get("C20").principles == ("P10",)

    def test_every_principle_reference_resolves(self):
        ChallengeRegistry().validate_against(PrincipleRegistry())

    def test_every_principle_spawns_a_challenge(self):
        registry = ChallengeRegistry()
        for i in range(1, 11):
            assert registry.by_principle(f"P{i}"), f"P{i} has no challenge"

    def test_bad_index_rejected(self):
        with pytest.raises(ValueError):
            Challenge("X1", "Systems", "a", ("P1",), "b")

    def test_addressed_by_names_real_modules(self):
        import importlib
        for challenge in CHALLENGES:
            for module_name in challenge.addressed_by:
                if module_name == "tests":
                    continue
                importlib.import_module(module_name)


# ---------------------------------------------------------------------------
# Table 1 — overview
# ---------------------------------------------------------------------------
class TestOverview:
    def test_all_four_question_groups_present(self):
        overview = MCSOverview()
        for question in MCSOverview.QUESTIONS:
            assert overview.by_question(question)

    def test_what_rows(self):
        aspects = [e.aspect for e in MCSOverview().by_question("What?")]
        assert aspects == ["Central Paradigm", "Focus", "Concerns"]

    def test_how_has_six_methodology_rows(self):
        assert len(MCSOverview().by_question("How?")) == 6

    def test_aspect_lookup(self):
        entry = MCSOverview().aspect("Concerns")
        assert entry.content == "emergence, evolution"

    def test_unknown_question_raises(self):
        with pytest.raises(KeyError):
            MCSOverview().by_question("Why?")

    def test_unknown_aspect_raises(self):
        with pytest.raises(KeyError):
            MCSOverview().aspect("Nonexistent")


# ---------------------------------------------------------------------------
# Table 4 — use cases
# ---------------------------------------------------------------------------
class TestUseCases:
    def test_exactly_six(self):
        assert len(UseCaseRegistry()) == 6

    def test_three_endogenous_three_exogenous(self):
        registry = UseCaseRegistry()
        assert len(registry.by_direction(UseCaseDirection.ENDOGENOUS)) == 3
        assert len(registry.by_direction(UseCaseDirection.EXOGENOUS)) == 3

    def test_locations_match_table4(self):
        assert {u.location for u in USE_CASES} == {
            "§6.1", "§6.2", "§6.3", "§6.4", "§6.5", "§6.6"}

    def test_gaming_row(self):
        gaming = UseCaseRegistry().get("§6.3")
        assert gaming.description == "Online gaming"
        assert gaming.key_aspects == "multi-functional MCS"

    def test_unknown_location_raises(self):
        with pytest.raises(KeyError):
            UseCaseRegistry().get("§9.9")


# ---------------------------------------------------------------------------
# Table 5 — fields comparison
# ---------------------------------------------------------------------------
class TestFields:
    def test_six_fields(self):
        assert len(FieldRegistry()) == 6

    def test_mcs_row_is_envisioned(self):
        mcs = FieldRegistry().mcs()
        assert mcs.envisioned
        assert mcs.crisis == "Systems complexity"
        assert mcs.continues == "Distributed Systems"
        assert mcs.objectives == "DES"

    def test_code_expansion(self):
        mcs = FieldRegistry().mcs()
        assert mcs.expand_objectives() == ["Design", "Engineering", "Scientific"]
        assert "simulation" in mcs.expand_methodology()
        assert "applicability" in mcs.expand_character()

    def test_invalid_codes_rejected(self):
        from repro.core import FieldComparison
        with pytest.raises(ValueError):
            FieldComparison("bad", "2020s", "c", "p", "Z", "o", "A", "A")
        with pytest.raises(ValueError):
            FieldComparison("bad", "2020s", "c", "p", "S", "o", "Z", "A")
        with pytest.raises(ValueError):
            FieldComparison("bad", "2020s", "c", "p", "S", "o", "A", "Z")

    def test_systems_biology_closest_to_mcs(self):
        # The paper: "Among the fields we survey, closest to MCS is
        # Systems Biology" — shares the Systems-complexity crisis.
        assert FieldRegistry().closest_to_mcs().name == "Systems Biology"

    def test_table_rows_shape(self):
        rows = FieldRegistry().table_rows()
        assert len(rows) == 6
        assert rows[-1][0] == "MCS (this work)"
