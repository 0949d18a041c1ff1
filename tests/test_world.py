"""Unit tests for the synthetic world generator."""

from repro.data.world import ENTITY_KINDS, RELATION_SCHEMA, World, WorldConfig


class TestWorldGeneration:
    def test_entity_counts_match_config(self, world):
        cfg = world.config
        assert len(world.entities_of_kind("person")) == cfg.n_persons
        assert len(world.entities_of_kind("club")) == cfg.n_clubs
        assert len(world.entities_of_kind("city")) == cfg.n_cities

    def test_unique_names(self, world):
        names = [e.name for e in world.entities]
        assert len(names) == len(set(names))

    def test_deterministic(self):
        a = World(WorldConfig(seed=42))
        b = World(WorldConfig(seed=42))
        assert [e.name for e in a.entities] == [e.name for e in b.entities]
        assert len(a.facts) == len(b.facts)

    def test_different_seeds_differ(self):
        a = World(WorldConfig(seed=1))
        b = World(WorldConfig(seed=2))
        assert [e.name for e in a.entities] != [e.name for e in b.entities]

    def test_every_fact_schema_valid(self, world):
        for fact in world.facts:
            subject_kind, object_kind = RELATION_SCHEMA[fact.relation]
            assert fact.subject.kind == subject_kind
            if fact.value_entity is not None:
                assert fact.value_entity.kind == object_kind
            else:
                assert object_kind.startswith("literal:")

    def test_every_person_has_occupation_and_birth_year(self, world):
        for person in world.entities_of_kind("person"):
            assert world.fact_of(person, "occupation") is not None
            assert world.fact_of(person, "birth_year") is not None

    def test_every_club_has_founded_year(self, world):
        for club in world.entities_of_kind("club"):
            fact = world.fact_of(club, "founded_year")
            assert fact is not None
            assert fact.value_text.isdigit()

    def test_facts_of_indexing(self, world):
        person = world.entities_of_kind("person")[0]
        facts = world.facts_of(person)
        assert facts
        assert all(f.subject.uid == person.uid for f in facts)

    def test_facts_with_relation(self, world):
        plays = world.facts_with_relation("plays_for")
        assert all(f.relation == "plays_for" for f in plays)

    def test_all_kinds_generated(self, world):
        for kind in ENTITY_KINDS:
            assert world.entities_of_kind(kind), f"no entities of kind {kind}"
