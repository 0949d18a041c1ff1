"""Unit tests for document building."""

from repro.data.documents import N_DISTRACTORS, build_corpus, build_document


class TestBuildCorpus:
    def test_one_document_per_entity(self, world, corpus):
        assert len(corpus) == len(world.entities)

    def test_titles_are_entity_names(self, corpus):
        for document in corpus:
            assert document.title == document.entity.name

    def test_text_starts_with_title_entity(self, corpus):
        for document in corpus:
            assert document.text.startswith(document.entity.name.split()[0])

    def test_links_point_to_real_documents(self, corpus):
        titles = set(corpus.titles())
        for document in corpus:
            for link in document.links:
                assert link in titles

    def test_facts_recorded(self, world, corpus):
        for document in corpus:
            world_facts = world.facts_of(document.entity)
            assert len(document.facts) == len(world_facts)

    def test_deterministic(self, world):
        a = build_corpus(world)
        b = build_corpus(world)
        assert [d.text for d in a] == [d.text for d in b]

    def test_distractors_present(self, world, rng):
        document = build_document(world.entities[0], world, 0, rng)
        # intro + facts + the distractors => more sentences than distractors
        assert document.text.count(".") >= N_DISTRACTORS

    def test_fact_values_verbalized(self, world, corpus):
        # each entity-valued fact's object must appear in the text
        for document in list(corpus)[:20]:
            for fact in document.facts:
                if fact.relation in ("occupation", "birth_year"):
                    continue
                assert fact.value_text in document.text
