"""Unit tests for the entity linker / entity index."""

import os
import subprocess
import sys

import pytest

from repro.index.entity_index import EntityIndex


class TestEntityLinking:
    def test_simple_mention(self):
        linker = EntityIndex(["Millwall Athletic", "Walter Davis"])
        found = linker.link("Walter Davis played for Millwall Athletic.")
        assert set(found) == {"Walter Davis", "Millwall Athletic"}

    def test_longest_match_wins(self):
        linker = EntityIndex(["Millwall", "Millwall Athletic"])
        found = linker.link("He joined Millwall Athletic in 1900.")
        assert found == ["Millwall Athletic"]

    def test_case_insensitive(self):
        linker = EntityIndex(["Millwall Athletic"])
        assert linker.link("MILLWALL ATHLETIC won") == ["Millwall Athletic"]

    def test_no_duplicates(self):
        linker = EntityIndex(["Millwall"])
        found = linker.link("Millwall beat Millwall reserves")
        assert found == ["Millwall"]

    def test_no_match(self):
        linker = EntityIndex(["Millwall"])
        assert linker.link("nothing to see here") == []


#: three titles that tokenise to one key, ("alpha", "band")
SAME_KEY = ["Alpha Band", "ALPHA band", "alpha  band"]


class TestCanonicalName:
    """Titles sharing a token key: the first listed is the canonical name."""

    @pytest.mark.parametrize("names", [SAME_KEY, SAME_KEY[::-1]])
    def test_first_listed_name_wins(self, names):
        linker = EntityIndex(names)
        assert linker.link("the alpha band played") == [names[0]]
        assert len(linker) == 3 and all(name in linker for name in names)

    @pytest.mark.parametrize("hash_seed", ["1", "2"])
    def test_independent_of_the_hash_seed(self, hash_seed):
        # a spawn pool worker or the next `repro ingest` process has
        # another str hash; it must link the same bytes to the same name
        code = (
            "from repro.index.entity_index import EntityIndex;"
            f"print(EntityIndex({SAME_KEY!r}).link('the alpha band played'))"
        )
        child = subprocess.run(
            [sys.executable, "-c", code],
            env={
                **os.environ,
                "PYTHONHASHSEED": hash_seed,
                "PYTHONPATH": os.pathsep.join(sys.path),
            },
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert child.stdout.strip() == repr([SAME_KEY[0]])


class TestEntityPostings:
    def test_document_registration(self):
        linker = EntityIndex(["Alpha", "Beta"])
        linker.add_document(0, "Alpha met Beta")
        linker.add_document(1, "only Alpha here")
        assert linker.entities_of(0) == ["Alpha", "Beta"]
        assert linker.entities_of(1) == ["Alpha"]

    def test_re_registration_replaces(self):
        linker = EntityIndex(["Alpha Band", "Beta"])
        linker.add_document(0, "Alpha Band")
        linker.add_document(0, "Alpha Band")
        assert linker.entities_of(0) == ["Alpha Band"]
        linker.add_document(0, "nothing, then Beta")
        assert linker.entities_of(0) == ["Beta"]

    def test_unknown_document(self):
        linker = EntityIndex(["Alpha"])
        assert linker.entities_of(99) == []

    def test_contains_and_len(self):
        linker = EntityIndex(["Alpha", "Beta"])
        assert "Alpha" in linker and "Gamma" not in linker
        assert len(linker) == 2

    def test_corpus_entities(self, corpus, world):
        linker = EntityIndex(corpus.titles())
        doc = next(d for d in corpus if d.entity.kind == "person")
        entities = linker.add_document(doc.doc_id, doc.text)
        assert doc.title in entities
