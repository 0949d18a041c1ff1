"""Unit tests for the rule-based coreference resolver (it returns the
resolved sentences)."""

from repro.text.coref import resolve_coreferences


class TestCoref:
    def test_subject_pronoun_resolved(self):
        text = "Walter Davis was a footballer. He played for Millwall."
        out = resolve_coreferences(text, title="Walter Davis")
        assert "Walter Davis played for Millwall." in " ".join(out)

    def test_possessive_resolved(self):
        text = "Walter Davis was a footballer. His career began in 1905."
        out = resolve_coreferences(text, title="Walter Davis")
        assert "Walter Davis 's career" in " ".join(out)

    def test_first_sentence_untouched(self):
        text = "It is a club. It was founded in 1885."
        out = resolve_coreferences(text, title="Millwall")
        assert out[0] == "It is a club."

    def test_nominal_resolution_with_kind(self):
        text = "Millwall is a football club. The club was founded in 1885."
        out = resolve_coreferences(text, title="Millwall", entity_kind="club")
        assert "Millwall was founded in 1885." in " ".join(out)

    def test_nominal_not_resolved_for_wrong_kind(self):
        text = "Millwall is a football club. The band was famous."
        out = resolve_coreferences(text, title="Millwall", entity_kind="club")
        assert "The band was famous." in " ".join(out)

    def test_title_guessed_from_first_sentence(self):
        text = "Edgar Morgan was a composer. He wrote music."
        out = resolve_coreferences(text)
        assert "Edgar Morgan wrote music." in " ".join(out)

    def test_empty_text(self):
        assert resolve_coreferences("") == []

    def test_midsentence_it_not_rewritten(self):
        text = "Millwall is a club. People liked it very much."
        out = resolve_coreferences(text, title="Millwall")
        assert "liked it very much" in " ".join(out)
