"""Unit tests for stopword handling."""

from repro.text.stopwords import STOPWORDS, remove_stopwords


class TestStopwords:
    def test_common_words_present(self):
        for word in ("the", "a", "of", "was", "is"):
            assert word in STOPWORDS

    def test_content_words_absent(self):
        for word in ("club", "founded", "millwall"):
            assert word not in STOPWORDS

    def test_remove_stopwords_drops_punctuation(self):
        assert remove_stopwords(["the", "club", ",", "won"]) == ["club", "won"]

    def test_remove_stopwords_empty(self):
        assert remove_stopwords([]) == []

    def test_clitics_are_stopwords(self):
        assert "'s" in STOPWORDS

    def test_frozen(self):
        assert isinstance(STOPWORDS, frozenset)
