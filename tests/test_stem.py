"""Unit tests for the Porter-style stemmer."""

import pytest

from repro.text.stem import stem


class TestStem:
    @pytest.mark.parametrize(
        "word,expected",
        [
            ("played", "play"),
            ("playing", "play"),
            ("plays", "play"),
            ("cities", "citi"),
            ("caresses", "caress"),
            ("running", "run"),
            ("hopping", "hop"),
            ("agreed", "agree"),
        ],
    )
    def test_inflections(self, word, expected):
        assert stem(word) == expected

    def test_same_stem_for_variants(self):
        assert stem("founded") == stem("founding")
        assert stem("establish") == stem("established")

    def test_short_words_untouched(self):
        assert stem("is") == "is"
        assert stem("an") == "an"

    def test_non_alpha_untouched(self):
        assert stem("1885") == "1885"
        assert stem("f.c.") == "f.c."

    def test_terminal_y(self):
        assert stem("happy") == "happi"

    def test_idempotent_enough(self):
        # stemming a stem should not oscillate wildly
        first = stem("nationalization")
        assert stem(first) in (first, stem(first))
