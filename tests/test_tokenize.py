"""Unit tests for repro.text.tokenize."""

from repro.text.tokenize import (
    longest_common_subsequence,
    normalize,
    tokenize,
)


class TestNormalize:
    def test_lowercases(self):
        assert normalize("The Quick FOX") == "the quick fox"

    def test_collapses_whitespace(self):
        assert normalize("  a \t b\n c ") == "a b c"

    def test_empty(self):
        assert normalize("") == ""


class TestTokenize:
    def test_basic_sentence(self):
        assert tokenize("The club was founded.") == [
            "the", "club", "was", "founded", ".",
        ]

    def test_numbers_kept_whole(self):
        assert "1885" in tokenize("founded in 1885")

    def test_decimal_numbers(self):
        assert "2.91" in tokenize("a 2.91 earned run average")

    def test_clitic_split(self):
        assert tokenize("the club's ground") == ["the", "club", "'s", "ground"]

    def test_case_preserved_when_requested(self):
        assert "Millwall" in tokenize("Millwall won", lower=False)

    def test_punctuation_isolated(self):
        tokens = tokenize("wait, what?")
        assert "," in tokens and "?" in tokens

    def test_empty_string(self):
        assert tokenize("") == []


class TestLCS:
    def test_simple(self):
        assert longest_common_subsequence(list("abcd"), list("bxd")) == ["b", "d"]

    def test_no_overlap(self):
        assert longest_common_subsequence(["a"], ["b"]) == []

    def test_empty(self):
        assert longest_common_subsequence([], ["a"]) == []

    def test_full_match(self):
        assert longest_common_subsequence(["x", "y"], ["x", "y"]) == ["x", "y"]

    def test_order_matters(self):
        assert longest_common_subsequence(["a", "b"], ["b", "a"]) in (
            ["a"], ["b"],
        )
