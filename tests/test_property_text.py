"""Property-based tests for the text layer (hypothesis)."""

import string

from hypothesis import given, settings
from hypothesis import strategies as st
from reference import tokenize_reference

from repro.text.sentences import split_sentences
from repro.text.stem import stem
from repro.text.tokenize import longest_common_subsequence, tokenize

words = st.text(alphabet=string.ascii_lowercase, min_size=1, max_size=12)
token_lists = st.lists(words, max_size=15)
texts = st.text(
    alphabet=string.ascii_letters + string.digits + " .,!?'-", max_size=200
)
#: arbitrary text seeded with what the tokeniser special-cases: clitics
#: (real, upper-case, dangling), bare apostrophes, digits, upper case
fragments = st.one_of(
    st.sampled_from(
        ["'s", "'re", "'ve", "'ll", "'d", "'m", "'", "''", "'S", "'t", "it's",
         "O'Neil", "rock'n'roll", "they'll", "3.14", "1885", "F.C."]
    ),
    st.text(max_size=12),
    texts,
)
clitic_texts = st.builds(
    lambda sep, parts: sep.join(parts),
    st.sampled_from(["", " "]),
    st.lists(fragments, max_size=8),
)


class TestTokenizeProperties:
    @given(texts)
    def test_tokenize_never_crashes_and_lowercases(self, text):
        for token in tokenize(text):
            assert token == token.lower()

    @given(texts)
    def test_tokens_contain_no_whitespace(self, text):
        for token in tokenize(text):
            assert " " not in token and token != ""

    @given(token_lists)
    def test_tokenize_roundtrip_preserves_words(self, tokens):
        text = " ".join(tokens)
        assert tokenize(text) == tokens

    @given(clitic_texts)
    def test_one_regex_pass_equals_the_match_by_match_reference(self, text):
        assert tokenize(text) == tokenize_reference(text)


class TestStemProperties:
    @given(words)
    def test_stem_never_longer(self, word):
        stemmed = stem(word)
        assert len(stemmed) <= len(word) + 1  # +1 for the -e restore

    @given(words)
    def test_stem_deterministic(self, word):
        assert stem(word) == stem(word)

    @given(words)
    def test_stem_nonempty(self, word):
        assert stem(word)

    @given(st.one_of(words, clitic_texts))
    def test_memoised_stem_equals_the_plain_function(self, word):
        assert stem(word) == stem.__wrapped__(word)
        assert stem(word) == stem.__wrapped__(word)  # now a cache hit

    def test_stem_memo_is_bounded(self):
        assert isinstance(stem.cache_info().maxsize, int)


class TestSentenceProperties:
    @given(texts)
    def test_split_never_crashes(self, text):
        sentences = split_sentences(text)
        assert isinstance(sentences, list)

    @given(texts)
    def test_no_empty_sentences(self, text):
        assert all(s.strip() for s in split_sentences(text))

    @given(st.lists(words, min_size=1, max_size=5))
    def test_content_preserved(self, tokens):
        text = " ".join(tokens).capitalize() + "."
        joined = " ".join(split_sentences(text))
        for token in tokens:
            assert token in joined.lower()


class TestSimilarityProperties:
    @given(token_lists, token_lists)
    def test_lcs_length_bounded(self, a, b):
        lcs = longest_common_subsequence(a, b)
        assert len(lcs) <= min(len(a), len(b))

    @given(token_lists)
    def test_lcs_with_self_is_identity(self, a):
        assert longest_common_subsequence(a, a) == a

    @given(token_lists, token_lists)
    def test_lcs_is_subsequence_of_both(self, a, b):
        lcs = longest_common_subsequence(a, b)

        def is_subsequence(sub, seq):
            it = iter(seq)
            return all(x in it for x in sub)

        assert is_subsequence(lcs, a) and is_subsequence(lcs, b)
