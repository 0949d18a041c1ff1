"""Unit tests for the vocabulary."""

import pytest

from repro.text.tokenize import tokenize
from repro.text.vocab import SPECIAL_TOKENS, Vocab


class TestVocabConstruction:
    def test_special_tokens_reserved(self):
        vocab = Vocab()
        assert len(vocab) == len(SPECIAL_TOKENS)
        assert vocab.pad_id == 0

    def test_from_tokens_frequency_order(self):
        vocab = Vocab.from_tokens(["b", "a", "b", "b", "a", "c"])
        assert vocab.id_of("b") < vocab.id_of("a") < vocab.id_of("c")

    def test_from_texts(self):
        vocab = Vocab.from_texts(["the club", "the band"], tokenize)
        assert "club" in vocab and "band" in vocab


class TestVocabLookup:
    def test_unknown_maps_to_unk(self):
        vocab = Vocab(["known"])
        assert vocab.id_of("unknown") == vocab.unk_id

    def test_roundtrip(self):
        vocab = Vocab(["alpha", "beta"])
        ids = vocab.encode(["alpha", "beta", "alpha"])
        assert vocab.decode(ids) == ["alpha", "beta", "alpha"]

    def test_contains(self):
        vocab = Vocab(["x"])
        assert "x" in vocab and "y" not in vocab

    def test_token_of_out_of_range(self):
        vocab = Vocab()
        with pytest.raises(IndexError):
            vocab.token_of(10_000)


class TestVocabPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        vocab = Vocab(["alpha", "beta", "gamma"])
        path = tmp_path / "vocab.json"
        vocab.save(path)
        loaded = Vocab.load(path)
        assert len(loaded) == len(vocab)
        assert loaded.id_of("beta") == vocab.id_of("beta")
