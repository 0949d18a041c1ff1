"""Unit tests for MiniBERT."""

import numpy as np
import pytest

from repro.encoder.minibert import EncoderConfig, MiniBertEncoder
from repro.text.vocab import Vocab

SENTENCES = [
    "the club was founded in 1885",
    "the band was formed in 1991",
    "the city lies on the river",
    "the striker played for the club",
]


@pytest.fixture()
def tiny_encoder():
    vocab = Vocab.from_tokens(" ".join(SENTENCES).split())
    return MiniBertEncoder(
        vocab, EncoderConfig(dim=16, n_layers=1, n_heads=2, max_len=16)
    )


class TestTokenization:
    def test_cls_sep_added(self, tiny_encoder):
        ids = tiny_encoder.text_to_ids("the club")
        assert ids[0] == tiny_encoder.vocab.cls_id
        assert ids[-1] == tiny_encoder.vocab.sep_id

    def test_truncation(self, tiny_encoder):
        long_text = "club " * 100
        ids = tiny_encoder.text_to_ids(long_text)
        assert len(ids) <= tiny_encoder.config.max_len

    def test_batch_padding(self, tiny_encoder):
        ids, mask = tiny_encoder.batch_ids(["the club", "the"])
        assert ids.shape == mask.shape
        assert mask[1].sum() < mask[0].sum()
        assert ids[1, -1] == tiny_encoder.vocab.pad_id


class TestEncoding:
    def test_embedding_shape(self, tiny_encoder):
        out = tiny_encoder.encode(["the club", "the band"])
        assert out.shape == (2, 16)

    def test_encode_numpy_matches_encode_float64(self):
        # the exact-parity mode computes fused float64: graph-close to 1e-10
        vocab = Vocab.from_tokens(" ".join(SENTENCES).split())
        encoder = MiniBertEncoder(
            vocab,
            EncoderConfig(dim=16, n_layers=1, n_heads=2, max_len=16),
            precision="float64",
        )
        texts = ["the club was founded", "the band"]
        with_grad = encoder.encode(texts).numpy()
        without = encoder.encode_numpy(texts)
        np.testing.assert_allclose(with_grad, without, atol=1e-10)

    def test_encode_numpy_matches_encode_float32(self, tiny_encoder):
        # default mode computes in float32: parity up to float32 rounding
        texts = ["the club was founded", "the band"]
        with_grad = tiny_encoder.encode(texts).numpy()
        without = tiny_encoder.encode_numpy(texts)
        assert without.dtype == np.float32
        np.testing.assert_allclose(with_grad, without, rtol=1e-4, atol=1e-5)

    def test_encode_numpy_batching_consistent(self, tiny_encoder):
        texts = SENTENCES * 3
        small = tiny_encoder.encode_numpy(texts, batch_size=2)
        large = tiny_encoder.encode_numpy(texts, batch_size=64)
        np.testing.assert_allclose(small, large, atol=1e-10)

    def test_empty_rejected(self, tiny_encoder):
        with pytest.raises(ValueError):
            tiny_encoder.encode([])

    def test_shared_tokens_raise_similarity(self, tiny_encoder):
        tiny_encoder.fit_idf(SENTENCES)
        out = tiny_encoder.encode_numpy(
            ["the club was founded", "the club was founded in 1885",
             "the city lies on the river"]
        )

        def cos(a, b):
            return a @ b / (np.linalg.norm(a) * np.linalg.norm(b))

        assert cos(out[0], out[1]) > cos(out[0], out[2])

    def test_pooling_is_the_idf_weighted_mean(self, tiny_encoder):
        # not the [CLS] state: the token states weighted by IDF, so
        # [CLS], [SEP] and padding (weight 0) do not enter the vector
        tiny_encoder.fit_idf(SENTENCES)
        texts = ["the club was founded", "the band"]
        ids, mask = tiny_encoder.batch_ids(texts)
        hidden = tiny_encoder.model(ids, mask=mask).numpy()
        weights = tiny_encoder._token_weights[ids] * mask
        expected = (hidden * weights[:, :, None]).sum(axis=1)
        expected /= weights.sum(axis=1, keepdims=True)
        np.testing.assert_allclose(
            tiny_encoder.encode(texts).numpy(), expected, atol=1e-12
        )
        assert not np.allclose(expected, hidden[:, 0, :])


class TestIdfPooling:
    def test_fit_idf_zeroes_specials(self, tiny_encoder):
        tiny_encoder.fit_idf(SENTENCES)
        vocab = tiny_encoder.vocab
        assert tiny_encoder._token_weights[vocab.cls_id] == 0.0
        assert tiny_encoder._token_weights[vocab.pad_id] == 0.0

    def test_rare_tokens_weighted_higher(self, tiny_encoder):
        tiny_encoder.fit_idf(SENTENCES)
        vocab = tiny_encoder.vocab
        rare = tiny_encoder._token_weights[vocab.id_of("1885")]
        common = tiny_encoder._token_weights[vocab.id_of("the")]
        assert rare > common


class TestPersistence:
    def test_save_load_roundtrip(self, tiny_encoder, tmp_path):
        tiny_encoder.fit_idf(SENTENCES)
        tiny_encoder.save(tmp_path / "model")
        loaded = MiniBertEncoder.load(
            tmp_path / "model", config=tiny_encoder.config
        )
        texts = ["the club was founded"]
        np.testing.assert_allclose(
            tiny_encoder.encode_numpy(texts), loaded.encode_numpy(texts)
        )
