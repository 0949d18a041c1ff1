"""MiniBERT: the shared-parameter text encoder (paper Sec. III-B).

Encodes questions and flattened triple facts into the same vector space
with one parameter-shared transformer: tokenize, add [CLS]/[SEP], pad to a
batch, run the encoder, take the [CLS] hidden state.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn.infer import InferenceSession
from repro.nn.serialize import load_weights, save_weights
from repro.perf import COUNTERS, time_block
from repro.precision import TRAINING_DTYPE, PrecisionLike, resolve
from repro.storage.atomic import atomic_write_bytes
from repro.nn.tensor import Tensor
from repro.nn.transformer import TransformerEncoder
from repro.text.tokenize import tokenize
from repro.text.vocab import Vocab


@dataclass
class EncoderConfig:
    """MiniBERT hyper-parameters (a faithful but CPU-sized BERT).

    ``pooling`` selects the sentence representation: ``"cls"`` is the
    paper's choice on full-size BERT; ``"mean"`` (masked mean over token
    states, Sentence-BERT style) is the default here because a 2-layer
    CPU-sized encoder cannot bind token identity into [CLS] the way a
    12-layer pre-trained BERT can — mean pooling preserves the behaviour
    the paper gets from CLS at full scale.
    """

    dim: int = 96
    n_layers: int = 1
    n_heads: int = 4
    ffn_dim: Optional[int] = None
    max_len: int = 48
    dropout: float = 0.0
    pooling: str = "mean"  # "mean" or "cls"
    residual_scale: float = 0.05  # GPT-2-style near-identity block init
    seed: int = 7


class MiniBertEncoder:
    """Shared-parameter encoder for questions and triple facts.

    The paper: "We use a pre-trained language model, i.e., Bert, ... we
    take the final hidden state for the special [CLS] label as the
    representation for the input sentence."
    """

    def __init__(
        self,
        vocab: Vocab,
        config: Optional[EncoderConfig] = None,
        precision: PrecisionLike = None,
    ):
        self.vocab = vocab
        self.config = config or EncoderConfig()
        # output dtype policy: training math stays TRAINING_DTYPE inside
        # the model; inference output is cast at this boundary. Not part
        # of the encoder fingerprint — a dtype change is caught by the
        # explicit dtype checks at store attach / segment reuse instead.
        self.precision = resolve(precision)
        self.model = TransformerEncoder(
            vocab_size=len(vocab),
            dim=self.config.dim,
            n_layers=self.config.n_layers,
            n_heads=self.config.n_heads,
            ffn_dim=self.config.ffn_dim,
            max_len=self.config.max_len,
            dropout=self.config.dropout,
            pad_id=vocab.pad_id,
            seed=self.config.seed,
            residual_scale=self.config.residual_scale,
        )
        # per-token pooling weights; uniform until fit_idf() is called
        self._token_weights = np.ones(len(vocab))
        self._token_weights[vocab.pad_id] = 0.0
        # lazily-built fused inference snapshot (repro.nn.infer); rebuilt
        # whenever the weights are replaced or the precision changes
        self._infer_session: Optional[InferenceSession] = None

    def trainable_parameters(self) -> list:
        """What fine-tuning updates: the blocks, in ``parameters()`` order.

        The token/position embeddings carry the lexical matching signal
        the strong init provides; training only the blocks adds contextual
        corrections without being able to destroy it (L2-SP-style
        stabilization, taken to its frozen limit).
        """
        frozen = {
            id(self.model.token_embedding.weight),
            id(self.model.position_embedding.weight),
        }
        return [p for p in self.model.parameters() if id(p) not in frozen]

    def fit_idf(self, texts: Sequence[str]) -> None:
        """Fit IDF pooling weights from a text collection.

        Mean pooling weights each token by its inverse document frequency,
        so rare (informative) tokens dominate the sentence vector — the
        behaviour a fully pre-trained BERT's attention provides implicitly
        and a CPU-sized model cannot learn from scratch. Special tokens
        get zero weight.
        """
        doc_freq = np.zeros(len(self.vocab))
        n_docs = 0
        for text in texts:
            n_docs += 1
            for token_id in set(self.vocab.encode(tokenize(text))):
                doc_freq[token_id] += 1
        idf = np.log(1.0 + (n_docs + 1.0) / (doc_freq + 1.0))
        for special in (self.vocab.pad_id, self.vocab.cls_id, self.vocab.sep_id,
                        self.vocab.mask_id):
            idf[special] = 0.0
        self._token_weights = idf

    # -- tokenization ----------------------------------------------------
    def text_to_ids(self, text: str) -> List[int]:
        """[CLS] tokens [SEP], truncated to the model's max length."""
        tokens = tokenize(text)
        body = self.vocab.encode(tokens)[: self.config.max_len - 2]
        return [self.vocab.cls_id] + body + [self.vocab.sep_id]

    def batch_ids(
        self, texts: Sequence[str]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Pad a batch of texts to a rectangular id matrix + mask."""
        encoded = [self.text_to_ids(t) for t in texts]
        width = max(len(ids) for ids in encoded)
        pad = self.vocab.pad_id
        ids = np.full((len(encoded), width), pad, dtype=np.int64)
        mask = np.zeros((len(encoded), width), dtype=TRAINING_DTYPE)
        for row, seq in enumerate(encoded):
            ids[row, : len(seq)] = seq
            mask[row, : len(seq)] = 1.0
        return ids, mask

    # -- encoding ----------------------------------------------------------
    def encode(self, texts: Sequence[str]) -> Tensor:
        """Encode texts to sentence embeddings (N, dim), with gradients.

        Pooling follows ``config.pooling``: the [CLS] state or the masked
        mean of token states.
        """
        if not texts:
            raise ValueError("encode() requires at least one text")
        ids, mask = self.batch_ids(texts)
        if self.config.pooling == "cls":
            return self.model.encode_cls(ids, mask=mask)
        hidden = self.model(ids, mask=mask)  # (N, S, D)
        weights = self._token_weights[ids] * mask  # idf-weighted pooling
        totals = weights.sum(axis=1, keepdims=True)
        totals[totals == 0.0] = 1.0
        weights_t = Tensor(weights[:, :, None])
        summed = (hidden * weights_t).sum(axis=1)
        return summed / Tensor(totals)

    def _session(self) -> InferenceSession:
        """The current fused-inference snapshot, rebaking when stale.

        Weight updates (optimizer steps, ``load_weights``) replace
        parameter arrays, which flips ``stale()``; a precision change
        needs a re-bake too because the weights are cast at bake time.
        Benign under concurrency: a lost race just builds one extra
        snapshot of identical weights.
        """
        session = self._infer_session
        if (
            session is None
            or session.dtype != self.precision.dtype
            or session.stale()
        ):
            session = InferenceSession(self.model, dtype=self.precision.dtype)
            self._infer_session = session
        return session

    def encode_numpy(self, texts: Sequence[str], batch_size: int = 64) -> np.ndarray:
        """Gradient-free encoding on the fused inference path.

        Runs :class:`repro.nn.infer.InferenceSession` — no autograd
        graph, compute directly in the precision dtype (float32 by
        default; float64 in the opt-in exact parity mode), so every
        downstream matrix inherits one policy dtype without a cast.

        Batches are length-bucketed: texts are sorted by token count
        (stable, so ties keep their input order), grouped into
        ``batch_size`` buckets so each rectangle is only as wide as its
        longest member, and results are scattered back into the input
        order. Bucketing cannot change any embedding: padded positions
        carry exactly-zero attention weight and exactly-zero pooling
        weight, so a sequence's vector is independent of its batch mates.
        """
        dtype = self.precision.dtype
        if not texts:
            return np.zeros((0, self.config.dim), dtype=dtype)
        session = self._session()
        encoded = [self.text_to_ids(t) for t in texts]
        order = sorted(range(len(encoded)), key=lambda i: len(encoded[i]))
        out = np.empty((len(encoded), self.config.dim), dtype=dtype)
        with time_block() as elapsed:
            for start in range(0, len(order), batch_size):
                bucket = order[start : start + batch_size]
                ids, mask = self._pad_bucket([encoded[i] for i in bucket], dtype)
                hidden = session.forward(ids, mask=mask)
                out[bucket] = self._pool(hidden, ids, mask)
        COUNTERS.record_encode_tokens(
            sum(len(seq) for seq in encoded), elapsed()
        )
        return out

    def _pad_bucket(
        self, encoded: Sequence[List[int]], dtype
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Pad one bucket of token-id lists to a rectangle + mask."""
        width = max(len(seq) for seq in encoded)
        pad = self.vocab.pad_id
        ids = np.full((len(encoded), width), pad, dtype=np.int64)
        mask = np.zeros((len(encoded), width), dtype=dtype)
        for row, seq in enumerate(encoded):
            ids[row, : len(seq)] = seq
            mask[row, : len(seq)] = 1.0
        return ids, mask

    def _pool(
        self, hidden: np.ndarray, ids: np.ndarray, mask: np.ndarray
    ) -> np.ndarray:
        """Sentence vectors from fused hidden states, per ``config.pooling``."""
        if self.config.pooling == "cls":
            return hidden[:, 0, :]
        weights = self._token_weights[ids].astype(hidden.dtype) * mask
        totals = weights.sum(axis=1, keepdims=True)
        totals[totals == 0.0] = 1.0
        pooled = np.einsum("bsd,bs->bd", hidden, weights)
        pooled /= totals
        return pooled

    # -- persistence ---------------------------------------------------------
    def save(self, directory: Union[str, Path]) -> None:
        """Persist weights + vocab into ``directory``."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        save_weights(self.model, directory / "weights.npz")
        self.vocab.save(directory / "vocab.json")
        buffer = io.BytesIO()
        np.save(buffer, self._token_weights)
        atomic_write_bytes(directory / "token_weights.npy", buffer.getvalue())

    @classmethod
    def load(
        cls, directory: Union[str, Path], config: Optional[EncoderConfig] = None
    ) -> "MiniBertEncoder":
        """Restore an encoder saved by :meth:`save`."""
        directory = Path(directory)
        vocab = Vocab.load(directory / "vocab.json")
        encoder = cls(vocab, config=config)
        load_weights(encoder.model, directory / "weights.npz")
        weights_path = directory / "token_weights.npy"
        if weights_path.exists():
            encoder._token_weights = np.load(weights_path)
        return encoder
