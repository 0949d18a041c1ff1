"""Masked-language-model pre-training (the "P" of the PLM).

The paper starts from a public BERT checkpoint; offline, the equivalent is
a short MLM pass over the corpus itself: 15% of tokens are selected, of
which 80% become [MASK], 10% a random token, 10% unchanged, and the
encoder predicts the originals through an output projection tied to the
input embedding matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.encoder.minibert import MiniBertEncoder
from repro.nn.losses import cross_entropy
from repro.nn.optim import Adam, train_epochs
from repro.nn.tensor import Tensor


@dataclass
class PretrainConfig:
    """MLM pre-training knobs (BERT recipe, shrunk)."""

    epochs: int = 2
    batch_size: int = 16
    lr: float = 3e-3
    mask_prob: float = 0.15
    seed: int = 11
    max_sentences: Optional[int] = None  # cap the corpus sample


class MLMPretrainer:
    """Runs MLM pre-training over a list of sentences."""

    def __init__(self, encoder: MiniBertEncoder, config: Optional[PretrainConfig] = None):
        self.encoder = encoder
        self.config = config or PretrainConfig()
        self._rng = np.random.RandomState(self.config.seed)

    def _mask_batch(self, ids: np.ndarray, mask: np.ndarray):
        """BERT masking: returns (corrupted ids, MLM targets).

        Targets are the original ids at selected positions and pad
        elsewhere (pad id acts as the ignore index).
        """
        vocab = self.encoder.vocab
        rng = self._rng
        special = {vocab.pad_id, vocab.cls_id, vocab.sep_id}
        corrupted = ids.copy()
        targets = np.full_like(ids, vocab.pad_id)
        maskable = mask.astype(bool)
        for special_id in special:
            maskable &= ids != special_id
        selected = maskable & (rng.rand(*ids.shape) < self.config.mask_prob)
        targets[selected] = ids[selected]
        roll = rng.rand(*ids.shape)
        to_mask = selected & (roll < 0.8)
        to_random = selected & (roll >= 0.8) & (roll < 0.9)
        corrupted[to_mask] = vocab.mask_id
        corrupted[to_random] = rng.randint(
            len(vocab), size=int(to_random.sum())
        )
        return corrupted, targets

    def train(self, sentences: Sequence[str], verbose: bool = False) -> List[float]:
        """Run MLM pre-training; returns the per-epoch mean loss."""
        cfg = self.config
        sentences = list(sentences)
        if cfg.max_sentences is not None:
            self._rng.shuffle(sentences)
            sentences = sentences[: cfg.max_sentences]
        if not sentences:
            return []
        model = self.encoder.model
        pad_id = self.encoder.vocab.pad_id

        def batch_loss(batch: np.ndarray) -> Optional[Tensor]:
            ids, mask = self.encoder.batch_ids([sentences[i] for i in batch])
            corrupted, targets = self._mask_batch(ids, mask)
            if (targets != pad_id).sum() == 0:
                return None
            hidden = model(corrupted, mask=mask)  # (B, S, D)
            flat = hidden.reshape(-1, model.dim)
            # tied output projection: logits = hidden @ E^T
            logits = flat @ model.token_embedding.weight.transpose(1, 0)
            return cross_entropy(logits, targets.reshape(-1), ignore_index=pad_id)

        model.train()
        losses = train_epochs(
            Adam(model.parameters(), lr=cfg.lr),
            len(sentences),
            batch_loss,
            epochs=cfg.epochs,
            rng=self._rng,
            batch_size=cfg.batch_size,
            name="mlm",
            verbose=verbose,
        )
        model.eval()
        return losses
