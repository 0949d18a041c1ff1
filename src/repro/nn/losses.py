"""The similarity measure under every training loss.

Each trainer's loss is the same listwise softmax over scaled scores,
written inline as ``-logits.softmax(axis=-1).log()[gold]``.
"""

from __future__ import annotations

from repro.nn.tensor import Tensor

#: added to each norm, so an all-zero row scores 0 instead of NaN
EPS = 1e-8


def cosine_similarity(a: Tensor, b: Tensor) -> Tensor:
    """Row-wise cosine similarity.

    ``a``: (N, D) or (D,), ``b``: (M, D) or (D,). With 2-D inputs of equal
    N the result is per-row; with ``a`` of shape (D,) against (M, D), the
    result has shape (M,) — the scoring pattern of the single retriever
    (one question against a document's triple facts, Eq. 4).
    """
    if a.ndim == 1 and b.ndim == 2:
        dots = b @ a  # (M,)
        a_norm = (a * a).sum().pow(0.5) + EPS
        b_norm = (b * b).sum(axis=-1).pow(0.5) + EPS
        return dots / (b_norm * a_norm)
    dots = (a * b).sum(axis=-1)
    a_norm = (a * a).sum(axis=-1).pow(0.5) + EPS
    b_norm = (b * b).sum(axis=-1).pow(0.5) + EPS
    return dots / (a_norm * b_norm)
