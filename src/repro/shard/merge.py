"""Deterministic top-k selection shared by every retrieval ranking site.

``np.argpartition`` alone returns the top-k *set* with an arbitrary,
layout-dependent order inside score ties — which is exactly what breaks
byte-identical parity between sharded and unsharded retrieval: the same
documents come back in different orders depending on how many shards the
scores travelled through. Every top-k in retrieval code therefore routes
through :func:`topk_doc_order`, which pins the total order to
``(score desc, id asc)`` regardless of input layout.
"""

from __future__ import annotations

import numpy as np


def topk_doc_order(
    scores: np.ndarray, ids: np.ndarray, k: int
) -> np.ndarray:
    """Positions of the top-``k`` entries ordered by (score desc, id asc).

    ``scores`` and ``ids`` are parallel arrays; the returned positions
    index into them. The order is a *total* order — ties on score break
    by ascending id — so the result is identical for any permutation of
    the input rows, the property the 1/2/4-shard parity suite pins.

    Selection is O(n) via ``argpartition``; only the candidate set (the
    top-k plus everything tied with the boundary score) pays the final
    ``lexsort``.
    """
    scores = np.asarray(scores)
    ids = np.asarray(ids)
    n = scores.shape[0]
    k = min(int(k), n)
    if k <= 0:
        return np.zeros(0, dtype=np.int64)
    if k < n:
        # argpartition finds the top-k set in O(n); every entry tied with
        # the boundary score joins the candidate set so the lexsort below
        # resolves boundary ties exactly like a full (-score, id) sort
        part = np.argpartition(-scores, k - 1)
        boundary = scores[part[k - 1]]
        candidates = np.nonzero(scores >= boundary)[0]
    else:
        candidates = np.arange(n)
    order = candidates[np.lexsort((ids[candidates], -scores[candidates]))]
    return order[:k].astype(np.int64, copy=False)


def recall_at_k(  # lint: ignore[dead-symbol] -- tests' recall reference
    approx_ids: np.ndarray, exact_ids: np.ndarray
) -> float:
    """Fraction of the exact top-k ids the approximate top-k recovered."""
    exact = set(int(i) for i in np.asarray(exact_ids).ravel())
    if not exact:
        return 1.0
    approx = set(int(i) for i in np.asarray(approx_ids).ravel())
    return len(exact & approx) / len(exact)
