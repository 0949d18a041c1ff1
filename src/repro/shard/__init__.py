"""Sharded, ANN-pruned retrieval: split the index, prune, merge exactly.

The gateway to the million-document regime the dense-retrieval line
(MDR, Path Retriever — see PAPERS.md) operates in: query cost follows
index *structure*, not total corpus size.

* :mod:`repro.shard.assignment` — doc-id-range or coarse-centroid
  (seeded k-means) document-to-shard assignment.
* :mod:`repro.shard.plan` — :class:`ShardPlan`: per-shard scoring with
  IVF-style centroid pruning (``nprobe``) and an exact global merge.
* :mod:`repro.shard.merge` — the deterministic ``(score desc, id asc)``
  top-k every ranking site routes through.

Shards are never persisted: a plan is derived in memory from the one
:class:`~repro.ingest.embedding_store.EmbeddingStore` the retriever
holds (:meth:`~repro.retriever.single.SingleRetriever.build_shards`),
and the assignment is deterministic, so every process derives the same.
"""

from repro.shard.assignment import (
    MODES,
    assign_centroid,
    assign_documents,
    assign_range,
    segment_means,
)
from repro.shard.merge import recall_at_k, topk_doc_order
from repro.shard.plan import QueryShardScores, Shard, ShardPlan

__all__ = [
    "MODES",
    "QueryShardScores",
    "Shard",
    "ShardPlan",
    "assign_centroid",
    "assign_documents",
    "assign_range",
    "recall_at_k",
    "segment_means",
    "topk_doc_order",
]
