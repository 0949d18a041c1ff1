"""TPRR baseline (Zhang et al. 2021): full-text dense encoding + path rank.

"TPRR encodes the complete document plain text and question to dense
representations in a vector space and projects the vector to a scalar
score" — a bi-encoder over the whole document (the shared IDF-mean
MiniBERT every learned retriever here uses, not a [CLS] state), with a path
stage that scores hop-2 candidates against the question concatenated with
the hop-1 document (its global path supervision, approximated forward).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.baselines.dense_base import DenseConfig, DenseRetriever
from repro.data.corpus import Corpus
from repro.encoder.minibert import MiniBertEncoder


class TPRRRetriever(DenseRetriever):
    """Full-text dense retriever with two-hop path construction."""

    def __init__(
        self,
        encoder: MiniBertEncoder,
        corpus: Corpus,
        config: Optional[DenseConfig] = None,
        k_hop1: int = 8,
        k_hop2: int = 4,
    ):
        super().__init__(encoder, corpus, config)
        self.k_hop1 = k_hop1
        self.k_hop2 = k_hop2

    def retrieve_documents(self, question: str, k: int = 8) -> List[str]:
        """One-hop retrieval (the Table IV "TPR" row)."""
        return self.retrieve_titles(question, k=k)

    def hop2_query(self, question: str, doc_id: int) -> str:
        """Path query: question ⊕ hop-1 document text (truncated)."""
        return f"{question} {self.document_text(doc_id)}"

    def retrieve_paths(
        self, question: str, k_paths: int = 8
    ) -> List[Tuple[str, ...]]:
        """Two-hop dense path retrieval with additive path scores."""
        return self.two_hop_paths(
            question, self.k_hop1, self.k_hop2, k_paths=k_paths
        )
