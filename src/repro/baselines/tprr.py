"""TPRR baseline (Zhang et al. 2021): full-text dense encoding + path rank.

"TPRR encodes the complete document plain text and question to dense
representations in a vector space and projects the vector to a scalar
score" — a bi-encoder over the whole document (the shared IDF-mean
MiniBERT every learned retriever here uses, not a [CLS] state), with a path
stage that scores hop-2 candidates against the question concatenated with
the hop-1 document (its global path supervision, approximated forward).
"""

from __future__ import annotations

from repro.baselines.dense_base import DenseRetriever


class TPRRRetriever(DenseRetriever):
    """Full-text dense retriever with two-hop path construction."""

    def hop2_query(self, question: str, doc_id: int) -> str:
        """Path query: question ⊕ hop-1 document text (truncated)."""
        return f"{question} {self.document_text(doc_id)}"
