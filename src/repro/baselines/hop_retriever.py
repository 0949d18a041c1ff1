"""HopRetriever baseline (Li et al. 2020): entity-enriched dense retrieval.

HopRetriever "leverages structured entity relation and unstructured
introductory facts": each document's representation fuses its text
encoding with embeddings of the entities mentioned in it, raising the
weight of entity information in the matching space. The paper's critique
(Sec. IV-E): entity overlap is only part of the needed semantics — which
is exactly how this baseline behaves when the matching evidence is a
non-entity token span.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.dense_base import DenseConfig, DenseRetriever
from repro.data.corpus import Corpus
from repro.encoder.minibert import MiniBertEncoder
from repro.index.entity_index import EntityIndex

ENTITY_REPEAT = 2  # copies of the mention block appended to a document


class HopRetrieverBaseline(DenseRetriever):
    """Dense retrieval whose document text is enriched with entity mentions.

    ``linker`` must have every corpus document registered
    (:meth:`EntityIndex.add_document`): it is where the mentions come from.
    """

    def __init__(
        self,
        encoder: MiniBertEncoder,
        corpus: Corpus,
        linker: EntityIndex,
        config: Optional[DenseConfig] = None,
    ):
        super().__init__(encoder, corpus, config)
        self.linker = linker

    def document_text(self, doc_id: int) -> str:
        """Text truncated as usual, then entity mentions appended
        ``ENTITY_REPEAT`` times — the lexical analogue of up-weighting
        mention embeddings in the fused representation."""
        base = super().document_text(doc_id)
        entities = self.linker.entities_of(doc_id)
        if not entities:
            return base
        return base + (" " + " ".join(entities)) * ENTITY_REPEAT

    def hop2_query(self, question: str, doc_id: int) -> str:
        """Hop-2 query: question plus the hop-1 document's entity mentions
        (its structured knowledge), not its full text."""
        entities = self.linker.entities_of(doc_id)
        return f"{question} {' '.join(entities)}" if entities else question
