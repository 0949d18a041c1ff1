"""Token-based retrieval baseline: BM25 over any field.

These are the "conventional word-based techniques" of Table II — both the
full-text field ("Text matching") and the triple-fact field ("TFS
matching") run through this class; only the indexed field differs. Table
IV's GoldEn row is its hop 1: BM25 over the text field.
"""

from __future__ import annotations

from typing import List, Optional

from repro.data.corpus import Corpus
from repro.index.inverted import InvertedIndex, SearchHit
from repro.retriever.store import TripleStore


class LexicalRetriever:
    """BM25 retrieval over a corpus with named fields.

    Fields available after construction:

    * ``"text"`` — the full document body,
    * ``"triples"`` — the constructed triple-fact set ``T_d`` (if a store
      is supplied),
    * any extra fields passed via ``extra_fields``.
    """

    def __init__(
        self,
        corpus: Corpus,
        store: Optional[TripleStore] = None,
        extra_fields: Optional[dict] = None,
    ):
        self.corpus = corpus
        self.index = InvertedIndex()
        for document in corpus:
            fields = {"text": document.text}
            if store is not None:
                fields["triples"] = store.field_text(document.doc_id)
            if extra_fields:
                for name, mapping in extra_fields.items():
                    fields[name] = mapping.get(document.doc_id, "")
            self.index.add_document(document.doc_id, fields)

    def retrieve(
        self, question: str, k: int = 10, field: str = "text"
    ) -> List[SearchHit]:
        """Top-k hits for ``question`` on one field."""
        return self.index.search(question, field=field, k=k)

    def retrieve_titles(
        self, question: str, k: int = 10, field: str = "text"
    ) -> List[str]:
        """Top-k document titles (convenience for metric computation)."""
        return [
            self.corpus[hit.doc_id].title
            for hit in self.retrieve(question, k=k, field=field)
        ]
