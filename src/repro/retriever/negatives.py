"""Training-data construction for the single retriever (paper Sec. IV-B).

"We choose a ground document with the highest score from the document path
by BM25 on the field of our triple fact set. For the negative document
construction, we index from the whole Wikipedia corpus and choose the top
9 documents except the ground documents. Each question is trained on a
10-size set of 1 positive document and 9 negative documents."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.data.corpus import Corpus
from repro.data.hotpot import HotpotQuestion
from repro.index.inverted import InvertedIndex
from repro.retriever.store import TripleStore

TRIPLE_FIELD = "triples"
N_NEGATIVES = 9  # negatives per question, beside its one positive


@dataclass
class TrainingExample:
    """One (question, positive doc, negative docs) training instance."""

    question: str
    positive_doc_id: int
    negative_doc_ids: List[int]
    qid: int = -1


def mine_training_examples(
    questions: Sequence[HotpotQuestion],
    corpus: Corpus,
    store: TripleStore,
) -> List[TrainingExample]:
    """Mine 1-positive + 9-negative examples for every question.

    The positive is the gold-path document with the higher BM25 score on
    the triple field (ties -> first hop). Negatives are the BM25 top
    documents excluding all gold documents.
    """
    index = InvertedIndex()
    for doc_id in store.doc_ids():
        index.add_document(doc_id, {TRIPLE_FIELD: store.field_text(doc_id)})
    examples: List[TrainingExample] = []
    for question in questions:
        gold_ids = [
            corpus.by_title(title).doc_id
            for title in question.gold_titles
            if corpus.by_title(title) is not None
        ]
        if not gold_ids:
            continue
        hits = index.search(
            question.text, field=TRIPLE_FIELD, k=N_NEGATIVES + len(gold_ids) + 4
        )
        scores = {hit.doc_id: hit.score for hit in hits}
        positive = max(gold_ids, key=lambda d: scores.get(d, float("-inf")))
        negatives = [
            hit.doc_id for hit in hits if hit.doc_id not in gold_ids
        ][:N_NEGATIVES]
        if not negatives:
            continue
        examples.append(
            TrainingExample(
                question=question.text,
                positive_doc_id=positive,
                negative_doc_ids=negatives,
                qid=question.qid,
            )
        )
    return examples
