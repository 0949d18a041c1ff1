"""Iterative retriever-updater document-path retrieval.

Hop 1 fetches candidate documents with the single retriever; for each
candidate the question updater selects an updater-clue triple and composes
``q'``; hop 2 runs the single retriever with ``q'``. A path's score is the
sum of its per-hop scores (paper Eq. 8) — the "Triple-fact Retrieval-base"
configuration. Rescoring the resulting candidate paths with the path
ranking model gives the full "Triple-fact Retrieval".

The encoder runs twice per call, whatever the batch and beam sizes: once
over the questions, once over the clue texts. Clue selection needs
cos(question, triple) for every triple of every beam document, and hop 1's
matmul already computed exactly those against the stored rows (the paper
encodes each triple fact once, offline), so hop 1 keeps its flat triple
scores and the updater reads them instead of encoding anything — one
``select_clues`` call per question scores its whole beam.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.oie.triple import Triple
from repro.precision import PrecisionLike
from repro.retriever.single import RetrievedDocument, SingleRetriever
from repro.retriever.strategies import l2_normalize_rows
from repro.updater.question import compose_updated_question
from repro.updater.updater import QuestionUpdater


@dataclass(slots=True)
class DocumentPath:
    """One candidate reasoning path (hop-1 doc, hop-2 doc).

    Slotted: a served reply is a list of these, and a result cache or a
    client keeps many replies alive.
    """

    doc_ids: Tuple[int, ...]
    titles: Tuple[str, ...]
    score: float
    hop_scores: Tuple[float, ...] = ()
    clue: Optional[Triple] = None  # updater-clue used between hops
    matched_triples: Tuple[Optional[Triple], ...] = ()
    updated_question: Optional[str] = None

    @property
    def title_set(self) -> frozenset:
        return frozenset(self.titles)

    def explain(self) -> str:
        """Human-readable account of the reasoning chain."""
        lines = [f"path score {self.score:.3f}"]
        for hop, title in enumerate(self.titles):
            matched = (
                self.matched_triples[hop]
                if hop < len(self.matched_triples)
                else None
            )
            lines.append(f"  hop {hop + 1}: {title} via {matched}")
            if hop == 0 and self.clue is not None:
                lines.append(f"  updater-clue: {self.clue}")
        return "\n".join(lines)


@dataclass
class MultiHopConfig:
    """Beam widths of the iterative retrieval."""

    k_hop1: int = 8  # hop-1 candidates to expand
    k_hop2: int = 4  # hop-2 candidates per hop-1 document
    k_paths: int = 8  # paths returned
    # weight of the updater-clue embedding in the hop-2 query vector.
    # The paper appends the clue tokens to the question; with a full-size
    # BERT, attention re-weights the novel tokens, but mean pooling would
    # drown ~5 clue tokens in ~20 question tokens — so the clue enters the
    # query as an explicit embedding mix: v(q') = v(q) + clue_weight*v(t').
    clue_weight: float = 1.0


class MultiHopRetriever:
    """Retriever-updater iteration over a shared triple store."""

    def __init__(
        self,
        retriever: SingleRetriever,
        updater: QuestionUpdater,
        config: Optional[MultiHopConfig] = None,
    ):
        if updater.encoder is not retriever.encoder:
            # hop 1's triple cosines stand in for the updater's own, and
            # v(q) + clue_weight * v(clue) mixes the two: one space only
            raise ValueError(
                "updater and retriever must share one encoder object"
            )
        self.retriever = retriever
        self.updater = updater
        self.config = config or MultiHopConfig()

    @staticmethod
    def _clue_text(question_words: Set[str], clue: Triple) -> str:
        """The encoded bridge signal of one updater clue.

        Encode only the clue's *novel* tokens: the full flattened triple
        still contains the anchor entity (its subject), which would pull
        hop 2 straight back to hop-1-like documents; the novel part is the
        bridge signal. The sharpest such signal is the novel *entity*:
        prefer capitalized novel tokens, then any novel token, then the
        whole clue. ``question_words``: the question's lower-cased
        whitespace words, ``?`` removed.
        """
        novel = [
            token
            for token in clue.flatten().split()
            if token.lower() not in question_words
        ]
        capitalized = [t for t in novel if t[:1].isupper()]
        return " ".join(capitalized or novel) or clue.flatten()

    def retrieve_paths_batch(
        self,
        questions: Sequence[str],
        k_paths: Optional[int] = None,
        nprobe: Optional[int] = None,
        precision: PrecisionLike = None,
    ) -> List[List[DocumentPath]]:
        """Top-k document paths (Eq. 8 scoring) for every question.

        The one entry point; a single question is a batch of one. All
        questions encode in one pass, hop 1 runs as one
        :meth:`SingleRetriever.retrieve_batch` matmul whose flat triple
        scores are the ``cosines`` of each question's one
        ``select_clues`` call over its whole beam, every clue text across
        every question encodes as one batch, and the hop-2 queries of
        *all* questions run as one further ``retrieve_batch`` call — two
        encoder calls and two scoring calls in all. Only the
        returned paths' clues compose an ``updated_question``, once per
        distinct clue. A question's paths are the same in any batch up to
        encoder batch-padding float jitter (~1e-16); with a
        batch-invariant encoder they are exact.

        ``nprobe`` and ``precision`` are forwarded to both hops'
        ``retrieve_batch`` calls, so a quantized policy prunes *both*
        hops' matmuls.
        """
        cfg = self.config
        if k_paths is None:
            k_paths = cfg.k_paths
        questions = list(questions)
        if not questions:
            return []
        if k_paths <= 0:
            return [[] for _ in questions]
        question_matrix = self.retriever.encode_questions(questions)
        hop1_lists = self.retriever.retrieve_batch(
            question_matrix,
            k=cfg.k_hop1,
            keep_triple_scores=True,
            nprobe=nprobe,
            precision=precision,
        )
        # select every (question, hop-1 candidate) clue first so all clue
        # texts across the whole batch encode as one encoder pass
        store = self.retriever.store
        clues_per_q: List[List[Optional[Triple]]] = []
        clue_texts: List[str] = []
        clue_rows: List[int] = []  # global hop-2 row indices
        clue_sources: List[int] = []  # question index per clue row
        cursor = 0
        for qi, (question, hop1_results) in enumerate(
            zip(questions, hop1_lists)
        ):
            picks = self.updater.select_clues(
                question,
                [(hop1.doc_id, store.triples(hop1.doc_id)) for hop1 in hop1_results],
                [hop1.triple_scores for hop1 in hop1_results],
            )
            clues = [pick[1] if pick else None for pick in picks]
            question_words = {
                t.lower() for t in question.replace("?", " ").split()
            }
            for row, clue in enumerate(clues):
                if clue is not None:
                    clue_texts.append(self._clue_text(question_words, clue))
                    clue_rows.append(cursor + row)
                    clue_sources.append(qi)
            clues_per_q.append(clues)
            cursor += len(hop1_results)
        # one hop-2 row per beam document, starting as its question
        hop2_matrix = np.repeat(
            question_matrix, [len(results) for results in hop1_lists], axis=0
        )
        if clue_texts:
            clue_matrix = self.retriever.encode_questions(clue_texts)
            questions_normed = l2_normalize_rows(question_matrix)
            hop2_matrix[clue_rows] = (
                questions_normed[clue_sources]
                + cfg.clue_weight * l2_normalize_rows(clue_matrix)
            )
        # one Q×T matmul covers every question's every second hop
        hop2_lists = (
            self.retriever.retrieve_batch(
                hop2_matrix,
                k=cfg.k_hop2 + 1,
                nprobe=nprobe,
                precision=precision,
            )
            if cursor
            else []
        )
        out: List[List[DocumentPath]] = []
        start = 0
        for question, hop1_results, clues in zip(
            questions, hop1_lists, clues_per_q
        ):
            stop = start + len(hop1_results)
            out.append(
                self._assemble_paths(
                    question,
                    hop1_results,
                    clues,
                    hop2_lists[start:stop],
                    k_paths,
                )
            )
            start = stop
        return out

    def _assemble_paths(
        self,
        question: str,
        hop1_results: Sequence[RetrievedDocument],
        clues: Sequence[Optional[Triple]],
        hop2_lists: Sequence[List[RetrievedDocument]],
        k_paths: int,
    ) -> List[DocumentPath]:
        """Combine one question's hop results into ranked paths (Eq. 8).

        ``updated_question`` is composed for the returned paths only, once
        per distinct clue.
        """
        cfg = self.config
        paths: List[DocumentPath] = []
        seen = set()
        for hop1, clue, hop2_results in zip(hop1_results, clues, hop2_lists):
            survivors = 0
            for hop2 in hop2_results:
                # the +1 overfetch exists only to absorb the hop-1 doc
                # itself; cap the survivors so the per-candidate beam stays
                # exactly k_hop2 even when the hop-1 doc is absent
                if survivors >= cfg.k_hop2:
                    break
                if hop2.doc_id == hop1.doc_id:
                    continue
                key = (hop1.doc_id, hop2.doc_id)
                if key in seen:
                    continue
                seen.add(key)
                survivors += 1
                paths.append(
                    DocumentPath(
                        doc_ids=(hop1.doc_id, hop2.doc_id),
                        titles=(hop1.title, hop2.title),
                        score=hop1.score + hop2.score,
                        hop_scores=(hop1.score, hop2.score),
                        clue=clue,
                        matched_triples=(
                            hop1.matched_triple,
                            hop2.matched_triple,
                        ),
                    )
                )
        paths.sort(key=lambda p: (-p.score, p.doc_ids))
        updated = {None: question}
        for path in paths[:k_paths]:
            if path.clue not in updated:
                updated[path.clue] = compose_updated_question(question, path.clue)
            path.updated_question = updated[path.clue]
        return paths[:k_paths]
