"""Benchmark-side oracle: brute-force ranking and response checks.

The oracle never calls the retrieval code it judges. It opens the
published :class:`~repro.ingest.embedding_store.EmbeddingStore`, L2
normalises its rows with plain numpy, scores a query as *normalised
query · normalised rows*, takes each document's maximum over its triple
rows (paper Eqs. 2-4, one-fact strategy) and orders documents by
``(score desc, doc id asc)``. The only thing it shares with the system
under test is the encoder that turns a question into a vector (and, for
path responses, the question updater's choice of clue): ranking,
aggregation, sharding, quantisation, caching, batching, the hop-2 beam,
path assembly and the wire are what is being checked.

Scores computed through different matmul shapes differ in the last bits,
so two documents whose oracle scores are closer than :attr:`Oracle.tol`
may appear in either order and either may take the last place of a
top-k. ``tol`` is 1e-9 for float64 stores and 64 float32 epsilons
(7.6e-6) for float32 stores.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Sequence

import numpy as np

from repro.ingest import EmbeddingStore

#: queries scored per brute-force block (bounds the score matrix)
_BLOCK = 128


@dataclass
class CheckReport:
    """Outcome of checking a set of responses."""

    checked: int = 0
    mismatched: int = 0
    recalls: List[float] = field(default_factory=list)  # one per response
    first_problem: Optional[str] = None

    def fail(self, why: str) -> None:
        self.mismatched += 1
        if self.first_problem is None:
            self.first_problem = why

    @property
    def mean_recall(self) -> float:
        return sum(self.recalls) / len(self.recalls) if self.recalls else 1.0


class Oracle:
    """Exact ranking over one published store generation."""

    def __init__(self, embeddings: EmbeddingStore, encoder: Any):
        matrix = np.asarray(embeddings.matrix)
        norms = np.linalg.norm(matrix, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        self.rows = matrix / norms
        self.doc_ids = np.asarray(embeddings.doc_ids)
        self.offsets = np.asarray(embeddings.offsets)
        self.encoder = encoder
        eps = float(np.finfo(self.rows.dtype).eps)
        self.tol = max(1e-9, 64.0 * eps)

    def unit_vectors(self, texts: Sequence[str]) -> np.ndarray:
        """L2-normalised encoder vectors of ``texts``."""
        vectors = np.asarray(
            self.encoder.encode_numpy(list(texts)), dtype=self.rows.dtype
        )
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        return vectors / norms

    def scores_of(self, vectors: np.ndarray) -> np.ndarray:
        """``(len(vectors), n_docs)`` per-document maximum cosine."""
        norms = np.linalg.norm(vectors, axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        flat = (vectors / norms) @ self.rows.T
        return np.maximum.reduceat(flat, self.offsets, axis=1)

    def doc_scores(self, questions: Sequence[str]) -> np.ndarray:
        """``(len(questions), n_docs)`` per-document maximum cosine."""
        return self.scores_of(self.unit_vectors(questions))

    def top(self, scores: np.ndarray, k: int) -> np.ndarray:
        """Indices of the top ``k`` documents, ``(score desc, id asc)``."""
        order = np.lexsort((self.doc_ids, -scores))
        return order[:k]

    def beam(self, scores: np.ndarray, k: int) -> np.ndarray:
        """Indices of every document that may hold one of the top ``k``
        places: the top ``k`` and whatever ties with the last of them."""
        best = self.top(scores, k)
        if not len(best):
            return best
        return np.flatnonzero(scores >= scores[best[-1]] - self.tol)

    # -- single-hop --------------------------------------------------------
    def check_single(
        self,
        questions: Sequence[str],
        responses: Sequence[Sequence[Any]],
        exact: Sequence[bool],
        k: int,
    ) -> CheckReport:
        """Check ranked-document responses against the brute-force ranking.

        Every response must carry the oracle's score for each document it
        names, in ``(score desc, doc id asc)`` order, without duplicates.
        An ``exact`` response must also be *the* top-k (no document left
        out that beats the last one returned by more than ``tol``). Recall
        is the share of the oracle's top-k the response names.
        """
        report = CheckReport()
        position = {int(d): i for i, d in enumerate(self.doc_ids)}
        for start in range(0, len(questions), _BLOCK):
            block = self.doc_scores(questions[start : start + _BLOCK])
            for row, scores in enumerate(block):
                index = start + row
                report.checked += 1
                recall = self._check_one(
                    scores, responses[index], exact[index], k, position, report
                )
                report.recalls.append(recall)
        return report

    def _check_one(
        self,
        scores: np.ndarray,
        response: Sequence[Any],
        exact: bool,
        k: int,
        position: dict,
        report: CheckReport,
    ) -> float:
        best = self.top(scores, k)
        wanted = min(k, len(self.doc_ids))
        ids = [int(doc.doc_id) for doc in response]
        if len(ids) != wanted or len(set(ids)) != len(ids):
            report.fail(f"expected {wanted} distinct documents, got {ids}")
            return 0.0
        if any(doc_id not in position for doc_id in ids):
            report.fail(f"unknown document id in {ids}")
            return 0.0
        truth = np.asarray([scores[position[d]] for d in ids])
        claimed = np.asarray([float(doc.score) for doc in response])
        floor = float(scores[best[-1]]) if len(best) else 0.0
        recall = float(np.mean(truth >= floor - self.tol)) if wanted else 1.0
        if np.any(np.abs(truth - claimed) > self.tol):
            report.fail(f"scores differ from brute force for {ids}")
        elif not _ordered(truth, claimed, ids, self.tol):
            report.fail(f"not in (score desc, doc id asc) order: {ids}")
        elif exact and recall < 1.0:
            report.fail(f"exact response {ids} misses part of the top-{k}")
        return recall

    # -- multi-hop ---------------------------------------------------------
    def check_paths(
        self,
        questions: Sequence[str],
        responses: Sequence[Sequence[Any]],
        k_hop1: int,
    ) -> CheckReport:
        """The cheap path checks: Eq. 8 sums, order, and the hop-1 beam."""
        report = CheckReport()
        position = {int(d): i for i, d in enumerate(self.doc_ids)}
        for start in range(0, len(questions), _BLOCK):
            block = self.doc_scores(questions[start : start + _BLOCK])
            for row, scores in enumerate(block):
                paths = responses[start + row]
                report.checked += 1
                beam = set(int(i) for i in self.beam(scores, k_hop1))
                problem = None
                for path in paths:
                    if abs(path.score - sum(path.hop_scores)) > self.tol:
                        problem = f"path {path.doc_ids}: score != sum of hops"
                    if position.get(int(path.doc_ids[0])) not in beam:
                        problem = (
                            f"path {path.doc_ids}: hop 1 outside the "
                            f"oracle top-{k_hop1}"
                        )
                keys = [(-p.score, tuple(p.doc_ids)) for p in paths]
                if any(
                    a[0] > b[0] + self.tol
                    or (a[0] == b[0] and a[1] > b[1])
                    for a, b in zip(keys, keys[1:])
                ):
                    problem = "paths not in (score desc, doc ids asc) order"
                if not paths:
                    problem = "no paths returned"
                if problem is not None:
                    report.fail(problem)
        return report

    def check_path_ranking(
        self,
        questions: Sequence[str],
        responses: Sequence[Sequence[Any]],
        bundle: Any,
        k_paths: int,
    ) -> CheckReport:
        """Hold path responses against a brute-force ranking of all paths.

        For each question the oracle takes its own hop-1 beam, asks the
        bundle's question updater for each beam document's clue (shared
        with the system, like the encoder), scores hop 2 by brute force
        with ``unit(question) + clue_weight * unit(clue text)``, and
        ranks every (hop 1, hop 2) pair by the summed scores (Eq. 8).
        Every returned path must be one of those pairs and carry their
        scores; recall is the share of the oracle's top ``k_paths`` the
        response names, and anything below 1.0 is a mismatch (path
        traffic is exact). The bar is the ``k_paths``-th total of the
        *exact* beams; a pair is accepted from beams widened by ties, so a
        near-tie at the edge of a beam cannot fail a correct response.
        Costs about as much as the request itself.
        """
        config = bundle.multihop_config
        report = CheckReport()
        for question, paths in zip(questions, responses):
            report.checked += 1
            asked = self.unit_vectors([question])
            hop1 = self.scores_of(asked)[0]
            firsts = self.beam(hop1, config.k_hop1)
            queries = np.repeat(asked, len(firsts), axis=0)
            clued, texts = [], []
            for row, first in enumerate(firsts):
                picked = bundle.updater.select_clue(
                    question, bundle.store.triples(int(self.doc_ids[first]))
                )
                if picked:
                    clued.append(row)
                    texts.append(clue_text(question, picked[1]))
            if texts:
                queries[clued] += config.clue_weight * self.unit_vectors(texts)
            hop2 = self.scores_of(queries)
            # every pair a correct system may return: beams widened by what
            # ties with their last place (the system keeps exactly k, and
            # which of two documents 1e-7 apart it keeps is its business)
            truth = {}  # (hop-1 id, hop-2 id) -> (hop-1 score, hop-2 score)
            # ... and the path totals of the exact beams, which set the bar
            totals = []
            exact_firsts = set(self.top(hop1, config.k_hop1).tolist())
            for row, first in enumerate(firsts):
                hop2[row, first] = -np.inf  # a path never revisits hop 1
                for second in self.beam(hop2[row], config.k_hop2):
                    pair = (int(self.doc_ids[first]), int(self.doc_ids[second]))
                    truth[pair] = (float(hop1[first]), float(hop2[row, second]))
                if int(first) in exact_firsts:
                    for second in self.top(hop2[row], config.k_hop2):
                        totals.append(
                            float(hop1[first]) + float(hop2[row, second])
                        )
            totals.sort(reverse=True)
            wanted = min(k_paths, len(totals))
            floor = totals[wanted - 1] if wanted else 0.0
            named = 0
            problem = None
            for path in paths:
                known = truth.get(tuple(int(d) for d in path.doc_ids))
                if known is None:
                    problem = f"path {path.doc_ids} is not in the oracle's beams"
                elif any(
                    abs(mine - theirs) > self.tol
                    for mine, theirs in zip(known, path.hop_scores)
                ):
                    problem = f"path {path.doc_ids}: hop scores differ"
                elif sum(known) >= floor - 2.0 * self.tol:
                    named += 1
            recall = named / wanted if wanted else 1.0
            if problem is None and (len(paths) != wanted or recall < 1.0):
                problem = (
                    f"{len(paths)} paths name {named} of the oracle's "
                    f"top {wanted}"
                )
            if problem is not None:
                report.fail(problem)
            report.recalls.append(recall)
        return report


def clue_text(question: str, clue: Any) -> str:
    """The text the system encodes as hop 2's bridge signal: the clue's
    capitalised tokens the question lacks, else any it lacks, else all."""
    asked = {token.lower() for token in question.replace("?", " ").split()}
    novel = [
        token for token in clue.flatten().split() if token.lower() not in asked
    ]
    return " ".join(
        [token for token in novel if token[:1].isupper()] or novel
    ) or clue.flatten()


def _ordered(
    truth: np.ndarray, claimed: np.ndarray, ids: Sequence[int], tol: float
) -> bool:
    """Non-increasing oracle scores; ids ascending where the response's
    own scores tie exactly (the ``(score desc, doc id asc)`` contract)."""
    for i in range(len(ids) - 1):
        if truth[i + 1] > truth[i] + tol:
            return False
        if claimed[i + 1] == claimed[i] and ids[i + 1] < ids[i]:
            return False
    return True


def same_results(
    left: Sequence[Any], right: Sequence[Any], tol: float
) -> bool:
    """Two ranked-document lists agree up to near-ties.

    Holds fleet responses against in-process results for the same
    question: scores must agree position by position within ``tol``, and
    a document on one side only is tolerated solely as a tie with the
    last place (batch composition moves float32 scores by an ulp or two).
    """
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if abs(float(a.score) - float(b.score)) > tol:
            return False
    score_of = {int(doc.doc_id): float(doc.score) for doc in left}
    last = float(left[-1].score) if left else 0.0
    for doc in right:
        known = score_of.get(int(doc.doc_id), last)
        if abs(known - float(doc.score)) > tol:
            return False
    return True
