"""Algorithm 1 — partition-based triple-fact set construction.

The paper's main non-neural contribution: build a *complete-minimized*
triple fact set ``T_d`` (|T_d| <= l) from the union extraction ``T_o`` in
O(m^2), via relatedness pruning, canopy partitioning, greedy mother-child
cover and sibling fusion.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.index.entity_index import EntityIndex
from repro.oie.triple import Triple
from repro.oie.union import UnionExtractor, dedupe_triples
from repro.triples.canopy import build_canopies
from repro.triples.relatedness import prune_noise, relatedness
from repro.triples.setcover import greedy_cover
from repro.triples.sibling import fuse_siblings


@dataclass
class ConstructionConfig:
    """Knobs of Algorithm 1 (paper defaults: l=40, max length 256)."""

    threshold_size: int = 40  # l: maximum |T_d|
    max_triple_chars: int = 256  # maximum flattened length of one triple
    sibling_alpha: float = 0.75  # sibling similarity threshold
    min_relatedness: float = 1e-9  # Eq. 1 pruning threshold
    min_alpha: float = 0.45  # floor when tightening the budget


@dataclass
class ConstructionResult:
    """The constructed set plus provenance counters (for tests/ablations)."""

    triples: List[Triple]
    union_size: int = 0
    pruned_noise: int = 0
    removed_children: int = 0
    fused: int = 0
    truncated: int = 0


class TripleSetConstructor:
    """Builds ``T_d`` for documents (paper Algorithm 1).

    Parameters
    ----------
    config:
        Algorithm knobs.
    linker:
        Optional :class:`EntityIndex` used for the Eq. 1 relatedness score.
        Without a linker, noise pruning is skipped (every triple scores
        equally) but redundancy removal still runs.

    The union set comes from pattern ∪ MinIE, as in the paper.
    """

    def __init__(
        self,
        config: Optional[ConstructionConfig] = None,
        linker: Optional[EntityIndex] = None,
    ):
        self.config = config or ConstructionConfig()
        self.linker = linker
        self.extractor = UnionExtractor()

    # -- public API ---------------------------------------------------------
    def construct_from_text(
        self,
        text: str,
        title: Optional[str] = None,
        entity_kind: Optional[str] = None,
        doc_entities: Optional[Sequence[str]] = None,
    ) -> ConstructionResult:
        """Extract the union set from raw text, then construct ``T_d``."""
        union = self.extractor.extract_document(
            text, title=title, entity_kind=entity_kind
        )
        return self.construct(union, doc_entities=doc_entities)

    def construct(
        self,
        union_triples: Sequence[Triple],
        doc_entities: Optional[Sequence[str]] = None,
    ) -> ConstructionResult:
        """Run Algorithm 1 over an already-extracted union set ``T_o``."""
        cfg = self.config
        union = dedupe_triples(union_triples)
        result = ConstructionResult(triples=[], union_size=len(union))

        # line 2-3: relatedness pruning
        if self.linker is not None and doc_entities:
            survivors, _scores = prune_noise(
                union, doc_entities, self.linker, cfg.min_relatedness
            )
        else:
            survivors = list(union)
        result.pruned_noise = len(union) - len(survivors)

        # line 4: canopy partition
        canopies = build_canopies(survivors)

        # lines 6-12: inner clustering per canopy, tightening until <= l
        alpha = cfg.sibling_alpha
        constructed = self._one_round(canopies, alpha, result)
        while len(constructed) > cfg.threshold_size and alpha > cfg.min_alpha:
            alpha -= 0.1
            canopies = build_canopies(constructed)
            constructed = self._one_round(canopies, alpha, result)

        # final budget: keep the top-l by (relatedness, confidence, order)
        if len(constructed) > cfg.threshold_size:
            constructed = self._truncate(constructed, doc_entities, result)

        result.triples = [self._clip(t) for t in constructed]
        return result

    # -- internals ---------------------------------------------------------
    def _one_round(self, canopies, alpha: float, result: ConstructionResult):
        constructed: List[Triple] = []
        for canopy in canopies:
            covered = greedy_cover(canopy.triples)
            result.removed_children += len(canopy.triples) - len(covered)
            fused = fuse_siblings(covered, alpha=alpha)
            result.fused += len(covered) - len(fused)
            constructed.extend(fused)
        return constructed

    def _truncate(
        self,
        triples: List[Triple],
        doc_entities: Optional[Sequence[str]],
        result: ConstructionResult,
    ) -> List[Triple]:
        cfg = self.config

        def score(item):
            index, triple = item
            related = 0.0
            if self.linker is not None and doc_entities:
                related = relatedness(triple, doc_entities, self.linker)
            return (-related, -triple.confidence, index)

        ranked = sorted(enumerate(triples), key=score)
        kept = ranked[: cfg.threshold_size]
        result.truncated += len(triples) - len(kept)
        kept.sort(key=lambda item: item[0])  # restore document order
        return [triple for _, triple in kept]

    def _clip(self, triple: Triple) -> Triple:
        """Enforce the 256-char flattened-length budget on fusion triples."""
        max_chars = self.config.max_triple_chars
        if len(triple.flatten()) <= max_chars or not triple.extra_objects:
            return triple
        extras = list(triple.extra_objects)
        while extras:
            extras.pop()
            candidate = Triple(
                subject=triple.subject,
                predicate=triple.predicate,
                object=triple.object,
                extra_objects=tuple(extras),
                source=triple.source,
                sentence_index=triple.sentence_index,
                confidence=triple.confidence,
            )
            if len(candidate.flatten()) <= max_chars:
                return candidate
        return Triple(
            subject=triple.subject,
            predicate=triple.predicate,
            object=triple.object,
            source=triple.source,
            sentence_index=triple.sentence_index,
            confidence=triple.confidence,
        )
