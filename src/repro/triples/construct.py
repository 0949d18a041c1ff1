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
from repro.oie.union import dedupe_triples, extract_document
from repro.triples.canopy import build_canopies
from repro.triples.relatedness import prune_noise, relatedness
from repro.triples.setcover import greedy_cover
from repro.triples.sibling import fuse_siblings

#: how far the sibling threshold drops per tightening round
ALPHA_STEP = 0.1


@dataclass
class ConstructionConfig:
    """Knobs of Algorithm 1 (paper defaults: l=40, max length 256).

    Only ``threshold_size`` is set by a caller (the ablations sweep it).
    The other numbers are fixed, but stay fields: they shape every
    triple, so the construction fingerprint hashes them with the rest.
    """

    threshold_size: int = 40  # l: maximum |T_d|
    # maximum flattened length of one triple
    max_triple_chars: int = field(default=256, init=False)
    sibling_alpha: float = field(default=0.75, init=False)  # similarity
    min_relatedness: float = field(default=1e-9, init=False)  # Eq. 1 pruning
    min_alpha: float = field(default=0.45, init=False)  # tightening floor


@dataclass
class ConstructionResult:
    """The constructed set plus the counters ``repro demo`` prints."""

    triples: List[Triple]
    pruned_noise: int = 0
    removed_children: int = 0
    fused: int = 0


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

    # -- public API ---------------------------------------------------------
    def construct_from_text(
        self,
        text: str,
        title: Optional[str] = None,
        entity_kind: Optional[str] = None,
        doc_entities: Optional[Sequence[str]] = None,
    ) -> ConstructionResult:
        """Extract the union set from raw text, then construct ``T_d``."""
        union = extract_document(text, title=title, entity_kind=entity_kind).union
        return self.construct(union, doc_entities=doc_entities)

    def construct(
        self,
        union_triples: Sequence[Triple],
        doc_entities: Optional[Sequence[str]] = None,
    ) -> ConstructionResult:
        """Run Algorithm 1 over an already-extracted union set ``T_o``."""
        cfg = self.config
        union = dedupe_triples(union_triples)
        result = ConstructionResult(triples=[])

        # line 2-3: relatedness pruning
        if self.linker is not None and doc_entities:
            survivors, _scores = prune_noise(
                union, doc_entities, self.linker, cfg.min_relatedness
            )
        else:
            survivors = list(union)
        result.pruned_noise = len(union) - len(survivors)

        # line 4: canopy partition; lines 6-12: inner clustering per
        # canopy, one ALPHA_STEP tighter per round until <= l, the last
        # round at min_alpha. Each round's alpha comes from its step count:
        # summing float steps drifts past the floor.
        n_steps = round((cfg.sibling_alpha - cfg.min_alpha) / ALPHA_STEP)
        constructed = survivors
        for step in range(n_steps + 1):
            alpha = max(cfg.min_alpha, cfg.sibling_alpha - step * ALPHA_STEP)
            constructed = self._one_round(build_canopies(constructed), alpha, result)
            if len(constructed) <= cfg.threshold_size:
                break

        # final budget: keep the top-l by (relatedness, confidence, order)
        if len(constructed) > cfg.threshold_size:
            constructed = self._truncate(constructed, doc_entities)

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
        self, triples: List[Triple], doc_entities: Optional[Sequence[str]]
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
