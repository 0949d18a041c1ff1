"""Explainable triple extraction — the paper's Fig. 3 walkthrough.

Shows each stage of the offline pipeline on one document: coreference
resolution, the two OIE tools reading the resolved sentences, the
noisy/redundant union set ``T_o``,
and the complete-minimized set ``T_d`` produced by Algorithm 1 (with
mother-child removal and sibling fusion visible), compared against the
HAC baseline's lossy output.

    python examples/explainable_extraction.py
"""

from repro.core import ConstructionConfig, TripleSetConstructor
from repro.index import EntityIndex
from repro.oie import extract_document
from repro.text import resolve_coreferences
from repro.triples import hac_construct

DOCUMENT = (
    "Staughton Craig Lynd is an American conscientious objector. "
    "He is a Quaker, peace activist and civil rights activist. "
    "He worked as a historian and professor. "
    "He was born in Philadelphia. "
    "Local newspapers covered the story at the time."
)
TITLE = "Staughton Craig Lynd"


def main() -> None:
    print("=== document ===")
    print(DOCUMENT)

    print("\n=== coreference resolution ===")
    resolved = resolve_coreferences(DOCUMENT, title=TITLE, entity_kind="person")
    for sentence in resolved:
        print(" ", sentence)

    extraction = extract_document(DOCUMENT, title=TITLE, entity_kind="person")
    print("\n=== StanfordIE-style pattern extraction (over-generates) ===")
    for triple in extraction.pattern:
        tag = "NOISE" if triple.confidence <= 0.4 else "     "
        print(f"  [{tag}] {triple}")

    print("\n=== MinIE-style extraction (minimized constituents) ===")
    for triple in extraction.minie:
        print(f"  {triple}")

    union = extraction.union
    print(f"\n=== union set T_o: {len(union)} triples ===")

    linker = EntityIndex([TITLE, "Philadelphia"])
    linker.add_document(0, DOCUMENT)
    constructor = TripleSetConstructor(
        ConstructionConfig(threshold_size=6), linker=linker
    )
    result = constructor.construct(union, doc_entities=linker.entities_of(0))
    print(
        f"=== Algorithm 1 -> T_d: {len(result.triples)} triples "
        f"(pruned {result.pruned_noise} noise, removed "
        f"{result.removed_children} children, fused {result.fused}) ==="
    )
    for triple in result.triples:
        print(f"  {triple}")

    print("\n=== HAC baseline (same budget, lossy representatives) ===")
    for triple in hac_construct(union, 6):
        print(f"  {triple}")


if __name__ == "__main__":
    main()
