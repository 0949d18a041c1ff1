"""Quickstart: train the full Triple-Fact Retrieval system and ask it
multi-hop questions.

Builds a small synthetic Wikipedia world, fits every stage (triple
extraction + Algorithm 1, retriever fine-tuning, updater, path ranker) and
retrieves explained document paths. Runs in about a minute on a laptop CPU.

    python examples/quickstart.py
"""

from repro.core import FrameworkConfig, TripleFactRetrieval
from repro.data import World, WorldConfig, build_corpus, build_hotpot_dataset
from repro.encoder import EncoderConfig
from repro.pipeline import MultiHopConfig, PathRankerConfig
from repro.retriever import TrainerConfig
from repro.updater import UpdaterConfig


def main() -> None:
    print("building synthetic world + corpus ...")
    world = World(
        WorldConfig(
            n_persons=40, n_clubs=12, n_bands=12, n_cities=14,
            n_companies=6, n_films=8, n_universities=5, n_awards=4,
        )
    )
    corpus = build_corpus(world)
    dataset = build_hotpot_dataset(world, corpus, comparison_per_kind=8)
    print(f"  {len(corpus)} documents, "
          f"{len(dataset.train)} train / {len(dataset.test)} test questions")

    print("training the Triple-Fact Retrieval system ...")
    config = FrameworkConfig(
        encoder=EncoderConfig(dim=64, n_layers=1, n_heads=4, max_len=40),
        retriever=TrainerConfig(epochs=2, lr=3e-4),
        updater=UpdaterConfig(epochs=1),
        ranker=PathRankerConfig(epochs=1),
        multihop=MultiHopConfig(k_hop1=6, k_hop2=3, k_paths=6),
        max_ranker_questions=40,
        verbose=True,
    )
    system = TripleFactRetrieval(config).fit(corpus, dataset)

    print("\n=== multi-hop retrieval with explanations ===")
    for question in dataset.test[:3]:
        print(f"\nQ: {question.text}")
        print(f"   gold path: {question.gold_titles} | answer: {question.answer}")
        paths = system.retrieve_paths_many([question.text], k=2)[0]
        for rank, path in enumerate(paths, 1):
            print(f" #{rank} {path.titles}")
            print("    " + path.explain().replace("\n", "\n    "))

    hits = sum(
        1
        for question in dataset.test[:50]
        if any(
            frozenset(question.gold_titles) == path.title_set
            for path in system.retrieve_paths_many([question.text], k=8)[0]
        )
    )
    print(f"\npath PEM@8 on 50 test questions: {hits}/50")


if __name__ == "__main__":
    main()
