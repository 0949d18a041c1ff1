"""Retriever showdown — lexical vs dense vs triple-fact retrieval.

Runs BM25 (text field), BM25 (triple-fact field), a full-text dense
retriever (TPRR-style) and the trained Triple-Fact single retriever over
the same one-hop questions, reporting PR@8 per question type and showing
the matched-triple explanations only the triple retriever can produce.

    python examples/retriever_showdown.py
"""

from repro.baselines import LexicalRetriever, TPRRRetriever
from repro.data import World, WorldConfig, build_corpus, build_hotpot_dataset
from repro.encoder import EncoderConfig, MiniBertEncoder
from repro.eval import RetrievalScorecard, format_table, paragraph_recall
from repro.retriever import (
    RetrieverTrainer,
    SingleRetriever,
    TrainerConfig,
    build_triple_store,
    mine_training_examples,
)
from repro.text import Vocab, tokenize


def main() -> None:
    print("building world + training retrievers (about a minute) ...")
    world = World(
        WorldConfig(
            n_persons=50, n_clubs=14, n_bands=14, n_cities=16,
            n_companies=8, n_films=8, n_universities=5, n_awards=4,
        )
    )
    corpus = build_corpus(world)
    dataset = build_hotpot_dataset(world, corpus, comparison_per_kind=10)
    store = build_triple_store(corpus)
    vocab = Vocab.from_texts(
        [d.text for d in corpus] + [q.text for q in dataset.train], tokenize
    )

    def new_encoder(seed):
        encoder = MiniBertEncoder(
            vocab,
            EncoderConfig(dim=64, n_layers=1, n_heads=4, max_len=40,
                          seed=seed),
        )
        encoder.fit_idf([store.field_text(d.doc_id) for d in corpus])
        return encoder

    examples = mine_training_examples(dataset.train, corpus, store)

    triple_retriever = SingleRetriever(new_encoder(1), store)
    RetrieverTrainer(
        triple_retriever, TrainerConfig(epochs=2, lr=3e-4)
    ).train(examples)

    tprr = TPRRRetriever(new_encoder(2), corpus)
    tprr.train(examples)

    lexical = LexicalRetriever(corpus, store=store)

    systems = {
        "BM25 text": lambda q: lexical.retrieve_titles(q, k=8, field="text"),
        "BM25 TFS": lambda q: lexical.retrieve_titles(q, k=8, field="triples"),
        "TPRR dense": lambda q: tprr.retrieve_documents(q, k=8),
        "Triple-Retriever": lambda q: [
            r.title for r in triple_retriever.retrieve_many([q], k=8)[0]
        ],
    }

    rows = []
    for name, fn in systems.items():
        card = RetrievalScorecard()
        for question in dataset.test:
            card.add(
                question.qtype,
                paragraph_recall(fn(question.text), question.gold_titles),
            )
        rows.append([name, card.rate("bridge"), card.rate("comparison"),
                     card.total])
    print()
    print(format_table(["system", "bridge", "comparison", "total"], rows,
                       title="one-hop PR@8"))

    print("\n=== explanations (only the triple retriever locates evidence) ===")
    question = dataset.test[0]
    print(f"Q: {question.text}")
    for result in triple_retriever.retrieve_many([question.text], k=3)[0]:
        print(f"  {result.explain()}")


if __name__ == "__main__":
    main()
