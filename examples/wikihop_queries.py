"""Wikihop-style retrieval — cross-document (subject, relation, ?) queries.

The paper's second dataset: answer structured queries by retrieving the
support-document path and reading the answer off the hop-2 document's
triple facts. Demonstrates the retriever-updater framework on a different
query surface form than natural-language questions.

    python examples/wikihop_queries.py
"""

from repro.data import World, WorldConfig, build_corpus, build_wikihop_dataset
from repro.encoder import EncoderConfig, MiniBertEncoder
from repro.retriever import SingleRetriever, build_triple_store
from repro.text import Vocab, tokenize
from repro.updater import compose_updated_question


def main() -> None:
    world = World(
        WorldConfig(
            n_persons=40, n_clubs=12, n_bands=12, n_cities=14,
            n_companies=6, n_films=8, n_universities=5, n_awards=4,
        )
    )
    corpus = build_corpus(world)
    wikihop = build_wikihop_dataset(world, corpus, max_queries=400)
    store = build_triple_store(corpus)
    vocab = Vocab.from_texts(
        [d.text for d in corpus] + [q.text for q in wikihop.train], tokenize
    )
    encoder = MiniBertEncoder(
        vocab, EncoderConfig(dim=64, n_layers=1, n_heads=4, max_len=40)
    )
    encoder.fit_idf([store.field_text(d.doc_id) for d in corpus])
    retriever = SingleRetriever(encoder, store)
    retriever.refresh_embeddings()

    print(f"{len(wikihop.validation)} validation queries "
          f"over {len(corpus)} documents\n")

    hop1_hits = path_hits = answer_hits = 0
    sample = wikihop.validation[:40]
    for query in sample:
        # hop 1: retrieve the subject's document
        hop1 = retriever.retrieve_many([query.text], k=4)[0]
        hop1_titles = [r.title for r in hop1]
        hop1_hit = query.gold_titles[0] in hop1_titles
        hop1_hits += hop1_hit
        # updater: pick the clue triple introducing the most novel entity
        # tokens (the untrained stand-in for the learned clue selector)
        top = hop1[0]
        candidates = store.triples(top.doc_id)
        query_tokens = set(query.text.lower().split())

        def novelty(triple):
            return sum(
                1
                for word in triple.flatten().split()
                if word[:1].isupper() and word.lower() not in query_tokens
            )

        import numpy as np

        clues = sorted(candidates, key=novelty, reverse=True)[:3]
        query_vec = retriever.encode_questions([query.text])[0]
        pooled = {}
        for clue in clues:
            # the bridge signal is the novel entity itself: keep only the
            # capitalized novel words of the clue
            novel = " ".join(
                w for w in clue.flatten().split()
                if w.lower() not in query_tokens and w[:1].isupper()
            )
            clue_vec = encoder.encode_numpy([novel or clue.flatten()])[0]
            hop2_vec = query_vec / (np.linalg.norm(query_vec) or 1.0) + (
                clue_vec / (np.linalg.norm(clue_vec) or 1.0)
            )
            for result in retriever.retrieve_batch(hop2_vec[None], k=2)[0]:
                if result.doc_id != top.doc_id:
                    pooled.setdefault(result.doc_id, result)
        # rank pooled hop-2 candidates by their match to the relation words
        hop2 = sorted(pooled.values(), key=lambda r: -r.score)[:4]
        if not hop2:
            hop2 = retriever.retrieve_many([query.text], k=4)[0]
        retrieved = set(hop1_titles[:1]) | {r.title for r in hop2}
        path_hit = set(query.gold_titles) <= retrieved
        path_hits += path_hit
        # read the answer from the retrieved triples
        answer = None
        for result in hop2:
            for triple in store.triples(result.doc_id):
                for candidate in query.candidates:
                    if candidate.lower() in triple.flatten().lower():
                        answer = candidate
                        break
        answer_hits += answer == query.answer

    n = len(sample)
    print(f"hop-1 recall@4 : {hop1_hits}/{n}")
    print(f"path coverage  : {path_hits}/{n}")
    print(f"answer accuracy: {answer_hits}/{n} (candidate lookup reader)")

    query = sample[0]
    print(f"\nexample query: ({query.subject}, {query.relation}, ?)")
    print(f"  candidates: {query.candidates}")
    print(f"  gold path: {query.gold_titles} -> answer {query.answer}")


if __name__ == "__main__":
    main()
