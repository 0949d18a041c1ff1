"""Unit tests for the baseline retrievers."""

import numpy as np
import pytest

from repro.baselines.dense_base import DenseConfig, DenseRetriever
from repro.baselines.golden_retriever import GoldEnRetriever
from repro.baselines.hop_retriever import HopRetrieverBaseline
from repro.baselines.lexical import LexicalRetriever
from repro.baselines.mdr import MDRRetriever
from repro.baselines.path_retriever import PathRetrieverBaseline, PathRetrieverConfig
from repro.baselines.tprr import TPRRRetriever
from repro.retriever.negatives import mine_training_examples


class TestLexicalRetriever:
    def test_text_field_retrieval(self, corpus):
        lexical = LexicalRetriever(corpus)
        document = corpus[0]
        titles = lexical.retrieve_titles(document.title, k=5)
        assert document.title in titles

    def test_triple_field_retrieval(self, corpus, store):
        lexical = LexicalRetriever(corpus, store=store)
        document = next(d for d in corpus if d.entity.kind == "club")
        titles = lexical.retrieve_titles(
            f"when was {document.title} established", k=5, field="triples"
        )
        assert document.title in titles

    def test_tfidf_scorer(self, corpus):
        lexical = LexicalRetriever(corpus, scorer="tfidf")
        assert lexical.retrieve("football club", k=3)

    def test_extra_fields(self, corpus):
        extra = {"custom": {0: "zzyzx unique token"}}
        lexical = LexicalRetriever(corpus, extra_fields=extra)
        hits = lexical.retrieve("zzyzx", k=3, field="custom")
        assert hits and hits[0].doc_id == 0


class TestGoldEn:
    def test_one_hop(self, corpus):
        golden = GoldEnRetriever(corpus)
        document = corpus[0]
        assert document.title in golden.retrieve_documents(document.title, k=5)

    def test_query_generation_adds_entity(self, corpus, hotpot):
        golden = GoldEnRetriever(corpus)
        question = next(q for q in hotpot.train if q.is_bridge)
        hop1 = corpus.by_title(question.gold_titles[0])
        generated = golden.generate_query(question.text, hop1.doc_id)
        assert len(generated) >= len(question.text)

    def test_paths_shape(self, corpus, hotpot):
        golden = GoldEnRetriever(corpus, k_hop1=3, k_hop2=2)
        paths = golden.retrieve_paths(hotpot.test[0].text, k_paths=5)
        assert paths and all(len(p) == 2 for p in paths)
        assert all(p[0] != p[1] for p in paths)


@pytest.fixture(scope="module")
def dense(encoder, corpus):
    retriever = DenseRetriever(
        encoder, corpus, DenseConfig(epochs=1, lr=1e-4)
    )
    retriever.refresh_embeddings()
    return retriever


class TestDenseBase:
    def test_retrieve_shapes(self, dense):
        hits = dense.retrieve("football club", k=5)
        assert len(hits) == 5
        scores = [s for _, s in hits]
        assert scores == sorted(scores, reverse=True)

    def test_exclude(self, dense):
        hits = dense.retrieve("club", k=5, exclude=[0, 1])
        assert all(d not in (0, 1) for d, _ in hits)

    def test_title_query_ranks_doc_above_median(self, dense, corpus):
        document = corpus[0]
        titles = dense.retrieve_titles(document.title, k=len(corpus) // 2)
        assert document.title in titles

    def test_training_runs(self, dense, hotpot, corpus, store):
        examples = mine_training_examples(hotpot.train[:6], corpus, store)
        losses = dense.train(examples)
        assert len(losses) == 1 and np.isfinite(losses[0])

    def test_vector_query(self, dense):
        vec = dense.encode_query("some question")
        hits = dense.retrieve_by_vector(vec, k=3)
        assert len(hits) == 3
        # an empty batch stays in the encoder's policy dtype
        assert (
            dense.encode_queries([]).dtype == dense.encode_queries(["q"]).dtype
        )


class TestTPRRandMDR:
    def test_tprr_paths(self, encoder, corpus, hotpot):
        tprr = TPRRRetriever(encoder, corpus, k_hop1=3, k_hop2=2)
        paths = tprr.retrieve_paths(hotpot.test[0].text, k_paths=4)
        assert paths and all(len(p) == 2 for p in paths)

    def test_mdr_hop2_query_contains_document(self, encoder, corpus, hotpot):
        mdr = MDRRetriever(encoder, corpus)
        question = hotpot.test[0]
        query = mdr.hop2_query(question.text, 0)
        assert corpus[0].text in query

    def test_mdr_paths(self, encoder, corpus, hotpot):
        mdr = MDRRetriever(encoder, corpus, k_hop1=3, k_hop2=2)
        paths = mdr.retrieve_paths(hotpot.test[0].text, k_paths=4)
        assert paths and all(p[0] != p[1] for p in paths)


class TestPathRetrieverBaseline:
    def test_paths_respect_hyperlinks(self, encoder, corpus, hotpot):
        baseline = PathRetrieverBaseline(encoder, corpus)
        for question in hotpot.test[:3]:
            for hop1_title, hop2_title in baseline.retrieve_paths(question.text):
                hop1 = corpus.by_title(hop1_title)
                neighbour_titles = {d.title for d in corpus.neighbours(hop1)}
                assert hop2_title in neighbour_titles

    def test_training_runs(self, encoder, corpus, hotpot):
        baseline = PathRetrieverBaseline(
            encoder, corpus, config=PathRetrieverConfig(epochs=1)
        )
        losses = baseline.train(hotpot.train[:10])
        assert len(losses) == 1


class TestHopRetrieverBaseline:
    def test_document_text_contains_entities(self, encoder, corpus):
        baseline = HopRetrieverBaseline(encoder, corpus)
        document = next(d for d in corpus if d.entity.kind == "person")
        text = baseline.document_text(document.doc_id)
        assert document.title in text

    def test_hop2_query_uses_entities_not_text(self, encoder, corpus, hotpot):
        baseline = HopRetrieverBaseline(encoder, corpus)
        question = hotpot.test[0]
        query = baseline.hop2_query(question.text, 0)
        assert len(query) < len(question.text) + len(corpus[0].text)

    def test_paths(self, encoder, corpus, hotpot):
        baseline = HopRetrieverBaseline(encoder, corpus, k_hop1=3, k_hop2=2)
        paths = baseline.retrieve_paths(hotpot.test[0].text, k_paths=4)
        assert paths
