"""Unit tests for the baseline retrievers."""

import numpy as np
import pytest

from repro.baselines.dense_base import DenseConfig, DenseRetriever
from repro.baselines.hop_retriever import HopRetrieverBaseline
from repro.baselines.lexical import LexicalRetriever
from repro.baselines.mdr import MDRRetriever
from repro.baselines.path_retriever import PathRetrieverBaseline, PathRetrieverConfig
from repro.baselines.tprr import TPRRRetriever
from repro.index.entity_index import EntityIndex
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

    def test_extra_fields(self, corpus):
        extra = {"custom": {0: "zzyzx unique token"}}
        lexical = LexicalRetriever(corpus, extra_fields=extra)
        hits = lexical.retrieve("zzyzx", k=3, field="custom")
        assert hits and hits[0].doc_id == 0


@pytest.fixture(scope="module")
def dense(encoder, corpus):
    retriever = DenseRetriever(
        encoder, corpus, DenseConfig(epochs=1, lr=1e-4)
    )
    retriever.refresh_embeddings()
    return retriever


@pytest.fixture(scope="module")
def linker(corpus):
    index = EntityIndex(corpus.titles())
    for document in corpus:
        index.add_document(document.doc_id, document.text)
    return index


class TestDenseBase:
    def test_retrieve_shapes(self, dense):
        hits = dense.retrieve_batch(dense.encode_queries(["football club"]), k=5)[0]
        assert len(hits) == 5
        scores = [s for _, s in hits]
        assert scores == sorted(scores, reverse=True)

    def test_exclude(self, dense):
        queries = dense.encode_queries(["club"])
        hits = dense.retrieve_batch(queries, k=5, exclude=[[0, 1]])[0]
        assert all(d not in (0, 1) for d, _ in hits)

    def test_title_query_ranks_doc_above_median(self, dense, corpus):
        document = corpus[0]
        titles = dense.retrieve_documents(document.title, k=len(corpus) // 2)
        assert document.title in titles

    def test_training_runs(self, dense, hotpot, corpus, store):
        examples = mine_training_examples(hotpot.train[:6], corpus, store)
        losses = dense.train(examples)
        assert len(losses) == 1 and np.isfinite(losses[0])

    def test_vector_query(self, dense):
        hits = dense.retrieve_batch(dense.encode_queries(["some question"]), k=3)
        assert len(hits) == 1 and len(hits[0]) == 3
        # an empty batch stays in the encoder's policy dtype
        assert (
            dense.encode_queries([]).dtype == dense.encode_queries(["q"]).dtype
        )


class TestDenseRetrieveBatchOrder:
    """``retrieve_batch`` ranks by (score desc, doc id asc), the order of
    every retrieval site, and drops an excluded id without losing k."""

    # query [1, 0] scores the rows 0.0, 1.0, 0.5, 1.0, 0.5, 1.0
    ROWS = np.array(
        [[0.0, 1.0], [1.0, 0.0], [0.5, 0.5], [1.0, 0.0], [0.5, 0.5], [1.0, 0.0]]
    )

    @pytest.fixture()
    def tied(self, encoder, corpus):
        retriever = DenseRetriever(encoder, corpus)
        retriever._doc_normed = self.ROWS
        return retriever

    def test_ties_break_by_ascending_doc_id(self, tied):
        hits = tied.retrieve_batch(np.array([[1.0, 0.0]]), k=6)[0]
        assert hits == [(1, 1.0), (3, 1.0), (5, 1.0), (2, 0.5), (4, 0.5), (0, 0.0)]

    def test_excluded_ids_never_appear_and_k_still_comes_back(self, tied):
        queries = np.array([[1.0, 0.0], [1.0, 0.0]])
        for k in range(1, 5):
            for exclude in ([1], [3, 1]):
                if k + len(exclude) > len(self.ROWS):
                    continue
                hits = tied.retrieve_batch(queries, k=k, exclude=[exclude, []])
                expected = [
                    (d, s)
                    for d, s in tied.retrieve_batch(queries[:1], k=6)[0]
                    if d not in exclude
                ]
                assert hits[0] == expected[:k]
                assert len(hits[0]) == k
                assert hits[1] == tied.retrieve_batch(queries[:1], k=k)[0]


class TestTPRRandMDR:
    def test_tprr_paths(self, encoder, corpus, hotpot):
        tprr = TPRRRetriever(encoder, corpus)
        paths = tprr.retrieve_paths(hotpot.test[0].text, k_paths=4)
        assert paths and all(len(p) == 2 for p in paths)

    def test_mdr_hop2_query_contains_document(self, encoder, corpus, hotpot):
        mdr = MDRRetriever(encoder, corpus)
        question = hotpot.test[0]
        query = mdr.hop2_query(question.text, 0)
        assert corpus[0].text in query

    def test_mdr_paths(self, encoder, corpus, hotpot):
        mdr = MDRRetriever(encoder, corpus)
        paths = mdr.retrieve_paths(hotpot.test[0].text, k_paths=4)
        assert paths and all(p[0] != p[1] for p in paths)


class TestPathRetrieverBaseline:
    def test_paths_respect_hyperlinks(self, encoder, corpus, hotpot):
        baseline = PathRetrieverBaseline(encoder, corpus)
        for question in hotpot.test[:3]:
            paths = baseline.retrieve_paths(question.text, k_paths=8)
            for hop1_title, hop2_title in paths:
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
    def test_document_text_contains_entities(self, encoder, corpus, linker):
        baseline = HopRetrieverBaseline(encoder, corpus, linker)
        document = next(d for d in corpus if d.entity.kind == "person")
        text = baseline.document_text(document.doc_id)
        assert document.title in text

    def test_hop2_query_uses_entities_not_text(
        self, encoder, corpus, hotpot, linker
    ):
        baseline = HopRetrieverBaseline(encoder, corpus, linker)
        question = hotpot.test[0]
        query = baseline.hop2_query(question.text, 0)
        assert len(query) < len(question.text) + len(corpus[0].text)

    def test_paths(self, encoder, corpus, hotpot, linker):
        baseline = HopRetrieverBaseline(encoder, corpus, linker)
        paths = baseline.retrieve_paths(hotpot.test[0].text, k_paths=4)
        assert paths
