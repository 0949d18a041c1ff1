"""One-call construction of the full trained Triple-Fact Retrieval system.

``TripleFactRetrieval.fit(corpus, dataset)`` runs the complete paper
pipeline: triple extraction + Algorithm 1 over the corpus, vocabulary and
IDF fitting, MLM pre-training, retriever fine-tuning (Eq. 5 supervision),
updater training (GoldEn supervision) and path-ranker training — then
answers multi-hop retrieval queries with explanations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.data.corpus import Corpus
from repro.data.hotpot import HotpotDataset, HotpotQuestion
from repro.encoder.minibert import EncoderConfig, MiniBertEncoder
from repro.encoder.pretrain import MLMPretrainer, PretrainConfig
from repro.ingest.embedding_store import (
    EMBEDDINGS_DIR,
    STORE_NAME,
    EmbeddingStore,
    EmbeddingStoreError,
)
from repro.ingest.fingerprint import construction_fingerprint
from repro.pipeline.multihop import DocumentPath, MultiHopConfig, MultiHopRetriever
from repro.pipeline.path_ranker import PathRanker, PathRankerConfig, PathRankerTrainer
from repro.retriever.negatives import mine_training_examples
from repro.retriever.single import SingleRetriever
from repro.retriever.store import TripleStore, build_triple_store
from repro.retriever.trainer import RetrieverTrainer, TrainerConfig
from repro.storage.atomic import atomic_write_npz
from repro.text.sentences import split_sentences
from repro.text.tokenize import tokenize
from repro.text.vocab import Vocab
from repro.triples.construct import ConstructionConfig
from repro.updater.updater import QuestionUpdater, UpdaterConfig, UpdaterTrainer


@dataclass
class FrameworkConfig:
    """All stage configurations in one place."""

    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    construction: ConstructionConfig = field(default_factory=ConstructionConfig)
    # MLM pre-training is opt-in: at CPU scale the MLM optimum (frequency-
    # predictive embeddings) conflicts with the matching geometry that the
    # strong lexical initialization provides, and measurably hurts
    # retrieval. Pass a PretrainConfig to enable it for ablations.
    pretrain: Optional[PretrainConfig] = None
    retriever: TrainerConfig = field(default_factory=TrainerConfig)
    updater: UpdaterConfig = field(default_factory=UpdaterConfig)
    ranker: Optional[PathRankerConfig] = field(default_factory=PathRankerConfig)
    multihop: MultiHopConfig = field(default_factory=MultiHopConfig)
    max_train_questions: Optional[int] = None
    max_ranker_questions: int = 200
    # worker processes for corpus triple extraction during fit(); the
    # parallel build is byte-identical to the sequential one (see
    # repro.ingest.pipeline), so this is purely a wall-clock knob
    ingest_workers: int = 1
    verbose: bool = False


class TripleFactRetrieval:
    """The complete system: triple store + retriever + updater + ranker."""

    def __init__(self, config: Optional[FrameworkConfig] = None):
        self.config = config or FrameworkConfig()
        self.store: Optional[TripleStore] = None
        self.encoder: Optional[MiniBertEncoder] = None
        self.retriever: Optional[SingleRetriever] = None
        self.updater: Optional[QuestionUpdater] = None
        self.multihop: Optional[MultiHopRetriever] = None
        self.ranker: Optional[PathRanker] = None

    # -- training -----------------------------------------------------------
    def fit(self, corpus: Corpus, dataset: HotpotDataset) -> "TripleFactRetrieval":
        """Train every stage on ``dataset.train`` over ``corpus``."""
        cfg = self.config
        train_questions: Sequence[HotpotQuestion] = dataset.train
        if cfg.max_train_questions is not None:
            train_questions = train_questions[: cfg.max_train_questions]

        self.store = build_triple_store(
            corpus, config=cfg.construction, workers=cfg.ingest_workers
        )

        texts = [d.text for d in corpus] + [q.text for q in train_questions]
        vocab = Vocab.from_texts(texts, tokenize)
        self.encoder = MiniBertEncoder(vocab, cfg.encoder)
        self.encoder.fit_idf(
            [self.store.field_text(d.doc_id) for d in corpus]
        )

        if cfg.pretrain is not None:
            sentences = [s for d in corpus for s in split_sentences(d.text)]
            MLMPretrainer(self.encoder, cfg.pretrain).train(
                sentences, verbose=cfg.verbose
            )

        self.retriever = SingleRetriever(self.encoder, self.store)
        examples = mine_training_examples(train_questions, corpus, self.store)
        RetrieverTrainer(self.retriever, cfg.retriever).train(
            examples, verbose=cfg.verbose
        )

        self.updater = QuestionUpdater(self.encoder, cfg.updater)
        updater_trainer = UpdaterTrainer(self.updater, cfg.updater)
        updater_examples = updater_trainer.build_examples(
            train_questions, corpus, self.store
        )
        updater_trainer.train(updater_examples, verbose=cfg.verbose)

        self.multihop = MultiHopRetriever(
            self.retriever, self.updater, cfg.multihop
        )

        if cfg.ranker is not None:
            self.ranker = PathRanker(self.retriever, cfg.ranker)
            ranker_trainer = PathRankerTrainer(self.ranker, cfg.ranker)
            ranker_examples = ranker_trainer.build_examples(
                list(train_questions)[: cfg.max_ranker_questions],
                corpus,
                self.multihop,
            )
            ranker_trainer.train(ranker_examples, verbose=cfg.verbose)
        return self

    # -- inference -----------------------------------------------------------
    def _require_fit(self) -> None:
        if self.multihop is None:
            raise RuntimeError("call fit() before retrieving")

    def retrieve_documents(self, question: str, k: int = 8):
        """One-hop retrieval with triple-level explanations."""
        self._require_fit()
        return self.retriever.retrieve(question, k=k)

    def retrieve_paths(
        self, question: str, k: int = 8, rerank: bool = True
    ) -> List[DocumentPath]:
        """Multi-hop path retrieval; reranked when a ranker was trained."""
        return self.retrieve_paths_many([question], k=k, rerank=rerank)[0]

    def retrieve_paths_many(
        self, questions: Sequence[str], k: int = 8, rerank: bool = True
    ) -> List[List[DocumentPath]]:
        """Multi-hop path retrieval for a batch of questions.

        Routes through :meth:`MultiHopRetriever.retrieve_paths_batch` so
        encoding and both hops amortize over the whole batch — the same
        bulk path ``repro query --batch`` and ``repro.serve`` exercise.
        """
        self._require_fit()
        questions = list(questions)
        if not questions:
            return []
        # over-generate candidates when a reranking stage follows
        n_candidates = k * 4 if (rerank and self.ranker is not None) else k
        path_lists = self.multihop.retrieve_paths_batch(
            questions, k_paths=n_candidates
        )
        if rerank and self.ranker is not None:
            return [
                self.ranker.rerank(question, paths, k=k)
                for question, paths in zip(questions, path_lists)
            ]
        return [paths[:k] for paths in path_lists]

    # -- persistence ----------------------------------------------------------
    def save(self, directory: Union[str, Path]) -> None:
        """Persist the trained system (encoder, heads, store, embeddings).

        The corpus itself is not saved — pass the same corpus to
        :meth:`load` (corpora are deterministic functions of a world seed).
        The triple embedding matrix is exported to a versioned
        ``embeddings/`` store so :meth:`load` warm-starts without a single
        encoder call. Every artifact write is atomic.
        """
        self._require_fit()
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.encoder.save(directory / "encoder")
        self.store.save(directory / STORE_NAME)
        self.retriever.export_embeddings(
            construction_fingerprint=construction_fingerprint(
                self.config.construction, self.store.corpus.titles()
            )
        ).save(directory / EMBEDDINGS_DIR)
        atomic_write_npz(
            directory / "heads.npz",
            {
                "updater_weight": self.updater.head.weight.data,
                "updater_bias": self.updater.head.bias.data,
                **(
                    {
                        "ranker_weight": self.ranker.head.weight.data,
                        "ranker_bias": self.ranker.head.bias.data,
                    }
                    if self.ranker is not None
                    else {}
                ),
            },
        )

    @classmethod
    def load(
        cls,
        directory: Union[str, Path],
        corpus: Corpus,
        config: Optional[FrameworkConfig] = None,
    ) -> "TripleFactRetrieval":
        """Restore a system saved by :meth:`save` over the same corpus.

        Warm start: when the saved ``embeddings/`` store is present and
        its row hashes + encoder fingerprint still match, no triple is
        re-encoded — the scoring matrix mmaps straight off disk. A
        missing, corrupt, or stale ``embeddings/`` degrades to re-encoding
        exactly the rows that changed (all of them, in the worst case); a
        triple file this version cannot read has nothing to degrade to
        and raises :class:`~repro.retriever.store.TripleStoreError`.
        """
        directory = Path(directory)
        system = cls(config)
        cfg = system.config
        system.encoder = MiniBertEncoder.load(
            directory / "encoder", config=cfg.encoder
        )
        system.store = TripleStore.load(directory / STORE_NAME, corpus)
        system.retriever = SingleRetriever(system.encoder, system.store)
        try:
            system.retriever.attach_embeddings(
                EmbeddingStore.open(directory / EMBEDDINGS_DIR)
            )
        except EmbeddingStoreError:
            system.retriever.detach_embeddings()
        system.retriever.refresh_embeddings()
        system.updater = QuestionUpdater(system.encoder, cfg.updater)
        heads = np.load(directory / "heads.npz")
        system.updater.head.weight.data = heads["updater_weight"]
        system.updater.head.bias.data = heads["updater_bias"]
        system.multihop = MultiHopRetriever(
            system.retriever, system.updater, cfg.multihop
        )
        if "ranker_weight" in heads:
            system.ranker = PathRanker(system.retriever, cfg.ranker)
            system.ranker.head.weight.data = heads["ranker_weight"]
            system.ranker.head.bias.data = heads["ranker_bias"]
        return system
