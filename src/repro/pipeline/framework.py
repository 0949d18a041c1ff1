"""One-call construction of the full trained Triple-Fact Retrieval system.

``TripleFactRetrieval.fit(corpus, dataset)`` runs the complete paper
pipeline: triple extraction + Algorithm 1 over the corpus, vocabulary and
IDF fitting, retriever fine-tuning (Eq. 5 supervision), updater training
(GoldEn supervision) and path-ranker training — then answers multi-hop
retrieval queries with explanations.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.data.corpus import Corpus
from repro.data.hotpot import HotpotDataset
from repro.encoder.minibert import EncoderConfig, MiniBertEncoder
from repro.ingest.embedding_store import (
    EMBEDDINGS_DIR,
    STORE_NAME,
    EmbeddingStore,
    EmbeddingStoreError,
)
from repro.pipeline.multihop import DocumentPath, MultiHopConfig, MultiHopRetriever
from repro.pipeline.path_ranker import PathRanker, PathRankerConfig, PathRankerTrainer
from repro.retriever.negatives import mine_training_examples
from repro.retriever.single import SingleRetriever
from repro.retriever.store import TripleStore, build_triple_store
from repro.retriever.trainer import RetrieverTrainer, TrainerConfig
from repro.storage.atomic import atomic_write_json, atomic_write_npz
from repro.text.tokenize import tokenize
from repro.text.vocab import Vocab
from repro.updater.updater import QuestionUpdater, UpdaterConfig, UpdaterTrainer

#: what :meth:`TripleFactRetrieval.save` writes last: the configs the
#: directory's artefacts were built under
MODEL_NAME = "model.json"
MODEL_FORMAT = 1


class ModelDirError(ValueError):
    """The directory holds no model of the format this version reads."""


@dataclass
class FrameworkConfig:
    """All stage configurations in one place."""

    encoder: EncoderConfig = field(default_factory=EncoderConfig)
    retriever: TrainerConfig = field(default_factory=TrainerConfig)
    updater: UpdaterConfig = field(default_factory=UpdaterConfig)
    ranker: PathRankerConfig = field(default_factory=PathRankerConfig)
    multihop: MultiHopConfig = field(default_factory=MultiHopConfig)
    max_ranker_questions: int = 200
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
        train_questions = dataset.train
        self.store = build_triple_store(corpus)

        texts = [d.text for d in corpus] + [q.text for q in train_questions]
        vocab = Vocab.from_texts(texts, tokenize)
        self.encoder = MiniBertEncoder(vocab, cfg.encoder)
        self.encoder.fit_idf(
            [self.store.field_text(d.doc_id) for d in corpus]
        )

        self.retriever = SingleRetriever(self.encoder, self.store)
        examples = mine_training_examples(train_questions, corpus, self.store)
        RetrieverTrainer(self.retriever, cfg.retriever).train(
            examples, verbose=cfg.verbose
        )

        self.updater = QuestionUpdater(self.encoder, cfg.updater)
        updater_trainer = UpdaterTrainer(self.updater)
        updater_examples = updater_trainer.build_examples(
            train_questions, corpus, self.store
        )
        updater_trainer.train(updater_examples, verbose=cfg.verbose)

        self.multihop = MultiHopRetriever(
            self.retriever, self.updater, cfg.multihop
        )

        self.ranker = PathRanker(self.retriever, cfg.ranker)
        ranker_trainer = PathRankerTrainer(self.ranker)
        ranker_examples = ranker_trainer.build_examples(
            train_questions[: cfg.max_ranker_questions],
            corpus,
            self.multihop,
        )
        ranker_trainer.train(ranker_examples, verbose=cfg.verbose)
        return self

    # -- inference -----------------------------------------------------------
    def _require_fit(self) -> None:
        if self.multihop is None:
            raise RuntimeError("call fit() before retrieving")

    def retrieve_paths_many(
        self, questions: Sequence[str], k: int = 8
    ) -> List[List[DocumentPath]]:
        """Multi-hop path retrieval, reranked by the path ranker.

        The one entry point; a single question is a batch of one. Routes
        through :meth:`MultiHopRetriever.retrieve_paths_batch` so encoding
        and both hops amortize over the whole batch; its Eq. 8 order,
        without the ranker, is that call's own. One-hop retrieval with
        triple-level explanations is ``retriever.retrieve_many``.
        """
        self._require_fit()
        questions = list(questions)
        if not questions:
            return []
        # over-generate candidates for the reranking stage
        path_lists = self.multihop.retrieve_paths_batch(
            questions, k_paths=k * 4
        )
        return [
            self.ranker.rerank(question, paths, k=k)
            for question, paths in zip(questions, path_lists)
        ]

    # -- persistence ----------------------------------------------------------
    def save(self, directory: Union[str, Path]) -> None:
        """Persist the trained system (encoder, heads, store, embeddings).

        The corpus itself is not saved — pass the same corpus to
        :meth:`load` (corpora are deterministic functions of a world seed).
        The triple embedding matrix is exported to a versioned
        ``embeddings/`` store so :meth:`load` warm-starts without a single
        encoder call. Every artifact write is atomic; ``model.json``, the
        encoder and multi-hop configs the directory was built under, is
        the last one.
        """
        self._require_fit()
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        self.encoder.save(directory / "encoder")
        self.store.save(directory / STORE_NAME)
        self.retriever.export_embeddings().save(directory / EMBEDDINGS_DIR)
        atomic_write_npz(
            directory / "heads.npz",
            {
                "updater_weight": self.updater.head.weight.data,
                "updater_bias": self.updater.head.bias.data,
                "ranker_weight": self.ranker.head.weight.data,
                "ranker_bias": self.ranker.head.bias.data,
            },
        )
        atomic_write_json(
            directory / MODEL_NAME,
            {
                "format": MODEL_FORMAT,
                "encoder": asdict(self.config.encoder),
                "multihop": asdict(self.config.multihop),
            },
        )

    @classmethod
    def load(
        cls, directory: Union[str, Path], corpus: Corpus
    ) -> "TripleFactRetrieval":
        """Restore a system saved by :meth:`save` over the same corpus,
        under the configs its ``model.json`` records.

        Warm start: when the saved ``embeddings/`` store is present and
        its row hashes + encoder fingerprint still match, no triple is
        re-encoded — the scoring matrix mmaps straight off disk. A
        missing, corrupt, or stale ``embeddings/`` degrades to re-encoding
        exactly the rows that changed (all of them, in the worst case); a
        triple file this version cannot read has nothing to degrade to
        and raises :class:`~repro.retriever.store.TripleStoreError`, and
        a directory without a ``model.json`` of this format raises
        :class:`ModelDirError`.
        """
        directory = Path(directory)
        system = cls(_saved_config(directory / MODEL_NAME))
        cfg = system.config
        system.encoder = MiniBertEncoder.load(directory / "encoder", cfg.encoder)
        system.store = TripleStore.load(directory / STORE_NAME, corpus)
        system.retriever = SingleRetriever(system.encoder, system.store)
        try:
            system.retriever.attach_embeddings(
                EmbeddingStore.open(directory / EMBEDDINGS_DIR)
            )
        except EmbeddingStoreError:
            system.retriever.detach_embeddings()
        system.retriever.refresh_embeddings()
        system.updater = QuestionUpdater(system.encoder)
        heads = np.load(directory / "heads.npz")
        system.updater.head.weight.data = heads["updater_weight"]
        system.updater.head.bias.data = heads["updater_bias"]
        system.multihop = MultiHopRetriever(
            system.retriever, system.updater, cfg.multihop
        )
        system.ranker = PathRanker(system.retriever)
        system.ranker.head.weight.data = heads["ranker_weight"]
        system.ranker.head.bias.data = heads["ranker_bias"]
        return system


def _saved_config(path: Path) -> FrameworkConfig:
    """The configs ``model.json`` records; :class:`ModelDirError` when
    it is missing, unreadable or of another format version."""
    try:
        model = json.loads(path.read_text())
        if model["format"] != MODEL_FORMAT:
            raise ValueError(f"format version {model['format']!r}")
        return FrameworkConfig(
            encoder=EncoderConfig(**model["encoder"]),
            multihop=MultiHopConfig(**model["multihop"]),
        )
    except (OSError, ValueError, TypeError, KeyError) as error:
        raise ModelDirError(
            f"{path}: not a model of format version {MODEL_FORMAT} "
            f"({error!r}); rebuild the model directory"
        ) from error
