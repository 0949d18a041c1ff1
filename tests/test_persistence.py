"""Round-trip tests for triple-store and full-system persistence."""

import dataclasses
import json

import pytest
from reference import unreadable_triple_files

from repro import cli
from repro.encoder.minibert import EncoderConfig
from repro.ingest import STORE_NAME
from repro.net.bootstrap import load_model_dir, resolve_target
from repro.net.worker import WorkerRuntime
from repro.perf import COUNTERS
from repro.pipeline.framework import (
    MODEL_NAME,
    FrameworkConfig,
    ModelDirError,
    TripleFactRetrieval,
)
from repro.pipeline.multihop import MultiHopConfig
from repro.pipeline.path_ranker import PathRankerConfig
from repro.retriever.store import TripleStore, TripleStoreError
from repro.retriever.trainer import TrainerConfig
from repro.updater.updater import UpdaterConfig


class TestStorePersistence:
    def test_roundtrip(self, store, corpus, tmp_path):
        path = tmp_path / STORE_NAME
        store.save(path)
        loaded = TripleStore.load(path, corpus)
        assert len(loaded) == len(store)
        for doc_id in store.doc_ids():
            original = [t.flatten() for t in store.triples(doc_id)]
            restored = [t.flatten() for t in loaded.triples(doc_id)]
            assert original == restored

    def test_fusion_triples_survive(self, store, corpus, tmp_path):
        path = tmp_path / STORE_NAME
        store.save(path)
        loaded = TripleStore.load(path, corpus)
        fusions = [
            t
            for doc_id in loaded.doc_ids()
            for t in loaded.triples(doc_id)
            if t.extra_objects
        ]
        original_fusions = [
            t
            for doc_id in store.doc_ids()
            for t in store.triples(doc_id)
            if t.extra_objects
        ]
        assert len(fusions) == len(original_fusions)


class TestSystemPersistence:
    @pytest.fixture(scope="class")
    def trained(self, corpus, hotpot):
        config = FrameworkConfig(
            encoder=EncoderConfig(dim=20, n_layers=1, n_heads=2, max_len=28),
            retriever=TrainerConfig(epochs=1, lr=2e-4),
            updater=UpdaterConfig(epochs=1),
            ranker=PathRankerConfig(epochs=1),
            multihop=MultiHopConfig(k_hop1=3, k_hop2=2, k_paths=4),
            max_ranker_questions=6,
        )
        dataset = dataclasses.replace(hotpot, train=hotpot.train[:15])
        return TripleFactRetrieval(config).fit(corpus, dataset)

    def test_save_load_same_retrieval(self, trained, corpus, hotpot, tmp_path):
        system = trained
        system.save(tmp_path / "model")
        restored = TripleFactRetrieval.load(tmp_path / "model", corpus)
        question = hotpot.test[0].text
        original = [
            r.doc_id for r in system.retriever.retrieve_many([question], k=5)[0]
        ]
        loaded = [
            r.doc_id
            for r in restored.retriever.retrieve_many([question], k=5)[0]
        ]
        assert original == loaded

    def test_save_load_same_paths(self, trained, corpus, hotpot, tmp_path):
        system = trained
        system.save(tmp_path / "model2")
        restored = TripleFactRetrieval.load(tmp_path / "model2", corpus)
        question = hotpot.test[1].text
        original = [
            p.doc_ids for p in system.retrieve_paths_many([question], k=4)[0]
        ]
        loaded = [
            p.doc_ids for p in restored.retrieve_paths_many([question], k=4)[0]
        ]
        assert original == loaded

    def test_unreadable_triple_file_is_raised_not_rebuilt(
        self, trained, corpus, tmp_path
    ):
        system = trained
        system.save(tmp_path / "model3")
        path = tmp_path / "model3" / STORE_NAME
        for name, body in unreadable_triple_files(path.read_bytes()).items():
            path.write_bytes(body)
            with pytest.raises(TripleStoreError):
                TripleFactRetrieval.load(tmp_path / "model3", corpus)
            assert path.read_bytes() == body, name  # and left as found

    def test_load_restores_the_saved_configs(
        self, trained, corpus, hotpot, tmp_path
    ):
        """Without any config from the caller: the fixture's max_len 28
        and k_hop1 3 are not the defaults, and a default-config load
        could not restore the weights (position table 28 rows, not 48)."""
        system = trained
        assert system.config.encoder != EncoderConfig()
        assert system.config.multihop != MultiHopConfig()
        system.save(tmp_path / "model4")
        restored = TripleFactRetrieval.load(tmp_path / "model4", corpus)
        assert restored.config.encoder == system.config.encoder
        assert restored.config.multihop == system.config.multihop
        questions = [q.text for q in hotpot.test[:4]]
        assert [
            [(p.doc_ids, p.score) for p in paths]
            for paths in restored.retrieve_paths_many(questions, k=4)
        ] == [
            [(p.doc_ids, p.score) for p in paths]
            for paths in system.retrieve_paths_many(questions, k=4)
        ]

    def test_a_directory_without_its_model_file_is_a_typed_error(
        self, trained, corpus, tmp_path
    ):
        system = trained
        system.save(tmp_path / "model5")
        model_file = tmp_path / "model5" / MODEL_NAME
        saved = json.loads(model_file.read_text())
        for body in (
            None,  # the layout before model.json
            json.dumps({**saved, "format": saved["format"] + 1}),
            json.dumps([saved]),
            "{truncated",
        ):
            if body is None:
                model_file.unlink()
            else:
                model_file.write_text(body)
            with pytest.raises(ModelDirError, match="rebuild"):
                TripleFactRetrieval.load(tmp_path / "model5", corpus)

    def _model_dir(self, trained, world, directory):
        """A ``repro build`` directory of ``trained`` over the test world."""
        trained.save(directory)
        meta = {
            "world": world.config.__dict__,
            "dataset": {"comparison_per_kind": 4},
        }
        (directory / "meta.json").write_text(json.dumps(meta))
        return directory

    def test_a_missing_or_unreadable_world_seed_is_a_typed_error(
        self, trained, world, tmp_path
    ):
        directory = self._model_dir(trained, world, tmp_path / "model6")
        meta_file = directory / "meta.json"
        load_model_dir(str(directory))
        for body in (None, "{truncated", "[]", json.dumps({"world": {}})):
            if body is None:
                meta_file.unlink()
            else:
                meta_file.write_text(body)
            with pytest.raises(ModelDirError, match="rebuild"):
                load_model_dir(str(directory))

    def test_build_writes_the_world_seed_before_the_model(
        self, tmp_path, monkeypatch
    ):
        """So ``model.json``, the last file ``save`` writes, is the last
        write of a build: a crash before it leaves a ``ModelDirError``."""
        seen = []

        class Fitted:
            def __init__(self, config):
                pass

            def fit(self, corpus, dataset):
                return self

            def save(self, directory):
                seen.append(sorted(p.name for p in directory.iterdir()))

        monkeypatch.setattr(cli, "TripleFactRetrieval", Fitted)
        out = tmp_path / "built"
        assert cli.main(["build", "--out", str(out), "--persons", "8"]) == 0
        assert seen == [["meta.json"]]

    def test_serve_model_warm_starts_on_the_saved_generation(
        self, trained, world, tmp_path, monkeypatch
    ):
        """``serve --model DIR`` attaches DIR's store: the worker encodes
        no triple and serves the generation the model saved."""
        directory = self._model_dir(trained, world, tmp_path / "model7")
        specs = []

        class NoFleet:
            address = ("127.0.0.1", 0)

            def __init__(self, spec, **kwargs):
                specs.append(spec)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

        monkeypatch.setattr(cli, "Fleet", NoFleet)
        argv = ["serve", "--model", str(directory), "--run-seconds", "0"]
        assert cli.main(argv) == 0
        (spec,) = specs
        bundle = resolve_target(spec.target)(**spec.kwargs)
        before = COUNTERS.snapshot()["texts_encoded"]
        runtime = WorkerRuntime(bundle, spec)
        try:
            assert COUNTERS.snapshot()["texts_encoded"] == before
            assert runtime.generation >= 1
        finally:
            runtime.close()

    def test_unfit_save_rejected(self, tmp_path):
        with pytest.raises(RuntimeError):
            TripleFactRetrieval().save(tmp_path / "nope")
