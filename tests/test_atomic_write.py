"""Crash-safety suite for :mod:`repro.storage.atomic`.

Simulates a crash at the worst moment — after the temp file is written
but before it replaces the destination — by monkeypatching ``os.replace``
inside the module, and asserts the previous artifact survives intact and
no temp files leak.
"""

import json
import os

import numpy as np
import pytest

import repro.storage.atomic as atomic_mod
from repro.data.corpus import Corpus, Document
from repro.data.world import Entity
from repro.ingest import STORE_NAME
from repro.retriever.store import TripleStore, build_triple_store
from repro.storage.atomic import (
    _atomic_write,
    atomic_write_bytes,
    atomic_write_json,
    atomic_write_npz,
    atomic_write_text,
)


class _SimulatedCrash(RuntimeError):
    pass


@pytest.fixture
def crash_on_replace(monkeypatch):
    def explode(src, dst):
        raise _SimulatedCrash(f"crash before replacing {dst}")

    monkeypatch.setattr(atomic_mod.os, "replace", explode)


class TestAtomicWriters:
    def test_text_roundtrip(self, tmp_path):
        target = tmp_path / "artifact.json"
        atomic_write_text(target, "payload")
        assert target.read_text() == "payload"

    def test_bytes_roundtrip(self, tmp_path):
        target = tmp_path / "artifact.bin"
        atomic_write_bytes(target, b"\x00\x01payload")
        assert target.read_bytes() == b"\x00\x01payload"

    def test_json_roundtrip_with_kwargs(self, tmp_path):
        target = tmp_path / "artifact.json"
        atomic_write_json(target, {"b": 2, "a": 1}, sort_keys=True, indent=2)
        assert json.loads(target.read_text()) == {"a": 1, "b": 2}
        assert target.read_text().startswith("{\n")

    def test_npz_roundtrip(self, tmp_path):
        target = tmp_path / "arrays.npz"
        first = np.arange(6, dtype=np.float64).reshape(2, 3)
        second = np.array([1, 2, 3], dtype=np.int64)
        atomic_write_npz(target, {"first": first, "second": second})
        with np.load(target) as loaded:
            assert np.array_equal(loaded["first"], first)
            assert np.array_equal(loaded["second"], second)

    def test_npz_name_is_exact(self, tmp_path):
        # np.savez appends ".npz" to bare *paths*; writing through the
        # handle must keep the requested name exactly
        target = tmp_path / "weights"
        atomic_write_npz(target, {"w": np.zeros(2)})
        assert target.exists()
        assert not (tmp_path / "weights.npz").exists()


class TestCrashSimulation:
    def test_previous_artifact_survives(self, tmp_path, crash_on_replace):
        target = tmp_path / "artifact.json"
        target.write_text('{"generation": 1}')
        with pytest.raises(_SimulatedCrash):
            atomic_write_text(target, '{"generation": 2}')
        assert json.loads(target.read_text()) == {"generation": 1}

    def test_no_temp_file_leaks(self, tmp_path, crash_on_replace):
        target = tmp_path / "artifact.json"
        with pytest.raises(_SimulatedCrash):
            atomic_write_json(target, {"generation": 2})
        assert list(tmp_path.iterdir()) == []

    def test_npz_crash_leaves_old_file_loadable(
        self, tmp_path, crash_on_replace
    ):
        target = tmp_path / "arrays.npz"
        original = np.arange(4, dtype=np.float64)
        # seed the "previous generation" without going through os.replace
        import io

        buffer = io.BytesIO()
        np.savez(buffer, data=original)
        target.write_bytes(buffer.getvalue())
        with pytest.raises(_SimulatedCrash):
            atomic_write_npz(target, {"data": original * 2})
        with np.load(target) as loaded:
            assert np.array_equal(loaded["data"], original)

    def test_triple_store_save_crash_keeps_old_store(
        self, tmp_path, monkeypatch
    ):
        document = Document(
            doc_id=0,
            title="Alpha Club",
            text="Alpha Club is a club. Alpha Club was founded in 1901.",
            entity=Entity(uid="e0", name="Alpha Club", kind="club"),
        )
        corpus = Corpus([document])
        store = build_triple_store(corpus)
        path = tmp_path / STORE_NAME
        store.save(path)
        reference = path.read_bytes()

        def explode(src, dst):
            raise _SimulatedCrash("crash")

        monkeypatch.setattr(atomic_mod.os, "replace", explode)
        with pytest.raises(_SimulatedCrash):
            store.save(path)
        assert path.read_bytes() == reference
        reloaded = TripleStore.load(path, corpus)
        assert reloaded.flattened(0) == store.flattened(0)

    def test_write_failure_mid_payload_cleans_temp(self, tmp_path):
        target = tmp_path / "artifact.json"
        target.write_text("previous")

        def explode(handle):
            handle.write(b"partial")
            raise _SimulatedCrash("payload serialization failed")

        with pytest.raises(_SimulatedCrash):
            _atomic_write(target, explode)
        assert target.read_text() == "previous"
        assert [p.name for p in tmp_path.iterdir()] == ["artifact.json"]
