"""The frozen benchmark's view of the API, checked without running it.

``benchmarks/e2e`` may not change with the code it measures, and its own
smoke test is ``-m perf``, outside tier-1 — so this imports its modules
(an ``ImportError`` is a removed name), replays the keywords every
workload hands to ``ServiceConfig``, ``WorkerSpec`` and ``Fleet``, and
pins the ingest result fields it reads. No process is started.
"""

import dataclasses
import importlib
import inspect
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.ingest import IngestResult, IngestStats
from repro.net import Fleet, WorkerSpec
from repro.serve import ServiceConfig

E2E = Path(__file__).resolve().parents[1] / "benchmarks" / "e2e"


@pytest.fixture(scope="module")
def workloads():
    with pytest.MonkeyPatch.context() as patch:
        patch.syspath_prepend(str(E2E))
        for name in ("worlds", "layers", "loadgen", "oracle"):
            importlib.import_module(name)
        return importlib.import_module("workloads")


def test_every_workload_builds_its_service_config_and_fleet_spec(
    workloads, monkeypatch, tmp_path
):
    monkeypatch.setattr(  # start_fleet() hands back what it would have run
        workloads, "Fleet",
        lambda *args, **kwargs: SimpleNamespace(start=lambda: (args, kwargs)),
    )
    assert len(workloads.WORKLOADS) >= 4
    for workload in workloads.WORKLOADS.values():
        config = ServiceConfig(**workloads.service_config(workload))
        assert config.default_k == workload.traffic.k
        args, kwargs = workloads.start_fleet(
            workload, workload.spec(seed=5), tmp_path
        )
        inspect.signature(Fleet).bind(*args, **kwargs)
        assert isinstance(args[0], WorkerSpec)  # built, so it was checked


@pytest.mark.parametrize(
    "record, read",
    [
        (
            IngestStats,
            "link_seconds extract_seconds encode_seconds save_seconds "
            "docs_extracted rows_encoded rows_reused rows_total",
        ),
        (IngestResult, "store stats embeddings"),
    ],
)
def test_ingest_fields_the_benchmark_reads_exist(record, read):
    # IngestRunner and layers.ingest_metrics read these by attribute
    fields = {f.name for f in dataclasses.fields(record)}
    assert set(read.split()) <= fields
