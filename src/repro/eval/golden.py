"""What a table run outputs: the paper's tables as one diffable record.

:func:`golden` runs every table's runner once and keeps what they
computed (DESIGN §4): per row, each question's outcome bit in eval order,
a digest of the ranked list that decided it and, for Table V, the first
stage that lost a miss; a digest per document of every triple store the
tables read; a digest per file of the trained system's saved artefacts.
Ints and strings only, so no float repr can differ. Ablation B is left
out: its rows are wall-clock times. ``python -m repro.eval.golden``
prints it; the small scale's output is ``benchmarks/TABLES.json``.
"""

from __future__ import annotations

import ctypes
import dataclasses
import hashlib
import json
import platform
import tempfile
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from repro.eval import experiments
from repro.eval.harness import EXTRACTOR_STORES, ExperimentContext

#: hex digits kept of a sha256 digest
DIGEST_HEX = 12
#: the order :func:`first_difference` reads the sections in, upstream
#: first: a moved document is named before the rows it moves, and a row
#: before the trained artefacts
SECTIONS = ("header", "questions", "table1", "stores", "rows", "artefacts")


def _digest(value) -> str:
    """Of bytes, or of any JSON value."""
    data = value if isinstance(value, bytes) else json.dumps(value).encode()
    return hashlib.sha256(data).hexdigest()[:DIGEST_HEX]


def _blas_core() -> str:
    """The kernel OpenBLAS picked at run time (``SkylakeX``, ``Haswell``
    …), which the build string does not name: read from numpy's bundled
    library, already loaded, so the handle is numpy's own. ``"unknown"``
    when there is no such library or symbol."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    try:
        path = next(libs.glob("libscipy_openblas64_*.so"))
        library = ctypes.CDLL(str(path))
        corename = library.scipy_openblas_get_corename64_
    except (StopIteration, OSError, AttributeError):
        return "unknown"
    corename.restype = ctypes.c_char_p
    return corename().decode()


def _row(card, split: str) -> Dict[str, object]:
    """A scorecard's bits over ``split``'s questions and, where its
    runner kept them, its ranked lists' digests and Table V's stages."""
    row: Dict[str, object] = {
        "split": split,
        "bits": "".join("1" if o.hit else "0" for o in card.outcomes),
    }
    if any(o.ranked for o in card.outcomes):
        row["lists"] = [_digest(o.ranked) for o in card.outcomes]
    if any(o.stage for o in card.outcomes):
        row["stages"] = [o.stage for o in card.outcomes]
    return row


def _artefact_digests(system) -> Dict[str, object]:
    """A digest per file of ``system.save``; a ``.npz`` file per array,
    because the zip carries write-time timestamps."""
    out: Dict[str, object] = {}
    with tempfile.TemporaryDirectory() as tmp:
        system.save(tmp)
        for path in sorted(p for p in Path(tmp).rglob("*") if p.is_file()):
            name = path.relative_to(tmp).as_posix()
            if path.suffix != ".npz":
                out[name] = _digest(path.read_bytes())
                continue
            with np.load(path) as arrays:
                out[name] = {
                    key: _digest(f"{array.dtype}{array.shape}".encode()
                                 + array.tobytes())
                    for key, array in ((k, arrays[k]) for k in arrays.files)
                }
    return out


def golden(ctx: ExperimentContext) -> Dict[str, object]:
    """Every table's output at ``ctx``'s scale (see the module docstring)."""
    rows: Dict[str, object] = {}
    stores = {"store": ctx.store}
    stores.update((name, ctx.extractor_store(name)) for name in EXTRACTOR_STORES)
    for l_value, store, card in experiments.run_ablation_threshold(ctx):
        stores[f"l={l_value}"] = store
        rows[f"Ablation A l={l_value}"] = _row(card, "test")
    for table, runner in (("Table II", experiments.run_table2),
                          ("Table III", experiments.run_table3)):
        for split, fields in runner(ctx).items():
            for field, cards in fields.items():
                label = f"{table} {split} {field}"
                rows[f"{label} hop-1 PR@10"] = _row(cards["hop1_pr"], split)
                rows[f"{label} hop-2 PEM@10"] = _row(cards["hop2_pem"], split)
    for name, card in experiments.run_table4(ctx).items():
        rows[f"Table IV {name}"] = _row(card, "test")
    rows["Sec. IV-D T_o one-fact"] = _row(
        experiments.run_table4_union_ablation(ctx), "test"
    )
    for name, card in experiments.run_table5(ctx).items():
        rows[f"Table V {name}"] = _row(card, "test")
    for name, card in experiments.run_wikihop(ctx).items():
        rows[f"Wikihop {name}"] = _row(card, "wikihop")
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "artefacts": _artefact_digests(ctx.system),
        "header": {
            "blas": blas.get("openblas configuration")
            or f"{blas['name']} {blas['version']}",
            "blas_core": _blas_core(),
            "machine": platform.machine(),
            "numpy": np.__version__,
            "scale": ctx.scale.name,
        },
        "questions": {
            "test": [q.qid for q in ctx.eval_questions],
            "train": [q.qid for q in ctx.train_sample],
            "wikihop": [q.qid for q in ctx.wikihop_queries],
        },
        "rows": rows,
        "stores": {
            name: {
                "docs": [
                    _digest([dataclasses.astuple(t) for t in store.triples(d.doc_id)])
                    for d in ctx.corpus
                ],
                "triples": store.total_triples(),
            }
            for name, store in stores.items()
        },
        "table1": experiments.run_table1(ctx),
    }


def render(record: Dict[str, object]) -> str:
    """Canonical JSON: sorted keys, one value per line; ints and strings
    only (a float, bool or None raises ``TypeError``)."""

    def check(value, path):
        if isinstance(value, (dict, list)):
            items = value.items() if isinstance(value, dict) else enumerate(value)
            for key, item in items:
                check(item, f"{path}/{key}")
        elif isinstance(value, bool) or not isinstance(value, (int, str)):
            raise TypeError(f"{path}: {value!r} is not an int or a str")

    check(record, "")
    return json.dumps(record, indent=1, sort_keys=True) + "\n"


def _first(expected, actual, path=()):
    """(key path, item index or None, expected, actual) at the first
    difference, None standing for a missing value: the top level in
    ``SECTIONS`` order, every other level in sorted key order; a ``bits``
    string and a list are indexed per item."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        keys = sorted(set(expected) | set(actual))
        if not path:
            keys.sort(key=lambda k: (SECTIONS + (k,)).index(k))
        for key in keys:
            found = _first(expected.get(key), actual.get(key), path + (key,))
            if found is not None:
                return found
        return None
    if expected == actual:
        return None
    if type(expected) is type(actual) and (
        isinstance(expected, list) or path[-1] == "bits"
    ):
        pairs = enumerate(zip(expected, actual))
        index = next((i for i, (a, b) in pairs if a != b),
                     min(len(expected), len(actual)))
        return (path, index, *(seq[index] if index < len(seq) else None
                               for seq in (expected, actual)))
    return path, None, expected, actual


def first_difference(expected: Dict, actual: Dict) -> Optional[str]:
    """The first key path at which two goldens differ, named for a reader:
    a row's question index and qid, a store's doc id, an artefact's file
    and array, a header field. None when they are equal."""
    found = _first(expected, actual)
    if found is None:
        return None
    path, index, was, now = found
    where = "/".join(path)
    if index is not None and path[0] == "rows":
        qids = expected["questions"][expected["rows"][path[1]]["split"]]
        qid = qids[index] if index < len(qids) else "?"
        where = f"{where}: question {index} (qid {qid})"
    elif index is not None and path[0] == "stores":
        where = f"{where}: doc id {index}"
    elif index is not None:
        where = f"{where}[{index}]"
    was, now = ("<missing>" if v is None else repr(v) for v in (was, now))
    return f"{where}: expected {was}, got {now}"


if __name__ == "__main__":
    print(render(golden(ExperimentContext())), end="")
