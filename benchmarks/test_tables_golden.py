"""The paper's tables, byte for byte against ``benchmarks/TABLES.json``.

Every row of Tables I–V, the Sec. IV-D union row, Wikihop and Ablation A
keeps each question's outcome bit (and the digest of the ranked list
that decided it); every triple store and saved artefact keeps a digest.
A change shows what it moved by the first key path this test names.

Run (not under ``--benchmark-only``, which skips every test without the
``benchmark`` fixture)::

    PYTHONPATH=src python -m pytest benchmarks/test_tables_golden.py -m tables

A change that moves rows on purpose regenerates the golden in the same
change and lists every moved row::

    PYTHONPATH=src python -m repro.eval.golden > benchmarks/TABLES.json
"""

import json
from pathlib import Path

import pytest

from repro.eval.golden import first_difference, golden, render

pytestmark = pytest.mark.tables

GOLDEN = Path(__file__).with_name("TABLES.json")


def test_tables_match_the_golden(ctx):
    if ctx.scale.name != "small":
        pytest.skip(
            f"{GOLDEN.name} holds the small scale's tables; "
            f"REPRO_BENCH_SCALE={ctx.scale.name} has no golden"
        )
    expected = GOLDEN.read_text(encoding="utf-8")
    actual = render(golden(ctx))
    if actual != expected:
        pytest.fail(
            first_difference(json.loads(expected), json.loads(actual))
            or "equal values, different bytes: regenerate the golden"
        )
