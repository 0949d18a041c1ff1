"""Analyzer configuration from ``pyproject.toml`` (``[tool.repro.lint]``).

Recognized keys::

    [tool.repro.lint]
    paths = ["src", "tests", "benchmarks", "examples"]  # lint targets

    [tool.repro.lint.layers]                # import layering DAG
    order = ["foundation", "serving"]       # lowest layer first
    foundation = ["repro.storage", "repro.nn"]
    serving = ["repro.serve", "repro.cli"]

The ``layers`` table declares the architecture: ``order`` lists layer
names from lowest to highest, and each layer name maps to the dotted
module prefixes it contains. A module in a lower layer importing one in
a higher layer is a ``layering-violation``.

``tomllib`` ships with Python 3.11+; on older interpreters a minimal
fallback parser handles exactly the shape above (string lists inside the
tables), so the analyzer stays dependency-free everywhere.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple

try:  # pragma: no cover - exercised on 3.11+, fallback below covers 3.9/3.10
    import tomllib
except ImportError:  # pragma: no cover
    tomllib = None

DEFAULT_PATHS = ("src", "tests", "benchmarks", "examples")


@dataclass
class LintConfig:
    """Resolved analyzer configuration."""

    paths: Tuple[str, ...] = DEFAULT_PATHS
    root: Optional[Path] = None  # directory the config was loaded from
    #: layer names, lowest first; empty = layering rule disabled
    layers_order: Tuple[str, ...] = ()
    #: layer name -> dotted module prefixes it contains
    layers: Dict[str, Tuple[str, ...]] = field(default_factory=dict)


_SECTION_RE = re.compile(r"^\s*\[(?P<name>[^\]]+)\]\s*$")
_STRING_RE = re.compile(r'"([^"]*)"|\'([^\']*)\'')


def _fallback_parse(text: str) -> Dict[str, Dict[str, Tuple[str, ...]]]:
    """String-list-only parser for the two ``[tool.repro.lint]`` tables."""
    tables: Dict[str, Dict[str, Tuple[str, ...]]] = {}
    current: Optional[Dict[str, Tuple[str, ...]]] = None
    pending_key: Optional[str] = None
    buffer = ""
    for raw_line in text.splitlines():
        line = raw_line.split("#", 1)[0].rstrip()
        if not line:
            continue
        section = _SECTION_RE.match(line)
        if section:
            name = section.group("name").strip()
            pending_key = None
            if name == "tool.repro.lint" or name.startswith("tool.repro.lint."):
                current = tables.setdefault(name, {})
            else:
                current = None
            continue
        if current is None:
            continue
        if pending_key is None:
            if "=" not in line:
                continue
            key, value = line.split("=", 1)
            pending_key, buffer = key.strip().strip('"'), value.strip()
        else:
            buffer += " " + line.strip()
        if buffer.startswith("[") and not buffer.endswith("]"):
            continue  # multi-line list still open
        strings = tuple(a or b for a, b in _STRING_RE.findall(buffer))
        current[pending_key] = strings
        pending_key, buffer = None, ""
    return tables


def _string_tuple(value) -> Tuple[str, ...]:
    if isinstance(value, str):
        return (value,)
    return tuple(str(item) for item in value or ())


def parse_config(text: str, root: Optional[Path] = None) -> LintConfig:
    """Build a :class:`LintConfig` from pyproject source text."""
    if tomllib is not None:
        data = tomllib.loads(text)
        table = data.get("tool", {}).get("repro", {}).get("lint", {})
        layers_table = table.get("layers", {})
    else:
        tables = _fallback_parse(text)
        table = dict(tables.get("tool.repro.lint", {}))
        layers_table = tables.get("tool.repro.lint.layers", {})
    layers_order = _string_tuple(layers_table.get("order"))
    return LintConfig(
        paths=_string_tuple(table.get("paths")) or DEFAULT_PATHS,
        root=root,
        layers_order=layers_order,
        layers={
            layer: _string_tuple(prefixes)
            for layer, prefixes in layers_table.items()
            if layer != "order"
        },
    )


def load_config(start: Optional[Path] = None) -> LintConfig:
    """Find and parse the nearest ``pyproject.toml`` at or above ``start``.

    Returns the defaults (rooted nowhere) when no pyproject exists.
    """
    directory = Path(start) if start is not None else Path.cwd()
    if directory.is_file():
        directory = directory.parent
    for candidate_dir in (directory, *directory.resolve().parents):
        candidate = candidate_dir / "pyproject.toml"
        if candidate.is_file():
            return parse_config(
                candidate.read_text(encoding="utf-8"), root=candidate_dir
            )
    return LintConfig()
