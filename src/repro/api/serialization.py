"""Spec files: TOML/JSON round-tripping for experiment and sweep specs.

``load_spec`` reads a ``.toml`` or ``.json`` file and returns an
:class:`~repro.api.specs.ExperimentSpec` or — when the payload carries a
``base``/``axes`` section — a :class:`~repro.api.specs.SweepSpec`.
``dump_spec`` writes either back out.  TOML reading uses the standard
library ``tomllib``; writing uses a small emitter restricted to the value
shapes specs contain (strings, ints, floats, booleans, flat lists, nested
tables), so no third-party TOML writer is required.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Mapping, Union

from repro.api.specs import ExperimentSpec, SweepSpec

try:  # Python >= 3.11
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - exercised only on 3.9/3.10
    tomllib = None

SpecLike = Union[ExperimentSpec, SweepSpec]


def spec_from_dict(payload: Mapping[str, Any]) -> SpecLike:
    """Build the right spec type from a parsed payload: sweeps carry a
    ``base`` (and usually ``axes``) section, experiments a ``pipeline``."""
    if "base" in payload or "axes" in payload:
        return SweepSpec.from_dict(payload)
    return ExperimentSpec.from_dict(payload)


def load_spec(path: Union[str, Path]) -> SpecLike:
    """Load an experiment or sweep spec from a ``.toml`` or ``.json`` file."""
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if path.suffix.lower() == ".json":
        payload = json.loads(text)
    elif path.suffix.lower() == ".toml":
        if tomllib is None:
            raise RuntimeError(
                "TOML specs require Python >= 3.11 (tomllib); "
                "use a .json spec instead"
            )
        payload = tomllib.loads(text)
    else:
        raise ValueError(
            f"unsupported spec format {path.suffix!r} for {path.name}; "
            "use .toml or .json"
        )
    if not isinstance(payload, dict):
        raise ValueError(f"spec file {path.name} must contain a table/object")
    return spec_from_dict(payload)


def dump_spec(spec: SpecLike, path: Union[str, Path]) -> Path:
    """Write a spec to ``path`` (format chosen by the extension)."""
    path = Path(path)
    payload = spec.to_dict()
    if path.suffix.lower() == ".json":
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    elif path.suffix.lower() == ".toml":
        text = dumps_toml(payload)
    else:
        raise ValueError(
            f"unsupported spec format {path.suffix!r} for {path.name}; "
            "use .toml or .json"
        )
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# Minimal TOML emitter (spec-shaped payloads only).
# ---------------------------------------------------------------------------

def _toml_scalar(value: Any) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        text = repr(value)
        # TOML floats need a dot or exponent ("1.0", not "1").
        return text if ("." in text or "e" in text or "E" in text) else text + ".0"
    if isinstance(value, str):
        return json.dumps(value)  # TOML basic strings share JSON escaping
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_toml_scalar(item) for item in value) + "]"
    raise TypeError(f"cannot emit {type(value).__name__} as a TOML value")


def _emit_table(lines: list, table: Mapping[str, Any], prefix: str) -> None:
    scalars = {k: v for k, v in table.items() if not isinstance(v, Mapping)}
    subtables = {k: v for k, v in table.items() if isinstance(v, Mapping)}
    if prefix and (scalars or not subtables):
        lines.append(f"[{prefix}]")
    for key, value in scalars.items():
        lines.append(f"{key} = {_toml_scalar(value)}")
    if scalars or prefix:
        lines.append("")
    for key, value in subtables.items():
        _emit_table(lines, value, f"{prefix}.{key}" if prefix else key)


def dumps_toml(payload: Mapping[str, Any]) -> str:
    """Serialize a nested dict of spec values to TOML text."""
    lines: list = []
    _emit_table(lines, payload, "")
    while lines and lines[-1] == "":
        lines.pop()
    return "\n".join(lines) + "\n"


__all__ = ["load_spec", "dump_spec", "spec_from_dict", "dumps_toml", "SpecLike"]
