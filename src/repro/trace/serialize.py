"""Trace (de)serialization.

Traces are stored as ``.npz`` archives: one array per column plus the two
intern tables.  This lets workload traces be generated once and replayed
across many profiler configurations, mirroring how the paper separates target
execution from dependence analysis.  Readers load only the columns and
tables they know, so archives written with extra ones by older versions
still load.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from repro.common.errors import TraceFormatError
from repro.trace.batch import _COLUMNS, TraceBatch

_FORMAT_VERSION = 1
_COLUMN_NAMES = tuple(name for name, _ in _COLUMNS)


def save_trace(batch: TraceBatch, path: str | Path) -> None:
    """Write ``batch`` to ``path`` as a compressed ``.npz`` archive."""
    meta = {
        "version": _FORMAT_VERSION,
        "var_names": list(batch.var_names),
        "file_names": list(batch.file_names),
    }
    arrays = {name: getattr(batch, name) for name in _COLUMN_NAMES}
    arrays["meta_json"] = np.frombuffer(
        json.dumps(meta).encode("utf-8"), dtype=np.uint8
    )
    np.savez_compressed(Path(path), **arrays)


def load_trace(path: str | Path) -> TraceBatch:
    """Read a trace previously written by :func:`save_trace`."""
    with np.load(Path(path)) as data:
        try:
            meta = json.loads(bytes(data["meta_json"]).decode("utf-8"))
            columns = {name: data[name] for name in _COLUMN_NAMES}
        except KeyError as exc:
            raise TraceFormatError(f"missing field in trace file {path}: {exc}")
    if meta.get("version") != _FORMAT_VERSION:
        raise TraceFormatError(
            f"unsupported trace version {meta.get('version')!r} in {path}"
        )
    return TraceBatch(
        **columns,
        var_names=tuple(meta["var_names"]),
        file_names=tuple(meta["file_names"]),
    )
