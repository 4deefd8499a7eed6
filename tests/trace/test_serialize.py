"""Round-trip tests for trace (de)serialization."""

import json

import numpy as np
import pytest

from repro.common.errors import TraceFormatError
from repro.trace import READ, WRITE, TraceRecorder, load_trace, save_trace

COLUMNS = ("kind", "tid", "loc", "addr", "aux", "var", "ts")


def make_batch():
    r = TraceRecorder()
    v = r.intern_var("buf")
    r.loop_enter(500)
    for i in range(20):
        r.loop_iter(500)
        r.write(0x100 + 8 * i, loc=10, var=v)
        r.read(0x100 + 8 * i, loc=11, var=v)
    r.loop_exit(500)
    return r.build()


def test_roundtrip(tmp_path):
    batch = make_batch()
    path = tmp_path / "t.npz"
    save_trace(batch, path)
    loaded = load_trace(path)
    for col in COLUMNS:
        assert np.array_equal(getattr(batch, col), getattr(loaded, col)), col
    assert loaded.var_names == batch.var_names


def test_legacy_archive_with_ctx_column_loads(tmp_path):
    """Archives from older writers carry a per-row ``ctx`` column and a
    ``ctx_stacks`` table; both are ignored on load."""
    batch = make_batch()
    meta = {
        "version": 1,
        "var_names": list(batch.var_names),
        "file_names": list(batch.file_names),
        "ctx_stacks": [[500]],
    }
    arrays = {col: getattr(batch, col) for col in COLUMNS}
    arrays["ctx"] = np.zeros(len(batch), dtype=np.int32)
    arrays["meta_json"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    path = tmp_path / "legacy.trace.npz"
    np.savez_compressed(path, **arrays)
    loaded = load_trace(path)
    for col in COLUMNS:
        assert np.array_equal(getattr(batch, col), getattr(loaded, col)), col
    assert loaded.var_names == batch.var_names
    assert not hasattr(loaded, "ctx")


def test_roundtrip_empty(tmp_path):
    from repro.trace import TraceBuilder

    path = tmp_path / "empty.npz"
    save_trace(TraceBuilder().build(), path)
    assert len(load_trace(path)) == 0


def test_bad_file_raises(tmp_path):
    path = tmp_path / "bad.npz"
    np.savez(path, kind=np.zeros(1, dtype=np.uint8))  # missing everything else
    with pytest.raises(TraceFormatError):
        load_trace(path)
