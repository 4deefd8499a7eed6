"""Property test for the lexsort-based row grouping inside the vectorized
engine — the groups it forms must agree with numpy's reference
implementation of row dedup exactly."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.vectorized import _group_rows


def _unique_rows(cols):
    """Row-level ``np.unique(..., return_counts=True)`` from the groups."""
    order, starts = _group_rows(cols)
    heads = order[starts]
    return [c[heads] for c in cols], np.diff(np.append(starts, len(order)))


@settings(max_examples=100, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.integers(-5, 5), st.integers(0, 3), st.integers(-1, 1)
        ),
        max_size=200,
    )
)
def test_matches_numpy_unique(data):
    if data:
        matrix = np.array(data, dtype=np.int64)
    else:
        matrix = np.zeros((0, 3), dtype=np.int64)
    cols = [matrix[:, j].copy() for j in range(3)]
    got_cols, got_counts = _unique_rows(cols)
    exp_rows, exp_counts = np.unique(matrix, axis=0, return_counts=True)
    got = sorted(zip(map(tuple, zip(*(c.tolist() for c in got_cols))), got_counts.tolist()))
    exp = sorted(zip(map(tuple, exp_rows.tolist()), exp_counts.tolist()))
    assert got == exp
    assert int(got_counts.sum()) == len(data)


def test_single_column():
    (u,), c = _unique_rows([np.array([3, 1, 3, 3], dtype=np.int64)])
    assert u.tolist() == [1, 3]
    assert c.tolist() == [1, 3]


def test_empty():
    cols, counts = _unique_rows([np.zeros(0, dtype=np.int64)] * 4)
    assert all(len(c) == 0 for c in cols)
    assert len(counts) == 0
