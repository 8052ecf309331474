"""Differential property test: the gateway water-fill vs its oracle.

``_grouped_waterfill`` computes each request's sequential least-loaded
pick in closed form over its candidate row's sorted loads; the oracle in
``tests/fabric/maxmin_oracle.py`` sorts every row's padded key table.
For generated chunks — padded candidate rows, tied loads, many requests
per row, tied flow orders, registered and unregistered — the picked
column, the implied pick-time load and the picked link must be equal.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric.batchroute import _grouped_waterfill

from ..fabric.maxmin_oracle import reference_waterfill

N_LINKS = 12


@st.composite
def chunks(draw):
    m = draw(st.integers(min_value=1, max_value=6))
    n_rows = draw(st.integers(min_value=1, max_value=5))
    table = np.full((n_rows, m), -1, dtype=np.int64)
    for row in range(n_rows):
        width = draw(st.integers(min_value=1, max_value=m))
        table[row, :width] = draw(st.lists(
            st.integers(min_value=0, max_value=N_LINKS - 1),
            min_size=width, max_size=width, unique=True))
    top = draw(st.sampled_from([1, 3, 40]))
    loads = np.array(draw(st.lists(st.integers(min_value=0, max_value=top),
                                   min_size=N_LINKS, max_size=N_LINKS)),
                     dtype=np.int64)
    n = draw(st.integers(min_value=1, max_value=40))
    pid = np.array(draw(st.lists(st.integers(min_value=0,
                                             max_value=n_rows - 1),
                                 min_size=n, max_size=n)), dtype=np.int64)
    order = np.array(draw(st.lists(st.integers(min_value=0, max_value=n),
                                   min_size=n, max_size=n)), dtype=np.int64)
    return table, loads, pid, order


@given(chunks(), st.booleans())
@settings(max_examples=300, deadline=None)
def test_waterfill_matches_padded_argsort(chunk, register):
    table, loads, pid, order = chunk
    got = _grouped_waterfill(table, loads, pid, order, register)
    want = reference_waterfill(table, loads, pid, order, register)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype
        np.testing.assert_array_equal(g, w)
