"""Differential test: the partial top-k select against the full stable
sort kept in ``tests/reference_topk.py``, on heavily tied scores."""
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.ann.distance import topk_from_scores
from tests.reference_topk import topk_full_sort


@st.composite
def tied_scores(draw):
    """Integer-valued float scores from a few levels (so every row has
    tie bands) mixed with NaN and +-inf (so some rows have fewer than k
    non-NaN scores), 1-D or 2-D, and a ``k`` from 1 to past ``n``: across
    the tie band at the k-th value as well as ``k >= n``."""
    shape = draw(st.one_of(
        st.tuples(st.integers(1, 40)),
        st.tuples(st.integers(1, 6), st.integers(1, 40)),
    ))
    levels = draw(st.integers(1, 5))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    elements = st.one_of(
        st.integers(-levels, levels).map(float), st.sampled_from([np.nan, np.inf, -np.inf]))
    scores = draw(arrays(dtype, shape, elements=elements))
    return scores, draw(st.integers(1, shape[-1] + 3))


@settings(max_examples=400, deadline=None)
@given(tied_scores())
def test_partial_topk_matches_full_sort(case):
    scores, k = case
    idx, vals = topk_from_scores(scores, k)
    want_idx, want_vals = topk_full_sort(scores, k)
    assert np.array_equal(idx, want_idx)
    assert np.array_equal(vals, want_vals, equal_nan=True)
    assert vals.dtype == scores.dtype
