"""Property tests for the exact product kernel.

Inputs are scaled so that bound = max|A| * max|B| * inner lands just below
or just above each route threshold (2**24 for float32, 2**53 for float64,
2**62 for int64), with entries biased toward the extremes and of both signs
so that partial sums come close to the bound, on operands of random shape.
Every route must agree with the product of Python ints, and a bound at or
past 2**62 must raise OverflowError.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadsplit.core import exact_matmul

F32, F64, I64 = 2**24, 2**53, 2**62


def _entries(draw, rows, cols, peak):
    extreme = st.sampled_from([peak, -peak, peak - 1, -(peak - 1)])
    cell = st.one_of(extreme, st.integers(-peak, peak))
    arr = np.array(
        [[draw(cell) for _ in range(cols)] for _ in range(rows)], dtype=np.int64
    )
    arr[draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))] = draw(
        st.sampled_from([peak, -peak])
    )
    return arr


@st.composite
def near_bound(draw, target, side):
    m, k, n = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 4))
    peak_a = draw(st.integers(1, math.isqrt(target // k)))
    if side == "below":
        peak_b = (target - 1) // (peak_a * k)
    else:
        peak_b = target // (peak_a * k) + 1
    a = _entries(draw, m, k, peak_a)
    b = _entries(draw, k, n, peak_b)
    bound = peak_a * peak_b * k
    assert (bound < target) == (side == "below")
    return a, b


def _reference(a, b):
    return (a.astype(object) @ b.astype(object)).tolist()


@pytest.mark.parametrize(
    "target, side, outcome",
    [
        (F32, "below", np.int64),
        (F32, "above", np.int64),
        (F64, "below", np.int64),
        (F64, "above", np.int64),
        (I64, "below", np.int64),
        (I64, "above", OverflowError),
    ],
)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_every_route_matches_python_ints(target, side, outcome, data):
    a, b = data.draw(near_bound(target, side))
    if outcome is OverflowError:
        with pytest.raises(OverflowError):
            exact_matmul(a, b)
        return
    got = exact_matmul(a, b)
    assert got.dtype == outcome
    assert got.tolist() == _reference(a, b)


def test_float64_route_is_exact_at_its_edge():
    # every entry at its peak, so row 0 times column 0 sums to just under 2**53
    k = 8
    peak = math.isqrt((F64 - 1) // k)
    a = np.full((2, k), peak, dtype=np.int64)
    a[1, ::2] = -peak
    b = np.full((k, 2), peak - 1, dtype=np.int64)
    b[1::2, 1] = -(peak - 1)
    assert peak * peak * k < F64
    assert exact_matmul(a, b).tolist() == _reference(a, b)


def test_float32_route_is_exact_at_its_edge():
    # mixed signs, non-square: partial sums run up to just under 2**24
    k = 5
    peak = math.isqrt((F32 - 1) // k)
    a = np.full((3, k), peak, dtype=np.int64)
    a[1, 1::2] = -peak
    b = np.full((k, 2), -(peak - 1), dtype=np.int64)
    assert peak * peak * k < F32
    assert exact_matmul(a, b).tolist() == _reference(a, b)


def test_odd_sum_past_float32_stays_exact():
    # 2**24 + 1 is not a float32; a bound of 2**25 must leave that route
    a = np.array([[2**12, 1]], dtype=np.int64)
    b = np.array([[2**12], [1]], dtype=np.int64)
    assert exact_matmul(a, b).tolist() == [[2**24 + 1]]


def test_zero_factor_keeps_huge_entries_out_of_float64():
    # a zero factor counts as 1 in the bound, so the huge side still raises
    zero = np.zeros((2, 3), dtype=np.int64)
    for huge in (
        np.array([[2**70, -(2**80)]], dtype=object),
        np.array([[2**62, -1]], dtype=np.int64),
    ):
        with pytest.raises(OverflowError):
            exact_matmul(huge, zero)


def test_small_object_inputs_take_a_fixed_width_route():
    a = np.array([[1, -2], [3, 4]], dtype=object)
    got = exact_matmul(a, a)
    assert got.dtype == np.int64
    assert got.tolist() == [[-5, -10], [15, 10]]


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        exact_matmul(np.ones((2, 3), dtype=np.int64), np.ones((2, 3), dtype=np.int64))


def test_stacks_multiply_slice_by_slice():
    rng = np.random.default_rng(0)
    a = rng.integers(-3, 4, (5, 2, 6))
    b = rng.integers(-3, 4, (5, 6, 3))
    got = exact_matmul(a, b)
    assert got.dtype == np.int64
    assert [g.tolist() for g in got] == [_reference(x, y) for x, y in zip(a, b)]
    with pytest.raises(ValueError):
        exact_matmul(a, a)
    with pytest.raises(OverflowError):
        exact_matmul(a.astype(object) * 2**40, b.astype(object) * 2**40)
