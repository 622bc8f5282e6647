"""Property tests for the exact product kernel.

Inputs are scaled so that bound = max|A| * max|B| * inner lands just below
or just above each route threshold (2**24 for float32, 2**53 for float64,
2**62 for int64), with entries biased toward the extremes and of both signs
so that partial sums come close to the bound, on operands of random shape.
Every route must agree with the product of Python ints and return its
result in the route's own dtype, and a bound at or past 2**62 must raise
OverflowError. A Gram, a @ a.T or a.T @ a with the
transpose a view of a, must agree with the product of a copied operand, in
the same dtype, on every layout and route.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadsplit.core import IntMatrix, exact_matmul

F32, F64, I64 = 2**24, 2**53, 2**62
# the dtype of the route a bound just below or just above each threshold takes
ROUTE = {
    (F32, "below"): np.float32,
    (F32, "above"): np.float64,
    (F64, "below"): np.float64,
    (F64, "above"): np.int64,
    (I64, "below"): np.int64,
}


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
    # outcome is the dtype the exact product widens to; the route's own
    # dtype is what exact_matmul returns
    got = exact_matmul(a, b)
    assert got.dtype == ROUTE[target, side]
    assert got.astype(outcome).tolist() == _reference(a, b)


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
    assert got.dtype == np.float32
    assert got.tolist() == [[-5, -10], [15, 10]]


@pytest.mark.parametrize("peak", [2**10, 2**20, 2**30])
def test_intmatrix_product_is_read_only_int64_on_every_route(peak):
    # bounds 2**21, 2**41 and 2**61: the float32, float64 and int64 routes
    a = np.array([[peak, -peak], [peak - 1, 1]], dtype=np.int64)
    got = (IntMatrix(a) @ IntMatrix(a.T)).array
    assert got.dtype == np.int64 and not got.flags.writeable
    assert got.tolist() == _reference(a, a.T)


def test_inner_dimension_mismatch():
    with pytest.raises(ValueError):
        exact_matmul(np.ones((2, 3), dtype=np.int64), np.ones((2, 3), dtype=np.int64))


def test_stacks_multiply_slice_by_slice():
    rng = np.random.default_rng(0)
    a = rng.integers(-3, 4, (5, 2, 6))
    b = rng.integers(-3, 4, (5, 6, 3))
    got = exact_matmul(a, b)
    assert got.dtype == np.float32
    assert [g.tolist() for g in got] == [_reference(x, y) for x, y in zip(a, b)]
    with pytest.raises(ValueError):
        exact_matmul(a, a)
    with pytest.raises(OverflowError):
        exact_matmul(a.astype(object) * 2**40, b.astype(object) * 2**40)


@st.composite
def gram_operands(draw, target, side):
    """a @ a.T or a.T @ a, with bound max|a|**2 * inner just below target or
    at or past it, for a in C or F order, whole or sliced, possibly with 0
    rows."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    transposed = draw(st.booleans())
    inner = max(rows if transposed else cols, 1)
    below = math.isqrt((target - 1) // inner)
    peak = below if side == "below" else below + 1
    assert (peak * peak * inner < target) == (side == "below")
    a = _entries(draw, max(rows, 1), cols, peak)[:rows]
    if draw(st.booleans()):
        a = np.asfortranarray(a)
    if draw(st.booleans()):
        a = np.repeat(a, 2, axis=0)[::2]  # a strided view holding a
    return (a.T, a) if transposed else (a, a.T)


@pytest.mark.parametrize("target", [F32, F64, I64])
@pytest.mark.parametrize("side", ["below", "above"])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_gram_route_matches_the_two_cast_product(target, side, data):
    left, right = data.draw(gram_operands(target, side))
    general = right.copy(order=data.draw(st.sampled_from("CF")))
    # an empty operand has bound 1 whatever its dtype could hold
    if target == I64 and side == "above" and left.size:
        for b in (right, general):
            with pytest.raises(OverflowError):
                exact_matmul(left, b)
        return
    got = exact_matmul(left, right)
    # an empty operand has bound 1 and takes the float32 route
    assert got.dtype == (ROUTE[target, side] if left.size else np.float32)
    copied = exact_matmul(left, general)
    assert copied.dtype == got.dtype
    assert np.array_equal(got, copied)
    assert got.tolist() == _reference(left, right)


def test_gram_route_keeps_the_float32_bound():
    # max|a|**2 * inner = 2**24 - 2**13 + 1 stays in float32; 2**25 leaves it,
    # and 2**24 + 1, which float32 would round, comes out exact
    a = np.array([[2**12 - 1]], dtype=np.int64)
    assert exact_matmul(a, a.T).tolist() == [[(2**12 - 1) ** 2]]
    a = np.array([[2**12, 1]], dtype=np.int64)
    assert exact_matmul(a, a.T).tolist() == [[2**24 + 1]]
    assert exact_matmul(a.T, a).tolist() == [[2**24, 2**12], [2**12, 1]]


def test_gram_route_on_int64_entries_near_2_30():
    a = np.array([[2**30 - 1, -(2**30)], [2**30, 3]], dtype=np.int64)
    for left, right in ((a, a.T), (a.T, a)):
        assert exact_matmul(left, right).tolist() == _reference(left, right)
    with pytest.raises(OverflowError):
        exact_matmul(a * 2, (a * 2).T)
