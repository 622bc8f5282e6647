import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hadsplit.core as core

from hadsplit.core import (
    HadamardMatrix,
    IntMatrix,
    ParseError,
    SkewCore,
    conference_from_core,
    isqrt_exact,
    kronecker,
    normalize,
    paley_skew_core,
    parse_matrix,
    serialize_matrix,
    sylvester,
)
from hadsplit.gf import NotPrimePower


def test_intmatrix_basic_algebra():
    a = IntMatrix([[1, 2], [3, 4]])
    b = IntMatrix([[0, 1], [1, 0]])
    assert (a @ b).tolist() == [[2, 1], [4, 3]]
    assert (a + b).tolist() == [[1, 3], [4, 4]]
    assert (a - b).tolist() == [[1, 1], [2, 4]]
    assert (2 * a).tolist() == [[2, 4], [6, 8]]
    assert a.T.tolist() == [[1, 3], [2, 4]]
    assert a != b
    assert a == IntMatrix([[1, 2], [3, 4]])


def test_intmatrix_refuses_mismatched_operands():
    a = IntMatrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError, match="shape mismatch"):
        a + IntMatrix([[1, 2]])
    assert a.__eq__([[1, 2], [3, 4]]) is NotImplemented and a != [[1, 2], [3, 4]]
    assert a != IntMatrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(TypeError):
        2.5 * a


def test_intmatrix_is_immutable():
    a = IntMatrix([[1, 2], [3, 4]])
    arr = np.array(a.tolist())
    with pytest.raises((ValueError, TypeError)):
        a._a[0, 0] = 99
    assert a.tolist() == arr.tolist()


def test_intmatrix_survives_huge_entries():
    # refused, never wrapped: int64 is exact only below 2**62
    with pytest.raises(OverflowError):
        IntMatrix([[2**70, 0], [0, 2**70]])
    a = IntMatrix([[2**31, 0], [0, 2**31]])
    with pytest.raises(OverflowError):
        a @ a


def test_intmatrix_from_ndarray_is_a_read_only_copy():
    src = np.array([[1, -1], [1, 1]], dtype=np.int32)
    a = IntMatrix(src)
    h = HadamardMatrix(src)
    src[0, 0] = 7
    assert a.tolist() == h.tolist() == [[1, -1], [1, 1]]
    assert a.array.dtype == np.int64
    assert not a.array.flags.writeable
    with pytest.raises(ValueError):
        a.array[0, 0] = 5


def test_intmatrix_from_a_nested_list_copies_it_once():
    # the 512 x 512 int64 array built from the list takes 2 MiB; a second
    # copy of it would take 2 more
    rows = sylvester(9).array.tolist()
    tracemalloc.start()
    try:
        a = IntMatrix(rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a.tolist() == rows and a.array.dtype == np.int64
    assert not a.array.flags.writeable
    assert peak < 3 * 2**20


_BIG = 2**62 - 1


@pytest.mark.parametrize(
    "rows, want",
    [
        ([[True, False], [1, 2]], [[1, 0], [1, 2]]),
        ([[np.int64(3), np.int8(-2)], [np.uint64(5), 1]], [[3, -2], [5, 1]]),
        ([[_BIG, -_BIG]], [[_BIG, -_BIG]]),
        ([[2.0, 1], [3, np.float64(4.0)]], [[2, 1], [3, 4]]),
        ([[Fraction(4, 2), 1]], [[2, 1]]),
        (((1, 2), (3, 4)), [[1, 2], [3, 4]]),
        ([[1, 2], (3, 4)], [[1, 2], [3, 4]]),
        (([1, 2], [3, 4]), [[1, 2], [3, 4]]),
        ([[1, 2], np.array([3, 4])], [[1, 2], [3, 4]]),
    ],
)
def test_intmatrix_reads_nested_lists(rows, want):
    a = IntMatrix(rows)
    assert a.tolist() == want
    assert a.array.dtype == np.int64 and not a.array.flags.writeable


@pytest.mark.parametrize(
    "rows, error, message",
    [
        ([[2**62]], OverflowError, "integer bound 4611686018427387904 reaches 2**62"),
        ([[1, 2**63]], OverflowError, "integer bound 9223372036854775808 reaches 2**62"),
        ([[-1, 2**63]], OverflowError, "integer bound 9223372036854775808 reaches 2**62"),
        ([[-(2**63), 1]], OverflowError, "integer bound 9223372036854775808 reaches 2**62"),
        ([[2**64, 1]], OverflowError, "integer bound 18446744073709551616 reaches 2**62"),
        ([[1.5, 1]], ValueError, "entry 1.5 is not an integer"),
        ([[1, 2], [3, "1"]], ValueError, "entry '1' is not an integer"),
        ([[Fraction(1, 2), 1]], ValueError, "entry Fraction(1, 2) is not an integer"),
        ([[None, 1]], ValueError, "entry None is not an integer"),
        ([[1, 2], [3]], ValueError, "ragged rows"),
        ([[1], [2, 3]], ValueError, "ragged rows"),
        ([], ValueError, "matrix must be 2-D, got shape (0,)"),
        ([[]], ValueError, "matrix must have at least one row and column"),
        ([[], []], ValueError, "matrix must have at least one row and column"),
        ([1, 2, 3], ValueError, "matrix must be 2-D, got shape (3,)"),
        ([[[1, 2]], [[3, 4]]], ValueError, "matrix must be 2-D, got shape (2, 1, 2)"),
        ([[1, 2], None], TypeError, "'NoneType' object is not iterable"),
    ],
)
def test_intmatrix_refuses_nested_lists(rows, error, message):
    with pytest.raises(error, match=re.escape(message)):
        IntMatrix(rows)


def test_only_lists_of_ints_take_the_typed_pass():
    assert core._typed_rows([[1, True], [np.int64(2), -3]]) is not None
    for rows in (
        [[1, 2], (3, 4)],
        [[1, 2.0]],
        [[1, 2**63]],
        [[1, 2], [3]],
        [[1, 2, 3], [4, 5, 6], [7, 8]],
        [[1, 2, 3], [4, 5, 6], [7, 8, 9, 10]],
        [[1, 2], [3, np.float64(1.0)]],
        # np.array([5]).__index__ raises TypeError
        [[1, 2], [3, np.array([5])]],
        [[]],
        [],
        [1, 2],
    ):
        assert core._typed_rows(rows) is None


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda width: st.lists(
            st.lists(st.integers(-_BIG, _BIG), min_size=width, max_size=width),
            min_size=1,
            max_size=6,
        )
    )
)
def test_nested_list_reads_as_its_int64_array(rows):
    assert IntMatrix(rows) == IntMatrix(np.array(rows, dtype=np.int64))


def test_constructors_take_an_intmatrix():
    a = IntMatrix([[1, 2], [3, 4]])
    assert IntMatrix(a) == a and IntMatrix(a).tolist() == [[1, 2], [3, 4]]
    h = sylvester(2)
    assert HadamardMatrix(h) == h and HadamardMatrix(IntMatrix(h.array)) == h
    assert isinstance(HadamardMatrix(IntMatrix(h.array)), HadamardMatrix)
    with pytest.raises(ValueError, match="entries must be"):
        HadamardMatrix(a)
    with pytest.raises(ValueError, match="rows are not orthogonal"):
        HadamardMatrix(IntMatrix([[1, 1], [1, 1]]))
    assert not IntMatrix(a).array.flags.writeable


def test_intmatrix_from_ndarray_past_int64_range_raises():
    with pytest.raises(OverflowError):
        IntMatrix(np.array([[2**62, 1]], dtype=np.int64))
    with pytest.raises(OverflowError):
        IntMatrix(np.array([[1, -(2**63)]], dtype=np.int64))
    with pytest.raises(OverflowError):
        IntMatrix(np.array([[2**63 + 5]], dtype=np.uint64))
    edge = IntMatrix(np.array([[2**62 - 1, -(2**62 - 1)]], dtype=np.int64))
    assert edge.tolist() == [[2**62 - 1, -(2**62 - 1)]]


def test_intmatrix_rejects_non_integer_entries():
    for rows in ([[1.5]], np.array([[0.5]]), [[1, 2], [3, 4.25]]):
        with pytest.raises(ValueError, match="not an integer"):
            IntMatrix(rows)
    assert IntMatrix([[2.0, -3.0]]).tolist() == [[2, -3]]
    assert IntMatrix(np.array([[2.0], [-1.0]])).array.dtype == np.int64


def test_intmatrix_rejects_input_that_is_not_2d():
    for rows, shape in (
        ([1, 2, 3], (3,)),
        (np.zeros(3, dtype=int), (3,)),
        (np.zeros((2, 2, 2), dtype=int), (2, 2, 2)),
        ([1.0, 2.0], (2,)),
        ([[[1]]], (1, 1, 1)),
    ):
        with pytest.raises(ValueError, match=re.escape(f"matrix must be 2-D, got shape {shape}")):
            IntMatrix(rows)


def test_zero_factor_keeps_huge_scalars_out_of_int64():
    # a zero factor counts as 1 in the bound, so a huge scalar still raises
    zero = IntMatrix.zeros(2)
    with pytest.raises(OverflowError):
        (2**100) * zero


def test_sum_past_int64_safe_range_raises():
    x = 2**62 - 1
    with pytest.raises(OverflowError):
        IntMatrix([[x]]) + IntMatrix([[x]])
    with pytest.raises(OverflowError):
        IntMatrix([[x]]) - IntMatrix([[-x]])
    half = 2**61
    assert (IntMatrix([[half - 1]]) + IntMatrix([[half]])).tolist() == [[2**62 - 1]]


def test_row_and_col_sums():
    a = IntMatrix([[1, -1, 1], [1, 1, 1]])
    assert list(a.row_sums()) == [1, 3]


def test_row_and_col_sums_past_int64_safe_range_raise():
    # three entries below 2**62 whose sum wraps int64
    wide = IntMatrix([[2**62 - 1] * 3])
    with pytest.raises(OverflowError):
        wide.row_sums()
    assert wide.T.row_sums() == (2**62 - 1,) * 3


def test_kronecker_block_structure():
    a = IntMatrix([[1, -1], [0, 2]])
    b = IntMatrix([[3]])
    assert kronecker(a, b).tolist() == [[3, -3], [0, 6]]
    i2 = IntMatrix.identity(2)
    k = kronecker(i2, a)
    assert k.tolist() == [[1, -1, 0, 0], [0, 2, 0, 0], [0, 0, 1, -1], [0, 0, 0, 2]]


# 1 to 5 rows of 1 to 5 entries in [-2**30, 2**30]
_SMALL_ROWS = st.integers(1, 5).flatmap(
    lambda width: st.lists(
        st.lists(st.integers(-(2**30), 2**30), min_size=width, max_size=width),
        min_size=1,
        max_size=5,
    )
)


@settings(max_examples=60, deadline=None)
@given(_SMALL_ROWS, _SMALL_ROWS)
def test_kronecker_equals_np_kron(a, b):
    k = kronecker(IntMatrix(a), IntMatrix(b)).array
    assert k.dtype == np.int64 and np.array_equal(k, np.kron(np.array(a), np.array(b)))


def test_kronecker_past_int64_safe_range_raises():
    with pytest.raises(OverflowError):
        kronecker(IntMatrix([[2**31]]), IntMatrix([[2**31]]))


def test_sylvester_equals_the_kronecker_power():
    base = np.array([[1, 1], [1, -1]], dtype=np.int64)
    power = np.ones((1, 1), dtype=np.int64)
    for m in range(11):
        h = sylvester(m).array
        assert h.dtype == np.int64 and np.array_equal(h, power)
        power = np.kron(power, base)


@pytest.mark.parametrize("exp", [0, 1, 2, 3, 4, 5])
def test_sylvester_orders_and_orthogonality(exp):
    h = sylvester(exp)
    n = 2**exp
    assert h.order == n
    assert (h @ h.T).tolist() == (n * IntMatrix.identity(n)).tolist()


def test_sylvester_rows_multiply_by_xor():
    h = sylvester(3)
    rows = h.tolist()
    for i in range(8):
        for j in range(8):
            prod = [rows[i][c] * rows[j][c] for c in range(8)]
            assert prod == list(rows[i ^ j])


def test_hadamard_rejects_bad_input():
    with pytest.raises(ValueError):
        HadamardMatrix([[1, 1], [1, 1]])
    with pytest.raises(ValueError):
        HadamardMatrix([[1, 2], [1, -1]])
    with pytest.raises(ValueError):
        HadamardMatrix([[1, 1, 1], [1, -1, 1], [1, 1, -1]])
    for bad in (0, 2, -2):
        with pytest.raises(ValueError, match=re.escape("entries must be +-1")):
            HadamardMatrix([[1, 1], [bad, -1]])
    with pytest.raises(ValueError, match="Hadamard matrix must be square"):
        HadamardMatrix([[1, 1, 1], [1, -1, 1]])


def test_sylvester_rejects_a_negative_exponent():
    with pytest.raises(ValueError, match="exponent must be nonnegative"):
        sylvester(-1)


def test_normalize_gives_all_ones_first_row_and_column():
    h = sylvester(3)
    arr = np.array(h.tolist())
    # scramble signs, then normalize back
    arr = arr * np.where(np.arange(8) % 3 == 0, -1, 1)[None, :]
    arr = arr * np.where(np.arange(8) % 2 == 0, -1, 1)[:, None]
    hn = normalize(HadamardMatrix(arr.tolist()))
    got = hn.tolist()
    assert all(v == 1 for v in got[0])
    assert all(row[0] == 1 for row in got)
    # normalize does not re-prove HHt = nI; this is the reference
    assert isinstance(hn, HadamardMatrix)
    assert hn @ hn.T == 8 * IntMatrix.identity(8)
    assert np.array_equal(np.abs(hn.array), np.abs(arr))


@pytest.mark.parametrize("q", [3, 7, 11, 19, 23, 27])
def test_paley_skew_core_properties(q):
    core = paley_skew_core(q)
    m = core.matrix
    assert m.T.tolist() == (-1 * m).tolist()
    j = IntMatrix.ones(q)
    assert (m @ m.T).tolist() == (q * IntMatrix.identity(q) - j).tolist()
    assert (m @ j).tolist() == IntMatrix.zeros(q).tolist()


@pytest.mark.parametrize("q", [5, 6, 9])
def test_paley_skew_core_rejects_wrong_residue(q):
    with pytest.raises(ValueError):
        paley_skew_core(q)


def test_paley_skew_core_rejects_non_prime_power():
    # 15 = 3 mod 4, but GF(15) does not exist
    with pytest.raises(NotPrimePower):
        paley_skew_core(15)


@pytest.mark.parametrize("q", [3, 7, 11, 19, 23, 27])
def test_conference_from_core_is_skew_and_orthogonal(q):
    """The reference for CCt = qI and Ct = -C, which conference_from_core
    derives from the core's identities instead of re-checking."""
    core = paley_skew_core(q)
    c = conference_from_core(core)
    n = q + 1
    bordered = [[0] + [1] * q] + [[-1] + list(core.matrix.row(i)) for i in range(q)]
    assert c == IntMatrix(bordered) and not c.array.flags.writeable
    assert c.T.tolist() == (-1 * c).tolist()
    assert (c @ c.T).tolist() == ((n - 1) * IntMatrix.identity(n)).tolist()
    # skew conference plus identity is Hadamard
    HadamardMatrix((c + IntMatrix.identity(n)).tolist())


def test_skew_core_validation():
    with pytest.raises(ValueError):
        SkewCore(IntMatrix([[0, 1], [1, 0]]))
    # the Gram, sum and skew conditions would not see entries off +-1
    with pytest.raises(ValueError, match="core entries"):
        SkewCore(IntMatrix([[0, 2, -2], [-2, 0, 2], [2, -2, 0]]))
    with pytest.raises(ValueError, match="core entries"):
        SkewCore(IntMatrix([[1, 1, -1], [-1, 1, 1], [1, -1, 1]]))
    with pytest.raises(ValueError, match="core must be square"):
        SkewCore(IntMatrix([[0, 1, -1]]))
    # the symmetric Paley core of q = 5: QQt = 5I - J and zero sums, Qt = Q
    residue = [0, 1, -1, -1, 1]
    symmetric = IntMatrix([[residue[(y - x) % 5] for y in range(5)] for x in range(5)])
    with pytest.raises(ValueError, match="core must be skew symmetric"):
        SkewCore(symmetric)


def test_reprs_name_the_shape_and_the_order():
    assert repr(IntMatrix([[1, 2, 3], [4, 5, 6]])) == "IntMatrix(2x3)"
    assert repr(paley_skew_core(7)) == "SkewCore(q=7)"


def test_skew_core_needs_no_row_or_column_sum_test():
    # QQt = qI - J forces Qt 1 = 0, and Qt = -Q then Q1 = 0; a q = 7 Paley
    # core with one column negated keeps QQt and its zero column sums but
    # not its zero row sums, and the skew test refuses it
    q = paley_skew_core(7).matrix.array
    signed = IntMatrix(q * np.where(np.arange(7) == 2, -1, 1))
    assert signed @ signed.T == 7 * IntMatrix.identity(7) - IntMatrix.ones(7)
    assert any(signed.row_sums()) and not signed.array.sum(axis=0).any()
    with pytest.raises(ValueError, match="core must be skew symmetric"):
        SkewCore(signed)


def test_parse_serialize_round_trip_is_byte_exact():
    h = sylvester(3)
    text = serialize_matrix(h)
    again = parse_matrix(text)
    assert serialize_matrix(again) == text
    assert again.tolist() == h.tolist()


def test_parse_accepts_sign_tokens_and_comments():
    text = "# sign form\n2 2\n+ -\n- +\n"
    m = parse_matrix(text)
    assert m.tolist() == [[1, -1], [-1, 1]]
    dense = parse_matrix("2 2\n+-\n-+\n")
    assert dense.tolist() == m.tolist()


@pytest.mark.parametrize(
    "text",
    [
        "",
        "2\n1 1\n1 1",
        "2 x\n1 1\n1 1",
        "2 2\n1 1",
        "2 2\n1 1\n1 x",
        "0 2\n",
    ],
)
def test_parse_errors(text):
    with pytest.raises(ParseError):
        parse_matrix(text)


def test_isqrt_exact():
    assert isqrt_exact(0) == 0
    assert isqrt_exact(49) == 7
    assert isqrt_exact(50) is None
    assert isqrt_exact(-4) is None
    assert isqrt_exact(10**20) == 10**10
