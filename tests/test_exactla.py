import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hadsplit.exactla as exactla
from hadsplit.exactla import (
    GaussianRational,
    _echelon_array,
    _kernel_int,
    mat_vec,
    rref,
)
from helpers import _echelon_int, fraction_nullspace, fraction_rref

F = Fraction
G = GaussianRational


def test_gaussian_arithmetic():
    i = G(0, 1)
    assert i * i == -1
    assert (G(1, 2) + G(3, -1)) == G(4, 1)
    assert G(2, 3) * G(2, -3) == 13
    assert (G(1, 1) / G(1, -1)) == i
    assert 1 / i == -i
    assert 2 - i == G(2, -1)
    assert F(1, 2) * G(4, 2) == G(2, 1)
    assert -G(1, -2) == G(-1, 2)


def test_gaussian_hash_agrees_with_eq():
    for value in (0, 1, -1, 7, F(1, 2), F(-5, 3)):
        assert G(value) == value and hash(G(value)) == hash(value)
    assert hash(G(1, 2)) == hash(G(F(2, 2), 2))
    assert {G(2), G(0, 1), F(3, 4)} == {2, G(0, 1), G(F(3, 4))}


def test_gaussian_predicates_and_keys():
    assert G(3).is_rational
    assert not G(0, 1).is_rational
    assert bool(G(0, 1)) and not bool(G(0))
    assert G(1, 2).conjugate() == G(1, -2)
    assert sorted([G(1, 1), G(0, 5), G(1, -1)], key=lambda x: x.sort_key()) == [
        G(0, 5),
        G(1, -1),
        G(1, 1),
    ]
    assert repr(G(1, -2)) == "1-2i"
    assert repr(G(0, 3)) == "3i"
    assert repr(G(F(1, 2))) == "1/2"


def test_gaussian_rejects_foreign_types():
    with pytest.raises(TypeError):
        G(1) + 0.5
    with pytest.raises(ZeroDivisionError):
        G(1) / G(0)


def test_rref_known_case():
    red, piv = rref([[1, 2, 3], [2, 4, 7], [1, 2, 4]])
    assert piv == [0, 2]
    assert red[0][:3] == [F(1), F(2), F(0)]
    assert red[1][:3] == [F(0), F(0), F(1)]


def test_nullspace_normalization():
    vecs = _kernel_int([[2, 4, 6]])
    # one primitive vector per free column, positive there
    assert vecs == [[-2, 1, 0], [-3, 0, 1]]
    for v in vecs:
        assert v[0] + 2 * v[1] + 3 * v[2] == 0


def test_mat_vec():
    assert mat_vec([[1, 2], [3, 4]], [F(1), F(1)]) == [F(3), F(7)]


def test_mat_vec_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="inner dimensions differ"):
        mat_vec([[1, 2, 3]], [1, 1])
    with pytest.raises(ValueError, match="inner dimensions differ"):
        mat_vec([[1, 2]], [1, 1, 1])


@pytest.mark.parametrize("seed", range(8))
def test_integer_rref_equals_the_fraction_rref(seed):
    # rank-deficient and full-rank matrices, wide and tall: integer entries,
    # the same as Fractions, and entries over mixed denominators 1..6
    rng = np.random.default_rng(seed)
    rows, cols, rank = 3 + seed % 4, 2 + seed % 5, 1 + seed % 3
    m = (rng.integers(-4, 5, (rows, rank)) @ rng.integers(-4, 5, (rank, cols))).tolist()
    dens = rng.integers(1, 7, (rows, cols)).tolist()
    mixed = [[F(v, d) for v, d in zip(row, drow)] for row, drow in zip(m, dens)]
    nums, qs = rng.choice([-3, -1, 2, 5], rows).tolist(), rng.integers(1, 7, rows).tolist()
    scaled_rows = [[v * F(p, q) for v in row] for row, p, q in zip(m, nums, qs)]
    for case in (m, [[F(v) for v in row] for row in m], mixed, scaled_rows):
        got = rref(case)
        assert got == fraction_rref(case)
        assert all(type(v) is F for row in got[0] for v in row)
    # a row scaled by a nonzero rational keeps the row space, hence the rref
    assert rref(scaled_rows) == rref(m)


def test_rref_of_an_empty_matrix():
    assert rref([]) == ([], [])
    assert rref([[], []]) == fraction_rref([[], []])


def test_rref_rejects_non_rationals():
    with pytest.raises(TypeError, match="GaussianRational"):
        rref([[F(1), G(0, 1)], [1, 2]])
    with pytest.raises(TypeError, match="float"):
        rref([[1, 0.5]])


@st.composite
def rational_matrices(draw, fractions=True):
    """Up to 9 x 9, int or (with fractions) Fraction entries up to 2**30
    or 10**30, and often a row that is a combination of two others."""
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 9))
    peak = draw(st.sampled_from([2**30, 10**30]))
    entry = st.one_of(st.just(0), st.integers(-peak, peak))
    if fractions and draw(st.booleans()):
        entry = st.builds(F, entry, st.integers(1, peak))
    row = st.lists(entry, min_size=cols, max_size=cols)
    m = draw(st.lists(row, min_size=rows, max_size=rows))
    if rows > 2 and draw(st.booleans()):
        i, j, k = draw(st.permutations(range(rows)))[:3]
        p, q = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        m[i] = [p * x + q * y for x, y in zip(m[j], m[k])]
    return m


@settings(max_examples=200, deadline=None)
@given(m=rational_matrices())
def test_rref_equals_the_fraction_reference(m):
    got = rref(m)
    assert got == fraction_rref(m)
    assert all(type(v) is F for row in got[0] for v in row)


@settings(max_examples=200, deadline=None)
@given(m=rational_matrices(fractions=False))
def test_nullspace_equals_the_fraction_kernel(m):
    # entries up to 10**30 take _echelon_array past int64 to Python ints;
    # a pivot row is zero left of its pivot, so each vector's free column
    # is its last nonzero entry
    got = _kernel_int(m)
    assert all(type(x) is int for v in got for x in v)
    assert all(math.gcd(*v) == 1 for v in got)
    free = [next(x for x in reversed(v) if x) for v in got]
    assert all(f > 0 for f in free)
    assert [[F(x, f) for x in v] for v, f in zip(got, free)] == fraction_nullspace(m)


@pytest.mark.parametrize(
    "m",
    [
        [[-3]],
        [[0, -5, 0]],
        [[-6], [4], [0]],
        [[-(2**70)]],
        [[0, -(2**70)], [0, 3]],
        [[2**70, 1], [2**70, 1]],
        [[0, 0, 0], [0, 0, 0]],
        [[0], [0]],
        [[1, -2, 3, 0, 4]],
        [[5], [-7], [2**63], [9]],
    ],
)
def test_array_echelon_matches_the_list_echelon(m):
    # a row left with one negative entry stays negative: the gcd that
    # divides it is positive also when the row has one column
    assert _echelon_array(m) == _echelon_int(m)
    assert rref(m) == fraction_rref(m)


def test_array_echelon_small_shapes():
    assert _echelon_array([[-3]]) == ([[-1]], [0])
    assert _echelon_array([[-(2**70)]]) == ([[-1]], [0])
    assert _echelon_array([[0, -4, 6]]) == ([[0, -2, 3]], [1])
    assert _echelon_array([[0], [0], [-2]]) == ([[-1]], [0])
    assert _echelon_array([[0, 0], [0, 0]]) == ([], [])
    zero = F(0)
    assert rref([[0, 0], [0, 0]]) == ([[zero, zero], [zero, zero]], [])
    assert rref([[2, -4, 6]]) == ([[F(1), F(-2), F(3)]], [0])
    assert rref([[0], [-2], [5]]) == ([[F(1)], [zero], [zero]], [0])


def test_array_echelon_leaves_int64_past_the_bound(monkeypatch):
    # 2 max|a|^2 starts below 2**62, so the first step runs in int64; the
    # entries then reach about 2**60 and the later steps need Python ints
    m = [[2**30 + 1, 3, 5, 1], [7, 2**30 - 1, 11, 2], [13, 17, 2**30 + 3, 3]]
    assert 2 * max(abs(v) for row in m for v in row) ** 2 < 2**62
    want = _echelon_int(m)
    assert max(abs(v) for row in want[0] for v in row) > 2**88
    assert _echelon_array(m) == want
    assert rref(m) == fraction_rref(m)
    # with no bound the same steps run in int64, which wraps
    monkeypatch.setattr(exactla, "_INT64_SAFE", 2**400)
    assert _echelon_array(m) != want
