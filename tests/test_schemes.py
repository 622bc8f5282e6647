import cProfile
import dataclasses
import hashlib
import math
import os
import pstats
import time
import tracemalloc
from dataclasses import FrozenInstanceError
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hadsplit.exactla
import hadsplit.schemes
from hadsplit.constructions import twin_sylvester
from hadsplit.core import HadamardMatrix, HadsplitError, IntMatrix, isqrt_exact, sylvester
from hadsplit.exactla import GaussianRational, _integer_roots, mat_vec, rref
from hadsplit.latin import (
    affine_ufs_family,
    circle_symmetric,
    compose_ufs,
    force_constant_diagonal,
    with_min_symbol,
)
from hadsplit.schemes import (
    AuxiliarySet,
    AxiomFailure,
    EigenTables,
    IrrationalEigenvalue,
    OddityViolation,
    _assemble_blocks,
    _KroneckerForm,
    _TranslationForm,
    _ufs_cross_lift,
    _verify_blocks,
    _verify_colors,
    _verify_translation,
    build_4class_nonsymmetric,
    build_4class_symmetric,
    build_5class,
    build_6class,
    eigenmatrices,
    hamming_scheme,
    muzychuk_fusion,
    verify_scheme,
)
from hadsplit.splitting import (
    delete_allones_transform,
    diagonalize_by_hadamard,
    direct_srg_params,
)
from helpers import fraction_nullspace, lift_latin, mat_mul, table_as_ints


@pytest.fixture(scope="module")
def aux16(twin16):
    return AuxiliarySet(twin16.h, twin16.reports[1])


@pytest.fixture(scope="module")
def scheme4sym(twin16, split_16_9):
    return build_4class_symmetric(twin16.h, split_16_9)


@pytest.fixture(scope="module")
def scheme4non(twin16, split_16_9):
    return build_4class_nonsymmetric(twin16.h, split_16_9)


@pytest.fixture(scope="module")
def fam9():
    return [with_min_symbol(sq, 1) for sq in affine_ufs_family(9)]


# Every scheme the library builds, at small sizes.
_BUILT_SCHEMES = {
    "4class-sym": lambda tw, s9, fam9: build_4class_symmetric(tw.h, s9),
    "4class-nonsym": lambda tw, s9, fam9: build_4class_nonsymmetric(tw.h, s9),
    "5class-f2": lambda tw, s9, fam9: build_5class(tw.h, s9, fam9[:2]),
    "6class-f2": lambda tw, s9, fam9: build_6class(
        tw.h, tw.reports[1], [force_constant_diagonal(sq, 0) for sq in affine_ufs_family(7)][:2]
    ),
    **{f"hamming{n}": (lambda tw, s9, fam9, n=n: hamming_scheme(n)) for n in range(3, 7)},
    "fusion01": lambda tw, s9, fam9: muzychuk_fusion(6, "01"),
    "fusion03": lambda tw, s9, fam9: muzychuk_fusion(6, "03"),
}


def _cyclic_scheme(n, classes):
    """Scheme of the group Z_n whose classes are the given sets of
    differences y - x mod n."""
    return verify_scheme(
        [IntMatrix([[int((y - x) % n in c) for y in range(n)] for x in range(n)]) for c in classes]
    )


# Group schemes of Z_n: rational, Gaussian (+-i entries) and irrational ones.
_CYCLIC_SCHEMES = {
    "z4": lambda: _cyclic_scheme(4, [{0}, {1}, {2}, {3}]),
    "z8": lambda: _cyclic_scheme(8, [{0}, {2}, {4}, {6}, {1, 3, 5, 7}]),
    "z4-sym": lambda: _cyclic_scheme(4, [{0}, {2}, {1, 3}]),
    "k3": lambda: _cyclic_scheme(3, [{0}, {1, 2}]),
    "one-point": lambda: _cyclic_scheme(1, [{0}]),
    "pentagon": lambda: _cyclic_scheme(5, [{0}, {1, 4}, {2, 3}]),
    "z3-directed": lambda: _cyclic_scheme(3, [{0}, {1}, {2}]),
    "z12": lambda: _cyclic_scheme(12, [{0}] + [{k, 12 - k} for k in range(1, 7)]),
}


@pytest.fixture(scope="module")
def built_schemes(twin16, split_16_9, fam9):
    return {name: make(twin16, split_16_9, fam9) for name, make in _BUILT_SCHEMES.items()}


def _i(im):
    return GaussianRational(0, im)


def _signed_square_law(scheme, n, ell, a, b, f):
    """(A3 - A4)^2 = (f-1) n (ell A0 + a A1 + b A2) + (f-2) n (A3 - A4)."""
    m = scheme.matrices
    d = m[3] - m[4]
    rhs = (f - 1) * n * (ell * m[0] + a * m[1] + b * m[2]) + (f - 2) * n * d
    assert d @ d == rhs


def _algebra_product(p, x, y):
    """Coordinates of (sum x_i A_i)(sum y_k A_k) in the basis A_0..A_d."""
    d1 = len(x)
    out = [GaussianRational(0)] * d1
    for i in range(d1):
        for k in range(d1):
            if x[i] and y[k]:
                coef = x[i] * y[k]
                for m in range(d1):
                    if p[i][k][m]:
                        out[m] = out[m] + coef * p[i][k][m]
    return out


def _assert_primitive_idempotents(scheme, et):
    """E_j = sum_i Q_ij A_i / |X| satisfy E_j E_k = [j = k] E_j, and
    sum_j Q_ij = |X| [i = 0], which is sum_j E_j = I."""
    d1, size = scheme.classes + 1, scheme.size
    zero = GaussianRational(0)
    e = [[et.q[i][j] / size for i in range(d1)] for j in range(d1)]
    for j in range(d1):
        for k in range(d1):
            want = e[j] if j == k else [zero] * d1
            assert _algebra_product(scheme.p, e[j], e[k]) == want, (j, k)
    for i in range(d1):
        assert sum(et.q[i], zero) == (size if i == 0 else 0), i


# ------------------------------------------------------- auxiliary matrices


def test_auxiliary_identities(aux16, twin16):
    n = 16
    cs = [np.array(c.tolist(), dtype=np.int64) for c in aux16.matrices]
    total = np.zeros((n, n), dtype=np.int64)
    for i, c in enumerate(cs):
        assert np.array_equal(c @ c, n * c)
        total += c
        for j in range(i + 1, n):
            assert not np.any(cs[i] @ cs[j])
    assert np.array_equal(total, n * np.eye(n, dtype=np.int64))
    split_sum = sum(cs[i] for i in twin16.reports[1].rows)
    assert np.array_equal(split_sum, aux16.gram)


def test_lemma_c(aux16, twin16, split_16_9):
    assert aux16.lemma_c_ok()
    assert AuxiliarySet(twin16.h, split_16_9).lemma_c_ok()
    # the block split contains the all-ones row, so its sums are not zero
    assert not AuxiliarySet(twin16.h, twin16.reports[0]).lemma_c_ok()


def test_auxiliary_set_computes_only_the_split_gram(kernel_calls, twin16):
    AuxiliarySet(twin16.h, twin16.reports[1])
    assert kernel_calls == [((16, 6), (6, 16))]


def test_auxiliary_rejects_foreign_report(split_16_9):
    with pytest.raises(ValueError):
        AuxiliarySet(sylvester(2), split_16_9)


def test_lift_latin_shape_and_identity(aux16):
    square = force_constant_diagonal(affine_ufs_family(7)[0], 0)
    lifted = lift_latin(square, aux16)
    assert lifted.shape == (112, 112)
    want = np.kron(np.eye(7, dtype=np.int64), 16 * aux16.gram)
    assert np.array_equal(lifted @ lifted.T, want)


def test_lemma_c_and_lift_form_no_projector_products(kernel_calls, aux16):
    assert aux16.lemma_c_ok()
    assert kernel_calls == [((16, 16), (16, 6))]


def test_lemma_c_at_order_256():
    tw = twin_sylvester(4)
    for rep in tw.reports[1:]:
        assert AuxiliarySet(tw.h, rep).lemma_c_ok()


# --------------------------------------------------------- 4-class schemes


def test_4class_symmetric_tables(scheme4sym):
    assert scheme4sym.size == 160
    assert scheme4sym.classes == 4
    assert scheme4sym.is_symmetric
    assert scheme4sym.valencies == (1, 9, 6, 72, 72)
    et = eigenmatrices(scheme4sym)
    assert et.multiplicities == (1, 60, 45, 45, 9)
    assert table_as_ints(et.p) == (
        (1, 9, 6, 72, 72),
        (1, -3, 2, 0, 0),
        (1, 1, -2, -8, 8),
        (1, 1, -2, 8, -8),
        (1, 9, 6, -8, -8),
    )
    assert table_as_ints(et.q) == (
        (1, 60, 45, 45, 9),
        (1, -20, 5, 5, 9),
        (1, 20, -15, -15, 9),
        (1, 0, -5, 5, -1),
        (1, 0, 5, -5, -1),
    )


def test_mat_mul_helper_rejects_mismatched_shapes():
    assert mat_mul([[1, 2, 3]], [[1], [1], [1]]) == [[6]]
    with pytest.raises(ValueError, match="inner dimensions differ"):
        mat_mul([[1, 2, 3]], [[1], [1]])


def test_4class_pq_identity(scheme4sym):
    et = eigenmatrices(scheme4sym)
    prod = mat_mul([list(r) for r in et.p], [list(r) for r in et.q])
    one = GaussianRational(160)
    zero = GaussianRational(0)
    for i in range(5):
        for j in range(5):
            assert prod[i][j] == (one if i == j else zero)


def test_4class_signed_square_law(scheme4sym):
    _signed_square_law(scheme4sym, 16, 9, 1, -3, f=2)


def test_4class_nonsymmetric_tables(scheme4non):
    assert scheme4non.size == 160
    assert not scheme4non.is_symmetric
    assert scheme4non.transpose_map == (0, 1, 2, 4, 3)
    assert scheme4non.valencies == (1, 9, 6, 72, 72)
    et = eigenmatrices(scheme4non)
    assert et.multiplicities == (1, 60, 45, 45, 9)
    assert table_as_ints(et.p[:2]) == ((1, 9, 6, 72, 72), (1, -3, 2, 0, 0))
    assert et.p[2][3] == _i(-8) and et.p[2][4] == _i(8)
    assert et.p[3][3] == _i(8) and et.p[3][4] == _i(-8)
    assert table_as_ints(et.p[4:]) == ((1, 9, 6, -8, -8),)
    assert et.q[3][2] == _i(5) and et.q[3][3] == _i(-5)
    assert et.q[4][2] == _i(-5) and et.q[4][3] == _i(5)


def test_4class_rejects_even_split(twin16):
    with pytest.raises(OddityViolation):
        build_4class_symmetric(twin16.h, twin16.reports[1])
    with pytest.raises(OddityViolation):
        build_4class_nonsymmetric(twin16.h, twin16.reports[1])


def test_4class_rejects_wrong_square(twin16, split_16_9):
    with pytest.raises(ValueError):
        build_4class_symmetric(twin16.h, split_16_9, affine_ufs_family(9)[0])


def test_4class_rejects_nonzero_row_sums(twin16):
    with pytest.raises(HadsplitError):
        build_4class_symmetric(twin16.h, twin16.reports[0])


# --------------------------------------------------------- 5-class schemes


def test_5class_two_squares(twin16, split_16_9, fam9):
    sch = build_5class(twin16.h, split_16_9, fam9[:2])
    assert sch.size == 288
    assert sch.valencies == (1, 9, 6, 72, 72, 128)
    et = eigenmatrices(sch)
    assert et.multiplicities == (1, 108, 81, 81, 1, 16)
    assert table_as_ints(et.p) == (
        (1, 9, 6, 72, 72, 128),
        (1, -3, 2, 0, 0, 0),
        (1, 1, -2, -8, 8, 0),
        (1, 1, -2, 8, -8, 0),
        (1, 9, 6, -72, -72, 128),
        (1, 9, 6, 0, 0, -16),
    )
    assert table_as_ints(et.q) == (
        (1, 108, 81, 81, 1, 16),
        (1, -36, 9, 9, 1, 16),
        (1, 36, -27, -27, 1, 16),
        (1, 0, -9, 9, -1, 0),
        (1, 0, 9, -9, -1, 0),
        (1, 0, 0, 0, 1, -2),
    )
    _signed_square_law(sch, 16, 9, 1, -3, f=2)


def test_5class_three_squares(twin16, split_16_9, fam9):
    sch = build_5class(twin16.h, split_16_9, fam9[:3])
    assert sch.size == 432
    assert sch.valencies == (1, 9, 6, 144, 144, 128)
    et = eigenmatrices(sch)
    assert et.multiplicities == (1, 162, 162, 81, 2, 24)
    assert table_as_ints(et.p) == (
        (1, 9, 6, 144, 144, 128),
        (1, -3, 2, 0, 0, 0),
        (1, 1, -2, -8, 8, 0),
        (1, 1, -2, 16, -16, 0),
        (1, 9, 6, -72, -72, 128),
        (1, 9, 6, 0, 0, -16),
    )
    assert table_as_ints(et.q) == (
        (1, 162, 162, 81, 2, 24),
        (1, -54, 18, 9, 2, 24),
        (1, 54, -54, -27, 2, 24),
        (1, 0, -9, 9, -1, 0),
        (1, 0, 9, -9, -1, 0),
        (1, 0, 0, 0, 2, -3),
    )
    _signed_square_law(sch, 16, 9, 1, -3, f=3)


def test_5class_all_eight_squares(twin16, split_16_9, fam9):
    sch = build_5class(twin16.h, split_16_9, fam9)
    assert sch.size == 1152
    assert sch.valencies == (1, 9, 6, 504, 504, 128)
    assert eigenmatrices(sch).multiplicities == (1, 432, 567, 81, 7, 64)


def test_5class_closed_forms(twin16, split_16_9, fam9):
    n, ell, a = 16, 9, 1
    d = (n - 1) * a * a + 2 * ell * a + ell * (n - ell)
    assert d == 96
    for f in (2, 3):
        sch = build_5class(twin16.h, split_16_9, fam9[:f])
        assert sch.valencies == (
            1,
            ell * (n - ell - 1) * n // d,
            (ell + a * (n - 1)) ** 2 // d,
            (f - 1) * ell * n // 2,
            (f - 1) * ell * n // 2,
            (ell - 1) * n,
        )
        et = eigenmatrices(sch)
        want = sorted(
            [1, ell * ell, f * ell * (n - ell - 1), f * (ell - 1), (f - 1) * ell * ell, f - 1]
        )
        assert sorted(et.multiplicities) == want


def test_5class_rejects_non_ufs(twin16, split_16_9, fam9):
    from hadsplit.latin import NotUfs

    with pytest.raises(NotUfs):
        build_5class(twin16.h, split_16_9, [fam9[0], fam9[0]])


@pytest.mark.parametrize("picks", [(0, 1, 0), (0, 1, 1)])
def test_5class_rejects_a_non_ufs_pair_after_ufs_ones(twin16, split_16_9, fam9, picks):
    from hadsplit.latin import NotUfs

    with pytest.raises(NotUfs):
        build_5class(twin16.h, split_16_9, [fam9[k] for k in picks])


def test_5class_needs_two_squares(twin16, split_16_9, fam9):
    with pytest.raises(ValueError):
        build_5class(twin16.h, split_16_9, fam9[:1])


# --------------------------------------------------------- 6-class schemes


def test_6class_tables(twin16):
    squares = [force_constant_diagonal(sq, 0) for sq in affine_ufs_family(7)][:2]
    sch = build_6class(twin16.h, twin16.reports[1], squares)
    assert sch.size == 224
    assert sch.valencies == (1, 6, 9, 48, 48, 96, 16)
    et = eigenmatrices(sch)
    assert et.multiplicities == (1, 126, 42, 42, 1, 6, 6)
    assert table_as_ints(et.p) == (
        (1, 6, 9, 48, 48, 96, 16),
        (1, -2, 1, 0, 0, 0, 0),
        (1, 2, -3, -8, 8, 0, 0),
        (1, 2, -3, 8, -8, 0, 0),
        (1, 6, 9, -48, -48, 96, -16),
        (1, 6, 9, -8, -8, -16, 16),
        (1, 6, 9, 8, 8, -16, -16),
    )
    assert table_as_ints(et.q) == (
        (1, 126, 42, 42, 1, 6, 6),
        (1, -42, 14, 14, 1, 6, 6),
        (1, 14, -14, -14, 1, 6, 6),
        (1, 0, -7, 7, -1, -1, 1),
        (1, 0, 7, -7, -1, -1, 1),
        (1, 0, 0, 0, 1, -1, -1),
        (1, 0, 0, 0, -1, 6, -6),
    )
    _signed_square_law(sch, 16, 6, 2, -2, f=2)


def test_6class_rejects_nonzero_diagonal(twin16):
    squares = affine_ufs_family(7)[:2]  # symmetric but diagonal not constant 0
    with pytest.raises(ValueError):
        build_6class(twin16.h, twin16.reports[1], squares)


def test_6class_reports_non_ufs_before_the_diagonal(twin16):
    from hadsplit.latin import NotUfs

    square = affine_ufs_family(7)[0]  # diagonal 2i, and never UFS with itself
    with pytest.raises(NotUfs):
        build_6class(twin16.h, twin16.reports[1], [square, square])


# ------------------------------------------------------- scheme verification


def test_verify_rejects_non_01():
    eye = IntMatrix.identity(3)
    with pytest.raises(AxiomFailure):
        verify_scheme([eye, 2 * (IntMatrix.ones(3) - eye)])


def test_verify_rejects_missing_identity():
    j = IntMatrix.ones(2)
    eye = IntMatrix.identity(2)
    with pytest.raises(AxiomFailure):
        verify_scheme([j - eye, eye])


def test_verify_rejects_broken_partition():
    eye = IntMatrix.identity(3)
    off = IntMatrix.ones(3) - eye
    with pytest.raises(AxiomFailure):
        verify_scheme([eye, off, off])


def test_verify_rejects_open_transpose():
    cyc = IntMatrix([[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]])
    rest = IntMatrix.ones(4) - IntMatrix.identity(4) - cyc
    # both classes fail; the first one is named
    with pytest.raises(AxiomFailure, match="transpose of class 1 is not a class"):
        verify_scheme([IntMatrix.identity(4), cyc, rest])


def test_verify_names_the_first_class_with_an_open_transpose(scheme4non):
    # classes 3 and 4 are mutual transposes; moving a symmetric pair of
    # cells from class 1 into class 3 leaves both with an open transpose
    arrs = [m.array.copy() for m in scheme4non.matrices]
    x, y = np.argwhere(arrs[1])[0]
    arrs[1][x, y] = arrs[1][y, x] = 0
    arrs[3][x, y] = arrs[3][y, x] = 1
    for order, named in (([0, 1, 2, 3, 4], 3), ([0, 4, 3, 1, 2], 1), ([0, 1, 4, 2, 3], 2)):
        with pytest.raises(AxiomFailure, match=f"transpose of class {named} is not a class"):
            verify_scheme([IntMatrix(arrs[k]) for k in order])


def _packed_calls(scheme, monkeypatch):
    """Verify scheme's classes again and return, for each kernel call, its
    operands, the class i whose A_i is the left operand and the classes j_t
    packed into the right one, in digit order t."""
    arrs = [m.array for m in scheme.matrices]
    calls = []
    kernel = hadsplit.schemes.exact_matmul

    def recording(a, b):
        calls.append((a, b))
        return kernel(a, b)

    monkeypatch.setattr(hadsplit.schemes, "exact_matmul", recording)
    verify_scheme(scheme.matrices)
    monkeypatch.undo()
    reps = [np.unravel_index(int(np.argmax(a)), a.shape) for a in arrs]
    out = []
    for a, b in calls:
        (i,) = [k for k, x in enumerate(arrs) if np.array_equal(a, x)]
        base = scheme.valencies[i] + 1
        weights = {int(b[r]): k for k, r in enumerate(reps) if b[r]}
        packed = [weights[base**t] for t in range(len(weights))]
        assert np.array_equal(b, sum(base**t * arrs[j] for t, j in enumerate(packed)))
        out.append((a, b, i, packed))
    return out


def _classes_in_words(scheme, gens):
    """The classes in the span of the generators' words applied to A_0, each
    word an int64 product of class matrices read at the class
    representatives; every word is checked to lie in the classes' span."""
    arrs = [m.array for m in scheme.matrices]
    d1, color = len(arrs), _colors(scheme)
    reps = [np.unravel_index(int(np.argmax(a)), a.shape) for a in arrs]
    rows, frontier = [], [arrs[0]]
    while frontier:
        word = frontier.pop()
        coords = [int(word[r]) for r in reps]
        assert np.array_equal(word, np.array(coords)[color])
        if len(rref(rows + [coords])[1]) > len(rows):
            rows.append(coords)
            frontier += [arrs[g] @ word for g in gens]
    unit = [[int(j == k) for j in range(d1)] for k in range(d1)]
    return {k for k in range(d1) if len(rref(rows + [unit[k]])[1]) == len(rows)}


def test_verify_forms_one_product_per_transpose_orbit(monkeypatch, twin16, split_16_9):
    """Each generator g is the first class outside the algebra W of the
    generators before it, and the packed products cover the orbits
    {(g, j), (j', g')} with A_j' outside W, each exactly once: the others
    lie in the algebra already. No call uses A_0, and each stays on the
    kernel's float32 route: v * base^(c-1) < 2**24 for base = k_g + 1 and c
    packed classes. The generators' words span every class."""
    for scheme, want_gens, want_calls in (
        (hamming_scheme(8), [1], 2),  # A_1 alone: its 8 products, 6 to a call
        (build_4class_nonsymmetric(twin16.h, split_16_9), [1, 3], 2),  # 4 + 2 orbits
    ):
        calls = _packed_calls(scheme, monkeypatch)
        assert len(calls) == want_calls
        v, d1, t = scheme.size, scheme.classes + 1, scheme.transpose_map
        eye = np.eye(v)
        covered = []
        for a, b, i, packed in calls:
            assert not np.array_equal(a, eye) and not np.array_equal(b, eye)
            assert 0 not in packed
            assert int(a.max()) * int(b.max()) * v < 2**24
            covered += [min((i, j), (t[j], t[i])) for j in packed]
        gens = list(dict.fromkeys(i for _, _, i, _ in calls))
        assert gens == want_gens
        orbits = []
        for n, g in enumerate(gens):
            inside = _classes_in_words(scheme, gens[:n])
            assert g == min(set(range(d1)) - inside)
            orbits += [min((g, j), (t[j], t[g])) for j in range(1, d1) if t[j] not in inside]
        assert len(set(covered)) == len(covered)
        assert sorted(covered) == sorted(orbits)
        assert _classes_in_words(scheme, gens) == set(range(d1))


def test_verify_rejects_irregular_class():
    path = IntMatrix([[0, 1, 0], [1, 0, 1], [0, 1, 0]])
    rest = IntMatrix.ones(3) - IntMatrix.identity(3) - path
    with pytest.raises(AxiomFailure):
        verify_scheme([IntMatrix.identity(3), path, rest])


def test_verify_takes_more_classes_than_a_byte_counts():
    # 273 classes: the identity and each off-diagonal cell of 17 points
    v = 17
    mats = [IntMatrix.identity(v)]
    for x, y in zip(*np.nonzero(1 - np.eye(v, dtype=np.int64))):
        cell = np.zeros((v, v), dtype=np.int64)
        cell[x, y] = 1
        mats.append(IntMatrix(cell))
    with pytest.raises(AxiomFailure, match="class 1 is not regular"):
        verify_scheme(mats)


def _verify_scheme_per_pair(matrices):
    """verify_scheme as it was before the products were packed: the same
    checks, then one kernel call per transpose orbit {(i, j), (j', i')}.
    Kept as the reference the packed products must agree with."""
    if not matrices:
        raise AxiomFailure("no class matrices")
    arrs = [m.array for m in matrices]
    v = arrs[0].shape[0]
    for idx, a in enumerate(arrs):
        if a.shape != (v, v):
            raise AxiomFailure(f"class {idx} is not {v} x {v}")
        if not np.all((a == 0) | (a == 1)):
            raise AxiomFailure(f"class {idx} has entries outside 0/1")
    arrs = [a.astype(np.uint8) for a in arrs]
    if not np.array_equal(arrs[0], np.eye(v, dtype=np.uint8)):
        raise AxiomFailure("first class is not the identity")
    total = np.zeros((v, v), dtype=np.int64)
    color = np.zeros((v, v), dtype=np.int64)
    for idx, a in enumerate(arrs):
        total += a
        color += idx * a
    if not np.all(total == 1):
        raise AxiomFailure("classes do not partition the cells")

    d1 = len(arrs)
    first = [int(np.argmax(a)) for a in arrs]
    sizes = np.bincount(color.ravel(), minlength=d1)
    tmap = np.where(sizes > 0, color.T.ravel()[first], np.arange(d1))
    wrong = set(np.unique(color[color.T != tmap[color]]).tolist())
    wrong.update(np.flatnonzero(sizes != sizes[tmap]).tolist())
    if wrong:
        raise AxiomFailure(f"transpose of class {min(wrong)} is not a class")
    tr = tuple(int(t) for t in tmap)

    for k in range(d1):
        if not sizes[k]:
            raise AxiomFailure(f"class {k} is empty")
    reps = [divmod(f, v) for f in first]

    valencies = []
    for k, a in enumerate(arrs):
        s = a.sum(axis=1)
        if not np.all(s == s[0]):
            raise AxiomFailure(f"class {k} is not regular")
        valencies.append(int(s[0]))

    unit = [tuple(int(j == k) for k in range(d1)) for j in range(d1)]
    p = [[None] * d1 for _ in range(d1)]
    p[0] = list(unit)
    for j in range(d1):
        p[j][0] = unit[j]
    for i in range(1, d1):
        for j in range(1, d1):
            if p[i][j] is not None:
                continue
            # float64 BLAS: entries at most v, far below 2**53
            prod = (arrs[i].astype(np.float64) @ arrs[j].astype(np.float64)).astype(np.int64)
            pk = tuple(int(prod[x, y]) for x, y in reps)
            if not np.array_equal(prod, np.array(pk, dtype=np.int64)[color]):
                raise AxiomFailure(f"product of classes {i}, {j} leaves the algebra")
            p[i][j] = pk
            p[tr[j]][tr[i]] = tuple(pk[tr[m]] for m in range(d1))
    for i in range(d1):
        for j in range(d1):
            if p[i][j] != p[j][i]:
                raise AxiomFailure(f"classes {i}, {j} do not commute")
    return tuple(tuple(row) for row in p), tuple(valencies), tr


def _assert_same_verdict(matrices):
    """verify_scheme and the per-pair reference accept the classes with the
    same tables, or reject them with the same message."""
    try:
        want = _verify_scheme_per_pair(matrices)
    except AxiomFailure as exc:
        with pytest.raises(AxiomFailure) as got:
            verify_scheme(matrices)
        assert str(got.value) == str(exc)
        return
    sch = verify_scheme(matrices)
    assert (sch.p, sch.valencies, sch.transpose_map) == want


@pytest.mark.parametrize("case", list(_BUILT_SCHEMES))
def test_packed_verify_matches_the_per_pair_reference(case, built_schemes):
    _assert_same_verdict(built_schemes[case].matrices)


@pytest.mark.parametrize("n", range(1, 10))
def test_packed_verify_matches_the_per_pair_reference_on_hamming(n):
    _assert_same_verdict(hamming_scheme(n).matrices)


# The generators verify_scheme forms products for on each cyclic scheme.
_CYCLIC_GENERATORS = {
    "z4": [1],
    "z8": [1, 4],  # {2} reaches only the even differences
    "z4-sym": [1, 2],
    "k3": [1],
    "one-point": [],
    "pentagon": [1],
    "z3-directed": [1],
    "z12": [1],
}


@pytest.mark.parametrize("case", list(_CYCLIC_SCHEMES))
def test_packed_verify_matches_the_per_pair_reference_on_cyclic_schemes(case, monkeypatch):
    scheme = _CYCLIC_SCHEMES[case]()
    _assert_same_verdict(scheme.matrices)
    calls = _packed_calls(scheme, monkeypatch)
    assert list(dict.fromkeys(i for _, _, i, _ in calls)) == _CYCLIC_GENERATORS[case]
    assert scheme.is_symmetric == (case not in ("z4", "z8", "z3-directed"))


def test_thin_scheme_of_s3_is_closed_but_not_commutative():
    """The regular action of S_3: class g holds the cells (x, x g). Classes
    1 and 2 are the transpositions (0 1) and (1 2), which do not commute;
    every product stays in the algebra."""
    perms = [(0, 1, 2), (1, 0, 2), (0, 2, 1), (2, 1, 0), (1, 2, 0), (2, 0, 1)]
    index = {g: k for k, g in enumerate(perms)}
    mats = [
        IntMatrix([[int(index[tuple(x[i] for i in g)] == y) for y in range(6)] for x in perms])
        for g in perms
    ]
    _assert_same_verdict(mats)
    with pytest.raises(AxiomFailure, match="classes 1, 2 do not commute"):
        verify_scheme(mats)


def test_a_later_generator_whose_product_leaves_the_algebra_is_named():
    """Six blocks of four points. Class 1 is a 4-cycle inside each block and
    class 2 the opposite points, so A_1^2 = 2 A_0 + 2 A_2, and every product
    of A_1 stays in the algebra. Classes 3 and 4 join blocks adjacent and
    not adjacent in a 6-cycle, which is no scheme: A_3^2 = C_6^2 (x) 4J
    takes 8 on blocks at distance 2 and 0 at distance 3, both in class 4."""
    eye6, j4 = np.eye(6, dtype=np.int64), np.ones((4, 4), dtype=np.int64)
    c4, c6 = (np.roll(np.eye(n, dtype=np.int64), 1, axis=1) for n in (4, 6))
    c4, c6 = c4 + c4.T, c6 + c6.T
    opposite = j4 - np.eye(4, dtype=np.int64) - c4
    mats = [
        IntMatrix.identity(24),
        IntMatrix(np.kron(eye6, c4)),
        IntMatrix(np.kron(eye6, opposite)),
        IntMatrix(np.kron(c6, j4)),
        IntMatrix(np.kron(1 - eye6 - c6, j4)),
    ]
    _assert_same_verdict(mats)
    with pytest.raises(AxiomFailure, match="product of classes 3, 3 leaves the algebra"):
        verify_scheme(mats)


# Every built scheme, perturbed: verify_scheme must reject what is no longer
# a scheme, whichever of its checks catches it.


def _colors(scheme):
    return sum(k * m.array.astype(np.int64) for k, m in enumerate(scheme.matrices))


def _classes_from(color, d1):
    return [IntMatrix((color == k).astype(np.int64)) for k in range(d1)]


def _reference_is_scheme(color, d1):
    """All (d+1)^2 products, each constant on every class: the definition,
    with no use of transposition or of the identity class."""
    arrs = [(color == k).astype(np.float64) for k in range(d1)]
    first = [np.unravel_index(int(np.argmax(color == k)), color.shape) for k in range(d1)]
    tables = {}
    for i in range(d1):
        for j in range(d1):
            prod = (arrs[i] @ arrs[j]).astype(np.int64)
            pk = np.array([prod[x, y] for x, y in first])
            if not np.array_equal(prod, pk[color]):
                return False
            tables[i, j] = pk.tolist()
    return all(tables[i, j] == tables[j, i] for i in range(d1) for j in range(d1))


@pytest.mark.parametrize("case", list(_BUILT_SCHEMES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_verify_rejects_a_flipped_cell(case, built_schemes, data):
    sch = built_schemes[case]
    v, d1 = sch.size, sch.classes + 1
    k = data.draw(st.integers(0, d1 - 1))
    x, y = data.draw(st.integers(0, v - 1)), data.draw(st.integers(0, v - 1))
    arrs = [m.array.copy() for m in sch.matrices]
    arrs[k][x, y] ^= 1
    mats = [IntMatrix(a) for a in arrs]
    with pytest.raises(AxiomFailure):
        verify_scheme(mats)
    _assert_same_verdict(mats)


@pytest.mark.parametrize("case", list(_BUILT_SCHEMES))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_verify_rejects_swapped_cells(case, built_schemes, data):
    """Exchange the classes of two off-diagonal cells together with their
    transposed cells: the cells stay partitioned and every class keeps a
    class as its transpose, but the row through one cell and not the other
    changes its class counts."""
    sch = built_schemes[case]
    v, tmap = sch.size, sch.transpose_map
    color = _colors(sch)
    point = st.integers(0, v - 1)
    x1, y1, x2, y2 = (data.draw(point) for _ in range(4))
    assume(x1 != y1 and x2 != y2 and {(x1, y1), (y1, x1)}.isdisjoint({(x2, y2), (y2, x2)}))
    c1, c2 = int(color[x1, y1]), int(color[x2, y2])
    assume(c1 != c2)
    color[x1, y1], color[y1, x1] = c2, tmap[c2]
    color[x2, y2], color[y2, x2] = c1, tmap[c1]
    mats = _classes_from(color, sch.classes + 1)
    with pytest.raises(AxiomFailure):
        verify_scheme(mats)
    _assert_same_verdict(mats)


@pytest.mark.parametrize("case", list(_BUILT_SCHEMES))
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_verify_judges_a_switched_square_like_the_definition(case, built_schemes, data):
    """Switch four cells (x, y), (x, y'), (x', y), (x', y') whose classes
    read c1, c2, c2, c1 to c2, c1, c1, c2, with their transposed cells.
    Partition, transposes and every valency survive, so only the product
    checks can tell; a switch can also give a scheme again, so the verdict
    is compared with the definition."""
    sch = built_schemes[case]
    v, d1, tmap = sch.size, sch.classes + 1, sch.transpose_map
    color = _colors(sch)
    point = st.integers(0, v - 1)
    x, y, y2 = (data.draw(point) for _ in range(3))
    assume(len({x, y, y2}) == 3 and color[x, y] != color[x, y2])
    c1, c2 = int(color[x, y]), int(color[x, y2])
    partners = [
        z for z in range(v)
        if z not in (x, y, y2) and color[z, y2] == c1 and color[z, y] == c2
    ]
    assume(partners)
    x2 = partners[data.draw(st.integers(0, len(partners) - 1))]
    for (r, c), k in {(x, y): c2, (x, y2): c1, (x2, y): c1, (x2, y2): c2}.items():
        color[r, c], color[c, r] = k, tmap[k]
    mats = _classes_from(color, d1)
    if _reference_is_scheme(color, d1):
        verify_scheme(mats)
    else:
        with pytest.raises(AxiomFailure):
            verify_scheme(mats)
    _assert_same_verdict(mats)


# ----------------------------------------------------- class-index array

# Every builder: both 4-class builders on both deleted order-16 twin splits
# and on the deleted (64, 35, 3, -5) split of twin_sylvester(3) (2304
# points), the 5-class f = 2, 3, 8 and 6-class f = 2 builds, hamming(1..8)
# and both fusions at n = 4 and 6.
_SPLIT_BUILDS = {
    **{
        f"4class-{kind}-twin{k}": (
            lambda tw, k=k, b=b: b(tw.h, delete_allones_transform(tw.h, tw.reports[k]))
        )
        for k in (1, 2)
        for kind, b in (("sym", build_4class_symmetric), ("nonsym", build_4class_nonsymmetric))
    },
    **{
        f"4class-{kind}-2304": (lambda tw, b=b: b(*_deleted_twin(3)))
        for kind, b in (("sym", build_4class_symmetric), ("nonsym", build_4class_nonsymmetric))
    },
    **{
        f"5class-f{f}": (
            lambda tw, f=f: build_5class(
                tw.h,
                delete_allones_transform(tw.h, tw.reports[1]),
                [with_min_symbol(sq, 1) for sq in affine_ufs_family(9)][:f],
            )
        )
        for f in (2, 3, 8)
    },
    "6class-f2": lambda tw: build_6class(
        tw.h, tw.reports[1], [force_constant_diagonal(sq, 0) for sq in affine_ufs_family(7)][:2]
    ),
}
_EVERY_BUILD = {
    **_SPLIT_BUILDS,
    **{f"hamming{n}": (lambda tw, n=n: hamming_scheme(n)) for n in range(1, 9)},
    **{
        f"fusion{variant}-n{n}": (lambda tw, n=n, variant=variant: muzychuk_fusion(n, variant))
        for variant in ("01", "03")
        for n in (4, 6)
    },
}


def _deleted_twin(m):
    """Hadamard matrix of twin_sylvester(m) and the split left by deleting
    the all-ones row next to its first twin split."""
    tw = twin_sylvester(m)
    return tw.h, delete_allones_transform(tw.h, tw.reports[1])


@pytest.mark.parametrize("case", list(_EVERY_BUILD))
def test_built_scheme_equals_the_verified_scheme_of_its_matrices(case, twin16):
    """The dense verify_scheme of the formed classes is the reference: the
    same table and the same class of every cell. A split build holds its
    Kronecker form, and a Hamming or fusion build its class row, and neither
    forms a class-index array until colors is read."""
    scheme = _EVERY_BUILD[case](twin16)
    assert "matrices" not in vars(scheme) and "colors" not in vars(scheme)
    assert isinstance(scheme.cells, _KroneckerForm if case in _SPLIT_BUILDS else _TranslationForm)
    again = verify_scheme(scheme.matrices)
    assert "matrices" in vars(scheme) and scheme.matrices is scheme.matrices
    assert np.array_equal(again.colors, scheme.colors)
    assert (again.p, again.valencies, again.transpose_map) == (
        scheme.p,
        scheme.valencies,
        scheme.transpose_map,
    )
    assert again == scheme and hash(again) == hash(scheme)
    assert scheme.size == scheme.colors.shape[0]
    assert not scheme.colors.flags.writeable
    with pytest.raises(FrozenInstanceError):
        scheme.matrices = ()


def test_split_builders_form_no_v_by_v_array_or_product(kernel_calls, monkeypatch, twin16):
    """No split build calls the dense _verify_colors, and the operands of
    each kernel call hold fewer than v * v entries together."""

    def refuse(colors, d1):
        raise AssertionError("a split build reached _verify_colors")

    monkeypatch.setattr(hadsplit.schemes, "_verify_colors", refuse)
    for case, build in _SPLIT_BUILDS.items():
        kernel_calls.clear()
        scheme = build(twin16)
        assert kernel_calls, case
        assert max(math.prod(a) + math.prod(b) for a, b in kernel_calls) < scheme.size**2, case
        assert "colors" not in vars(scheme)


_TRANSLATION_BUILDS = {k: b for k, b in _EVERY_BUILD.items() if k not in _SPLIT_BUILDS}


def test_translation_builds_form_no_v_by_v_array_or_product(kernel_calls, monkeypatch, twin16):
    """No Hamming or fusion build calls the dense _verify_colors or the
    product kernel, or forms colors. At n = 12 (4096 points) the traced
    peak of a build stays below v * v bytes, one byte per cell: the
    "01" fusion's class 1 has valency 2015, and the gather over it runs in
    blocks."""

    def refuse(colors, d1):
        raise AssertionError("a translation build reached _verify_colors")

    monkeypatch.setattr(hadsplit.schemes, "_verify_colors", refuse)
    for case, build in _TRANSLATION_BUILDS.items():
        scheme = build(twin16)
        assert not kernel_calls, case
        assert "colors" not in vars(scheme), case
    for build in (lambda: hamming_scheme(12), lambda: muzychuk_fusion(12, "01")):
        tracemalloc.start()
        try:
            scheme = build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert scheme.size == 4096 and peak < scheme.size**2, peak
    assert not kernel_calls


def test_translation_schemes_compare_their_class_rows():
    """Two translation schemes compare their class rows, so no colors is
    formed; hamming_scheme(16)'s would take 4.3e9 cells. The two fusions at
    n = 4 share a table on different rows."""
    big = hamming_scheme(16)
    assert big == hamming_scheme(16) and big != hamming_scheme(15)
    assert "colors" not in vars(big)
    f01, f03 = muzychuk_fusion(4, "01"), muzychuk_fusion(4, "03")
    assert (f01.p, f01.valencies, f01.transpose_map) == (f03.p, f03.valencies, f03.transpose_map)
    assert f01 != f03 and f01 == muzychuk_fusion(4, "01")
    assert "colors" not in vars(f01) and "colors" not in vars(f03)


def test_scheme_equality_compares_the_classes(twin16):
    """The two deleted twin splits give 4-class schemes with one table on
    different cells: equal tables, unequal schemes."""
    a, b = (_EVERY_BUILD[f"4class-sym-twin{k}"](twin16) for k in (1, 2))
    assert (a.p, a.valencies, a.transpose_map) == (b.p, b.valencies, b.transpose_map)
    assert not np.array_equal(a.colors, b.colors)
    assert a != b and a == _EVERY_BUILD["4class-sym-twin1"](twin16)
    assert a != hamming_scheme(2) and a != "scheme"


def _cross_lift(h, rep, squares):
    aux = AuxiliarySet(h, rep)
    zero = np.zeros((squares[0].order * rep.params.n,) * 2, dtype=np.int64)
    return np.block(
        [
            [zero if a is b else lift_latin(compose_ufs(a, b), aux) for b in squares]
            for a in squares
        ]
    )


def _listed_classes(rep, copies, lifted, patterns=()):
    """The class list the builders once formed: I, I_c (x) A,
    I_c (x) (J - I - A), the positive and negative cells of the lift, and
    each block pattern (x) J_n."""
    n, adj = rep.params.n, rep.adjacency.array
    eye_c, eye_n, jn = np.eye(copies, dtype=np.int64), np.eye(n, dtype=np.int64), np.ones((n, n))
    mats = [np.kron(eye_c, eye_n), np.kron(eye_c, adj), np.kron(eye_c, jn - eye_n - adj)]
    mats += [lifted > 0, lifted < 0] + [np.kron(p, jn) for p in patterns]
    return tuple(IntMatrix(m.astype(np.int64)) for m in mats)


def test_matrices_are_the_classes_the_builders_listed(twin16, split_16_9, fam9):
    h = twin16.h
    lift = lift_latin(circle_symmetric(10), AuxiliarySet(h, split_16_9))
    below = np.kron(np.tri(10, k=-1, dtype=np.int64), np.ones((16, 16), dtype=np.int64))
    assert build_4class_symmetric(h, split_16_9).matrices == _listed_classes(split_16_9, 10, lift)
    signed = lift * (1 - 2 * below)
    assert build_4class_nonsymmetric(h, split_16_9).matrices == _listed_classes(
        split_16_9, 10, signed
    )
    off9 = np.kron(np.eye(2), np.ones((9, 9)) - np.eye(9))
    assert build_5class(h, split_16_9, fam9[:2]).matrices == _listed_classes(
        split_16_9, 18, _cross_lift(h, split_16_9, fam9[:2]), [off9]
    )
    rep6 = twin16.reports[1]
    sq7 = [force_constant_diagonal(sq, 0) for sq in affine_ufs_family(7)][:2]
    eye2, eye7 = np.eye(2), np.eye(7)
    patterns = [np.kron(eye2, np.ones((7, 7)) - eye7), np.kron(np.ones((2, 2)) - eye2, eye7)]
    assert build_6class(h, rep6, sq7).matrices == _listed_classes(
        rep6, 14, _cross_lift(h, rep6, sq7), patterns
    )


def test_verify_colors_refuses_an_index_outside_the_classes():
    colors = hamming_scheme(3).colors.astype(np.int64)
    for bad in (4, 200, -1):
        c = colors.copy()
        c[0, 5] = bad
        with pytest.raises(AxiomFailure, match="classes do not partition the cells"):
            _verify_colors(c, 4)
    c = colors.copy()
    c[0, 5] = 0
    with pytest.raises(AxiomFailure, match="first class is not the identity"):
        _verify_colors(c, 4)
    assert _verify_colors(colors.copy(), 4) == hamming_scheme(3)


@st.composite
def _class_rows(draw):
    """A class count d1 and a row of class indices on Z_2^n, n <= 4: a random
    fusion of the Hamming distances or a random row, with row[0] = 0 and the
    rest in 1..d1-1. One draw in three then sets one entry to any index in
    -1..d1, which can break the identity or the partition."""
    n, d1 = draw(st.integers(1, 4)), draw(st.integers(2, 6))
    v, nonzero = 1 << n, st.integers(1, d1 - 1)
    if draw(st.booleans()):
        group = [0] + draw(st.lists(nonzero, min_size=n, max_size=n))
        row = np.array(group)[hamming_scheme(n).cells.row]
    else:
        row = np.array([0] + draw(st.lists(nonzero, min_size=v - 1, max_size=v - 1)))
    if draw(st.integers(0, 2)) == 0:
        row[draw(st.integers(0, v - 1))] = draw(st.integers(-1, d1))
    return row, d1


def _same_verdict(check, reference):
    """check() accepts with reference()'s table and colors, or refuses with
    its message."""
    try:
        want = reference()
    except AxiomFailure as exc:
        with pytest.raises(AxiomFailure) as got:
            check()
        assert str(got.value) == str(exc)
        return
    got = check()
    tables = [(s.p, s.valencies, s.transpose_map) for s in (got, want)]
    assert tables[0] == tables[1]
    assert np.array_equal(got.colors, want.colors)


@settings(max_examples=300, deadline=None)
@given(case=_class_rows())
def test_translation_verdicts_match_the_dense_check(case):
    """_verify_translation on a class row judges the classes row[x ^ y] as
    the dense checks judge the formed classes: verify_scheme of the class
    matrices when every index lies in 0..d1-1, and _verify_colors of the
    class-index array always. Most rows are not schemes."""
    row, d1 = case
    colors = row[np.bitwise_xor.outer(np.arange(len(row)), np.arange(len(row)))]

    def check():
        return _verify_translation(row.copy(), d1)

    _same_verdict(check, lambda: _verify_colors(colors.copy(), d1))
    if 0 <= row.min() and row.max() < d1:
        _same_verdict(check, lambda: verify_scheme(_classes_from(colors, d1)))


def test_an_overlap_or_a_gap_in_an_assembly_is_refused(twin16, split_16_9, fam9):
    """Every cell of a pattern that covers whole rows of blocks overlaps
    another class; a 5-class cross lift assembled with no block pattern
    leaves the zero blocks of its squares' diagonal cells uncovered."""
    aux = AuxiliarySet(twin16.h, split_16_9)
    lift = _ufs_cross_lift(split_16_9, fam9[:2], 1)
    overlap = np.kron(np.eye(2), np.ones((9, 9)))
    for patterns in ([overlap], []):
        with pytest.raises(AxiomFailure, match="classes do not partition the cells"):
            _verify_blocks(_assemble_blocks(aux, lift, patterns))


def _dense_classes(form):
    """The 0/1 v x v classes of a Kronecker form, block by block."""
    blocks = form._rows(np.arange(form.n))
    m, n = form.grids.shape[1], form.n
    return [IntMatrix(blocks[g].transpose(0, 2, 1, 3).reshape(m * n, m * n)) for g in form.grids]


def _edited(grid, cells, value):
    out = grid.copy()
    out[tuple(zip(*cells))] = value
    return out


# Block grids on the (16, 9, 1, -3) split, each with the dense verdict it
# must share: the lift of the one-factorization square, plain and negated
# below the diagonal; symbol 1 in every lift cell (A_3^2 has P_1 on the
# diagonal blocks); one lift cell negated (its transpose lies in the other
# lift class); and two transposed cells emptied and covered by a block
# pattern (rows 0 and 1 of the lift classes have one block fewer).
_CIRCLE = np.array(circle_symmetric(10).cells)
_BLOCK_CASES = {
    "symmetric": (_CIRCLE, [], None),
    "signed": (_CIRCLE * (1 - 2 * np.tri(10, k=-1, dtype=int)), [], None),
    "one-symbol": (1 - np.eye(10, dtype=int), [], "product of classes 3, 3 leaves the algebra"),
    "one-cell-negated": (
        _edited(_CIRCLE, [(0, 1)], -_CIRCLE[0, 1]),
        [],
        "transpose of class 3 is not a class",
    ),
    "pattern-cells": (
        _edited(_CIRCLE, [(0, 1), (1, 0)], 0),
        [_edited(np.zeros((10, 10), dtype=int), [(0, 1), (1, 0)], 1)],
        "class 3 is not regular",
    ),
}


@pytest.mark.parametrize("case", list(_BLOCK_CASES))
def test_block_verdicts_match_the_dense_check(case, twin16, split_16_9):
    """_verify_blocks accepts a grid with verify_scheme's table and colors,
    or refuses it with verify_scheme's message, on the dense classes."""
    lift, patterns, message = _BLOCK_CASES[case]
    form = _assemble_blocks(AuxiliarySet(twin16.h, split_16_9), lift, patterns)
    mats = _dense_classes(form)
    if message is None:
        assert _verify_blocks(form) == verify_scheme(mats)  # tables and colors
        return
    for check in (lambda: _verify_blocks(form), lambda: verify_scheme(mats)):
        with pytest.raises(AxiomFailure) as exc:
            check()
        assert str(exc.value) == message


def _with_columns(h, arr):
    """A HadamardMatrix of h's order from arr, the columns of h changed."""
    out = HadamardMatrix(arr)
    assert out.order == h.order and not np.array_equal(out.array, h.array)
    return out


@pytest.mark.parametrize("builder", [build_4class_symmetric, build_4class_nonsymmetric])
def test_a_report_not_of_h_is_refused(builder, twin16, split_16_9):
    """The (16, 9, 1, -3) report read against h with its columns rotated by
    one, whose split Gram is another graph, and against h with one column
    negated, whose split Gram takes -1 and 3 in that column. The dense
    check refused them as "product of classes 1, 3 leaves the algebra" and
    "class 3 is not regular". Reversing the columns is an automorphism of
    the graph, so that copy still gives a scheme."""
    arr = twin16.h.array
    negated = arr.copy()
    negated[:, 5] *= -1
    for other in (np.roll(arr, 1, axis=1), negated):
        with pytest.raises(AxiomFailure, match="split Gram of h does not give the report's graph"):
            builder(HadamardMatrix(other), split_16_9)
    reversed_scheme = builder(HadamardMatrix(arr[:, ::-1]), split_16_9)
    assert reversed_scheme.p == builder(twin16.h, split_16_9).p


def test_split_rows_that_do_not_sum_to_zero_are_refused(twin16):
    """The (16, 4, 4, 0) report of h, whose split rows do not sum to zero,
    with its rowsum_zero check forged: its graph matches h's split Gram, but
    J P_s = 0 fails, and the Kronecker form refuses it."""
    rep = twin16.reports[0]
    assert rep.params.astuple() == (16, 4, 4, 0) and not rep.checks["rowsum_zero"]
    forged = dataclasses.replace(rep, checks={**rep.checks, "rowsum_zero": True})
    squares = [with_min_symbol(sq, 1) for sq in affine_ufs_family(4)]
    with pytest.raises(AxiomFailure, match="split rows of h do not sum to zero"):
        build_5class(twin16.h, forged, squares)


def test_34816_point_scheme_of_the_order_256_split():
    """build_4class_symmetric on the (256, 135, 7, -9) split left by deleting
    the all-ones row of twin_sylvester(4): 136 x 136 blocks of order 256.
    Its class-index array alone would take 2.4 GB, and it is never formed.
    Budget: the build and eigenmatrices take about 1 s on a 2-core host;
    the test allows 30 s."""
    start = time.perf_counter()
    h, rep = _deleted_twin(4)
    assert rep.params.astuple() == (256, 135, 7, -9)
    scheme = build_4class_symmetric(h, rep)
    tables = eigenmatrices(scheme)
    assert time.perf_counter() - start < 30
    assert scheme.size == 34816
    assert scheme.valencies == (1, 135, 120, 17280, 17280)
    assert scheme.is_symmetric
    assert sum(tables.multiplicities) == 34816
    assert tables.multiplicities == (1, 16320, 9180, 9180, 135)
    assert "colors" not in vars(scheme)


# ------------------------------------------------------------ eigenmatrices


def test_eigenmatrices_order_two():
    et = eigenmatrices(hamming_scheme(1))
    assert table_as_ints(et.p) == ((1, 1), (1, -1))
    assert table_as_ints(et.q) == ((1, 1), (1, -1))
    assert et.multiplicities == (1, 1)


def test_eigenmatrices_pentagon_is_irrational():
    c5 = IntMatrix([[1 if (i - j) % 5 in (1, 4) else 0 for j in range(5)] for i in range(5)])
    comp = IntMatrix([[1 if (i - j) % 5 in (2, 3) else 0 for j in range(5)] for i in range(5)])
    sch = verify_scheme([IntMatrix.identity(5), c5, comp])
    assert sch.valencies == (1, 2, 2)
    with pytest.raises(IrrationalEigenvalue):
        eigenmatrices(sch)


def test_eigenmatrices_cubic_characters_leave_a_three_dimensional_space():
    """The symmetric 3-class scheme of Z_7 has characters 2 cos(2 pi k / 7),
    roots of a cubic: no integer eigenvalue splits their common
    three-dimensional space, and the exact splitting gives up on it."""
    sch = _cyclic_scheme(7, [{0}, {1, 6}, {2, 5}, {3, 4}])
    assert sch.valencies == (1, 2, 2, 2)
    with pytest.raises(IrrationalEigenvalue) as info:
        eigenmatrices(sch)
    assert str(info.value) == "cannot separate a subspace of dimension > 2"


@pytest.mark.parametrize("case", list(_BUILT_SCHEMES))
def test_eigenmatrices_give_primitive_idempotents(case, built_schemes):
    sch = built_schemes[case]
    _assert_primitive_idempotents(sch, eigenmatrices(sch))


@pytest.mark.parametrize("case", list(_BUILT_SCHEMES))
def test_eigenmatrix_rows_are_characters(case, built_schemes):
    """The reference for what eigenmatrices reads off each common left
    eigenvector: theta_0 = 1 and theta_i theta_j = sum_k p_ij^k theta_k."""
    sch = built_schemes[case]
    d1 = sch.classes + 1
    zero = GaussianRational(0)
    for row in eigenmatrices(sch).p:
        assert row[0] == 1
        for i in range(d1):
            for j in range(d1):
                want = sum((sch.p[i][j][k] * row[k] for k in range(d1)), zero)
                assert row[i] * row[j] == want, (row, i, j)


def _row_sum_bound(m):
    """max_r sum_c |m_rc|, which no eigenvalue of m exceeds in absolute value."""
    return max(sum(abs(x) for x in row) for row in m)


def _kernel_roots(m, bound):
    """Reference: theta is an integer eigenvalue of m exactly when
    m - theta I has a nonzero exact kernel."""
    s = len(m)
    return [
        theta
        for theta in range(-bound, bound + 1)
        if fraction_nullspace([[m[r][c] - (theta if r == c else 0) for c in range(s)] for r in range(s)])
    ]


# sha256 of repr(eigenmatrices(...)) per built scheme, recorded when the
# non-real plane of the 4-class non-symmetric scheme was still split by an
# elimination over Q(i); reading the kernel off a row must give the same
# tables, entries, order and multiplicities.
_EIGENMATRIX_REPR_SHA256 = {
    "4class-sym": "24278be43eda61f8b3bfe947da3569e29aa200645a6a504fa0a01ff3a338d9db",
    "4class-nonsym": "68257a86831e43b79645cdab55f10fe196633bca46a32f5143667b3bddda4ada",
    "5class-f2": "75e52fbd11f0bc03f6e106623eaa3750a816b3a32b94e6fc7f7856623179b19a",
    "6class-f2": "cbed51d3ab7b5a119ae78fe979ac378c807b88d5e14a2a516b9eef57ecf3ff2f",
    "hamming3": "94fe4a1cfda2ab94187598d69254da93bf7dd61d859d1b27121f01ed4708d759",
    "hamming4": "bf01d0cdd1ceff7dd01fce67a363ee344f394e6aaee67b72982f51319a1db4d4",
    "hamming5": "fb1058ceff239419a0daa91b74cbe1b508f2d8bc44555d10c82ae6efc8a2f081",
    "hamming6": "7cf045111c52d30e21b3df04a4296195c7b39d7793bc839e13fcedfca22a42d6",
    "fusion01": "8a6fa28d6f48563548745be65e8eb0d6d887af55a868dc977e2df30e65f69766",
    "fusion03": "341c3cc4343a68803b1b77eed73246a04bf11abe5b0fcafbc010cf7f39b7f9c9",
}


@pytest.mark.parametrize("case", list(_BUILT_SCHEMES))
def test_eigenmatrices_repr_is_unchanged(case, built_schemes):
    got = repr(eigenmatrices(built_schemes[case]))
    assert hashlib.sha256(got.encode()).hexdigest() == _EIGENMATRIX_REPR_SHA256[case]


def _sqrt_fraction(fr):
    if fr < 0:
        return None
    num = isqrt_exact(fr.numerator)
    den = isqrt_exact(fr.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _coords_in_basis(basis, vecs):
    s = len(basis)
    rows = [
        [basis[t][r] for t in range(s)] + [vec[r] for vec in vecs] for r in range(len(basis[0]))
    ]
    red, piv = rref(rows)
    if list(piv) != list(range(s)):
        raise HadsplitError("vectors leave the subspace")
    return [[red[t][s + idx] for t in range(s)] for idx in range(len(vecs))]


def _restricted_matrix(bmat, basis):
    cols = _coords_in_basis(basis, [mat_vec(bmat, v) for v in basis])
    s = len(basis)
    return [[cols[c][r] for c in range(s)] for r in range(s)]


def _combine(basis, coeffs):
    out = []
    for r in range(len(basis[0])):
        acc = coeffs[0] * basis[0][r]
        for t in range(1, len(basis)):
            acc = acc + coeffs[t] * basis[t][r]
        out.append(acc)
    return out


def _split_fraction(basis, bmat, roots):
    s = len(basis)
    t = _restricted_matrix(bmat, basis)
    found = []
    used = 0
    for theta in roots:
        if used == s:
            break
        m = [[t[r][c] - (theta if r == c else 0) for c in range(s)] for r in range(s)]
        ker = fraction_nullspace(m)
        if ker:
            found.append((m, ker))
            used += len(ker)
    pieces = [[_combine(basis, c) for c in ker] for _, ker in found]
    if used < s:
        prod = [[Fraction(int(r == c)) for c in range(s)] for r in range(s)]
        for m, _ in found:
            prod = mat_mul(prod, m)
        red, piv = rref([list(col) for col in zip(*prod)])
        pieces.append([_combine(basis, list(red[i])) for i in range(len(piv))])
    return pieces


def _split_complex_pair_fraction(basis, bmat):
    t = _restricted_matrix(bmat, basis)
    tr = t[0][0] + t[1][1]
    disc = tr * tr - 4 * (t[0][0] * t[1][1] - t[0][1] * t[1][0])
    if disc == 0:
        return None
    if disc > 0:
        root = _sqrt_fraction(Fraction(disc))
        if root is None:
            raise IrrationalEigenvalue(f"discriminant {disc} is not a square")
        eigs = [Fraction(tr + root, 2), Fraction(tr - root, 2)]
    else:
        root = _sqrt_fraction(Fraction(-disc))
        if root is None:
            raise IrrationalEigenvalue(f"discriminant {disc} is not minus a square")
        eigs = [GaussianRational(Fraction(tr, 2), s * root / 2) for s in (1, -1)]
    pieces = []
    for lam in eigs:
        r0, r1 = next(r for r in ([t[0][0] - lam, t[0][1]], [t[1][0], t[1][1] - lam]) if any(r))
        pieces.append([_combine(basis, [-r1, r0])])
    return pieces


def _eigenmatrices_fraction_reference(scheme):
    """eigenmatrices as it was with Fraction bases: coordinates of the
    images in each basis by rref, the restricted matrix, and Fraction
    combinations of the basis vectors."""
    d1 = scheme.classes + 1
    val = scheme.valencies
    subspaces = [[[Fraction(int(r == c)) for r in range(d1)] for c in range(d1)]]
    for i in range(1, d1):
        if len(subspaces) == d1:
            break
        roots = _integer_roots(scheme.p[i], val[i])
        nxt = []
        for basis in subspaces:
            if len(basis) == 1:
                nxt.append(basis)
            else:
                nxt.extend(_split_fraction(basis, scheme.p[i], roots))
        subspaces = nxt
    settled = [b for b in subspaces if len(b) == 1]
    pending = [b for b in subspaces if len(b) > 1]
    while pending:
        basis = pending.pop()
        if len(basis) != 2:
            raise IrrationalEigenvalue("cannot separate a subspace of dimension > 2")
        for i in range(1, d1):
            pieces = _split_complex_pair_fraction(basis, scheme.p[i])
            if pieces is not None:
                settled.extend(pieces)
                break
        else:
            raise HadsplitError("eigenspaces are not separated by the classes")
    if len(settled) != d1:
        raise HadsplitError("eigenspace count mismatch")
    rows = [tuple(GaussianRational._coerce(x / vec[0]) for x in vec) for (vec,) in settled]
    val_row = tuple(GaussianRational(v) for v in val)
    try:
        lead = rows.index(val_row)
    except ValueError:
        raise HadsplitError("no eigenspace carries the valencies") from None
    first = rows.pop(lead)
    rows.sort(key=lambda row: tuple(e.sort_key() for e in row))
    p_rows = [first] + rows
    size = scheme.size
    mults = []
    for row in p_rows:
        m = size / sum(((e * e.conjugate()).re / k for e, k in zip(row, val)), Fraction(0))
        if m.denominator != 1 or m <= 0:
            raise HadsplitError(f"multiplicity {m} is not a positive integer")
        mults.append(int(m))
    if sum(mults) != size:
        raise HadsplitError("multiplicities do not sum to the point count")
    q_rows = tuple(
        tuple(mults[j] * p_rows[j][i].conjugate() / val[i] for j in range(d1)) for i in range(d1)
    )
    return EigenTables(p=tuple(p_rows), q=q_rows, multiplicities=tuple(mults), size=size)


def _outcome(compute, scheme):
    try:
        return repr(compute(scheme))
    except HadsplitError as exc:
        return (type(exc), str(exc))


def _petersen_scheme():
    """Petersen graph: 2-subsets of 5 points, adjacent when disjoint; its Q
    has non-integral entries such as 5/3."""
    pairs = [(a, b) for a in range(5) for b in range(a + 1, 5)]
    meet = np.array([[len(set(x) & set(y)) for y in pairs] for x in pairs])
    return verify_scheme([IntMatrix(meet == t) for t in (2, 0, 1)])


# Schemes beyond the built ones, for the comparison with the reference.
_MORE_SCHEMES = {
    "petersen": _petersen_scheme,
    **{f"hamming{n}": (lambda n=n: hamming_scheme(n)) for n in (1, 2, 7, 8)},
    **{f"fusion4-{v}": (lambda v=v: muzychuk_fusion(4, v)) for v in ("01", "03")},
    **_CYCLIC_SCHEMES,
}


def _scheme_for(case, built_schemes):
    return built_schemes[case] if case in built_schemes else _MORE_SCHEMES[case]()


@pytest.mark.parametrize("case", list(_BUILT_SCHEMES) + list(_MORE_SCHEMES))
def test_eigenmatrices_match_the_fraction_reference(case, built_schemes):
    """The integer-basis splits give the tables of the Fraction-basis
    splits, to the repr, and the same exception type and message where
    the algebra needs more than Q(i)."""
    sch = _scheme_for(case, built_schemes)
    want = _outcome(_eigenmatrices_fraction_reference, sch)
    assert _outcome(eigenmatrices, sch) == want


# Schemes with a character outside Z[i], where the float proposal must be
# declined and the exact splitting raises IrrationalEigenvalue.
_DECLINED_PROPOSALS = {"pentagon", "z3-directed", "z12"}


def _patched_eigs(rng):
    """Replacements for np.linalg.eig, by name: each returns the true
    eigenvalues with shuffled, rescaled, perturbed or garbage vectors, or
    raises LinAlgError."""
    eig = np.linalg.eig

    def raises(m):
        raise np.linalg.LinAlgError("patched")

    def shuffled(m):
        w, v = eig(m)
        perm = rng.permutation(len(w))
        return w[perm], v[:, perm]

    def rescaled(m):
        w, v = eig(m)
        return w, v * (rng.uniform(0.5, 2, len(w)) * np.exp(1j * rng.uniform(0, 6, len(w))))

    def perturbed(m):
        w, v = eig(m)
        return w, v + 1e-10 * rng.standard_normal(v.shape)

    def far(m):
        w, v = eig(m)
        return w, v + 0.3 * rng.standard_normal(v.shape)

    def garbage(m):
        return np.zeros(len(m)), rng.standard_normal(m.shape) * 10

    def repeated(m):
        w, v = eig(m)
        return w, v[:, [0] * len(w)]

    def zero_lead(m):
        w, v = eig(m)
        v = v.copy()
        v[0] = 0
        return w, v

    def nan(m):
        return np.full(len(m), np.nan), np.full(m.shape, np.nan)

    fakes = (raises, shuffled, rescaled, perturbed, far, garbage, repeated, zero_lead, nan)
    return {f.__name__: f for f in fakes}


@pytest.mark.parametrize("case", list(_BUILT_SCHEMES) + list(_MORE_SCHEMES))
def test_eigenmatrices_do_not_depend_on_the_float_proposal(case, built_schemes, monkeypatch):
    """Floats only propose the rows of P, and an exact check proves them:
    whatever np.linalg.eig returns, eigenmatrices gives the same tables, or
    the same exception and message. The true proposal is accepted exactly
    where every character lies in Z[i]; a failing one is declined."""
    sch = _scheme_for(case, built_schemes)
    want = _outcome(eigenmatrices, sch)

    def propose(s):
        return hadsplit.exactla._gaussian_characters(s.p, s.valencies)

    assert (propose(sch) is None) == (case in _DECLINED_PROPOSALS)
    for name, fake in _patched_eigs(np.random.default_rng(7)).items():
        monkeypatch.setattr(np.linalg, "eig", fake)
        if name in ("shuffled", "rescaled", "perturbed"):
            assert (propose(sch) is None) == (case in _DECLINED_PROPOSALS), name
        if name in ("raises", "zero_lead", "nan") or (name == "repeated" and sch.classes):
            assert propose(sch) is None, name
        assert _outcome(eigenmatrices, sch) == want, name


@pytest.mark.parametrize(
    "case", [c for c in list(_BUILT_SCHEMES) + list(_MORE_SCHEMES) if c not in _DECLINED_PROPOSALS]
)
def test_splitting_and_proposal_give_characters_in_one_format(case, built_schemes):
    """The exact splitting hands back what an accepted proposal does: the
    characters as integer (real parts, imaginary parts) with theta_0 = 1."""
    sch = _scheme_for(case, built_schemes)
    proposed = hadsplit.exactla._gaussian_characters(sch.p, sch.valencies)
    split = hadsplit.exactla._split_eigenspaces(sch.p, sch.valencies)
    assert sorted(split) == sorted(proposed)
    assert all(re[0] == 1 and im[0] == 0 for re, im in split)


def test_split_returns_primitive_pieces_from_any_basis():
    """X c is made primitive: on the invariant plane span(e0 + e1, e0 - e1)
    of diag(1, 2, 3), the 1-eigenspace is X (1, 1) = (2, 0, 0), returned as
    e0."""
    bmat = [[1, 0, 0], [0, 2, 0], [0, 0, 3]]
    split = hadsplit.exactla._split_by_integer_eigenvalues
    first, second = split([[1, 1, 0], [1, -1, 0]], bmat, [1, 2, 3])
    assert first == [[1, 0, 0]]
    assert second in ([[0, 1, 0]], [[0, -1, 0]])


@pytest.mark.parametrize(
    "case,message",
    [
        ("pentagon", "discriminant 5 is not a square"),
        ("z3-directed", "discriminant -3 is not minus a square"),
        ("z12", "discriminant 12 is not a square"),
    ],
)
def test_irrational_plane_message_does_not_depend_on_its_basis(case, message, monkeypatch):
    """The discriminant is read off det(M) T for a 2 x 2 minor M of the
    basis and divided by det(M)^2; with the basis (u + v, u - v) every minor
    doubles, and the message must not change."""
    seen = []
    pair = hadsplit.exactla._split_complex_pair

    def recording(basis, bmat):
        seen.append((basis, bmat))
        return pair(basis, bmat)

    monkeypatch.setattr(hadsplit.exactla, "_split_complex_pair", recording)
    with pytest.raises(IrrationalEigenvalue) as info:
        eigenmatrices(_CYCLIC_SCHEMES[case]())
    assert str(info.value) == message
    (u, v), bmat = seen[-1]
    with pytest.raises(IrrationalEigenvalue) as again:
        pair([[a + b for a, b in zip(u, v)], [a - b for a, b in zip(u, v)]], bmat)
    assert str(again.value) == message


def test_plane_with_two_rational_eigenvalues_is_an_internal_error():
    """eigenmatrices never hands over such a plane: both eigenvalues would
    be integers, and the integer splits have already separated them."""
    with pytest.raises(HadsplitError, match="two rational eigenvalues"):
        hadsplit.exactla._split_complex_pair([[1, 0], [0, 1]], [[1, 0], [0, 2]])
    assert len(hadsplit.exactla._split_complex_pair([[1, 0], [0, 1]], [[0, -1], [1, 0]])) == 2


def test_eigenmatrices_petersen_tables():
    et = eigenmatrices(_petersen_scheme())
    assert et.multiplicities == (1, 4, 5)
    assert table_as_ints(et.p) == ((1, 3, 6), (1, -2, 1), (1, 1, -2))
    assert repr(et.q) == "((1, 4, 5), (1, -8/3, 5/3), (1, 2/3, -5/3))"


def test_eigenmatrices_gaussian_cyclic_tables():
    z4 = eigenmatrices(_CYCLIC_SCHEMES["z4"]())
    assert z4.multiplicities == (1, 1, 1, 1)
    assert {row[1] for row in z4.p} == {GaussianRational(1), GaussianRational(-1), _i(1), _i(-1)}
    # the characters j and j + 4 of Z_8 agree on every class unless j = 0, 4
    z8 = eigenmatrices(_CYCLIC_SCHEMES["z8"]())
    assert sorted(z8.multiplicities) == [1, 1, 2, 2, 2]
    assert sorted(map(repr, (row[1] for row in z8.p))) == ["-1", "-1i", "1", "1", "1i"]
    assert eigenmatrices(_CYCLIC_SCHEMES["one-point"]()).p == ((GaussianRational(1),),)


def test_real_table_entries_hash_as_their_numbers():
    # a set of entries finds the int keys its members equal
    entries = {row[1] for row in eigenmatrices(_CYCLIC_SCHEMES["z4"]()).p}
    assert 1 in entries and -1 in entries
    assert entries == {1, -1, _i(1), _i(-1)}
    assert {1: "one"}[GaussianRational(1)] == "one"


@pytest.mark.parametrize("case", list(_BUILT_SCHEMES))
def test_eigenmatrices_take_one_nullspace_per_root(case, built_schemes, monkeypatch):
    """Each subspace split of the exact splitting, which eigenmatrices runs
    when it declines the float proposal, takes at most one exact kernel (an
    integer `_kernel_int` call) per integer eigenvalue of the splitting
    class, also where a leftover plane has the non-real eigenvalues of the
    4-class non-symmetric scheme."""
    sch = built_schemes[case]
    calls = []
    splits = []
    kernel = hadsplit.exactla._kernel_int
    split = hadsplit.exactla._split_by_integer_eigenvalues

    def counting(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    def recording(basis, bmat, *rest):
        before = len(calls)
        pieces = split(basis, bmat, *rest)
        splits.append((bmat, len(calls) - before))
        return pieces

    monkeypatch.setattr(hadsplit.exactla, "_kernel_int", counting)
    monkeypatch.setattr(hadsplit.exactla, "_split_by_integer_eigenvalues", recording)
    hadsplit.exactla._split_eigenspaces(sch.p, sch.valencies)
    assert splits
    for bmat, taken in splits:
        assert taken <= len(_kernel_roots(bmat, _row_sum_bound(bmat)))


def _assert_primitive_int_basis(basis):
    assert basis
    for vec in basis:
        assert all(type(x) is int for x in vec), vec
        assert math.gcd(*vec) == 1, vec


@pytest.mark.parametrize("case", list(_BUILT_SCHEMES) + ["z4", "z8", "pentagon", "z12"])
def test_eigenmatrices_split_primitive_integer_bases(case, built_schemes, monkeypatch):
    """Every basis that reaches a split of the exact splitting, and every
    piece a split returns (the non-real lines as integer real and imaginary
    parts), is made of primitive Python-int vectors."""
    sch = _scheme_for(case, built_schemes)
    seen = []
    split = hadsplit.exactla._split_by_integer_eigenvalues
    pair = hadsplit.exactla._split_complex_pair

    def recording(basis, bmat, roots):
        _assert_primitive_int_basis(basis)
        pieces = split(basis, bmat, roots)
        for piece in pieces:
            _assert_primitive_int_basis(piece)
        seen.append(len(basis))
        return pieces

    def recording_pair(basis, bmat):
        _assert_primitive_int_basis(basis)
        pieces = pair(basis, bmat)
        for re, im in pieces or ():
            assert all(type(x) is int for x in re + im)
        seen.append(len(basis))
        return pieces

    monkeypatch.setattr(hadsplit.exactla, "_split_by_integer_eigenvalues", recording)
    monkeypatch.setattr(hadsplit.exactla, "_split_complex_pair", recording_pair)
    try:
        hadsplit.exactla._split_eigenspaces(sch.p, sch.valencies)
    except IrrationalEigenvalue:
        pass
    assert seen


@pytest.mark.parametrize("case", ["4class-nonsym", "6class-f2", "hamming6", "petersen"])
def test_eigenmatrices_build_fractions_only_for_table_entries(case, built_schemes):
    """Under cProfile, every Fraction that eigenmatrices builds comes from
    a final P or Q entry: Fraction.__new__ is called only by the generator
    expressions that build the tables and by the GaussianRational they
    build, and nothing else builds one."""
    sch = _scheme_for(case, built_schemes)
    prof = cProfile.Profile()
    prof.runcall(eigenmatrices, sch)
    stats = pstats.Stats(prof).stats

    def callers(name, filename):
        return {
            (os.path.basename(caller[0]), caller[2])
            for func, (*_, by) in stats.items()
            if func[2] == name and func[0].endswith(filename)
            for caller in by
        }

    tables = ("schemes.py", "<genexpr>")
    assert callers("__new__", "fractions.py") <= {("exactla.py", "__init__"), tables}
    assert callers("__init__", "exactla.py") <= {tables}


@pytest.mark.parametrize("case", list(_BUILT_SCHEMES))
def test_integer_roots_match_kernels_on_intersection_matrices(case, built_schemes):
    """[-k_i, k_i] holds every integer eigenvalue of B_i, (B_i)_mk = p_ik^m."""
    sch = built_schemes[case]
    d1 = sch.classes + 1
    for i in range(1, d1):
        bmat = [[sch.p[i][k][m] for k in range(d1)] for m in range(d1)]
        want = _kernel_roots(bmat, _row_sum_bound(bmat))
        assert _integer_roots(bmat, sch.valencies[i]) == want


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda s: st.lists(
            st.lists(st.integers(-3, 3), min_size=s, max_size=s), min_size=s, max_size=s
        )
    )
)
def test_integer_roots_match_kernels_on_random_matrices(m):
    bound = _row_sum_bound(m)
    assert _integer_roots(m, bound) == _kernel_roots(m, bound)


# --------------------------------------------------------- named schemes


def test_hamming_4():
    sch = hamming_scheme(4)
    assert sch.size == 16
    assert sch.valencies == (1, 4, 6, 4, 1)
    et = eigenmatrices(sch)
    assert et.multiplicities == (1, 1, 4, 6, 4)
    assert table_as_ints(et.p) == (
        (1, 4, 6, 4, 1),
        (1, -4, 6, -4, 1),
        (1, -2, 0, 2, -1),
        (1, 0, -2, 0, 1),
        (1, 2, 0, -2, -1),
    )
    assert table_as_ints(et.q) == (
        (1, 1, 4, 6, 4),
        (1, -1, -2, 0, 2),
        (1, 1, 0, -2, 0),
        (1, -1, 2, 0, -2),
        (1, 1, -4, 6, -4),
    )


def test_hamming_8_has_binomial_multiplicities():
    sch = hamming_scheme(8)
    binomials = (1, 8, 28, 56, 70, 56, 28, 8, 1)
    assert sch.valencies == binomials
    assert sch.transpose_map == tuple(range(9))
    et = eigenmatrices(sch)
    assert et.multiplicities == (1, 1, 8, 28, 56, 70, 56, 28, 8)
    assert sorted(et.multiplicities) == sorted(binomials)


def _krawtchouk(n, i, j):
    return sum((-1) ** s * math.comb(j, s) * math.comb(n - j, i - s) for s in range(i + 1))


@pytest.mark.parametrize("n", range(1, 13))
def test_hamming_eigenmatrices_are_the_krawtchouk_values(n):
    """The eigenspace of Z_2^n's characters of weight j gives the P row
    K_0(j), ..., K_n(j), K_i(j) = sum_s (-1)^s C(j, s) C(n - j, i - s), with
    multiplicity C(n, j); the first row is j = 0, the valencies."""
    tables = eigenmatrices(hamming_scheme(n))
    rows = table_as_ints(tables.p)
    want = {tuple(_krawtchouk(n, i, j) for i in range(n + 1)): math.comb(n, j) for j in range(n + 1)}
    assert dict(zip(rows, tables.multiplicities)) == want and len(rows) == n + 1
    assert rows[0] == tuple(math.comb(n, i) for i in range(n + 1))


def test_hamming_distance_one_diagonalized_by_sylvester():
    sch = hamming_scheme(4)
    layout = diagonalize_by_hadamard(sch.matrices[1], sylvester(4))
    assert layout.multiplicities == {4: 1, 2: 4, 0: 6, -2: 4, -4: 1}


def _hamming_classes_by_kron(n):
    """Distance classes by the tensor recursion on word length:
    A_k(n) = A_k(n-1) (x) I_2 + A_(k-1)(n-1) (x) (J_2 - I_2)."""
    base = [np.eye(2, dtype=np.int64), np.array([[0, 1], [1, 0]], dtype=np.int64)]
    mats = list(base)
    for _ in range(n - 1):
        prev = mats
        top = len(prev)
        nxt = []
        for i in range(top + 1):
            order = prev[0].shape[0] * 2
            acc = np.zeros((order, order), dtype=np.int64)
            if i < top:
                acc += np.kron(prev[i], base[0])
            if 0 <= i - 1 < top:
                acc += np.kron(prev[i - 1], base[1])
            nxt.append(acc)
        mats = nxt
    return mats


@pytest.mark.parametrize("n", range(1, 10))
def test_hamming_classes_match_the_kron_recursion(n):
    got = [m.array for m in hamming_scheme(n).matrices]
    want = _hamming_classes_by_kron(n)
    assert len(got) == len(want) == n + 1
    for k, (a, b) in enumerate(zip(got, want)):
        assert np.array_equal(a, b), k


def test_hamming_rejects_zero():
    with pytest.raises(ValueError):
        hamming_scheme(0)


@pytest.mark.parametrize(
    "n,variant,first,second",
    [
        (4, "01", (16, 5, 0, 2), (16, 10, 6, 6)),
        (4, "03", (16, 5, 0, 2), (16, 10, 6, 6)),
        (6, "01", (64, 27, 10, 12), (64, 36, 20, 20)),
        (6, "03", (64, 35, 18, 20), (64, 28, 12, 12)),
    ],
)
def test_muzychuk_fusions(n, variant, first, second):
    sch = muzychuk_fusion(n, variant)
    assert sch.classes == 2
    v = sch.size
    assert (v, sch.valencies[1], sch.p[1][1][1], sch.p[1][1][2]) == first
    assert (v, sch.valencies[2], sch.p[2][2][2], sch.p[2][2][1]) == second
    srg = direct_srg_params(sch.matrices[1])
    assert srg is not None
    assert srg.astuple() == first


def test_muzychuk_rejects_bad_input():
    with pytest.raises(ValueError):
        muzychuk_fusion(4, "02")
    with pytest.raises(ValueError):
        muzychuk_fusion(1, "01")
    with pytest.raises(ValueError):
        muzychuk_fusion(2, "03")
