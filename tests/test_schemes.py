import cProfile
import hashlib
import math
import pstats
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import hadsplit.schemes
from hadsplit.constructions import twin_sylvester
from hadsplit.core import HadsplitError, IntMatrix, isqrt_exact, sylvester
from hadsplit.exactla import GaussianRational, mat_mul, mat_vec, nullspace, rref
from hadsplit.latin import (
    LatinSquare,
    affine_ufs_family,
    circle_symmetric,
    force_constant_diagonal,
    with_min_symbol,
)
from hadsplit.schemes import (
    AuxiliarySet,
    AxiomFailure,
    EigenTables,
    IrrationalEigenvalue,
    OddityViolation,
    _integer_roots,
    build_4class_nonsymmetric,
    build_4class_symmetric,
    build_5class,
    build_6class,
    eigenmatrices,
    hamming_scheme,
    lift_latin,
    muzychuk_fusion,
    table_as_ints,
    verify_scheme,
)
from hadsplit.splitting import diagonalize_by_hadamard, direct_srg_params


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
    big = np.array(lifted.tolist(), dtype=np.int64)
    want = np.kron(np.eye(7, dtype=np.int64), 16 * aux16.gram)
    assert np.array_equal(big @ big.T, want)


def _with_cell(square, i, j, symbol):
    cells = [list(row) for row in square.cells]
    cells[i][j] = symbol
    return LatinSquare(square.order, square.min_symbol, tuple(map(tuple, cells)))


def test_lift_latin_rejects_agreeing_rows(aux16):
    sq = force_constant_diagonal(affine_ufs_family(7)[0], 0)
    cells = (sq.cells[0], sq.cells[0]) + sq.cells[2:]
    broken = LatinSquare(order=7, min_symbol=0, cells=cells)
    with pytest.raises(HadsplitError):
        lift_latin(broken, aux16)
    with pytest.raises(HadsplitError, match="row 3 of the square repeats a symbol"):
        lift_latin(_with_cell(sq, 3, 1, sq.cells[3][2]), aux16)


def test_lift_latin_rejects_wrong_symbol_range(aux16):
    with pytest.raises(ValueError):
        lift_latin(circle_symmetric(10), aux16)
    sq = force_constant_diagonal(affine_ufs_family(7)[0], 0)
    for symbol in (7, -1):
        message = rf"cell \(2, 4\) holds {symbol}, outside the symbols 0..6"
        with pytest.raises(ValueError, match=message):
            lift_latin(_with_cell(sq, 2, 4, symbol), aux16)


def test_lemma_c_and_lift_form_no_projector_products(kernel_calls, aux16):
    lift_latin(force_constant_diagonal(affine_ufs_family(7)[0], 0), aux16)
    assert kernel_calls == []
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
        if nullspace([[m[r][c] - (theta if r == c else 0) for c in range(s)] for r in range(s)])
    ]


@pytest.mark.parametrize("case", list(_BUILT_SCHEMES))
def test_eigenmatrices_need_no_floating_point(case, built_schemes, monkeypatch):
    sch = built_schemes[case]
    want = repr(eigenmatrices(sch))

    def no_float(*args, **kwargs):
        raise AssertionError("floating-point eigensolver called")

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, no_float)
    assert repr(eigenmatrices(sch)) == want


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
        ker = nullspace(m)
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


def test_split_returns_primitive_pieces_from_any_basis():
    """X c is made primitive: on the invariant plane span(e0 + e1, e0 - e1)
    of diag(1, 2, 3), the 1-eigenspace is X (1, 1) = (2, 0, 0), returned as
    e0."""
    bmat = [[1, 0, 0], [0, 2, 0], [0, 0, 3]]
    split = hadsplit.schemes._split_by_integer_eigenvalues
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
    pair = hadsplit.schemes._split_complex_pair

    def recording(basis, bmat):
        seen.append((basis, bmat))
        return pair(basis, bmat)

    monkeypatch.setattr(hadsplit.schemes, "_split_complex_pair", recording)
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
        hadsplit.schemes._split_complex_pair([[1, 0], [0, 1]], [[1, 0], [0, 2]])
    assert len(hadsplit.schemes._split_complex_pair([[1, 0], [0, 1]], [[0, -1], [1, 0]])) == 2


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
    """Each subspace split takes at most one exact kernel (an integer
    `_kernel_int` call) per integer eigenvalue of the splitting class, also
    where a leftover plane has the non-real eigenvalues of the 4-class
    non-symmetric scheme."""
    sch = built_schemes[case]
    calls = []
    splits = []
    kernel = hadsplit.schemes._kernel_int
    split = hadsplit.schemes._split_by_integer_eigenvalues

    def counting(*args, **kwargs):
        calls.append(1)
        return kernel(*args, **kwargs)

    def recording(basis, bmat, *rest):
        before = len(calls)
        pieces = split(basis, bmat, *rest)
        splits.append((bmat, len(calls) - before))
        return pieces

    monkeypatch.setattr(hadsplit.schemes, "_kernel_int", counting)
    monkeypatch.setattr(hadsplit.schemes, "_split_by_integer_eigenvalues", recording)
    eigenmatrices(sch)
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
    """Every basis that reaches a split, and every piece a split returns
    (the non-real lines as integer real and imaginary parts), is made of
    primitive Python-int vectors."""
    sch = _scheme_for(case, built_schemes)
    seen = []
    split = hadsplit.schemes._split_by_integer_eigenvalues
    pair = hadsplit.schemes._split_complex_pair

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

    monkeypatch.setattr(hadsplit.schemes, "_split_by_integer_eigenvalues", recording)
    monkeypatch.setattr(hadsplit.schemes, "_split_complex_pair", recording_pair)
    try:
        eigenmatrices(sch)
    except IrrationalEigenvalue:
        pass
    assert seen


@pytest.mark.parametrize("case", ["4class-nonsym", "6class-f2", "hamming6", "petersen"])
def test_eigenmatrices_build_fractions_only_for_table_entries(case, built_schemes):
    """Under cProfile, every Fraction that eigenmatrices builds comes from
    a final P or Q entry: Fraction.__new__ is called only by `_entry` and by
    the GaussianRational it builds, and nothing else builds one."""
    sch = _scheme_for(case, built_schemes)
    prof = cProfile.Profile()
    prof.runcall(eigenmatrices, sch)
    stats = pstats.Stats(prof).stats

    def callers(name, filename):
        return {
            caller[2]
            for func, (*_, by) in stats.items()
            if func[2] == name and func[0].endswith(filename)
            for caller in by
        }

    assert callers("__new__", "fractions.py") <= {"__init__", "_entry"}
    assert callers("__init__", "exactla.py") <= {"_entry"}


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
