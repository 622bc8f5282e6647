"""End-to-end acceptance checks.

One test per numbered criterion.  Each test enforces its wall-clock budget
where one is stated, prints a single summary line on success, and freezes
the expected values outright so regressions surface as plain diffs.
"""

import time
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations

import numpy as np

from hadsplit import (
    AuxiliarySet,
    SplitParams,
    SrgParams,
    affine_ufs_family,
    build_4class_nonsymmetric,
    build_4class_symmetric,
    build_5class,
    build_6class,
    check_split,
    compose_ufs,
    core_tensor,
    derive_seidel,
    derive_srg_case_a,
    diagonalize_by_hadamard,
    eigenmatrices,
    eigvec_search,
    enumerate_case_a,
    enumerate_seidel,
    equiangular_report,
    force_constant_diagonal,
    gram_construction,
    hamming_scheme,
    is_ufs,
    kron_square,
    muzychuk_fusion,
    paley_skew_core,
    parse_latin,
    parse_matrix,
    regular_hadamard_normalize,
    serialize_latin,
    serialize_matrix,
    skew_core_bsh,
    sylvester,
    twin_sylvester,
    two_row_split,
    unbiased_partner,
    with_min_symbol,
)
from hadsplit.cli import bundled_data
from hadsplit.exactla import GaussianRational
from hadsplit.splitting import direct_srg_params
from helpers import mat_mul, table_as_ints


@contextmanager
def budget(seconds):
    start = time.monotonic()
    yield
    elapsed = time.monotonic() - start
    assert elapsed < seconds, f"took {elapsed:.1f}s, budget {seconds}s"


def _ok(num, slug):
    print(f"criterion {num:02d} {slug}: PASS")


EXISTS = "exists-by-construction"
SUM = "excluded-mod4-sum"
DIFF = "excluded-mod4-diff"
EIG = "excluded-eigsearch"
OPEN = "open"

SEIDEL_ROWS = (
    (16, 6, 2, EXISTS),
    (36, 15, 3, SUM),
    (64, 28, 4, EXISTS),
    (100, 45, 5, SUM),
    (120, 35, 5, DIFF),
    (144, 66, 6, OPEN),
    (196, 91, 7, SUM),
    (256, 120, 8, EXISTS),
    (280, 63, 7, SUM),
    (288, 42, 6, OPEN),
    (320, 88, 8, OPEN),
    (324, 153, 9, SUM),
    (400, 190, 10, OPEN),
    (484, 231, 11, SUM),
    (528, 187, 11, SUM),
    (540, 99, 9, DIFF),
    (560, 130, 10, OPEN),
    (576, 276, 12, OPEN),
    (616, 165, 11, DIFF),
    (640, 72, 8, OPEN),
    (676, 325, 13, SUM),
    (780, 247, 13, DIFF),
    (784, 378, 14, OPEN),
    (900, 435, 15, SUM),
    (924, 143, 11, SUM),
    (936, 221, 13, SUM),
    (1008, 266, 14, OPEN),
    (1024, 496, 16, EXISTS),
)

CASE_A_ROWS = (
    (16, 5, 1, -3, EXISTS),
    (16, 9, 1, -3, EXISTS),
    (36, 10, 4, -2, EIG),
    (36, 14, 2, -4, EIG),
    (36, 20, 2, -4, EIG),
    (36, 25, 1, -5, EIG),
    (64, 14, 6, -2, EXISTS),
    (64, 18, 2, -6, OPEN),
    (64, 21, 5, -3, OPEN),
    (64, 27, 3, -5, EXISTS),
    (64, 35, 3, -5, EXISTS),
    (64, 42, 2, -6, OPEN),
    (64, 45, 5, -3, OPEN),
    (64, 49, 1, -7, EXISTS),
)


def test_criterion_01_seidel_table():
    with budget(10):
        rows = enumerate_seidel(1024)
    assert len(rows) == 28
    got = tuple((r.params.n, r.params.ell, r.params.a, r.status) for r in rows)
    assert got == SEIDEL_ROWS
    for r in rows:
        assert r.params.b == -r.params.a
        assert (r.witness is not None) == (r.status == EXISTS)
    _ok(1, "seidel-table")


def test_criterion_02_case_a_table():
    with budget(5):
        rows = enumerate_case_a(64)
    assert len(rows) == 14
    got = tuple(
        (r.params.n, r.params.ell, r.params.a, r.params.b, r.status) for r in rows
    )
    assert got == CASE_A_ROWS
    counts = {s: sum(1 for r in rows if r.status == s) for s in (EXISTS, EIG, OPEN)}
    assert counts == {EXISTS: 6, EIG: 4, OPEN: 4}
    _ok(2, "case-a-table")


def test_criterion_03_construction_families():
    with budget(30):
        for exp, want in ((1, (4, 1, 1, -1)), (2, (16, 9, 1, -3)), (3, (64, 49, 1, -7))):
            inst = kron_square(sylvester(exp), "large")
            assert inst.params.astuple() == want
            assert inst.report.checks["gram_ok"]
        for exp, want in ((1, (4, 2, 0, -2)), (2, (16, 6, 2, -2)), (3, (64, 14, 6, -2))):
            inst = kron_square(sylvester(exp), "small")
            assert inst.params.astuple() == want
            assert inst.report.checks["gram_ok"]
        for exp, want in ((1, (4, 2, 2, 0)), (2, (16, 4, 4, 0)), (3, (64, 8, 8, 0))):
            inst = gram_construction(sylvester(exp))
            assert inst.params.astuple() == want
            assert inst.report.checks["gram_ok"]
        for kexp, mexp, want in ((1, 2, (8, 6, 0, -2)), (2, 2, (16, 12, 0, -4))):
            inst = core_tensor(sylvester(kexp), sylvester(mexp))
            assert inst.params.astuple() == want
            assert inst.report.checks["rowsum_zero"]
        for exp, want in ((2, (4, 2, 0, -2)), (3, (8, 6, 0, -2)), (4, (16, 14, 0, -2))):
            inst = two_row_split(sylvester(exp))
            assert inst.params.astuple() == want
        for m in (1, 2, 3):
            tw = twin_sylvester(m)
            n, h = 4**m, 2**m
            assert tw.reports[0].params.astuple() == (n, h, h, 0)
            ell = 2 ** (m - 1) * (2**m - 1)
            assert tw.reports[1].params.astuple() == (n, ell, h // 2, -(h // 2))
            assert tw.reports[2].params == tw.reports[1].params
        for q in (3, 7, 11):
            inst = skew_core_bsh(paley_skew_core(q))
            assert inst.params.astuple() == (q * (q + 1), q, q, -1)
            assert inst.report.checks["gram_ok"]
    _ok(3, "construction-families")


def test_criterion_04_parameter_derivations():
    der = derive_seidel(16, 6, 2)
    assert der.srg.astuple() == (16, 6, 2, 2)
    assert derive_srg_case_a(16, 9, 1) == (-3, SrgParams(16, 9, 4, 6))
    assert derive_srg_case_a(16, 5, 1) == (-3, SrgParams(16, 10, 6, 6))
    for r in enumerate_seidel(1024) + enumerate_case_a(64):
        assert r.srg.identity_ok()
    _ok(4, "parameter-derivations")


def test_criterion_05_equiangular_lines():
    rep = equiangular_report(SplitParams(16, 6, 2, -2))
    assert (rep.m, rep.alpha_sq, rep.attained) == (6, Fraction(1, 9), True)
    rep = equiangular_report(SplitParams(64, 28, 4, -4))
    assert (rep.m, rep.alpha_sq, rep.attained) == (28, Fraction(1, 49), True)
    _ok(5, "equiangular-lines")


def test_criterion_06_unbiased_partner(twin16):
    partner = unbiased_partner(twin16.h, twin16.reports[1])
    prod = np.array((twin16.h @ partner.T).tolist())
    assert set(np.abs(prod).ravel().tolist()) == {4}
    _ok(6, "unbiased-partner")


def test_criterion_07_regular_form(twin16):
    reg = regular_hadamard_normalize(twin16.h, twin16.reports[1])
    assert set(reg.row_sums()) == {4} and set(reg.array.sum(axis=0)) == {4}
    big = twin_sylvester(3)
    reg = regular_hadamard_normalize(big.h, big.reports[1])
    assert set(reg.row_sums()) == {8} and set(reg.array.sum(axis=0)) == {8}
    _ok(7, "regular-form")


def test_criterion_08_eigenvector_searches():
    with budget(600):
        res = eigvec_search(bundled_data("srg-36-10-4-2"), 10, 4, -2)
        assert res.eigenspace_dim == 10
        assert res.best_size < 10
        assert res.certifies_nonexistence
        res = eigvec_search(bundled_data("lattice-4x4"), 6, 2, -2)
        assert res.best_size >= 6
        assert not res.certifies_nonexistence
    _ok(8, "eigenvector-searches")


def _assert_pq_inverse(tables, size):
    prod = mat_mul([list(r) for r in tables.p], [list(r) for r in tables.q])
    want = GaussianRational(size)
    zero = GaussianRational(0)
    k = len(prod)
    for i in range(k):
        for j in range(k):
            assert prod[i][j] == (want if i == j else zero)


def test_criterion_09_four_class_schemes(twin16, split_16_9):
    with budget(60):
        sym = build_4class_symmetric(twin16.h, split_16_9)
        non = build_4class_nonsymmetric(twin16.h, split_16_9)
        for sch in (sym, non):
            assert sch.size == 160
            assert sch.valencies == (1, 9, 6, 72, 72)
            tables = eigenmatrices(sch)
            row0 = tuple(tables.p[0])
            assert row0 == tuple(GaussianRational(v) for v in (1, 9, 6, 72, 72))
            _assert_pq_inverse(tables, 160)
        assert table_as_ints(eigenmatrices(sym).p) == (
            (1, 9, 6, 72, 72),
            (1, -3, 2, 0, 0),
            (1, 1, -2, -8, 8),
            (1, 1, -2, 8, -8),
            (1, 9, 6, -8, -8),
        )
        assert non.transpose_map == (0, 1, 2, 4, 3)
    _ok(9, "four-class-schemes")


def _signed_square_law(scheme, n, ell, a, b, f):
    m = scheme.matrices
    d = m[3] - m[4]
    rhs = (f - 1) * n * (ell * m[0] + a * m[1] + b * m[2]) + (f - 2) * n * d
    assert d @ d == rhs


def test_criterion_10_five_class_schemes(twin16, split_16_9):
    with budget(120):
        fam9 = [with_min_symbol(sq, 1) for sq in affine_ufs_family(9)]
        n, ell, a = 16, 9, 1
        d = (n - 1) * a * a + 2 * ell * a + ell * (n - ell)
        assert d == 96
        for f, size in ((2, 288), (3, 432)):
            sch = build_5class(twin16.h, split_16_9, fam9[:f])
            assert sch.size == size
            assert sch.valencies == (
                1,
                ell * (n - ell - 1) * n // d,
                (ell + a * (n - 1)) ** 2 // d,
                (f - 1) * ell * n // 2,
                (f - 1) * ell * n // 2,
                (ell - 1) * n,
            )
            _signed_square_law(sch, n, ell, a, -3, f)
            tables = eigenmatrices(sch)
            want = sorted(
                [1, ell * ell, f * ell * (n - ell - 1), f * (ell - 1), (f - 1) * ell * ell, f - 1]
            )
            assert sorted(tables.multiplicities) == want
            _assert_pq_inverse(tables, size)
    _ok(10, "five-class-schemes")


def test_criterion_11_six_class_scheme(twin16):
    with budget(120):
        squares = [force_constant_diagonal(sq, 0) for sq in affine_ufs_family(7)][:2]
        sch = build_6class(twin16.h, twin16.reports[1], squares)
        assert sch.size == 224
        assert sch.valencies == (1, 6, 9, 48, 48, 96, 16)
        _signed_square_law(sch, 16, 6, 2, -2, f=2)
        tables = eigenmatrices(sch)
        assert tables.multiplicities == (1, 126, 42, 42, 1, 6, 6)
        _assert_pq_inverse(tables, 224)
    _ok(11, "six-class-scheme")


def test_criterion_12_reference_schemes():
    ham = hamming_scheme(4)
    assert ham.size == 16
    assert table_as_ints(eigenmatrices(ham).p) == (
        (1, 4, 6, 4, 1),
        (1, -4, 6, -4, 1),
        (1, -2, 0, 2, -1),
        (1, 0, -2, 0, 1),
        (1, 2, 0, -2, -1),
    )
    layout = diagonalize_by_hadamard(ham.matrices[1], sylvester(4))
    assert layout.multiplicities == {4: 1, 2: 4, 0: 6, -2: 4, -4: 1}
    fusion = muzychuk_fusion(6, "01")
    assert direct_srg_params(fusion.matrices[1]).astuple() == (64, 27, 10, 12)
    assert direct_srg_params(fusion.matrices[2]).astuple() == (64, 36, 20, 20)
    fusion = muzychuk_fusion(6, "03")
    assert direct_srg_params(fusion.matrices[1]).astuple() == (64, 35, 18, 20)
    assert direct_srg_params(fusion.matrices[2]).astuple() == (64, 28, 12, 12)
    _ok(12, "reference-schemes")


def test_criterion_13_property_suites(twin16):
    # auxiliary matrix identities at orders 16 and 64
    for tw in (twin16, twin_sylvester(3)):
        n = tw.h.order
        aux = AuxiliarySet(tw.h, tw.reports[1])
        cs = [np.array(c.tolist(), dtype=np.int64) for c in aux.matrices]
        total = sum(cs)
        assert np.array_equal(total, n * np.eye(n, dtype=np.int64))
        for i, c in enumerate(cs):
            assert np.array_equal(c @ c, n * c)
            for j in range(i + 1, n):
                assert not np.any(c @ cs[j])
        split_sum = sum(cs[i] for i in tw.reports[1].rows)
        assert np.array_equal(split_sum, aux.gram)

    # complement involution on every probed split
    for rep in twin16.reports + twin_sylvester(3).reports[1:]:
        h = twin16.h if rep.params.n == 16 else twin_sylvester(3).h
        comp_rows = sorted(set(range(rep.params.n)) - set(rep.rows))
        comp = check_split(h, comp_rows)
        n, ell, a, b = rep.params.astuple()
        assert comp.params == SplitParams(n, n - ell, -b, -a)

    # uniform families over every prime power order up to 9, plus diagonal fix
    for q in (2, 3, 4, 5, 7, 8, 9):
        fam = affine_ufs_family(q)
        assert len(fam) == q - 1
        assert all(sq.is_latin() for sq in fam)
        assert all(is_ufs(x, y) for x, y in combinations(fam, 2))
        fixed = force_constant_diagonal(fam[0], 0)
        assert fixed.is_latin() and fixed.has_constant_diagonal(0)
        assert all(is_ufs(fixed, other) for other in fam[1:])

    # composition chain over GF(7)
    fam = affine_ufs_family(7)
    first = compose_ufs(fam[0], fam[1])
    assert first.is_latin()
    assert is_ufs(first, fam[0])
    assert compose_ufs(first, fam[0]).is_latin()

    # byte-exact round trips
    blob = serialize_matrix(twin16.h)
    assert serialize_matrix(parse_matrix(blob)) == blob
    square = serialize_latin(fam[2])
    assert serialize_latin(parse_latin(square)) == square
    _ok(13, "property-suites")
