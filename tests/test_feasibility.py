import hashlib
import re
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import hadsplit.feasibility as feas
import hadsplit.splitting as splitting
from hadsplit.cli import bundled_data
from hadsplit.constructions import witness_for
from hadsplit.feasibility import (
    STATUS_EIGSEARCH,
    STATUS_EXISTS,
    STATUS_MOD4_DIFF,
    STATUS_MOD4_SUM,
    STATUS_OPEN,
    EigvecSearchResult,
    FeasibleRow,
    MultiplicityMismatch,
    eigvec_search,
    enumerate_case_a,
    enumerate_seidel,
    filter_mod4_diff,
    filter_mod4_sum,
    solve_sign_pattern,
    srg_absolute_bound_ok,
    srg_basic_ok,
    srg_complement_ok,
    srg_krein_ok,
    srg_multiplicities,
    srg_primitive_feasible,
)
from hadsplit.constructions import kron_square, twin_sylvester
from hadsplit.core import (
    HadamardMatrix,
    IntMatrix,
    conference_from_core,
    exact_matmul,
    isqrt_exact,
    paley_skew_core,
    sylvester,
)
from hadsplit.splitting import BudgetExceeded
from hadsplit.search import max_clique
from hadsplit.splitting import (
    NonIntegral,
    SplitParams,
    SrgParams,
    check_split,
    delete_allones_transform,
    derive_seidel,
    search_splits,
)
from helpers import case_a_integral_grid, fraction_rref, srg_polynomials

# (n, ell, a) -> status for every surviving b = -a parameter set up to 1024
SEIDEL_TABLE = [
    (16, 6, 2, STATUS_EXISTS),
    (36, 15, 3, STATUS_MOD4_SUM),
    (64, 28, 4, STATUS_EXISTS),
    (100, 45, 5, STATUS_MOD4_SUM),
    (120, 35, 5, STATUS_MOD4_DIFF),
    (144, 66, 6, STATUS_OPEN),
    (196, 91, 7, STATUS_MOD4_SUM),
    (256, 120, 8, STATUS_EXISTS),
    (280, 63, 7, STATUS_MOD4_SUM),
    (288, 42, 6, STATUS_OPEN),
    (320, 88, 8, STATUS_OPEN),
    (324, 153, 9, STATUS_MOD4_SUM),
    (400, 190, 10, STATUS_OPEN),
    (484, 231, 11, STATUS_MOD4_SUM),
    (528, 187, 11, STATUS_MOD4_SUM),
    (540, 99, 9, STATUS_MOD4_DIFF),
    (560, 130, 10, STATUS_OPEN),
    (576, 276, 12, STATUS_OPEN),
    (616, 165, 11, STATUS_MOD4_DIFF),
    (640, 72, 8, STATUS_OPEN),
    (676, 325, 13, STATUS_MOD4_SUM),
    (780, 247, 13, STATUS_MOD4_DIFF),
    (784, 378, 14, STATUS_OPEN),
    (900, 435, 15, STATUS_MOD4_SUM),
    (924, 143, 11, STATUS_MOD4_SUM),
    (936, 221, 13, STATUS_MOD4_SUM),
    (1008, 266, 14, STATUS_OPEN),
    (1024, 496, 16, STATUS_EXISTS),
]

# (n, ell, a, b, (k, lam, mu), status, witness)
CASE_A_TABLE = [
    (16, 5, 1, -3, (10, 6, 6), STATUS_EXISTS, "delete from complement of twin-sylvester m=2"),
    (16, 9, 1, -3, (9, 4, 6), STATUS_EXISTS, "kron-square large m=4"),
    (36, 10, 4, -2, (10, 4, 2), STATUS_EIGSEARCH, None),
    (36, 14, 2, -4, (21, 12, 12), STATUS_EIGSEARCH, None),
    (36, 20, 2, -4, (20, 10, 12), STATUS_EIGSEARCH, None),
    (36, 25, 1, -5, (25, 16, 20), STATUS_EIGSEARCH, None),
    (64, 14, 6, -2, (14, 6, 2), STATUS_EXISTS, "kron-square small m=8"),
    (64, 18, 2, -6, (45, 32, 30), STATUS_OPEN, None),
    (64, 21, 5, -3, (21, 8, 6), STATUS_OPEN, None),
    (64, 27, 3, -5, (36, 20, 20), STATUS_EXISTS, "delete from complement of twin-sylvester m=3"),
    (64, 35, 3, -5, (35, 18, 20), STATUS_EXISTS, "delete from twin-sylvester m=3"),
    (64, 42, 2, -6, (42, 26, 30), STATUS_OPEN, None),
    (64, 45, 5, -3, (18, 2, 6), STATUS_OPEN, None),
    (64, 49, 1, -7, (49, 36, 42), STATUS_EXISTS, "kron-square large m=8"),
]

EIGSEARCH_ROWS = {(n, e, a, b) for n, e, a, b, _, s, _ in CASE_A_TABLE if s == STATUS_EIGSEARCH}

# Passes every screen but is dropped from table 1: the descendant of its
# two-graph would be an SRG(95, 40, 12, 20), which does not exist.
DROPPED_SEIDEL_ROW = (96, 20, 4, -4)


def test_seidel_enumeration_matches_frozen_table():
    rows = enumerate_seidel(1024)
    assert [(r.params.n, r.params.ell, r.params.a, r.status) for r in rows] == SEIDEL_TABLE
    for r in rows:
        assert r.params.b == -r.params.a
        assert r.srg == derive_seidel(r.params.n, r.params.ell, r.params.a).srg
        assert r.srg.identity_ok()
        assert (r.witness is not None) == (r.status == STATUS_EXISTS)


def test_seidel_enumeration_uncurated_extra_row():
    rows = enumerate_seidel(1024)
    full = _enumerate_seidel_reference(1024, drop=False)
    assert len(rows) == 28
    assert len(full) == 29
    (row,) = [r for r in full if r not in rows]
    assert row.params.astuple() == DROPPED_SEIDEL_ROW
    assert row.srg.astuple() == (96, 45, 24, 18)
    assert row.status == STATUS_OPEN
    # The split's Seidel matrix has eigenvalues rho1 > rho2, so the split is a
    # regular two-graph on 96 points. Its descendant on the other 95 has
    # valency k = -(1 + rho1)(1 + rho2)/2, eigenvalues r, s = -(1 + rho)/2,
    # mu = k/2 and lam = mu + r + s.
    der = derive_seidel(*DROPPED_SEIDEL_ROW[:3])
    assert der.s_spectrum == ((19, 20), (-5, 76))
    (rho1, _), (rho2, _) = der.s_spectrum
    k = -(1 + rho1) * (1 + rho2) // 2
    r, s = -(1 + rho2) // 2, -(1 + rho1) // 2
    assert (k, r, s) == (40, 2, -10)
    descendant = SrgParams(95, k, k // 2 + r + s, k // 2)
    # Azarija and Marc (J. Combin. Des. 2020, arXiv:1603.02032) show that
    # no SRG(95, 40, 12, 20) exists
    assert descendant.astuple() == (95, 40, 12, 20)
    assert srg_primitive_feasible(descendant)
    assert feas._RECORDS[DROPPED_SEIDEL_ROW] is None


def _seidel_candidate(n, a, drop):
    """One (n, a) cell of table 1, screened with Python ints."""
    d = isqrt_exact(n * n - 4 * a * a * (n - 1))
    if d is None or (n - d) % 2:
        return None
    ell = (n - d) // 2
    if ell <= a * a:
        return None
    if ell % a or (n - ell) % a:
        return None
    # both sign-matrix eigenvalues must be odd for even order
    if (ell // a) % 2 == 0 or ((n - ell) // a) % 2 == 0:
        return None
    try:
        der = derive_seidel(n, ell, a)
    except NonIntegral:
        return None
    if not srg_primitive_feasible(der.srg):
        return None
    if drop and (n, ell, a, -a) == DROPPED_SEIDEL_ROW:
        return None
    witness = witness_for(n, ell, a, -a)
    if witness:
        status = STATUS_EXISTS
    elif filter_mod4_sum(ell, a):
        status = STATUS_MOD4_SUM
    elif filter_mod4_diff(ell, a):
        status = STATUS_MOD4_DIFF
    else:
        status = STATUS_OPEN
    return FeasibleRow(params=der.params, srg=der.srg, status=status, witness=witness)


def _enumerate_seidel_reference(max_n, drop):
    """enumerate_seidel one (n, a) cell at a time; drop=False keeps the
    dropped row."""
    rows = []
    for n in range(4, max_n + 1, 4):
        a = 1
        while 4 * a * a * (n - 1) <= n * n:
            row = _seidel_candidate(n, a, drop)
            if row is not None:
                rows.append(row)
            a += 1
    rows.sort(key=lambda r: r.params.astuple())
    return rows


@pytest.mark.parametrize("drop", [True, False])
def test_seidel_enumeration_matches_the_per_cell_reference(drop):
    rows = enumerate_seidel(4096)
    reference = _enumerate_seidel_reference(4096, drop)
    assert len(rows) == 74
    assert len(reference) == 74 + (not drop)
    assert [r for r in reference if r.params.astuple() != DROPPED_SEIDEL_ROW] == rows


def test_case_a_enumeration_matches_frozen_table():
    rows = enumerate_case_a(64)
    assert len(rows) == 14
    for r, (n, ell, a, b, srg, status, witness) in zip(rows, CASE_A_TABLE):
        assert r.params.astuple() == (n, ell, a, b)
        assert r.srg.astuple() == (n, *srg)
        assert r.status == status
        assert r.witness == witness
        assert r.srg.identity_ok()


def _enumerate_case_a_reference(max_n):
    """(n, ell, a, b, srg) of every zero-row-sum row, derived with Fractions."""
    rows = []
    for n in range(8, max_n + 1, 4):
        for ell in range(2, n):
            for a in range(1, ell + 1):
                b = Fraction(ell * (ell - a - n), a * (n - 1) + ell)
                if b.denominator != 1 or b == -a or b < -ell:
                    continue
                k, lam, mu = srg_polynomials(n, ell, a, b)
                if any(x.denominator != 1 for x in (k, lam, mu)):
                    continue
                srg = SrgParams(n, int(k), int(lam), int(mu))
                if srg_primitive_feasible(srg):
                    rows.append((n, ell, a, int(b), srg))
    return rows


# Rows that table 2 listed as open before its parity screen: each has a or
# b of the other parity from ell, which no +-1 Gram can hold.
_PARITY_FAILURES = {
    (300, 65, 5, -10), (300, 69, 9, -6), (300, 230, 5, -10), (300, 234, 9, -6),
    (540, 55, 10, -5), (540, 484, 4, -11), (676, 45, 6, -7), (676, 630, 6, -7),
    (980, 429, 9, -26), (980, 445, 25, -10), (980, 534, 9, -26), (980, 550, 25, -10),
    (1000, 185, 10, -15), (1000, 189, 14, -11), (1000, 810, 10, -15), (1000, 814, 14, -11),
}


def test_case_a_rows_keep_the_gram_parity():
    # two +-1 columns of length ell that disagree in d places have inner
    # product ell - 2d, so a = b = ell (mod 2) on every realizable row
    listed = {r.params.astuple() for r in enumerate_case_a(1024)}
    assert all((ell - a) % 2 == 0 == (ell - b) % 2 for _, ell, a, b in listed)
    assert not listed & _PARITY_FAILURES
    for h in (sylvester(3), sylvester(4)):
        for ell in range(1, h.order + 1):
            for rep in search_splits(h, ell):
                _, ell, a, b = rep.params.astuple()
                assert (ell - a) % 2 == 0 == (ell - b) % 2, rep.params


def test_case_a_enumeration_matches_the_fraction_reference():
    got = [(*r.params.astuple(), r.srg) for r in enumerate_case_a(256)]
    assert got == _enumerate_case_a_reference(256)
    assert len(got) == 100


def _case_a_srg(n, ell, a):
    """b and the a-marked graph parameters of one zero-row-sum cell, over
    Fraction; None when b, k, lam or mu is not an integer, when a^2 = b^2,
    or when a or b differs from ell in parity."""
    b = Fraction(ell * (ell - a - n), a * (n - 1) + ell)
    if b.denominator != 1 or a * a == b * b or (ell - a) % 2 or (ell - b) % 2:
        return None
    vals = srg_polynomials(n, ell, a, b)
    if any(x.denominator != 1 for x in vals):
        return None
    return int(b), SrgParams(n, *map(int, vals))


def _enumerate_case_a_reference_rows(orders):
    """enumerate_case_a's rows at the given orders, one (ell, a) cell at a time."""
    rows = []
    for n in orders:
        for ell in range(2, n):
            for a in range(1, ell + 1):
                found = _case_a_srg(n, ell, a)
                if found is None:
                    continue
                b, srg = found
                if b < -ell or not srg_primitive_feasible(srg):
                    continue
                witness = witness_for(n, ell, a, b)
                if witness:
                    status = STATUS_EXISTS
                elif (n, ell, a, b) in EIGSEARCH_ROWS:
                    status = STATUS_EIGSEARCH
                else:
                    status = STATUS_OPEN
                rows.append(FeasibleRow(SplitParams(n, ell, a, b), srg, status, witness))
    return rows


def test_case_a_enumeration_to_1024():
    rows = enumerate_case_a(1024)
    assert len(rows) == 570
    assert Counter(r.status for r in rows) == {
        STATUS_EXISTS: 22, STATUS_EIGSEARCH: 4, STATUS_OPEN: 544
    }
    top = [r for r in rows if r.params.n in (1020, 1024)]
    assert top == _enumerate_case_a_reference_rows((1020, 1024))
    assert len(top) == 50


def test_case_a_enumeration_to_4096():
    # about 0.5 s on a 2-core x86-64 machine; tier-1 holds it only while it
    # stays within a few seconds, so the budget is 10 s
    start = time.perf_counter()
    rows = enumerate_case_a(4096)
    elapsed = time.perf_counter() - start
    assert len(rows) == 2560
    assert Counter(r.status for r in rows) == {
        STATUS_OPEN: 2516, STATUS_EXISTS: 40, STATUS_EIGSEARCH: 4
    }
    assert [r for r in rows if r.params.n <= 1024] == enumerate_case_a(1024)
    assert elapsed < 10, elapsed


def _recording_divisor_pair_cells(monkeypatch):
    """Patch feas._divisor_pair_cells to keep its item and output columns."""
    calls = []
    divisor_pair_cells = feas._divisor_pair_cells

    def recording(n, a, t):
        out = divisor_pair_cells(n, a, t)
        calls.append(((n, a, t), out))
        return out

    monkeypatch.setattr(feas, "_divisor_pair_cells", recording)
    return calls


def test_divisor_pairs_give_every_integral_cell_once(monkeypatch):
    calls = _recording_divisor_pair_cells(monkeypatch)
    enumerate_case_a(512)
    cells = [c for _, (n, ell, a, _) in calls for c in zip(n.tolist(), ell.tolist(), a.tolist())]
    assert len(cells) == len(set(cells)) == 68066
    assert set(cells) == set(case_a_integral_grid(512))
    # and b is the exact quotient on each
    for _, (n, ell, a, b) in calls:
        assert np.array_equal(b * (a * (n - 1) + ell), ell * (ell - a - n))


def test_case_a_enumeration_in_bounded_blocks(monkeypatch):
    whole = enumerate_case_a(256)
    calls = _recording_divisor_pair_cells(monkeypatch)
    monkeypatch.setattr(feas, "_GRID_CELLS", 1000)
    # blocks of at most 1000 (n, a, t) items, which between them hold each
    # item once, give the rows of the unpatched run
    assert enumerate_case_a(256) == whole
    sizes = [len(t) for (_, _, t), _ in calls]
    assert len(sizes) > 1 and max(sizes) <= 1000
    items = sorted(
        item for (n, a, t), _ in calls for item in zip(n.tolist(), a.tolist(), t.tolist())
    )
    assert items == [
        (n, a, t)
        for n in range(8, 257, 4)
        for a in range(1, n)
        for t in range((n - 1 - a) ** 2 // (4 * a * n) + 1)
    ]


def test_enumerations_refuse_orders_past_the_int64_bound(monkeypatch):
    # the bound is checked before numpy builds anything
    monkeypatch.setattr(feas, "np", None)
    for enumerate_table in (enumerate_case_a, enumerate_seidel):
        with pytest.raises(OverflowError, match="max_n = 32769 exceeds 32768"):
            enumerate_table(2**15 + 1)


def _assert_screen_matches_the_scalar_one(v, k, lam, mu):
    got = feas._srg_feasible(*(np.array(c, dtype=np.int64) for c in (v, k, lam, mu)))
    assert got.dtype == bool
    want = [srg_primitive_feasible(SrgParams(*cell)) for cell in zip(v, k, lam, mu)]
    assert got.tolist() == want


@pytest.mark.parametrize("table, max_n", [(enumerate_case_a, 512), (enumerate_seidel, 2**15)])
def test_array_srg_screen_matches_the_scalar_one_on_every_table_cell(monkeypatch, table, max_n):
    cells = []

    def recording(*cols):
        cells.append([c.tolist() for c in cols])
        return srg_feasible(*cols)

    srg_feasible = feas._srg_feasible
    monkeypatch.setattr(feas, "_srg_feasible", recording)
    rows = table(max_n)
    (v, k, lam, mu), = cells
    assert len(v) > len(rows)
    _assert_screen_matches_the_scalar_one(v, k, lam, mu)


# (v, k, lam, mu) and the screens that reject it
_NAMED_SRG_SETS = {
    (28, 9, 0, 4): {"krein", "absolute"},
    # conference graphs: irrational eigenvalues, equal multiplicities
    (5, 2, 0, 1): set(),
    (13, 6, 2, 3): set(),
    (65, 32, 15, 16): set(),
    (7, 3, 0, 1): {"basic"},  # the counting identity fails
    # the absolute bound needs the multiplicities
    (7, 3, 0, 2): {"multiplicities", "absolute"},
    (273, 256, 240, 240): {"complement"},
    (154, 51, 8, 21): {"krein"},
    (50, 21, 4, 12): {"absolute"},
}


def test_array_srg_screen_matches_the_scalar_one_on_named_sets():
    screens = {
        "basic": srg_basic_ok,
        "multiplicities": lambda p: srg_multiplicities(p) is not None,
        "krein": srg_krein_ok,
        "absolute": srg_absolute_bound_ok,
        "complement": srg_complement_ok,
    }
    for cell, rejected in _NAMED_SRG_SETS.items():
        p = SrgParams(*cell)
        assert {name for name, ok in screens.items() if not ok(p)} == rejected, cell
        assert srg_primitive_feasible(p) == (not rejected)
    _assert_screen_matches_the_scalar_one(*zip(*_NAMED_SRG_SETS))


def test_array_srg_screen_matches_the_scalar_one_on_a_small_box():
    # every (v, k, lam, mu) with 0 <= v <= 16 and -1 <= k, lam, mu <= v + 1,
    # out-of-range values included
    cells = [
        (v, k, lam, mu)
        for v in range(17)
        for k in range(-1, v + 2)
        for lam in range(-1, v + 2)
        for mu in range(-1, v + 2)
    ]
    _assert_screen_matches_the_scalar_one(*zip(*cells))


def test_seidel_enumeration_at_the_int64_bound():
    rows = enumerate_seidel(2**15)
    assert rows[:28] == enumerate_seidel(1024)
    assert all(r.srg == derive_seidel(*r.params.astuple()[:3]).srg for r in rows)


def test_divisor_pair_cells_need_no_lower_bound_on_b():
    # b + ell = ell (2 ell + a(n - 2) - n) / (a(n - 1) + ell) > 0 for a >= 1
    # and ell >= 2, so _case_a_integral_cells has no b >= -ell screen; below
    # order 8 there are no items at all
    assert enumerate_case_a(4) == []
    cells = 0
    for items in feas._case_a_items(1024):
        n, ell, a, b = feas._divisor_pair_cells(*items)
        assert np.all(a >= 1) and np.all(ell >= 2) and np.all(b > -ell)
        cells += n.size
    assert cells > 10**5


def test_seidel_cells_have_odd_eigenvalues_without_a_screen():
    # no cell screen on a | ell or on odd quotients: integral k and mu give
    # a | ell and a | n, and ell (n - ell) = a^2 (n - 1) makes the quotients
    # multiply to the odd n - 1
    n, ell, a = feas._seidel_cells(2**15)
    assert np.any(ell % a)
    n, ell, a = feas._integral_cells(splitting._srg_terms(n, ell, a, -a, 0), n, ell, a)[:3]
    assert n.size and not np.any(ell % a) and not np.any(n % a)
    rows = [r.params for r in enumerate_seidel(2**15)]
    assert rows
    for p in rows:
        assert p.ell % p.a == 0 and (p.n - p.ell) % p.a == 0
        assert (p.ell // p.a) % 2 == 1 and ((p.n - p.ell) // p.a) % 2 == 1


def test_case_a_eigsearch_rows_are_the_curated_ones():
    assert {k for k, v in feas._RECORDS.items() if v == STATUS_EIGSEARCH} == EIGSEARCH_ROWS


def test_every_record_is_a_screened_row_without_a_witness():
    # a record behind a witness would never be read
    screened = {r.params.astuple() for r in _enumerate_seidel_reference(1024, drop=False)}
    screened |= {r.params.astuple() for r in enumerate_case_a(64)}
    for key in feas._RECORDS:
        assert key in screened
        assert witness_for(*key) is None


def _rebuild(label):
    """(matrix, rows) of the split a witness label names, built with the
    package's builders; fails the test for a label with no builder here."""
    found = re.fullmatch(r"(.*) m=(\d+)", label)
    kind, m = (found[1], int(found[2])) if found else (label, None)
    if kind == "twin-sylvester":
        tw = twin_sylvester(m)
        return tw.h, tw.h2_rows
    if kind.startswith("kron-square ") and (m == 12 or m & (m - 1) == 0):
        if m == 12:
            core = conference_from_core(paley_skew_core(11))
            h = HadamardMatrix(core.array + np.eye(12, dtype=np.int64))
        else:
            h = sylvester(m.bit_length() - 1)
        inst = kron_square(h, kind.removeprefix("kron-square "))
        return inst.h, inst.rows
    if kind == "delete from twin-sylvester":
        tw = twin_sylvester(m)
        return tw.h, delete_allones_transform(tw.h, tw.reports[1]).rows
    if kind == "delete from complement of twin-sylvester":
        tw = twin_sylvester(m)
        # scaling each column by the sign of one twin row makes that row
        # all-ones; it conjugates a Gram by a sign diagonal, which keeps the
        # parameters of a b = -a split
        h = HadamardMatrix(tw.h.array * tw.h.array[tw.h2_rows[0]])
        rest = [i for i in range(h.order) if i not in tw.h2_rows]
        return h, delete_allones_transform(h, check_split(h, rest)).rows
    pytest.fail(f"no builder for the witness {label!r}")


def test_every_exists_row_is_rebuilt_from_its_witness():
    # 4 table-1 and 12 table-2 rows. Budget 30 s; the test takes about 0.6 s
    # on two cores, twin_sylvester(5) (order 1024) 0.1-0.2 s of it.
    start = time.perf_counter()
    rows = [r for r in enumerate_seidel(1024) + enumerate_case_a(256) if r.status == STATUS_EXISTS]
    assert len(rows) == 16
    for row in rows:
        h, split = _rebuild(row.witness)
        assert check_split(h, split).params == row.params, row.witness
    assert time.perf_counter() - start < 30


def test_feasible_row_as_dict():
    row = enumerate_case_a(16)[0]
    d = row.as_dict()
    assert d["n"] == 16 and d["ell"] == 5 and d["b"] == -3
    assert d["status"] == STATUS_EXISTS


# ------------------------------------------------------------- screens


def test_srg_basic_and_identity():
    assert srg_basic_ok(SrgParams(16, 6, 2, 2))
    assert not srg_basic_ok(SrgParams(16, 6, 2, 1))
    assert not srg_basic_ok(SrgParams(16, 15, 14, 0))


def test_srg_multiplicities_known_values():
    assert srg_multiplicities(SrgParams(16, 6, 2, 2)) == (6, 9)
    assert srg_multiplicities(SrgParams(10, 3, 0, 1)) == (5, 4)
    # conference graph: irrational eigenvalues, equal halves
    assert srg_multiplicities(SrgParams(5, 2, 0, 1)) == (2, 2)
    assert srg_multiplicities(SrgParams(16, 6, 2, 1)) is None
    # no real eigenvalue pair (discriminant 0); multiplicity g = -1
    assert srg_multiplicities(SrgParams(10, 1, 0, 2)) is None
    assert srg_multiplicities(SrgParams(3, 1, 0, 3)) is None


def test_srg_complement_filter():
    # complement would need lambda = -2
    assert not srg_complement_ok(SrgParams(36, 28, 22, 20))
    assert srg_complement_ok(SrgParams(16, 6, 2, 2))


def test_srg_krein_and_absolute_bound():
    assert srg_krein_ok(SrgParams(16, 6, 2, 2))
    assert srg_absolute_bound_ok(SrgParams(16, 6, 2, 2))
    assert srg_primitive_feasible(SrgParams(96, 45, 24, 18))
    # imprimitive: disjoint cliques have mu = 0
    assert not srg_primitive_feasible(SrgParams(16, 3, 2, 0))


# ------------------------------------------------------------- sign counts


def test_sign_pattern_sum_counts():
    sol = solve_sign_pattern("sum", 6, 2)
    assert sol.counts == (Fraction(2), Fraction(2), Fraction(2), Fraction(0))
    assert sol.integral
    sol = solve_sign_pattern("sum", 15, 3)
    assert sol.counts[0] == Fraction(9, 2)
    assert not sol.integral


def test_sign_pattern_diff_counts():
    sol = solve_sign_pattern("diff", 6, 2)
    assert sol.counts == (Fraction(3), Fraction(1), Fraction(1), Fraction(1))
    assert sol.integral
    sol = solve_sign_pattern("diff", 35, 5)
    assert sol.counts[0] == Fraction(25, 2)
    assert not sol.integral


def test_sign_pattern_rejects_unknown_kind():
    with pytest.raises(ValueError):
        solve_sign_pattern("product", 6, 2)


@pytest.mark.parametrize("ell,a", [(6, 2), (15, 3), (28, 4), (35, 5), (45, 5), (91, 7)])
def test_sum_filter_iff_non_integral(ell, a):
    assert filter_mod4_sum(ell, a) == (not solve_sign_pattern("sum", ell, a).integral)


@pytest.mark.parametrize("ell,a", [(6, 2), (35, 5), (99, 9), (165, 11), (5, 1), (9, 1)])
def test_diff_filter_implies_non_integral(ell, a):
    if filter_mod4_diff(ell, a):
        assert not solve_sign_pattern("diff", ell, a).integral
    if a == 1:
        # one split row cannot make a difference pair
        assert not filter_mod4_diff(ell, a)


# ------------------------------------------------------------- eigvec search


def test_eigvec_search_rook_certifies_nonexistence():
    rook = bundled_data("srg-36-10-4-2")
    res = eigvec_search(rook, 10, 4, -2)
    assert res.eigenspace_dim == 10
    assert len(res.survivors) == 20
    assert res.best_size == 2
    assert res.certifies_nonexistence


@pytest.mark.parametrize(
    "params, count, best_set, digest",
    [
        (
            (10, 4, -2),
            20,
            (9, 19),
            "49ff75ddf675eca0a454f6f3b8839e78ccc66685622f4eae47aa8d8ff211b7b7",
        ),
        (
            (11, 5, -1),
            63,
            (28, 55, 62),
            "1b5494e68837839d0ce707f1c85d01616f3660a0b4b1d07f5e75464f34b427e2",
        ),
    ],
)
def test_eigvec_search_rook_survivors_are_pinned(params, count, best_set, digest):
    # the survivors in order and the best set depend on rref's pivots and
    # row order, so these pin the elimination as well as the search
    res = eigvec_search(bundled_data("srg-36-10-4-2"), *params)
    assert len(res.survivors) == count and res.best_set == best_set
    packed = np.array(res.survivors, dtype=np.int8).tobytes()
    assert hashlib.sha256(packed).hexdigest() == digest


def test_eigvec_search_lattice_finds_the_split():
    lat = bundled_data("lattice-4x4")
    res = eigvec_search(lat, 6, 2, -2)
    assert res.eigenspace_dim == 6
    assert len(res.survivors) == 6
    assert res.best_size == 6
    assert not res.certifies_nonexistence
    for i in res.best_set:
        vec = res.survivors[i]
        assert set(vec) == {1, -1}


def test_eigvec_search_multiplicity_mismatch():
    lat = bundled_data("lattice-4x4")
    with pytest.raises(MultiplicityMismatch):
        eigvec_search(lat, 5, 2, -2)


def test_eigvec_search_rejects_asymmetric():
    from hadsplit.core import IntMatrix, exact_matmul

    bad = IntMatrix([[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        eigvec_search(bad, 1, 1, -1)


@pytest.mark.parametrize("ell", [0, -1, 17, 20])
def test_eigvec_search_rejects_ell_outside_1_to_v(ell):
    with pytest.raises(ValueError, match=rf"needs 1 <= ell <= v, not v = 16, ell = {ell}$"):
        eigvec_search(bundled_data("lattice-4x4"), ell, 2, -2)


def test_eigvec_search_rejects_a_matrix_that_is_not_a_graph():
    lattice = bundled_data("lattice-4x4").array
    for bad in (lattice + np.eye(16, dtype=np.int64), 2 * lattice, -lattice):
        with pytest.raises(ValueError, match="0/1 entries and a zero diagonal"):
            eigvec_search(IntMatrix(bad), 6, 2, -2)


def _eigvec_search_reference(adjacency, ell, a, b):
    """eigvec_search over Fraction: a Gauss-Jordan rref over Fraction, a
    Fraction DFS and pairwise dot products for the orthogonality graph."""
    v = adjacency.nrows
    system = [
        [
            Fraction((ell - v if i == j else 0) + (a - b) * adjacency[i, j] + (b if i != j else 0))
            for j in range(v)
        ]
        for i in range(v)
    ]
    reduced, pivots = fraction_rref(system)
    free = [c for c in range(v) if c not in pivots]
    if len(free) != ell:
        raise MultiplicityMismatch(f"eigenspace dimension {len(free)}, expected {ell}")
    coeff = [[-reduced[i][f] for f in free] for i in range(len(pivots))]
    survivors = []

    def dfs(signs, partial):
        t = len(signs)
        rem = [sum(abs(c) for c in row[t:]) for row in coeff]
        if not all(p - r <= 1 <= p + r or p - r <= -1 <= p + r for p, r in zip(partial, rem)):
            return
        if t == ell:
            if all(abs(p) == 1 for p in partial):
                vec = [0] * v
                for f, s in zip(free, signs):
                    vec[f] = s
                for p, val in zip(pivots, partial):
                    vec[p] = int(val)
                survivors.append(tuple(vec))
            return
        for s in (1,) if t == 0 else (1, -1):
            dfs(signs + [s], [p + s * row[t] for p, row in zip(partial, coeff)])

    dfs([], [Fraction(0)] * len(pivots))
    neighbors = [
        sum(1 << j for j, y in enumerate(survivors) if sum(p * q for p, q in zip(x, y)) == 0)
        for x in survivors
    ]
    best_size, best_set = max_clique(neighbors)
    return EigvecSearchResult(
        eigenspace_dim=ell,
        survivors=tuple(survivors),
        best_size=best_size,
        best_set=tuple(best_set),
        certifies_nonexistence=best_size < ell,
    )


def test_eigvec_search_builds_the_survivor_gram_in_row_blocks(monkeypatch):
    import hadsplit.feasibility as feas

    adjacency = bundled_data("srg-36-10-4-2")
    whole = eigvec_search(adjacency, 11, 5, -1)
    n = len(whole.survivors)
    shapes = []

    def recording(a, b):
        shapes.append(a.shape[0] * b.shape[1])
        return exact_matmul(a, b)

    monkeypatch.setattr(feas, "exact_matmul", recording)
    monkeypatch.setattr(feas, "_GRAM_ENTRIES", 2 * n)
    assert eigvec_search(adjacency, 11, 5, -1) == whole
    assert n > 2 and shapes == [2 * n] * (n // 2) + [n] * (n % 2)


def _rook_complement():
    return IntMatrix(1 - np.eye(36, dtype=np.int64) - bundled_data("srg-36-10-4-2").array)


def test_eigvec_search_stops_past_the_survivor_cap(monkeypatch):
    import hadsplit.feasibility as feas

    grams = []

    def recording(a, b):
        grams.append(a.shape)
        return exact_matmul(a, b)

    monkeypatch.setattr(feas, "exact_matmul", recording)
    # (36, 25, 1, -5) on the rook complement: its DFS finds 148600 sign vectors
    with pytest.raises(BudgetExceeded, match="16385 survivors exceed the budget of 16384"):
        eigvec_search(_rook_complement(), 25, 1, -5)
    assert grams == []
    # the bundled certificates stay far below the cap
    rook = bundled_data("srg-36-10-4-2")
    assert [len(eigvec_search(rook, *p).survivors) for p in ((10, 4, -2), (11, 5, -1))] == [20, 63]
    monkeypatch.setattr(feas, "_SURVIVOR_CAP", 20)
    assert eigvec_search(rook, 10, 4, -2).best_size == 2
    monkeypatch.setattr(feas, "_SURVIVOR_CAP", 19)
    with pytest.raises(BudgetExceeded, match="20 survivors"):
        eigvec_search(rook, 10, 4, -2)


def _outcome(search, adjacency, params):
    try:
        return search(adjacency, *params)
    except MultiplicityMismatch as exc:
        return str(exc)


def _graphs_and_relabellings():
    for graph in ("lattice-4x4", "shrikhande", "srg-36-10-4-2"):
        adjacency = bundled_data(graph)
        p = np.random.default_rng(len(graph)).permutation(adjacency.nrows)
        yield adjacency
        yield IntMatrix(adjacency.array[np.ix_(p, p)])


@pytest.mark.parametrize("rows", [1, 3])
def test_eigvec_search_frontier_blocks_keep_the_survivor_order(monkeypatch, rows):
    params = [(6, 2, -2), (10, 4, -2), (11, 5, -1)]
    cases = list(_graphs_and_relabellings())
    whole = [_outcome(eigvec_search, adjacency, p) for adjacency in cases for p in params]
    assert sum(isinstance(r, EigvecSearchResult) for r in whole) == 8
    monkeypatch.setattr(feas, "_FRONTIER_ROWS", rows)
    assert [_outcome(eigvec_search, adjacency, p) for adjacency in cases for p in params] == whole
    # the cap counts survivors the same way in blocks of any size
    rook = bundled_data("srg-36-10-4-2")
    monkeypatch.setattr(feas, "_SURVIVOR_CAP", 19)
    with pytest.raises(BudgetExceeded, match="^20 survivors exceed the budget of 19$"):
        eigvec_search(rook, 10, 4, -2)


def test_eigvec_search_runs_on_python_ints_past_the_int64_bound(monkeypatch):
    params = [(6, 2, -2), (10, 4, -2), (11, 5, -1)]
    cases = list(_graphs_and_relabellings())
    want = [_outcome(eigvec_search, adjacency, p) for adjacency in cases for p in params]
    # scale + max(rem) is at least 1, so a bound of 1 sends every search to
    # the object arrays
    monkeypatch.setattr(feas, "_INT64_SAFE", 1)
    assert [_outcome(eigvec_search, adjacency, p) for adjacency in cases for p in params] == want


@pytest.mark.parametrize(
    "adjacency, params",
    [
        ([[0]], (1, 0, 0)),
        ([[0]], (1, 3, -2)),
        ([[0, 1], [1, 0]], (2, 0, 1)),
        ([[0, 1, 1], [1, 0, 1], [1, 1, 0]], (3, 0, 0)),
        ([[0, 1, 0], [1, 0, 1], [0, 1, 0]], (3, 0, 0)),
    ],
)
def test_eigvec_search_with_no_pivots_keeps_every_sign_vector(adjacency, params):
    # B - nI = 0: the eigenspace is everything, the frontier has no pivot
    # columns and every sign vector up to global sign survives
    adjacency = IntMatrix(adjacency)
    got = eigvec_search(adjacency, *params)
    assert got == _eigvec_search_reference(adjacency, *params)
    assert len(got.survivors) == 2 ** (params[0] - 1)


@pytest.mark.parametrize("params", [(6, 2, -2), (10, 4, -2), (11, 5, -1)])
@pytest.mark.parametrize("graph", ["lattice-4x4", "shrikhande", "srg-36-10-4-2"])
def test_eigvec_search_matches_the_fraction_reference(graph, params):
    adjacency = bundled_data(graph)
    got = _outcome(eigvec_search, adjacency, params)
    assert got == _outcome(_eigvec_search_reference, adjacency, params)
    if graph != "srg-36-10-4-2":
        # a relabelled copy changes the pivots and the DFS order
        p = np.random.default_rng(len(graph)).permutation(adjacency.nrows)
        relabelled = IntMatrix(adjacency.array[np.ix_(p, p)])
        assert _outcome(eigvec_search, relabelled, params) == _outcome(
            _eigvec_search_reference, relabelled, params
        )
