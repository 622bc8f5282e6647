import functools
import math
import re
import tracemalloc
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hadsplit.splitting as splitting
from hadsplit.constructions import (
    core_tensor,
    gram_construction,
    kron_square,
    skew_core_bsh,
    twin_sylvester,
    two_row_split,
)
from hadsplit.core import (
    HadamardMatrix,
    HadsplitError,
    IntMatrix,
    _proved_hadamard,
    conference_from_core,
    paley_skew_core,
    sylvester,
)
from hadsplit.splitting import (
    BoundInapplicable,
    BudgetExceeded,
    InfeasibleSeidel,
    MissingAllOnesRow,
    NonIntegral,
    NotDiagonalized,
    NotSplittable,
    NotUnbiasedCase,
    SeidelDerivation,
    SplitParams,
    SplitReport,
    SrgParams,
    WrongParameters,
    check_split,
    classify_srg16,
    delete_allones_transform,
    derive_seidel,
    derive_srg_case_a,
    derive_srg_case_b,
    diagonalize_by_hadamard,
    direct_srg_params,
    equiangular_report,
    general_srg_from_b,
    regular_hadamard_normalize,
    search_splits,
    split_from_diagonalizable_srg,
    unbiased_partner,
    verify_seidel_matrix,
)
from helpers import srg_polynomials


def _load(name):
    from hadsplit.cli import bundled_data

    return bundled_data(name)


# ------------------------------------------------------------- check_split


def test_twin_split_is_seidel_branch(twin16):
    rep = twin16.reports[1]
    assert rep.params.astuple() == (16, 6, 2, -2)
    assert rep.branch == "seidel"
    assert rep.alt_branch == "case-a"
    assert rep.srg.astuple() == (16, 6, 2, 2)
    assert rep.checks["rowsum_zero"]
    assert rep.checks["gram_ok"]
    assert rep.checks["seidel_ok"]


def test_block_split_is_case_b(twin16):
    rep = twin16.reports[0]
    assert rep.params.astuple() == (16, 4, 4, 0)
    assert rep.branch == "case-b"
    assert rep.adjacency is not None


def test_deleted_split_is_case_a(split_16_9):
    assert split_16_9.params.astuple() == (16, 9, 1, -3)
    assert split_16_9.branch == "case-a"
    assert split_16_9.srg.astuple() == (16, 9, 4, 6)
    assert split_16_9.checks["rowsum_zero"]


def test_single_row_splits():
    h = sylvester(4)
    constant = check_split(h, [0])
    assert constant.params.astuple() == (16, 1, 1, 1)
    assert constant.branch == "single-value"
    signed = check_split(h, [3])
    assert signed.params.astuple() == (16, 1, 1, -1)
    assert signed.branch == "seidel"


def test_whole_matrix_and_complements():
    h = sylvester(4)
    assert check_split(h, range(16)).params.astuple() == (16, 16, 0, 0)
    assert check_split(h, range(1, 16)).params.astuple() == (16, 15, -1, -1)


def test_not_splittable_three_gram_values():
    with pytest.raises(NotSplittable):
        check_split(sylvester(4), [0, 1, 2])


def test_check_split_input_validation():
    h = sylvester(2)
    with pytest.raises(ValueError):
        check_split(h, [0, 9])
    with pytest.raises(ValueError):
        check_split(h, [0, 0])
    with pytest.raises(ValueError):
        check_split(h, [])


def test_check_split_rejects_non_integral_row_indices(twin16):
    rows = (1, 4, 5, 6, 9, 15)
    with pytest.raises(ValueError, match="row index 1.5 is not an integer"):
        check_split(twin16.h, [1.5, 4, 5, 6, 9, 15])
    with pytest.raises(ValueError, match="not an integer"):
        check_split(twin16.h, ["1", 4, 5, 6, 9, 15])
    # numpy integers are indices
    assert check_split(twin16.h, np.array(rows)).rows == rows


def test_order_1_has_no_split():
    # an order-1 Gram has no off-diagonal entry to read a or b from
    for call in (lambda: check_split(sylvester(0), [0]), lambda: search_splits(sylvester(0), 1)):
        with pytest.raises(ValueError, match="order 1"):
            call()


# One split per parameter tuple of sylvester(4) (the first representative
# search_splits finds for each ell) and the three splits of the order-16 twin.
_SYLVESTER16_SPLITS = [
    (0,), (1,), (0, 1), (1, 2, 3), (0, 1, 2, 3), (1, 2, 4, 8, 15), (0, 1, 2, 4, 8, 15),
    (0, 1, 2, 3, 4, 8, 12), (1, 2, 3, 4, 5, 6, 7), (0, 1, 2, 3, 4, 5, 6, 7),
    (1, 2, 4, 7, 8, 11, 13, 14), (0, 1, 2, 4, 7, 8, 11, 13, 14), (1, 2, 3, 4, 5, 8, 10, 12, 15),
    (0, 1, 2, 3, 4, 5, 8, 10, 12, 15), (0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 12),
    (1, 2, 3, 4, 5, 6, 8, 9, 10, 13, 14, 15), (0, 1, 2, 3, 4, 5, 6, 8, 9, 10, 13, 14, 15),
    (1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14), tuple(range(15)), tuple(range(1, 16)),
    tuple(range(16)),
]
_TWIN16_SPLITS = [(0, 2, 8, 10), (1, 4, 5, 6, 9, 15), (3, 7, 11, 12, 13, 14)]
_SPLITS_16 = [(sylvester(4), rows) for rows in _SYLVESTER16_SPLITS] + [
    (twin_sylvester(2).h, rows) for rows in _TWIN16_SPLITS
]


@functools.cache
def _paley_hadamard(q):
    """I + C for the skew conference matrix C of order q + 1."""
    c = conference_from_core(paley_skew_core(q))
    return HadamardMatrix((c + IntMatrix.identity(q + 1)).array)


def _span(vectors):
    """Rows of a Sylvester matrix closed under XOR of their indices."""
    out = {0}
    for v in vectors:
        out |= {u ^ v for u in out}
    return out


@st.composite
def _signed_subsets(draw):
    """A signed, row- and column-permuted Sylvester or Paley-core matrix of
    order 8 to 32, with or without column sign flips, and a row subset."""
    if draw(st.booleans()):
        m = draw(st.integers(3, 5))
        base, n = sylvester(m).array, 2**m
        # a subgroup S of F_2^m splits with values {|S|, 0}; S - {0}, the
        # complement and the complement of S - {0} split as well
        group = _span(draw(st.lists(st.integers(1, n - 1), max_size=m)))
        family = [group, group - {0}, set(range(n)) - group, set(range(n)) - (group - {0})]
    else:
        base = _paley_hadamard(draw(st.sampled_from([7, 11, 19, 23, 27, 31]))).array
        n = len(base)
        family = [{0}, set(range(1, n)), set(range(2, n)), {0, 1}]
    arbitrary = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
    rows = draw(st.sampled_from([r for r in family if r] + [arbitrary]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    perm = rng.permutation(n)
    signs = rng.choice([-1, 1], size=(2, n))
    if draw(st.booleans()):
        signs[1] = 1
    image = HadamardMatrix(signs[0][:, None] * base[perm][:, rng.permutation(n)] * signs[1])
    # row i of the image is row perm[i] of base
    return image, sorted(np.argsort(perm)[list(rows)].tolist())


@settings(max_examples=200, deadline=None)
@given(_signed_subsets())
def test_check_split_matches_direct_srg_params_and_unique(case):
    h, rows = case
    n = h.order
    h1 = h.array[rows]
    g = h1.T @ h1
    values = np.unique(g[~np.eye(n, dtype=bool)]).tolist()
    try:
        rep = check_split(h, rows)
    except NotSplittable:
        assert len(values) > 2
        return
    assert sorted({rep.params.a, rep.params.b}) == values
    if rep.adjacency is None:
        assert (len(values), rep.srg) == (1, None)
    else:
        assert rep.srg == direct_srg_params(rep.adjacency)


def test_unbalanced_single_row_has_an_irregular_graph():
    # one row with three +1s in eight: cliques of sizes 3 and 5
    arr = sylvester(3).array.copy()
    arr[:, 0] *= -1
    rep = check_split(HadamardMatrix(arr), [1])
    assert rep.params.astuple() == (8, 1, 1, -1)
    assert rep.branch == "seidel"
    assert sorted(rep.adjacency.array.sum(axis=1).tolist()) == [2, 2, 2, 4, 4, 4, 4, 4]
    assert rep.srg is None and direct_srg_params(rep.adjacency) is None


def _params(h, rows):
    try:
        return check_split(h, rows).params
    except NotSplittable:
        return None


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(_SPLITS_16),
    st.permutations(range(16)),
    st.permutations(range(16)),
    st.lists(st.sampled_from([1, -1]), min_size=16, max_size=16),
    st.lists(st.sampled_from([1, -1]), min_size=16, max_size=16),
    st.integers(0, 15),
)
def test_signed_permutations_keep_split_parameters(split, rperm, cperm, rsign, csign, col):
    h, rows = split
    report = check_split(h, rows)
    p = report.params
    # row i of the image is row rperm[i] of h, signed, with permuted columns
    image = HadamardMatrix(np.array(rsign)[:, None] * h.array[rperm][:, cperm])
    mapped = [rperm.index(r) for r in rows]
    moved = check_split(image, mapped)
    assert moved.params == p
    assert (moved.branch, moved.alt_branch, moved.srg, moved.checks) == (
        report.branch,
        report.alt_branch,
        report.srg,
        report.checks,
    )
    # column sign flips negate Gram entries g_pq with csign[p] != csign[q], so
    # they keep the parameters on the b = -a branch; flipping one column
    # changes them on every other split here
    if p.b == -p.a:
        assert _params(HadamardMatrix(h.array * np.array(csign)), rows) == p
    flipped = h.array.copy()
    flipped[:, col] *= -1
    assert (_params(HadamardMatrix(flipped), rows) == p) == (p.b == -p.a)


def test_gram_square_identity_always_checked(twin16):
    # G^2 = nG holds for every report this library emits
    for rep in twin16.reports:
        rows = np.array(twin16.h.tolist())[list(rep.rows)]
        g = rows.T @ rows
        assert np.array_equal(g @ g, 16 * g)


def _twin(m):
    tw = twin_sylvester(m)
    return [(tw.h, rep) for rep in tw.reports]


def _insts(*insts):
    return [(inst.h, inst.report) for inst in insts]


def _searched(h):
    return [(h, rep) for ell in (1, 2, 4, 6, 15, 16) for rep in search_splits(h, ell)]


SPLIT_FAMILIES = {
    "twin2": lambda: _twin(2),
    "twin3": lambda: _twin(3),
    "kron-small": lambda: _insts(*(kron_square(sylvester(e), "small") for e in (2, 3))),
    "kron-large": lambda: _insts(*(kron_square(sylvester(e), "large") for e in (2, 3))),
    "gram": lambda: _insts(gram_construction(sylvester(2))),
    "core-tensor": lambda: _insts(core_tensor(sylvester(1), sylvester(2))),
    "two-row": lambda: _insts(two_row_split(sylvester(3))),
    "skew-core7": lambda: _insts(skew_core_bsh(paley_skew_core(7))),
    "search16": lambda: _searched(sylvester(4)),
}


@pytest.mark.parametrize("family", SPLIT_FAMILIES)
def test_derived_checks_match_the_explicit_products(family):
    # the products check_split made before deriving gram_ok and seidel_ok
    for h, rep in SPLIT_FAMILIES[family]():
        n, ell, a, b = rep.params.astuple()
        h1 = h.array[list(rep.rows)]
        g = h1.T @ h1
        eye = np.eye(n, dtype=np.int64)
        adj = 0 * eye if rep.adjacency is None else rep.adjacency.array
        two_value = np.array_equal(g, ell * eye + a * adj + b * (1 - adj - eye))
        assert rep.checks["gram_ok"] == (two_value and np.array_equal(g @ g, n * g))
        seidel = ["seidel_ok"] if rep.branch == "seidel" else []
        assert list(rep.checks) == ["rowsum_zero", "gram_ok"] + seidel
        if seidel:
            assert rep.checks["seidel_ok"] == verify_seidel_matrix(rep)


def test_check_split_computes_only_the_gram(kernel_calls, twin16):
    for rep in twin16.reports:
        kernel_calls.clear()
        check_split(twin16.h, rep.rows)
        ell = rep.params.ell
        assert kernel_calls == [((16, ell), (ell, 16))]
        # the complement's Gram is formed over the same ell rows
        kernel_calls.clear()
        check_split(twin16.h, sorted(set(range(16)) - set(rep.rows)))
        assert kernel_calls == [((16, ell), (ell, 16))]
    kernel_calls.clear()
    check_split(twin16.h, [0])
    assert kernel_calls == [((16, 1), (1, 16))]
    kernel_calls.clear()
    check_split(twin16.h, range(16))
    assert kernel_calls == [((16, 0), (0, 16))]


def _direct_report(h, rows):
    """check_split's report, or its exception, built from the direct Gram
    H1t H1 with each check computed."""
    n, ell = h.order, len(rows)
    h1 = h.array[rows]
    g = h1.T @ h1
    eye = np.eye(n, dtype=bool)
    values = np.unique(g[~eye]).tolist()
    if len(values) > 2:
        raise NotSplittable(f"off-diagonal Gram values {values}")
    # at most two values off the diagonal: G = ell I + a A + b (J - I - A)
    # holds once the diagonal is ell
    two_value = np.all(np.diagonal(g) == ell)
    checks = {
        "rowsum_zero": not h1.sum(axis=1).any(),
        "gram_ok": bool(two_value and np.array_equal(g @ g, n * g)),
    }
    if len(values) == 1:
        (a,) = values
        return SplitReport(SplitParams(n, ell, a, a), tuple(rows), None, "single-value", None, checks)
    b, a = values
    adj = IntMatrix(((g == a) & ~eye).astype(np.int64))
    den_a, den_b = a * (n - 1) + ell, a * (n - 1) + ell - n
    matches = [
        name
        for name, holds in (
            ("seidel", b == -a),
            ("case-a", b * den_a == ell * (ell - a - n)),
            ("case-b", den_b != 0 and b * den_b == (ell - a) * (ell - n)),
        )
        if holds
    ]
    report = SplitReport(
        params=SplitParams(n, ell, a, b),
        rows=tuple(rows),
        adjacency=adj,
        branch=matches[0] if matches else "unclassified",
        srg=direct_srg_params(adj),
        checks=checks,
        alt_branch=matches[1] if len(matches) > 1 else None,
    )
    if report.branch == "seidel":
        checks["seidel_ok"] = verify_seidel_matrix(report)
    return report


def _outcome_of(fn, *args):
    try:
        return fn(*args)
    except NotSplittable as exc:
        return type(exc), str(exc)


@st.composite
def _both_sides_of_half(draw):
    """A signed, permuted sylvester(4), sylvester(5) or order-16 or order-64
    twin matrix, and a row subset: a known split or its complement, or a
    random subset whose size is often n/2, n/2 + 1, n - 1 or n."""
    kind = draw(st.sampled_from(["sylvester4", "sylvester5", "twin2", "twin3"]))
    if kind.startswith("sylvester"):
        m = int(kind[-1])
        base, n = sylvester(m), 2**m
        group = _span(draw(st.lists(st.integers(1, n - 1), max_size=m)))
        known = [group, group - {0}]
    else:
        tw = twin_sylvester(int(kind[-1]))
        base, n = tw.h, tw.h.order
        known = [set(tw.h1_rows), set(tw.h2_rows), set(tw.h3_rows)]
    known += [set(range(n)) - r for r in known]
    ell = draw(st.one_of(st.sampled_from([n // 2, n // 2 + 1, n - 1, n]), st.integers(1, n)))
    picked = draw(st.permutations(range(n)))[:ell]
    rows = draw(st.sampled_from([r for r in known if r] + [set(picked)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    perm = rng.permutation(n)
    signs = rng.choice([-1, 1], size=(2, n))
    image = HadamardMatrix(signs[0][:, None] * base.array[perm][:, rng.permutation(n)] * signs[1])
    # row i of the image is row perm[i] of base
    return image, sorted(np.argsort(perm)[sorted(rows)].tolist())


@settings(max_examples=200, deadline=None)
@given(_both_sides_of_half())
def test_check_split_matches_the_direct_gram_on_both_sides_of_half(case):
    h, rows = case
    got, want = _outcome_of(check_split, h, rows), _outcome_of(_direct_report, h, rows)
    assert got == want
    if isinstance(want, SplitReport):
        assert list(got.checks) == list(want.checks)


def _signed(h, seed, rows):
    """D P H Q for random row signs D and row and column permutations P, Q,
    which keep every split; returns it and the images of the given rows."""
    rng = np.random.default_rng(seed)
    n = h.order
    perm = rng.permutation(n)
    signs = rng.choice([-1, 1], size=n)
    image = HadamardMatrix(signs[:, None] * h.array[perm][:, rng.permutation(n)])
    return image, sorted(np.argsort(perm)[rows].tolist())


@pytest.mark.parametrize("order, part", [(256, "h1_rows"), (256, "h2_rows"), (512, "rows")])
def test_check_split_on_orders_256_and_512_matches_the_direct_gram(order, part):
    # each row set and its complement: one takes 2 ell <= n, the other 2 ell > n
    inst = twin_sylvester(4) if order == 256 else core_tensor(sylvester(2), sylvester(7))
    h = inst.h
    image, rows = _signed(h, 0, list(getattr(inst, part)))
    for subset in (rows, sorted(set(range(h.order)) - set(rows))):
        got, want = check_split(image, subset), _direct_report(image, subset)
        assert got == want and list(got.checks) == list(want.checks)


def test_check_split_error_messages_list_gram_values_in_ascending_order(twin16):
    with pytest.raises(NotSplittable, match=re.escape("off-diagonal Gram values [-1, 1, 3]")):
        check_split(twin16.h, [0, 1, 2])
    with pytest.raises(NotSplittable, match=re.escape("off-diagonal Gram values [-3, -1, 1]")):
        check_split(twin16.h, range(3, 16))


def test_check_split_allocates_no_int64_gram():
    # n = 512, ell = 508: the float32 product (1 MiB) and its edge mask
    # (0.25 MiB), then the mask and the int64 adjacency (2 MiB); an int64
    # copy of the product would add 2 MiB
    inst = core_tensor(sylvester(2), sylvester(7))
    h, rows = _signed(inst.h, 1, list(inst.rows))
    check_split(h, rows)
    tracemalloc.start()
    try:
        rep = check_split(h, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.params.astuple() == (512, 508, 0, -4)
    assert peak < 3.5 * 2**20


# ------------------------------------------------------------- derivations


def test_srg_params_identity_and_complement():
    p = SrgParams(16, 6, 2, 2)
    assert p.identity_ok()
    assert p.complement().astuple() == (16, 9, 4, 6)
    assert p.complement().complement() == p


def test_direct_srg_params_on_bundled_graphs():
    assert direct_srg_params(_load("lattice-4x4")).astuple() == (16, 6, 2, 2)
    assert direct_srg_params(_load("shrikhande")).astuple() == (16, 6, 2, 2)
    assert direct_srg_params(_load("srg-36-10-4-2")).astuple() == (36, 10, 4, 2)
    assert direct_srg_params(IntMatrix([[0, 1, 0], [1, 0, 0], [0, 0, 0]])) is None
    # not symmetric; entries off 0/1; the 6-cycle is regular but not an SRG
    assert direct_srg_params(IntMatrix([[0, 1], [0, 0]])) is None
    assert direct_srg_params(IntMatrix([[0, 2], [2, 0]])) is None
    cycle = [[int((i - j) % 6 in (1, 5)) for j in range(6)] for i in range(6)]
    assert direct_srg_params(IntMatrix(cycle)) is None


def test_derive_seidel_canonical():
    der = derive_seidel(16, 6, 2)
    assert der.params.astuple() == (16, 6, 2, -2)
    assert der.srg.astuple() == (16, 6, 2, 2)
    assert der.s_spectrum == ((5, 6), (-3, 10))


def test_derive_seidel_degenerate_single_line():
    der = derive_seidel(16, 1, 1)
    assert der.srg.astuple() == (16, 7, 6, 0)
    assert der.s_spectrum == ((15, 1), (-1, 15))


def test_derive_seidel_successes_have_an_integral_spectrum():
    # no spectrum test: integral k and mu give a | ell and a | n
    found = 0
    for n in range(4, 3000):
        a = 1
        while 4 * a * a * (n - 1) <= n * n:
            disc = n * n - 4 * a * a * (n - 1)
            d = math.isqrt(disc)
            if d * d == disc and (n - d) % 2 == 0:
                for ell in {(n - d) // 2, (n + d) // 2} - {0}:
                    try:
                        der = derive_seidel(n, ell, a)
                    except HadsplitError:
                        continue
                    assert ell % a == 0 and n % a == 0, (n, ell, a)
                    assert der.s_spectrum == (((n - ell) // a, ell), (-ell // a, n - ell))
                    found += 1
            a += 1
    assert found > 100


def test_derive_seidel_rejects_broken_trace_identity():
    with pytest.raises(InfeasibleSeidel):
        derive_seidel(16, 7, 2)
    with pytest.raises(InfeasibleSeidel):
        derive_seidel(16, 6, -2)


@pytest.mark.parametrize("cell", [(-4, 1, 1), (2, 1, 1), (3, 1, 1), (16, 0, 1), (16, 17, 1)])
def test_derive_seidel_refuses_orders_below_4_and_ell_out_of_range(cell):
    # (-4, 1, 1) and (2, 1, 1) satisfy the order identity; derive_seidel
    # once returned (-4, -3, -4, 0) and lambda = -1 for them
    n, ell, _ = cell
    with pytest.raises(ValueError, match=f"needs n >= 4 and 1 <= ell <= n, not n = {n}, ell = {ell}"):
        derive_seidel(*cell)


def test_derive_case_a_rows():
    assert derive_srg_case_a(16, 9, 1) == (-3, SrgParams(16, 9, 4, 6))
    assert derive_srg_case_a(16, 5, 1) == (-3, SrgParams(16, 10, 6, 6))
    assert derive_srg_case_a(36, 10, 4) == (-2, SrgParams(36, 10, 4, 2))
    assert derive_srg_case_a(64, 14, 6) == (-2, SrgParams(64, 14, 6, 2))


def test_derive_case_a_rejects_seidel_overlap():
    with pytest.raises(NonIntegral):
        derive_srg_case_a(16, 6, 2)


def test_derive_case_a_reports_a_vanishing_denominator():
    """Every cell of 4 <= n < 90, 1 <= ell <= n, -3 <= a <= ell + 1 gives a
    result, NonIntegral or HadsplitError; a(n-1) + ell = 0 says so. Cells
    outside that range raise ValueError before the denominator is formed."""
    vanishing = 0
    for n in range(4, 90):
        for ell in range(1, n + 1):
            for a in range(-3, ell + 2):
                try:
                    derive_srg_case_a(n, ell, a)
                except HadsplitError as exc:
                    vanishing += str(exc) == "branch denominator a(n-1) + ell vanishes"
    assert vanishing == 86
    with pytest.raises(NonIntegral, match="denominator a\\(n-1\\) \\+ ell vanishes"):
        derive_srg_case_a(16, 15, -1)
    for cell in ((0, 1, 1), (16, 0, 0)):
        with pytest.raises(ValueError, match="needs n >= 4 and 1 <= ell <= n"):
            derive_srg_case_a(*cell)


@pytest.mark.parametrize("case", ["a", "b"])
@pytest.mark.parametrize("cell", [(-4, 1, 1), (2, 1, 1), (3, 1, 1), (16, 0, 1), (16, 17, 1)])
def test_derive_srg_cases_refuse_orders_below_4_and_ell_out_of_range(case, cell):
    # case a once returned b = 0 and the block graph (16, 0, 16, 0) for
    # (16, 0, 1), and k = -17 for (16, 17, 1)
    derive = derive_srg_case_b if case == "b" else derive_srg_case_a
    n, ell, _ = cell
    with pytest.raises(
        ValueError,
        match=f"^case-{case} derivation needs n >= 4 and 1 <= ell <= n, not n = {n}, ell = {ell}$",
    ):
        derive(*cell)


def test_derive_case_b():
    # four disjoint 4-cliques: the imprimitive block split
    b, srg = derive_srg_case_b(16, 4, 4)
    assert b == 0
    assert srg.astuple() == (16, 3, 2, 0)
    assert srg.identity_ok()


@pytest.mark.parametrize(
    "derive, cell, srg",
    [
        (derive_seidel, (16, 15, 1), (16, 0, -8, 0)),
        (derive_srg_case_a, (36, 28, 4), (36, 7, -2, 2)),
        (derive_srg_case_a, (16, 15, 7), (16, 0, -2, 0)),
    ],
)
def test_derivations_refuse_parameters_no_graph_has(derive, cell, srg):
    # each once returned its integral k, lambda and mu: lambda < 0 or k = 0
    with pytest.raises(HadsplitError) as exc:
        derive(*cell)
    assert type(exc.value) is HadsplitError
    assert str(exc.value) == f"no graph with edges and non-edges has parameters {srg}"


@pytest.mark.parametrize(
    "derive, cell, b",
    [
        (derive_srg_case_a, (12, 2, 2), -1),
        (derive_srg_case_a, (12, 2, -1), 2),
        (derive_srg_case_b, (9, 5, 2), -1),
    ],
)
def test_derivations_refuse_values_no_gram_has(derive, cell, b):
    # each once returned b with a graph, (12, 3, 2, 0), (12, 8, 4, 8) and
    # (9, 4, 1, 2), though b or a differs from ell in parity
    _, ell, a = cell
    with pytest.raises(HadsplitError) as exc:
        derive(*cell)
    assert type(exc.value) is HadsplitError
    assert str(exc.value) == f"no +-1 columns of length {ell} have inner products a = {a} and b = {b}"


def test_derive_seidel_gives_the_zero_row_sum_graph():
    # (16, 10, 2, -2) with zero row sums has the Clebsch graph; the
    # complement of twin_sylvester(2)'s twin rows has nonzero row sums
    assert derive_seidel(16, 10, 2).srg.astuple() == (16, 5, 0, 2)
    tw = twin_sylvester(2)
    rep = check_split(tw.h, sorted(set(range(16)) - set(tw.h2_rows)))
    assert rep.params.astuple() == (16, 10, 2, -2)
    assert not rep.checks["rowsum_zero"]
    assert rep.srg.astuple() == (16, 9, 4, 6)


def _branch_b(n, ell, a, branch):
    """b on the case-a (sigma = 0) or case-b (sigma = n) branch, or None
    where its denominator vanishes."""
    num, den = ((ell * (ell - a - n), a * (n - 1) + ell) if branch == "a"
                else ((ell - a) * (ell - n), a * (n - 1) + ell - n))
    return Fraction(num, den) if den else None


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_srg_terms_match_the_closed_form_polynomials(data):
    """_srg_terms on each branch's b, and general_srg_from_b on any b, give
    the (k, lam, mu) of the polynomials in tests/helpers.py."""
    n = data.draw(st.integers(4, 4096))
    ell = data.draw(st.integers(1, n))
    a = data.draw(st.integers(-ell, ell))
    for branch, sigma in (("a", 0), ("b", n)):
        b = _branch_b(n, ell, a, branch)
        if b is not None and a * a != b * b:
            got = tuple(num / den for num, den in splitting._srg_terms(n, ell, a, b, sigma))
            assert got == srg_polynomials(n, ell, a, b), (branch, b)
    b = Fraction(data.draw(st.integers(-n, n)), data.draw(st.integers(1, n)))
    if a * a != b * b:
        assert general_srg_from_b(n, ell, a, b) == srg_polynomials(n, ell, a, b)


def test_general_srg_from_b_is_exact():
    k, lam, mu = general_srg_from_b(16, 9, 1, -3)
    assert (k, lam, mu) == (Fraction(9), Fraction(4), Fraction(6))
    k, lam, mu = general_srg_from_b(64, 21, 5, -3)
    assert (k, lam, mu) == (Fraction(21), Fraction(8), Fraction(6))
    with pytest.raises(NonIntegral, match=re.escape("a^2 = b^2 has no two-value derivation")):
        general_srg_from_b(16, 6, 2, -2)


def _ref_integer(name, val):
    if val.denominator != 1:
        raise NonIntegral(f"{name} = {val} is not an integer")
    return int(val)


def _ref_graph(srg):
    """srg, when a graph with both edges and non-edges can have it."""
    v, k, lam, mu = srg.astuple()
    if not (1 <= k <= v - 2 and 0 <= lam <= k - 1 and 0 <= mu <= k):
        raise HadsplitError(f"no graph with edges and non-edges has parameters {srg.astuple()}")
    return srg


def _ref_srg(n, ell, a, b):
    """(k, lam, mu) of the a-marked graph over Fraction, for an integer b."""
    if a * a == b * b:
        raise NonIntegral("a^2 = b^2 has no two-value derivation here")
    # a Gram value is ell - 2d, d in [0, ell] counting the disagreements
    if any((ell - x) % 2 or not 0 <= (ell - x) // 2 <= ell for x in (a, b)):
        raise HadsplitError(f"no +-1 columns of length {ell} have inner products a = {a} and b = {b}")
    k, lam, mu = srg_polynomials(n, ell, a, b)
    vals = [_ref_integer(name, v) for name, v in (("k", k), ("lambda", lam), ("mu", mu))]
    return _ref_graph(SrgParams(n, *vals))


def _ref_seidel(n, ell, a):
    if n < 4 or not 1 <= ell <= n:
        raise ValueError(
            f"Seidel derivation needs n >= 4 and 1 <= ell <= n, not n = {n}, ell = {ell}"
        )
    if a < 1:
        raise InfeasibleSeidel("a must be positive when b = -a")
    if ell * ell + a * a * (n - 1) != n * ell:
        raise InfeasibleSeidel(f"ell^2 + a^2(n-1) != n ell for {(n, ell, a)}")
    if ell == a * a:
        if n % 2:
            raise NonIntegral("odd order in the degenerate branch")
        srg = SrgParams(n, (n - 2) // 2, (n - 2) // 2 - 1, 0)
    else:
        den = 2 * a * (ell - a * a)
        k = _ref_integer("k", Fraction((a - 1) * ell * (a + ell), den))
        lam = _ref_integer("lambda", Fraction((a + ell) * (3 * a * a + a * ell - a - 3 * ell), 2 * den))
        mu = _ref_integer("mu", Fraction((a - 1) * (ell * ell - a * a), 2 * den))
        srg = SrgParams(n, k, lam, mu)
    s_pos, s_neg = Fraction(n - ell, a), Fraction(-ell, a)
    if s_pos.denominator != 1 or s_neg.denominator != 1:
        raise NonIntegral(f"Seidel spectrum {s_pos}, {s_neg} not integral")
    return SeidelDerivation(
        params=SplitParams(n, ell, a, -a),
        srg=_ref_graph(srg),
        s_spectrum=((int(s_pos), ell), (int(s_neg), n - ell)),
    )


def _ref_range(name, n, ell):
    if n < 4 or not 1 <= ell <= n:
        raise ValueError(f"{name} needs n >= 4 and 1 <= ell <= n, not n = {n}, ell = {ell}")


def _ref_case_a(n, ell, a):
    _ref_range("case-a derivation", n, ell)
    den = a * (n - 1) + ell
    if den == 0:
        raise NonIntegral("branch denominator a(n-1) + ell vanishes")
    b = _ref_integer("b", Fraction(ell * (ell - a - n), den))
    return b, _ref_srg(n, ell, a, b)


def _ref_case_b(n, ell, a):
    _ref_range("case-b derivation", n, ell)
    den = a * (n - 1) + ell - n
    if den == 0:
        raise NonIntegral("branch denominator a(n-1) + ell - n vanishes")
    b = _ref_integer("b", Fraction((ell - a) * (ell - n), den))
    return b, _ref_srg(n, ell, a, b)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (HadsplitError, ValueError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("seed", range(4))
def test_derivations_match_the_fraction_formulas(seed):
    """derive_* on a seeded sample of 2 <= n < 90, 1 <= ell <= n,
    -3 <= a <= ell + 1, plus every cell with n <= 12: the same values, or
    the same error type and message, as the formulas over Fraction."""
    rng = np.random.default_rng(seed)
    cells = [
        (n, ell, a) for n in range(2 + 3 * seed, 5 + 3 * seed)
        for ell in range(1, n + 1) for a in range(-3, ell + 2)
    ]
    for _ in range(1500):
        n = int(rng.integers(2, 90))
        ell = int(rng.integers(1, n + 1))
        cells.append((n, ell, int(rng.integers(-3, ell + 2))))
    # cells where a derivation succeeds, and where it stops at k (15, 7, 2),
    # at mu (45, 12, 3), (27, 16, 4), (27, 17, 5), at a vanishing denominator
    # (16, 15, -1), at a b of the other parity from ell (12, 2, 2), (12, 2, -1),
    # or at an order below 4 (2, 1, 1), (2, 1, -1), (3, 1, 1)
    cells += [(16, 6, 2), (16, 1, 1), (36, 15, 3), (16, 9, 1), (36, 10, 4), (64, 14, 6),
              (16, 4, 4), (64, 8, 8), (15, 7, 2), (45, 12, 3), (27, 16, 4), (27, 17, 5),
              (16, 15, -1), (12, 2, 2), (12, 2, -1), (2, 1, 1), (2, 1, -1), (3, 1, 1)]
    for derive, ref in ((derive_seidel, _ref_seidel), (derive_srg_case_a, _ref_case_a),
                        (derive_srg_case_b, _ref_case_b)):
        for cell in cells:
            assert _outcome(derive, *cell) == _outcome(ref, *cell), (derive.__name__, cell)


def test_verify_seidel_matrix(twin16, split_16_9):
    assert verify_seidel_matrix(twin16.reports[1])
    with pytest.raises(InfeasibleSeidel, match="report is not on the b = -a branch"):
        verify_seidel_matrix(split_16_9)
    # (16, 16, 0, 0) has b = -a but a single value, so no adjacency
    single = check_split(twin16.h, range(16))
    assert single.branch == "single-value"
    with pytest.raises(InfeasibleSeidel, match="no adjacency available"):
        verify_seidel_matrix(single)


def test_complement_split_is_involutive(twin16):
    # the complementary rows carry (n, n - ell, -b, -a)
    rep = twin16.reports[1]
    n, ell, a, b = rep.params.astuple()
    comp = check_split(twin16.h, sorted(set(range(16)) - set(rep.rows)))
    assert comp.params == SplitParams(n, n - ell, -b, -a) == SplitParams(16, 10, 2, -2)
    again = check_split(twin16.h, sorted(set(range(16)) - set(comp.rows)))
    assert again.params == rep.params


def test_delete_transform(twin16, split_16_9):
    assert split_16_9.params.astuple() == (16, 9, 1, -3)
    assert 0 not in split_16_9.rows
    with pytest.raises(InfeasibleSeidel):
        delete_allones_transform(twin16.h, twin16.reports[0])


def test_delete_requires_constant_row(twin16):
    # flipping one column destroys the unique constant-sign row
    sign = np.ones(16, dtype=np.int64)
    sign[0] = -1
    arr = np.array(twin16.h.tolist()) * sign[None, :]
    flipped = HadamardMatrix(arr.tolist())
    rep = check_split(flipped, twin16.h2_rows)
    assert rep.params.astuple() == (16, 6, 2, -2)
    with pytest.raises(MissingAllOnesRow):
        delete_allones_transform(flipped, rep)


def _delete_by_row_sets(h, report):
    """Reference dropped row and report for delete_allones_transform, with
    the constant-sign rows found from each row's set of entries."""
    outside = [i for i in range(h.order) if len(set(h.row(i))) == 1 and i not in report.rows]
    drop = outside[0]
    keep = [i for i in range(h.order) if i not in report.rows and i != drop]
    return drop, check_split(h, keep)


@pytest.mark.parametrize("m", [2, 4, 5])
@pytest.mark.parametrize("negate_row_0", [False, True])
def test_delete_transform_matches_the_row_by_row_search(m, negate_row_0):
    tw = twin_sylvester(m)
    h = tw.h
    if negate_row_0:  # the constant-sign row becomes all -1
        arr = h.array.copy()
        arr[0] *= -1
        h = _proved_hadamard(arr)
    for twin in tw.reports[1:]:
        report = check_split(h, twin.rows)
        out = delete_allones_transform(h, report)
        drop, want = _delete_by_row_sets(h, report)
        assert out == want
        assert set(range(h.order)) - set(report.rows) - set(out.rows) == {drop}


# ------------------------------------------------------------- transforms


def test_equiangular_reports():
    rep = equiangular_report(SplitParams(16, 6, 2, -2))
    assert rep.m == 6
    assert rep.alpha_sq == Fraction(1, 9)
    assert rep.bound == 16
    assert rep.attained
    rep = equiangular_report(SplitParams(64, 28, 4, -4))
    assert rep.alpha_sq == Fraction(1, 49)
    assert rep.bound == 64
    assert rep.attained


def test_equiangular_inapplicable():
    with pytest.raises(BoundInapplicable):
        equiangular_report(SplitParams(4, 1, 1, -1))
    with pytest.raises(InfeasibleSeidel):
        equiangular_report(SplitParams(16, 9, 1, -3))
    # b = -a, but 6^2 + 3^2 * 15 != 16 * 6: no split has these parameters
    with pytest.raises(InfeasibleSeidel, match=re.escape("ell^2 + a^2(n-1) != n ell for (16, 6, 3)")):
        equiangular_report(SplitParams(16, 6, 3, -3))
    # ell = 0 or n = 1 would divide by zero; ell > n names no split
    for n, ell in [(16, 0), (1, 1), (0, 0), (-4, 2), (16, 17), (16, -6)]:
        with pytest.raises(ValueError, match="needs n >= 2 and 1 <= ell <= n"):
            equiangular_report(SplitParams(n, ell, 2, -2))


def test_unbiased_partner(twin16):
    partner = unbiased_partner(twin16.h, twin16.reports[1])
    prod = np.array((twin16.h @ partner.T).tolist())
    assert set(np.abs(prod).ravel().tolist()) == {4}


def test_unbiased_partner_forms_no_product(kernel_calls, twin16):
    unbiased_partner(twin16.h, twin16.reports[1])
    assert kernel_calls == []


@pytest.mark.parametrize("m", [2, 3, 4])
def test_unbiased_partner_is_hadamard_and_unbiased(m):
    # the partner is not re-proved; this is the reference, on both sizes
    # ell = (n -+ sqrt n)/2, with and without column sign flips
    tw = twin_sylvester(m)
    n, root = 4**m, 2**m
    rng = np.random.default_rng(m)
    flipped = HadamardMatrix(tw.h.array * rng.choice([-1, 1], size=n))
    eye = np.eye(n, dtype=np.int64)
    for h in (tw.h, flipped):
        for rows in (tw.h2_rows, sorted(set(range(n)) - set(tw.h3_rows))):
            rep = check_split(h, rows)
            k = unbiased_partner(h, rep).array
            assert np.array_equal(k @ k.T, n * eye)
            assert np.array_equal(np.abs(h.array @ k.T), root * np.ones((n, n), dtype=np.int64))
            # the formula K = (2G - nI) / (2a) it replaced
            h1 = h.array[list(rows)]
            assert np.array_equal(k * 2 * rep.params.a, 2 * h1.T @ h1 - n * eye)


def test_unbiased_rejects_other_branches(twin16, split_16_9):
    with pytest.raises(NotUnbiasedCase):
        unbiased_partner(twin16.h, split_16_9)


def test_regular_normal_form(twin16):
    reg = regular_hadamard_normalize(twin16.h, twin16.reports[1])
    assert set(reg.row_sums()) == {4}
    assert set(reg.col_sums()) == {4}
    # the result is not re-proved Hadamard; this is the reference
    assert isinstance(reg, HadamardMatrix)
    assert reg @ reg.T == 16 * IntMatrix.identity(16)
    with pytest.raises(WrongParameters):
        regular_hadamard_normalize(twin16.h, twin16.reports[0])
    # with rows 0 and 1 swapped, the report's rows name one row outside the split
    moved = HadamardMatrix(twin16.h.array[[1, 0, *range(2, 16)]])
    with pytest.raises(HadsplitError, match=re.escape("column sums are not +-2m after row flips")):
        regular_hadamard_normalize(moved, twin16.reports[1])


@pytest.mark.parametrize(
    "transform", [delete_allones_transform, unbiased_partner, regular_hadamard_normalize]
)
@pytest.mark.parametrize("m", [2, 5])
def test_report_of_another_order_is_refused(transform, m, twin16):
    # the (16, 6, 2, -2) report is in range of each transform, so only the
    # order tells it apart from a report of rows of h
    with pytest.raises(ValueError, match="report does not belong to this matrix"):
        transform(sylvester(m), twin16.reports[1])


def test_diagonalize_by_hadamard(twin16):
    layout = diagonalize_by_hadamard(_load("lattice-4x4"), twin16.h)
    assert layout.multiplicities == {6: 1, 2: 6, -2: 9}
    with pytest.raises(NotDiagonalized) as err:
        diagonalize_by_hadamard(_load("shrikhande"), twin16.h)
    assert err.value.witness == (10, 15, 32)
    with pytest.raises(ValueError, match="shape mismatch"):
        diagonalize_by_hadamard(IntMatrix.zeros(4), twin16.h)


def test_not_diagonalized_names_first_offdiagonal_entry(twin16):
    rng = np.random.default_rng(5)
    mats = [_load("shrikhande")]
    # non-symmetric inputs tell row-major order from column-major
    mats += [IntMatrix(rng.integers(-1, 2, size=(16, 16))) for _ in range(4)]
    for a in mats:
        d = (twin16.h @ a @ twin16.h.T).tolist()
        first = next(
            (i, j, d[i][j]) for i in range(16) for j in range(16) if i != j and d[i][j]
        )
        with pytest.raises(NotDiagonalized) as err:
            diagonalize_by_hadamard(a, twin16.h)
        assert err.value.witness == first
        assert str(err.value) == f"off-diagonal entry at ({first[0]}, {first[1]})"


def test_split_from_diagonalizable_srg(twin16):
    with pytest.raises(MissingAllOnesRow):
        split_from_diagonalizable_srg(_load("lattice-4x4"), twin16.h)
    arr = np.array(twin16.h.tolist())
    reordered = HadamardMatrix(arr[list(range(1, 16)) + [0]].tolist())
    rep = split_from_diagonalizable_srg(_load("lattice-4x4"), reordered)
    assert rep.params.astuple() == (16, 6, 2, -2)
    assert rep.branch == "seidel"
    cycle = [[int((i - j) % 16 in (1, 15)) for j in range(16)] for i in range(16)]
    with pytest.raises(ValueError, match="input is not a strongly regular graph"):
        split_from_diagonalizable_srg(IntMatrix(cycle), reordered)
    # K16 = J - I: every row but the all-ones one carries -1
    complete = IntMatrix.ones(16) - IntMatrix.identity(16)
    with pytest.raises(HadsplitError, match=re.escape("expected two non-valency eigenvalues, got [-1]")):
        split_from_diagonalizable_srg(complete, reordered)


def test_search_splits(twin16):
    found = search_splits(twin16.h, 6)
    assert found
    assert all(r.params.astuple() == (16, 6, 2, -2) for r in found)
    with pytest.raises(BudgetExceeded):
        search_splits(twin16.h, 6, budget=10)


def _search_splits_reference(h, ell):
    """check_split on every subset in lexicographic order whose Gram has at
    most two off-diagonal values, keeping the first report of each tuple."""
    arr = h.array
    off = ~np.eye(h.order, dtype=bool)
    seen, out = set(), []
    for rows in combinations(range(h.order), ell):
        sub = arr[list(rows)]
        if len(np.unique((sub.T @ sub)[off])) > 2:
            continue
        report = check_split(h, rows)
        if report.params not in seen:
            seen.add(report.params)
            out.append(report)
    return out


def _signed_sylvester(m=4):
    # signed row and plain column permutations keep every split's parameters
    n = 2**m
    rng = np.random.default_rng(2018)
    arr = sylvester(m).array * rng.choice([-1, 1], size=n)[:, None]
    return HadamardMatrix(arr[rng.permutation(n)][:, rng.permutation(n)])


def _assert_matches_reference(monkeypatch, h, ell):
    # also in chunks of one subset (4 entries) and of a few subsets that do
    # not divide C(n, ell), and with every chunk forming its own pair
    # products instead of reading the table: every first representative
    # must stay
    want = _search_splits_reference(h, ell)
    for table in (splitting._PAIR_TABLE_ENTRIES, 0):
        monkeypatch.setattr(splitting, "_PAIR_TABLE_ENTRIES", table)
        assert search_splits(h, ell) == want
        for entries in (4, 64):
            monkeypatch.setattr(splitting, "_SCREEN_ENTRIES", entries)
            assert search_splits(h, ell) == want
        monkeypatch.undo()


@pytest.mark.parametrize("ell", range(1, 9))
def test_search_splits_matches_a_per_subset_scan(monkeypatch, ell):
    _assert_matches_reference(monkeypatch, _signed_sylvester(), ell)


def test_search_splits_matches_a_per_subset_scan_on_a_paley_matrix(monkeypatch):
    # not a Sylvester matrix
    h = _paley_hadamard(11)
    for ell in range(1, 13):
        _assert_matches_reference(monkeypatch, h, ell)
    assert [r.params.astuple() for r in search_splits(h, 12)] == [(12, 12, 0, 0)]


@pytest.mark.parametrize("m, ells", [(3, range(1, 9)), (5, range(1, 5))])
def test_search_splits_matches_a_per_subset_scan_on_orders_8_and_32(monkeypatch, m, ells):
    h = _signed_sylvester(m)
    for ell in ells:
        _assert_matches_reference(monkeypatch, h, ell)


@pytest.mark.parametrize("n", range(1, 13))
def test_unranked_subsets_are_the_lexicographic_combinations(n):
    for ell in range(1, n + 1):
        count = math.comb(n, ell)
        table = splitting._colex_table(n, ell)
        got = splitting._unrank_subsets(table, n, count, 0, count)
        assert got.dtype == np.intp
        assert got.T.tolist() == [list(c) for c in combinations(range(n), ell)]
        # any window of ranks, as a batch starting mid-sequence sees it
        for start, stop in ((count // 3, count - count // 5), (count - 1, count)):
            window = splitting._unrank_subsets(table, n, count, start, stop)
            assert window.T.tolist() == got.T.tolist()[start:stop]


@pytest.mark.parametrize("screen, unrank", [(4, 4), (64, 100), (64, 10**6), (2**17, 12)])
def test_search_splits_unranks_across_batch_and_chunk_boundaries(monkeypatch, screen, unrank):
    # n = 16, ell = 5: C(16, 5) = 4368 subsets, in chunks of 1 / 1 / 1 / 1092
    # subsets and batches of 1 / 20 / all 4368 / 1 chunk, the last batch
    # short in the second and fourth; the batches' subsets concatenate to
    # the combinations, and the splits found are the reference's
    h = _signed_sylvester()
    batches = []

    def recording(*args):
        batches.append(unrank_subsets(*args))
        return batches[-1]

    unrank_subsets = splitting._unrank_subsets
    monkeypatch.setattr(splitting, "_unrank_subsets", recording)
    monkeypatch.setattr(splitting, "_SCREEN_ENTRIES", screen)
    monkeypatch.setattr(splitting, "_UNRANK_ENTRIES", unrank)
    assert search_splits(h, 5) == _search_splits_reference(h, 5)
    chunk = max(1, screen // 120)
    assert all(b.shape[1] % chunk == 0 for b in batches[:-1])
    assert np.hstack(batches).T.tolist() == [list(c) for c in combinations(range(16), 5)]


def test_search_splits_refuses_counts_past_the_int64_ranks(monkeypatch):
    # C(128, 64) > 2^62: only a budget that large gets past BudgetExceeded,
    # and the count is refused before numpy builds anything
    h = sylvester(7)
    monkeypatch.setattr(splitting, "np", None)
    with pytest.raises(OverflowError, match=r"C\(128, 64\) = \d+ subsets exceed the int64 ranks"):
        search_splits(h, 64, budget=2**200)
    with pytest.raises(BudgetExceeded):
        search_splits(h, 64)


def test_search_splits_at_ell_128_matches_the_reference():
    # ell = 128 sums in int16
    h = sylvester(7)
    assert search_splits(h, 128) == _search_splits_reference(h, 128)
    assert [r.params.astuple() for r in search_splits(h, 128)] == [(128, 128, 0, 0)]


def test_search_splits_screens_in_int8_within_a_memory_bound():
    # n = 64: prods holds 64 * 2016 int8 entries (129 KB) and each chunk of
    # 2**17 sums takes five arrays of 2**17 bytes at most; int64 pair
    # products alone would take 1 MB
    h = sylvester(6)
    search_splits(h, 2)
    tracemalloc.start()
    try:
        found = search_splits(h, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [r.params.astuple() for r in found] == [(64, 2, 2, 0)]
    assert peak < 2**20


def test_search_splits_past_the_table_bound_holds_no_table():
    # n = 512: a pair-product table would hold 512 * 130816 int8 entries
    # (64 MB); each one-subset chunk forms its 130816 products instead
    h = sylvester(9)
    assert 512 * 130816 > splitting._PAIR_TABLE_ENTRIES
    tracemalloc.start()
    try:
        found = search_splits(h, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == [check_split(h, [0]), check_split(h, [1])]
    assert peak < 2**24


def test_classify_srg16():
    assert classify_srg16(_load("lattice-4x4")) == "lattice"
    assert classify_srg16(_load("shrikhande")) == "shrikhande"
    with pytest.raises(ValueError):
        classify_srg16(_load("srg-36-10-4-2"))
