import itertools
import math

import numpy as np
import pytest

from hadsplit.core import (
    HadamardMatrix,
    IntMatrix,
    conference_from_core,
    isqrt_exact,
    normalize,
    paley_skew_core,
    sylvester,
)
from hadsplit.constructions import (
    _hadamard_order_ok,
    _twin_partition,
    core_tensor,
    gram_construction,
    ja_recursion,
    kron_square,
    skew_core_bsh,
    twin_sylvester,
    two_row_split,
    witness_for,
)
from hadsplit.feasibility import enumerate_case_a, enumerate_seidel
from hadsplit.gf import is_prime_power
from hadsplit.splitting import check_split


# ------------------------------------------------------------ families


@pytest.mark.parametrize("exp,m", [(1, 2), (2, 4), (3, 8)])
def test_kron_square_large(exp, m):
    inst = kron_square(sylvester(exp), "large")
    assert inst.params.astuple() == (m * m, (m - 1) ** 2, 1, 1 - m)
    if m > 2:
        assert inst.report.branch == "case-a"


@pytest.mark.parametrize("exp,m", [(1, 2), (2, 4), (3, 8)])
def test_kron_square_small(exp, m):
    inst = kron_square(sylvester(exp), "small")
    assert inst.params.astuple() == (m * m, 2 * m - 2, m - 2, -2)


def test_kron_square_small_16_is_seidel():
    inst = kron_square(sylvester(2), "small")
    assert inst.params.astuple() == (16, 6, 2, -2)
    assert inst.report.branch == "seidel"


def test_kron_square_rejects_unknown_variant():
    with pytest.raises(ValueError):
        kron_square(sylvester(2), "medium")


@pytest.mark.parametrize("exp,m", [(1, 2), (2, 4), (3, 8)])
def test_gram_construction(exp, m):
    inst = gram_construction(sylvester(exp))
    assert inst.params.astuple() == (m * m, m, m, 0)
    assert inst.report.branch == "case-b"


@pytest.mark.parametrize("kexp,mexp", [(1, 2), (2, 2)])
def test_core_tensor(kexp, mexp):
    k, m = 2**kexp, 2**mexp
    inst = core_tensor(sylvester(kexp), sylvester(mexp))
    assert inst.params.astuple() == (k * m, k * (m - 1), 0, -k)
    assert inst.report.branch == "case-a"
    assert inst.report.checks["rowsum_zero"]


def test_core_tensor_needs_a_first_factor_of_order_2():
    # at k = 1 the rows would form the single-value split (m, m - 1, -1, -1)
    with pytest.raises(ValueError, match="order at least 2, not 1"):
        core_tensor(sylvester(0), sylvester(2))


@pytest.mark.parametrize("exp", [2, 3, 4])
def test_two_row_split(exp):
    n = 2**exp
    inst = two_row_split(sylvester(exp))
    assert inst.params.astuple() == (n, n - 2, 0, -2)
    assert inst.report.branch == "case-a"


def test_two_row_needs_order_four():
    with pytest.raises(ValueError):
        two_row_split(sylvester(1))


def _paley12():
    c = conference_from_core(paley_skew_core(11))
    return HadamardMatrix((c + IntMatrix.identity(12)).array)


def _signed12():
    rng = np.random.default_rng(12)
    signs = rng.choice([-1, 1], size=(2, 12))
    arr = signs[0][:, None] * _paley12().array * signs[1]
    return HadamardMatrix(arr[rng.permutation(12)][:, rng.permutation(12)])


# Every matrix a builder returns, including those it does not re-prove.
_BUILT = {
    "sylvester": lambda: [sylvester(e) for e in range(7)],
    "normalize": lambda: [normalize(_signed12())],
    "kron-large": lambda: [kron_square(h, "large").h for h in (sylvester(2), _signed12())],
    "kron-small": lambda: [kron_square(h, "small").h for h in (sylvester(3), _signed12())],
    "core-tensor": lambda: [
        core_tensor(sylvester(2), sylvester(3)).h,
        core_tensor(_signed12(), _paley12()).h,
        core_tensor(sylvester(1), _signed12()).h,
    ],
    "two-row": lambda: [two_row_split(h).h for h in (sylvester(5), _paley12(), _signed12())],
    "twin": lambda: [twin_sylvester(m).h for m in (1, 2, 3, 4)],
    "gram": lambda: [gram_construction(h).h for h in (sylvester(2), _signed12())],
    "skew-core": lambda: [skew_core_bsh(paley_skew_core(q)).h for q in (3, 7, 11, 19)],
}


@pytest.mark.parametrize("family", _BUILT)
def test_every_built_matrix_is_hadamard(family):
    # the reference for the builders that state a proof instead of checking
    for h in _BUILT[family]():
        n = h.order
        assert isinstance(h, HadamardMatrix)
        assert set(np.unique(h.array).tolist()) <= {-1, 1}
        assert np.array_equal(h.array @ h.array.T, n * np.eye(n, dtype=np.int64))


def test_twin_sylvester_computes_only_three_grams(kernel_calls):
    twin_sylvester(2)
    assert kernel_calls == [((16, 4), (4, 16)), ((16, 6), (6, 16)), ((16, 6), (6, 16))]


def test_proved_builders_compute_only_the_split_gram(kernel_calls):
    # the one product has inner dimension min(ell, n - ell): past n / 2,
    # check_split forms G as nI - H2t H2 over the rows outside the split
    h4, h8, h2 = sylvester(2), _paley12(), sylvester(1)
    for build, gram in (
        (lambda: kron_square(h4, "large"), ((16, 7), (7, 16))),
        (lambda: kron_square(h4, "small"), ((16, 6), (6, 16))),
        (lambda: two_row_split(h8), ((12, 2), (2, 12))),
        (lambda: core_tensor(h2, h4), ((8, 2), (2, 8))),
    ):
        kernel_calls.clear()
        n, ell, _, _ = build().params.astuple()
        assert kernel_calls == [gram]
        assert gram == ((n, min(ell, n - ell)), (min(ell, n - ell), n))
    # the core's QQt and the split Gram: ja_recursion and the order-380
    # matrix are proved by their identities
    kernel_calls.clear()
    skew_core_bsh(paley_skew_core(19))
    assert kernel_calls == [((19, 19), (19, 19)), ((380, 19), (19, 380))]


def test_checked_builders_also_prove_the_matrix(kernel_calls):
    # gram_construction proves HHt = 16 I by (RtR)(RRt) = m^2 I, so its one
    # kernel call is the split Gram; the product is checked here instead
    h4 = sylvester(2)
    kernel_calls.clear()
    inst = gram_construction(h4)
    assert kernel_calls == [((16, 4), (4, 16))]
    a = inst.h.array.astype(np.int64)
    assert np.array_equal(a @ a.T, 16 * np.eye(16, dtype=np.int64))


# ------------------------------------------------------------ twins


@pytest.mark.parametrize("m", [1, 2, 3])
def test_twin_partition_covers(m):
    t = twin_sylvester(m)
    n = 4**m
    all_rows = sorted(t.h1_rows + t.h2_rows + t.h3_rows)
    assert all_rows == list(range(n))
    assert t.reports[0].params.astuple() == (n, 2**m, 2**m, 0)
    half = 2 ** (m - 1)
    twin = (n, half * (2**m - 1), half, -half)
    assert t.reports[1].params.astuple() == twin
    assert t.reports[2].params.astuple() == twin


@pytest.mark.parametrize("m", range(1, 7))
def test_twin_partition_is_the_kronecker_recursion(m):
    # the parts' first definition: each further base-4 digit v of a row index
    # refines the parts of the order-4 split ({0, 2}, {1}, {3})
    p, q, r = [0, 2], [1], [3]
    for _ in range(m - 1):
        def cell(xs, ys):
            return [4 * u + v for u in xs for v in ys]

        p, q, r = (
            cell(p, [0, 2]),
            cell(p, [1]) + cell(q, [0, 2]) + cell(q, [1]) + cell(r, [3]),
            cell(p, [3]) + cell(q, [3]) + cell(r, [0, 2]) + cell(r, [1]),
        )
    assert _twin_partition(m) == (sorted(p), sorted(q), sorted(r))


def test_twin_sylvester_order_1024():
    # Table 1's largest exists-by-construction row
    t = twin_sylvester(5)
    assert sorted(t.h1_rows + t.h2_rows + t.h3_rows) == list(range(1024))
    assert [r.params.astuple() for r in t.reports] == [
        (1024, 32, 32, 0),
        (1024, 496, 16, -16),
        (1024, 496, 16, -16),
    ]
    assert [r.branch for r in t.reports[1:]] == ["seidel", "seidel"]
    assert all(r.checks["seidel_ok"] for r in t.reports[1:])


def test_twin_rows_order_16():
    t = twin_sylvester(2)
    assert t.h1_rows == (0, 2, 8, 10)
    assert t.h2_rows == (1, 4, 5, 6, 9, 15)
    assert t.h3_rows == (3, 7, 11, 12, 13, 14)


def test_twin_rejects_zero():
    with pytest.raises(ValueError):
        twin_sylvester(0)


def test_translate_keeps_parameters(twin16):
    for t in (1, 5, 15):
        # Sylvester rows multiply pointwise by index XOR
        rep = check_split(twin16.h, sorted(i ^ t for i in twin16.h2_rows))
        assert rep.params == twin16.reports[1].params


# ------------------------------------------------------------ skew cores


@pytest.mark.parametrize("q", [3, 7])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_ja_recursion_identities(q, m):
    pair = ja_recursion(paley_skew_core(q), m)
    order = q**m
    assert pair.j.shape == (order, order)
    assert pair.a.shape == (order, order)
    eye = IntMatrix.identity(order)
    assert pair.j @ pair.j.T + q * (pair.a @ pair.a.T) == (order * (q + 1)) * eye
    assert pair.j @ pair.a.T == pair.a @ pair.j.T


def test_ja_recursion_rejects_negative():
    with pytest.raises(ValueError):
        ja_recursion(paley_skew_core(3), -1)


@pytest.mark.parametrize("q", [3, 7, 11])
def test_skew_core_bsh(q):
    inst = skew_core_bsh(paley_skew_core(q))
    n = q * (q + 1)
    assert inst.params.astuple() == (n, q, q, -1)
    assert inst.report.branch == "case-a"
    assert inst.report.srg is not None
    assert inst.report.srg.astuple() == (n, q - 1, q - 2, 0)


# ------------------------------------------------------------ witnesses


def test_witness_frozen_labels():
    assert witness_for(16, 5, 1, -3) == "delete from complement of twin-sylvester m=2"
    assert witness_for(16, 9, 1, -3) == "kron-square large m=4"
    assert witness_for(64, 14, 6, -2) == "kron-square small m=8"
    assert witness_for(64, 27, 3, -5) == "delete from complement of twin-sylvester m=3"
    assert witness_for(64, 35, 3, -5) == "delete from twin-sylvester m=3"
    assert witness_for(64, 49, 1, -7) == "kron-square large m=8"


def test_witness_family_labels():
    assert witness_for(16, 6, 2, -2) == "twin-sylvester m=2"
    assert witness_for(16, 4, 4, 0) == "twin-sylvester m=2 (imprimitive block)"
    assert witness_for(256, 120, 8, -8) == "twin-sylvester m=4"
    assert witness_for(16, 14, 0, -2) == "two-row"
    assert witness_for(16, 12, 0, -4) == "core-tensor k=4"
    assert witness_for(12, 3, 3, -1) == "skew-core q=3"
    assert witness_for(56, 7, 7, -1) == "skew-core q=7"
    assert witness_for(144, 12, 12, 0) == "gram m=12"


def test_witness_none_for_unknown():
    # order-6 Hadamard matrices do not exist, so no gram witness here
    assert witness_for(36, 10, 4, -2) is None
    for row in [(64, 18, 2, -6), (64, 21, 5, -3), (64, 42, 2, -6), (64, 45, 5, -3),
                (36, 14, 2, -4), (36, 20, 2, -4), (36, 25, 1, -5)]:
        assert witness_for(*row) is None
    assert witness_for(16, 0, 1, 1) is None


@pytest.mark.parametrize("n", [4, 8, 12])
def test_witness_has_no_core_tensor_of_order_1(n):
    assert witness_for(n, n - 1, 0, -1) is None


def test_witness_needs_a_known_hadamard_order():
    # no Hadamard matrix of order 668 is known; 664 and 1024 are
    assert witness_for(668, 666, 0, -2) is None
    assert witness_for(2672, 2004, 0, -668) is None
    assert witness_for(668**2, 667**2, 1, -667) is None
    assert witness_for(664, 662, 0, -2) == "two-row"
    assert witness_for(1024, 1022, 0, -2) == "two-row"
    assert witness_for(2656, 1992, 0, -664) == "core-tensor k=664"
    assert witness_for(1024**2, 1023**2, 1, -1023) == "kron-square large m=1024"


def _witness_chain(n, ell, a, b, _depth=0):
    """witness_for as one chain that recurses once into itself for the
    all-ones-delete step, the form it had before the family matcher was
    split out."""
    if n < 1 or not 1 <= ell <= n:
        return None
    root = isqrt_exact(n)
    if root is not None and root >= 2 and not root & (root - 1):
        e = root.bit_length() - 1
        if b == -a and a == root // 2 and ell == (n - root) // 2:
            return f"twin-sylvester m={e}"
        if b == 0 and a == root and ell == root:
            return f"twin-sylvester m={e} (imprimitive block)"
    if root is not None and root >= 2:
        m = root
        if (ell, a, b) == ((m - 1) ** 2, 1, 1 - m) and _hadamard_order_ok(m):
            return f"kron-square large m={m}"
        if (ell, a, b) == (2 * m - 2, m - 2, -2) and _hadamard_order_ok(m):
            return f"kron-square small m={m}"
        if (ell, a, b) == (m, m, 0) and _hadamard_order_ok(m):
            return f"gram m={m}"
    if (ell, a, b) == (n - 2, 0, -2) and _hadamard_order_ok(n):
        return "two-row"
    if a == 0 and b < 0:
        k = -b
        if k >= 2 and n % k == 0 and ell == n - k and n // k >= 2:
            if _hadamard_order_ok(k) and _hadamard_order_ok(n // k):
                return f"core-tensor k={k}"
    if a == ell and b == -1 and n == a * (a + 1) and a % 4 == 3 and is_prime_power(a):
        return f"skew-core q={a}"
    if _depth == 0:
        c = a + 1
        if b == -a - 2 and c >= 1:
            parent = _witness_chain(n, n - ell - 1, c, -c, _depth=1)
            if parent:
                return f"delete from {parent}"
            comp = _witness_chain(n, ell + 1, c, -c, _depth=1)
            if comp:
                return f"delete from complement of {comp}"
    return None


def _family_members(max_n):
    """Parameters of each family member of order at most max_n, whether or
    not a Hadamard matrix of the orders it needs is known."""
    for e in range(1, max_n.bit_length() // 2 + 1):
        root = 2**e
        yield (root * root, root * (root - 1) // 2, root // 2, -root // 2)
        yield (root * root, root, root, 0)
    for m in range(2, math.isqrt(max_n) + 1):
        yield (m * m, (m - 1) ** 2, 1, 1 - m)
        yield (m * m, 2 * m - 2, m - 2, -2)
        yield (m * m, m, m, 0)
    for n in range(1, max_n + 1):
        yield (n, n - 2, 0, -2)
        for k in range(1, n // 2 + 1):
            if n % k == 0:
                yield (n, n - k, 0, -k)
    for q in range(1, math.isqrt(max_n) + 1):
        if q * (q + 1) <= max_n:
            yield (q * (q + 1), q, q, -1)


def test_witness_matches_the_single_chain_reference():
    cases = {r.params.astuple() for r in enumerate_seidel(4096) + enumerate_case_a(256)}
    cases.add((96, 20, 4, -4))
    for n, ell, a, b in _family_members(4096):
        # the member, its complementary split, and the delete-step image of each
        for split in ((n, ell, a, b), (n, n - ell, -b, -a)):
            _, e, c, _ = split
            cases |= {split, (n, n - e - 1, c - 1, -c - 1)}
    cases |= {(n, ell, a, b) for n, _, a, b in list(cases) for ell in (0, n + 1)}
    # and every (n, ell, a, b) of small order
    cases |= set(itertools.product(range(1, 13), range(-1, 14), range(-12, 13), range(-12, 13)))
    assert len(cases) > 200_000
    for case in cases:
        assert witness_for(*case) == _witness_chain(*case), case
