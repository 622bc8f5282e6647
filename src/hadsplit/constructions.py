"""Families of Hadamard matrices with verified balanced splits.

Every builder returns a BshInstance whose split has been re-checked from
scratch by check_split, so a construction bug cannot produce a silently
wrong instance. No builder re-proves HHt = nI: each builds from validated
matrices (a HadamardMatrix, or a SkewCore) by an identity that proves it,
and states that identity instead. A matrix a user passes in is checked in
full when it becomes a HadamardMatrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    HadamardMatrix,
    HadsplitError,
    IntMatrix,
    SkewCore,
    _proved_hadamard,
    conference_from_core,
    isqrt_exact,
    kronecker,
    normalize,
    sylvester,
)
from .gf import is_prime_power
from .splitting import SplitParams, SplitReport, check_split

__all__ = [
    "BshInstance",
    "TwinSplit",
    "JaPair",
    "kron_square",
    "gram_construction",
    "core_tensor",
    "two_row_split",
    "twin_sylvester",
    "ja_recursion",
    "skew_core_bsh",
    "witness_for",
]


@dataclass(frozen=True)
class BshInstance:
    h: HadamardMatrix
    rows: tuple[int, ...]
    report: SplitReport

    @property
    def params(self) -> SplitParams:
        return self.report.params


def _instance(h: HadamardMatrix, rows, expect: SplitParams) -> BshInstance:
    report = check_split(h, rows)
    if report.params != expect:
        raise HadsplitError(f"construction produced {report.params}, wanted {expect}")
    return BshInstance(h=h, rows=tuple(sorted(rows)), report=report)


def kron_square(h: HadamardMatrix, variant: str) -> BshInstance:
    """Square Kronecker power of a normalized order-m matrix.

    variant "large": split on rows (i, j) with i, j >= 1, giving
    (m^2, (m-1)^2, 1, 1-m). variant "small": split on the rows sharing
    exactly one index with the all-ones row, giving (m^2, 2m-2, m-2, -2).

    Not re-proved: (A kron B)(A kron B)t = AAt kron BBt = m^2 I, as the
    normalized factor is Hadamard.
    """
    m = h.order
    hn = normalize(h)
    big = _proved_hadamard(kronecker(hn, hn).array)
    if variant == "large":
        rows = [i * m + j for i in range(1, m) for j in range(1, m)]
        expect = SplitParams(m * m, (m - 1) * (m - 1), 1, 1 - m)
    elif variant == "small":
        rows = [j for j in range(1, m)] + [i * m for i in range(1, m)]
        expect = SplitParams(m * m, 2 * m - 2, m - 2, -2)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return _instance(big, rows, expect)


def gram_construction(h: HadamardMatrix) -> BshInstance:
    """Order m^2 matrix M[(i,s),(j,t)] = r_j[s] r_i[t] split on its first block.

    The first m rows have column Gram I_m kron (m J_m), the imprimitive
    (m^2, m, m, 0) split.

    Not re-proved: the entries are products of +-1 entries of R = normalize(h),
    and rows (i, s) and (i', s') have inner product
    sum_j r_j[s] r_j[s'] * sum_t r_i[t] r_i'[t] = (RtR)_ss' (RRt)_ii' = m^2 if
    (i, s) = (i', s') and 0 otherwise, as RRt = RtR = mI.
    """
    m = h.order
    r = normalize(h).array
    big = _proved_hadamard(np.einsum("js,it->isjt", r, r).reshape(m * m, m * m))
    return _instance(big, list(range(m)), SplitParams(m * m, m, m, 0))


def core_tensor(h: HadamardMatrix, k2: HadamardMatrix) -> BshInstance:
    """Tensor of orders k and m split away from the all-ones factor rows.

    Split rows are (i, j) with j >= 1 after normalizing the second factor;
    parameters (km, k(m-1), 0, -k). Needs k >= 2: at k = 1 the rows form
    the single-value split (m, m-1, -1, -1).

    Not re-proved: (A kron B)(A kron B)t = AAt kron BBt = km I, as both
    factors are Hadamard.
    """
    k = h.order
    if k < 2:
        raise ValueError(f"core-tensor needs a first factor of order at least 2, not {k}")
    m = k2.order
    big = _proved_hadamard(kronecker(h, normalize(k2)).array)
    rows = [i * m + j for i in range(k) for j in range(1, m)]
    return _instance(big, rows, SplitParams(k * m, k * (m - 1), 0, -k))


def two_row_split(h: HadamardMatrix) -> BshInstance:
    """Split on everything but the first two rows of a normalized matrix.

    Columns are permuted so the second row reads +...+-...-;
    parameters (n, n-2, 0, -2).

    Not re-proved: for a permutation matrix P, (HP)(HP)t = HHt = nI.
    """
    n = h.order
    if n < 4:
        raise ValueError("order must be at least 4")
    arr = normalize(h).array
    big = _proved_hadamard(arr[:, np.argsort(-arr[1], kind="stable")])
    return _instance(big, list(range(2, n)), SplitParams(n, n - 2, 0, -2))


@dataclass(frozen=True)
class TwinSplit:
    """Row partition of the order 4^m Sylvester matrix into three splits.

    h1_rows carry (4^m, 2^m, 2^m, 0); h2_rows and h3_rows each carry the
    twin parameters (4^m, 2^(m-1)(2^m - 1), 2^(m-1), -2^(m-1)).
    """

    h: HadamardMatrix
    h1_rows: tuple[int, ...]
    h2_rows: tuple[int, ...]
    h3_rows: tuple[int, ...]
    reports: tuple[SplitReport, SplitReport, SplitReport]


def _twin_partition(m_exponent: int) -> tuple[list[int], list[int], list[int]]:
    even = (4**m_exponent - 1) // 3  # the bits at positions 0, 2, ..., 2m - 2
    p, q, r = [], [], []
    for x in range(4**m_exponent):
        u = x & even
        if not u:
            p.append(x)
        elif (u & x >> 1).bit_count() & 1:  # u & w
            r.append(x)
        else:
            q.append(x)
    return p, q, r


def twin_sylvester(m_exponent: int) -> TwinSplit:
    """Partition the order 4^m Sylvester matrix into one imprimitive split
    and two splits sharing the same b = -a parameters.

    The parts are level sets of a quadric on the row index x. Let u hold the
    bits of x at even positions and w those at odd positions, shifted down
    one place. The block rows (h1_rows) have u = 0, twin-1 (h2_rows) has
    u != 0 and popcount(u & w) even, and twin-2 (h3_rows) has popcount(u & w)
    odd.

    sylvester proves HHt = nI by its Kronecker identity, so the three Grams
    inside check_split are the only products."""
    if m_exponent < 1:
        raise ValueError("exponent must be at least 1")
    m = m_exponent
    n = 4**m
    h = sylvester(2 * m)
    p, q, r = _twin_partition(m)
    half = 2 ** (m - 1)
    gram_params = SplitParams(n, 2**m, 2**m, 0)
    twin_params = SplitParams(n, half * (2**m - 1), half, -half)
    rep1 = check_split(h, p)
    rep2 = check_split(h, q)
    rep3 = check_split(h, r)
    for rep, want in ((rep1, gram_params), (rep2, twin_params), (rep3, twin_params)):
        if rep.params != want:
            raise HadsplitError(f"partition produced {rep.params}, wanted {want}")
    return TwinSplit(
        h=h,
        h1_rows=tuple(p),
        h2_rows=tuple(q),
        h3_rows=tuple(r),
        reports=(rep1, rep2, rep3),
    )


@dataclass(frozen=True)
class JaPair:
    """Recursive pair over a skew core: j = J_q kron a_prev,
    a = I_q kron j_prev + Q kron a_prev, both of order q^m."""

    q: int
    m: int
    j: IntMatrix
    a: IntMatrix


def ja_recursion(core: SkewCore, m: int) -> JaPair:
    """The j/a matrix pair of order q^m, with jjt + q aat = q^m (q+1) I and
    jat = ajt.

    Not re-checked: both hold for j = a = [1], and one step keeps them. With
    Q the core (QQt = qI - J, QJ = JQ = 0, Qt = -Q) and j', a' the previous
    pair, jjt = qJ kron a'a't and aat = I kron j'j't + (qI - J) kron a'a't,
    as the cross terms Qt kron j'a't + Q kron a'j't cancel by j'a't = a'j't.
    So jjt + q aat = qI kron (j'j't + q a'a't). Likewise
    jat = J kron a'j't + JQt kron a'a't and ajt = J kron j'a't + QJ kron a'a't,
    which agree, as JQt = QJ = 0.
    """
    if m < 0:
        raise ValueError("m must be nonnegative")
    q = core.q
    jq = IntMatrix.ones(q)
    iq = IntMatrix.identity(q)
    jm = IntMatrix.ones(1)
    am = IntMatrix.ones(1)
    for _ in range(m):
        jm, am = kronecker(jq, am), kronecker(iq, jm) + kronecker(core.matrix, am)
    return JaPair(q=q, m=m, j=jm, a=am)


def skew_core_bsh(core: SkewCore) -> BshInstance:
    """Split of order q(q+1) with parameters (q(q+1), q, q, -1).

    Built as -I kron j + C kron a from the level-1 recursion pair and the
    skew conference matrix C; the split is the first q rows.

    Not re-proved: j = J and a = I + Q, so the diagonal blocks are -J and the
    others +-(I + Q), all +-1 as Q is zero on its diagonal and +-1 off it.
    With Ct = -C and CCt = qI, HHt = I kron (jjt + q aat) + C kron (jat - ajt),
    which ja_recursion's identities make q(q+1) I.
    """
    q = core.q
    pair = ja_recursion(core, 1)
    c = conference_from_core(core)
    big = -1 * kronecker(IntMatrix.identity(q + 1), pair.j) + kronecker(c, pair.a)
    h = _proved_hadamard(big.array)
    return _instance(h, list(range(q)), SplitParams(q * (q + 1), q, q, -1))


def _family(n: int, ell: int, a: int, b: int) -> str | None:
    """Name a family in this module with a member of these parameters, or None."""
    m = isqrt_exact(n)
    if m is not None and m >= 2:
        # the twin partition needs n = 4^e, so sqrt(n) must be a power of two
        if not m & (m - 1):
            e = m.bit_length() - 1
            if b == -a and a == m // 2 and ell == (n - m) // 2:
                return f"twin-sylvester m={e}"
            if b == 0 and a == m and ell == m:
                return f"twin-sylvester m={e} (imprimitive block)"
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
    return None


def witness_for(n: int, ell: int, a: int, b: int) -> str | None:
    """Name a construction realizing the parameters, or None.

    Matching is by parameter lookup against the families in this module,
    and one all-ones-delete step back from a family member or from the
    complementary split of one.
    """
    if n < 1 or not 1 <= ell <= n:
        return None
    hit = _family(n, ell, a, b)
    if hit or b != -a - 2 or a < 0:
        return hit
    # one all-ones-delete step back: (n, L, c, -c) with L = n - ell - 1, c = a + 1
    parent = _family(n, n - ell - 1, a + 1, -a - 1)
    if parent:
        return f"delete from {parent}"
    comp = _family(n, ell + 1, a + 1, -a - 1)
    if comp:
        return f"delete from complement of {comp}"
    return None


def _hadamard_order_ok(m: int) -> bool:
    """Whether a Hadamard matrix of order m is known to exist: orders 1 and
    2, every multiple of 4 below 668, and every power of two (Sylvester).
    The last order below 668 to be settled was 428 (Kharaghani and
    Tayfeh-Rezaie, "A Hadamard matrix of order 428", J. Combin. Des. 13,
    2005); none is known of order 668."""
    return m in (1, 2) or (m % 4 == 0 and m < 668) or (m > 0 and m & (m - 1) == 0)
