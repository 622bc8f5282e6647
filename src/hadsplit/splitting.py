"""Analysis of balanced splits.

A split of a Hadamard matrix H of order n is a row subset H1 (size ell)
whose column Gram matrix G = H1t H1 has at most two distinct off-diagonal
values a >= b. The 0/1 matrix A marks the a-positions. Such a G satisfies
G^2 = nG, which forces A to be strongly regular and pins b to one of three
branches:

  seidel: b = -a, with ell^2 + a^2 (n-1) = n ell;
  case-a: b = ell (ell - a - n) / (a (n-1) + ell), split rows sum to zero;
  case-b: b = (ell - a)(ell - n) / (a (n-1) + ell - n).

With c = a - b and d = ell - b, G = dI + cA + bJ. A k-regular A gives G
the row sum sigma = d + ck + bn, which G^2 = nG makes 0 (the split rows sum
to zero) or n; then k = (sigma - d - bn)/c, mu = (nb(b + 1) - 2 sigma b)/c^2
and lam = mu + (n - 2d)/c (_srg_terms).

Reports carry the branch, the derived graph, and verification flags.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .core import (
    _INT64_SAFE,
    HadamardMatrix,
    HadsplitError,
    IntMatrix,
    _proved_hadamard,
    _resigned,
    exact_matmul,
    isqrt_exact,
)
from .search import _bitmasks, max_clique

__all__ = [
    "NotSplittable",
    "NonIntegral",
    "InfeasibleSeidel",
    "MissingAllOnesRow",
    "BoundInapplicable",
    "NotUnbiasedCase",
    "WrongParameters",
    "NotDiagonalized",
    "BudgetExceeded",
    "SplitParams",
    "SrgParams",
    "SplitReport",
    "SeidelDerivation",
    "EquiangularReport",
    "SpectrumLayout",
    "direct_srg_params",
    "check_split",
    "derive_seidel",
    "derive_srg_case_a",
    "derive_srg_case_b",
    "general_srg_from_b",
    "verify_seidel_matrix",
    "delete_allones_transform",
    "equiangular_report",
    "unbiased_partner",
    "regular_hadamard_normalize",
    "diagonalize_by_hadamard",
    "split_from_diagonalizable_srg",
    "search_splits",
    "classify_srg16",
]


class NotSplittable(HadsplitError):
    """More than two distinct off-diagonal Gram values."""


class NonIntegral(HadsplitError):
    """A derived parameter is not an integer."""


class InfeasibleSeidel(HadsplitError):
    """ell^2 + a^2 (n-1) = n ell fails, or b != -a where required."""


class MissingAllOnesRow(HadsplitError):
    """No constant-sign row available outside the split."""


class BoundInapplicable(HadsplitError):
    """Line bound denominator vanishes or is negative."""


class NotUnbiasedCase(HadsplitError):
    """Parameters are not (n, (n +- sqrt n)/2, sqrt(n)/2, -sqrt(n)/2)."""


class WrongParameters(HadsplitError):
    """Parameters are not (4m^2, 2m^2 - m, m, -m)."""


class NotDiagonalized(HadsplitError):
    """H A Ht is not diagonal."""

    def __init__(self, message: str, witness: tuple[int, int, int]):
        super().__init__(message)
        self.witness = witness


class BudgetExceeded(HadsplitError):
    """Search work above its budget: subsets in search_splits, survivors in
    eigvec_search."""


@dataclass(frozen=True)
class SplitParams:
    n: int
    ell: int
    a: int
    b: int

    def astuple(self) -> tuple[int, int, int, int]:
        return (self.n, self.ell, self.a, self.b)


@dataclass(frozen=True)
class SrgParams:
    v: int
    k: int
    lam: int
    mu: int

    def astuple(self) -> tuple[int, int, int, int]:
        return (self.v, self.k, self.lam, self.mu)

    def identity_ok(self) -> bool:
        """Counting identity k(k - lam - 1) = (v - k - 1) mu."""
        return self.k * (self.k - self.lam - 1) == (self.v - self.k - 1) * self.mu

    def complement(self) -> "SrgParams":
        v, k = self.v, self.k
        return SrgParams(v, v - k - 1, v - 2 * k + self.mu - 2, v - 2 * k + self.lam)


@dataclass(frozen=True)
class SplitReport:
    """A checked split; check_split documents the keys of checks."""

    params: SplitParams
    rows: tuple[int, ...]
    adjacency: IntMatrix | None
    branch: str  # "seidel" | "case-a" | "case-b" | "single-value" | "unclassified"
    srg: SrgParams | None
    checks: dict[str, bool]
    alt_branch: str | None = None

    def as_dict(self) -> dict:
        p = self.params
        return {
            "n": p.n,
            "ell": p.ell,
            "a": p.a,
            "b": p.b,
            "rows": list(self.rows),
            "branch": self.branch,
            "alt_branch": self.alt_branch,
            "srg": None if self.srg is None else list(self.srg.astuple()),
            "checks": dict(self.checks),
        }


@dataclass(frozen=True)
class SeidelDerivation:
    params: SplitParams
    srg: SrgParams
    # (eigenvalue, multiplicity) of S = (G - ell I)/a
    s_spectrum: tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class EquiangularReport:
    m: int
    alpha_sq: Fraction
    bound: Fraction
    attained: bool


@dataclass(frozen=True)
class SpectrumLayout:
    # eigenvalue carried by each row of the diagonalizing matrix, in order
    per_row: tuple[int, ...]

    @property
    def multiplicities(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for v in self.per_row:
            out[v] = out.get(v, 0) + 1
        return out


def direct_srg_params(a: IntMatrix) -> SrgParams | None:
    """Read (v,k,lam,mu) off an adjacency matrix, or None if not an SRG.

    Imprimitive cases (disjoint cliques, complete multipartite) are accepted;
    a missing edge class fixes the corresponding constant as 0.
    """
    v = a.nrows
    if not a.is_square or not a.is_symmetric():
        return None
    arr = a.array
    if not np.all((arr == 0) | (arr == 1)) or np.any(np.diagonal(arr)):
        return None
    sums = arr.sum(axis=1)
    if not np.all(sums == sums[0]):
        return None
    k = int(sums[0])
    sq = exact_matmul(arr, arr)
    edge = arr == 1
    nonedge = (arr == 0) & ~np.eye(v, dtype=bool)
    lam = int(sq[edge][0]) if edge.any() else 0
    mu = int(sq[nonedge][0]) if nonedge.any() else 0
    # kI + lam A + mu (J - I - A), in the product's dtype: every entry is at
    # most v, which that dtype holds exactly as it holds every entry of A^2
    expect = np.where(edge, sq.dtype.type(lam), sq.dtype.type(mu))
    np.fill_diagonal(expect, k)
    if not np.array_equal(sq, expect):
        return None
    return SrgParams(v, k, lam, mu)


def _case_a_b(n: int, ell: int, a: int) -> tuple[int, int]:
    """Numerator and denominator of b on the zero-row-sum branch; also
    elementwise on integer arrays."""
    return ell * (ell - a - n), a * (n - 1) + ell


def _case_b_b(n: int, ell: int, a: int) -> tuple[int, int]:
    """Numerator and denominator of b on the case-b branch."""
    return (ell - a) * (ell - n), a * (n - 1) + ell - n


def _exact(name: str, num: int, den: int) -> int:
    """num / den, which must be an integer; den must be nonzero."""
    if num % den:
        raise NonIntegral(f"{name} = {Fraction(num, den)} is not an integer")
    return num // den


def _require_order_above_1(n: int) -> None:
    if n == 1:
        raise ValueError(
            "a Hadamard matrix of order 1 has no split: its Gram has no off-diagonal entries"
        )


def _require_report_of(h: HadamardMatrix, report: SplitReport) -> None:
    """A report of another order cannot describe rows of h. A same-order
    report of another matrix goes undetected: telling it apart would take
    a product."""
    if report.params.n != h.order:
        raise ValueError("report does not belong to this matrix")


def _row_index(i) -> int:
    try:
        return operator.index(i)
    except TypeError:
        raise ValueError(f"row index {i!r} is not an integer") from None


def check_split(h: HadamardMatrix, row_subset: Iterable[int]) -> SplitReport:
    """Validate a row subset as a balanced split and classify its branch.

    The report's checks hold, in this order: "rowsum_zero" (the split rows
    sum to zero), "gram_ok" (G = ell I + a A + b (J - I - A) and G^2 = nG),
    and on the seidel branch "seidel_ok" (the identity checked by
    verify_seidel_matrix). The last two are proved, not recomputed: h is a
    HadamardMatrix, so HHt = nI holds. Its principal block H1 H1t = nI gives
    G^2 = H1t (H1 H1t) H1 = nG; G has ell on its diagonal and only a, b off
    it by construction; and with G = aS + ell I the Seidel identity is
    G^2 = nG rewritten.

    One product gives G, from the smaller side. HtH = nI as well, so with
    H2 the other n - ell rows, G = H1t H1 = nI - H2t H2; when 2 ell > n, G
    is formed that way. The product then costs n^2 min(ell, n - ell)
    multiply-adds, and at ell = n, H2 is empty and G = nI. The product is
    read in the kernel's dtype, not widened to int64: with its diagonal
    overwritten by one of its off-diagonal entries, its min and max give a
    and b (negated on the H2 side), and it is shifted in place to G - b off
    the diagonal and 0 on it. Every off-diagonal entry of the product is an
    integer of absolute value at most m = min(ell, n - ell) <= n/2, so the
    entries of the shift and of its result are integers of absolute value
    at most 2m <= n. float64 and int64 hold every such integer; float32,
    the route below m = 2**24, holds every integer up to 2**24, and so every
    one up to n for any H that fits in memory (at n = 2**24, H alone takes
    2**51 bytes). The shift is therefore exact on every route. The
    a-entries then read a - b and the others 0, so G has no third value
    exactly when the two counts sum to n^2; np.unique lists the values
    only for the NotSplittable message. The a-count c also gives
    1t G 1 = n ell + ac + b (n^2 - n - c) = |H1 1|^2, zero exactly when
    every split row sums to zero. Only the adjacency A that the report
    keeps is an n x n int64 array. The report's srg is None
    when A is not regular, as it can be on the b = -a branch; otherwise
    G1 = sigma 1 with sigma = 1t G 1 / n, _srg_terms gives it from sigma,
    and it equals direct_srg_params(A).

    Row indices are read with operator.index, so a float index raises
    ValueError rather than being truncated.
    """
    n = h.order
    _require_order_above_1(n)
    requested = [_row_index(i) for i in row_subset]
    rows = tuple(sorted(set(requested)))
    if not rows:
        raise ValueError("empty row subset")
    if len(rows) != len(requested):
        raise ValueError("duplicate row indices")
    if rows[0] < 0 or rows[-1] >= n:
        raise ValueError("row index out of range")
    ell = len(rows)
    picked = np.zeros(n, dtype=bool)
    picked[list(rows)] = True
    other = 2 * ell > n
    side = h.array[~picked] if other else h.array[picked]
    prod = exact_matmul(side.T, side)  # G = nI - prod if other, else G = prod
    prod.flat[:: n + 1] = prod[0, 1]  # off-diagonal values only
    low, high = int(prod.min()), int(prod.max())
    a, b = (-low, -high) if other else (high, low)

    if a == b:
        # G = (ell - a) I + aJ, and G^2 = nG gives (ell - a)^2 = n(ell - a) and
        # 2a(ell - a) + a^2 n = na: (ell, a) is (1, 1), (n - 1, -1) or (n, 0),
        # and gram_ok holds because h is a HadamardMatrix (see above)
        checks = {"rowsum_zero": n * ell + a * (n * n - n) == 0, "gram_ok": True}
        return SplitReport(
            params=SplitParams(n, ell, a, a),
            rows=rows,
            adjacency=None,
            branch="single-value",
            srg=None,
            checks=checks,
        )

    if other:
        np.subtract(high, prod, out=prod)
    else:
        prod -= low
    prod.flat[:: n + 1] = 0  # G - b off the diagonal, 0 on it
    edge = prod == a - b
    count = int(np.count_nonzero(edge))
    if count + np.count_nonzero(prod == 0) != n * n:
        values = [int(v) + b for v in np.unique(prod)]  # 0, b's shift, lies off the diagonal too
        raise NotSplittable(f"off-diagonal Gram values {values}")
    del prod  # freed before the int64 adjacency is allocated
    adj = edge.astype(np.int64)
    degrees = adj.sum(axis=1)

    # gram_ok and seidel_ok hold because h is a HadamardMatrix (see above)
    gram_sum = n * ell + a * count + b * (n * n - n - count)
    checks = {"rowsum_zero": gram_sum == 0, "gram_ok": True}

    branch = "unclassified"
    alt = None
    matches = []
    if b == -a:
        matches.append("seidel")
    num, den = _case_a_b(n, ell, a)
    if b * den == num:
        matches.append("case-a")
    num, den = _case_b_b(n, ell, a)
    if den and b * den == num:
        matches.append("case-b")
    if matches:
        branch = matches[0]
        if len(matches) > 1:
            alt = matches[1]
    if branch == "seidel":
        checks["seidel_ok"] = True

    regular = degrees.min() == degrees.max()
    return SplitReport(
        params=SplitParams(n, ell, a, b),
        rows=rows,
        adjacency=IntMatrix._wrap(adj),
        branch=branch,
        srg=_srg_params(n, ell, a, b, gram_sum // n) if regular else None,
        checks=checks,
        alt_branch=alt,
    )


def _srg_terms(n: int, ell: int, a, b, sigma) -> tuple[tuple, tuple, tuple]:
    """(numerator, denominator) of k, lam and mu of the a-graph of a split
    with values a != b and G1 = sigma 1; on ints, Fractions or int64 arrays.

    G1 = sigma 1 is d + ck + bn = sigma, and with it and AJ = JA = kJ,
    G^2 = nG reads

      c^2 A^2 = d(n - d) I + c(n - 2d) A + (nb(b + 1) - 2 sigma b) J.

    Both values occur off the diagonal, so A has edges and non-edges; I, A
    and J - I - A are then independent, and matching the above with
    A^2 = (k - mu) I + (lam - mu) A + mu J gives mu and lam - mu.
    """
    c, d = a - b, ell - b
    mu = n * b * (b + 1) - 2 * sigma * b
    return (sigma - d - b * n, c), (mu + (n - 2 * d) * c, c * c), (mu, c * c)


def _srg_params(n: int, ell: int, a: int, b: int, sigma: int) -> SrgParams:
    """_srg_terms as integers, raising NonIntegral on the first of k, lam
    and mu that is not one."""
    terms = zip(("k", "lambda", "mu"), _srg_terms(n, ell, a, b, sigma))
    return SrgParams(n, *(_exact(name, num, den) for name, (num, den) in terms))


def _require_graph(srg: SrgParams) -> SrgParams:
    """HadsplitError unless 1 <= k <= v - 2, 0 <= lam < k and 0 <= mu <= k,
    as in every graph with both edges and non-edges."""
    v, k, lam, mu = srg.astuple()
    if not (1 <= k <= v - 2 and 0 <= lam < k and 0 <= mu <= k):
        raise HadsplitError(f"no graph with edges and non-edges has parameters {srg.astuple()}")
    return srg


def _check_range(name: str, n: int, ell: int) -> None:
    """ValueError unless n >= 4 and 1 <= ell <= n."""
    if n < 4 or not 1 <= ell <= n:
        raise ValueError(f"{name} needs n >= 4 and 1 <= ell <= n, not n = {n}, ell = {ell}")


def derive_seidel(n: int, ell: int, a: int) -> SeidelDerivation:
    """Graph parameters forced on the a-marked graph when b = -a and the
    split rows sum to zero (sigma = 0 in _srg_terms).

    Raises ValueError unless n >= 4 and 1 <= ell <= n, InfeasibleSeidel
    when the order identity fails, NonIntegral when the forced parameters
    are not integers, and HadsplitError when no graph has them.
    """
    _check_range("Seidel derivation", n, ell)
    if a < 1:
        raise InfeasibleSeidel("a must be positive when b = -a")
    if ell * ell + a * a * (n - 1) != n * ell:
        raise InfeasibleSeidel(f"ell^2 + a^2(n-1) != n ell for {(n, ell, a)}")
    if ell == a * a and n % 2:
        # forced ell = 1, a = 1: two disjoint cliques of size n/2
        raise NonIntegral("odd order in the degenerate branch")
    # integral k = (a(n - 1) - ell)/(2a) and mu = n(a - 1)/(4a) give a | ell
    # and, as gcd(a, a - 1) = 1, a | n: the Seidel spectrum below is integral
    srg = _srg_params(n, ell, a, -a, 0)
    return SeidelDerivation(
        params=SplitParams(n, ell, a, -a),
        srg=_require_graph(srg),
        s_spectrum=(((n - ell) // a, ell), (-ell // a, n - ell)),
    )


def general_srg_from_b(n: int, ell: int, a: int, b: int | Fraction) -> tuple[Fraction, ...]:
    """Exact (k, lam, mu) for a two-value split with the given b.

    Valid whenever a^2 != b^2. k is read off the trace of G^2 = nG, and
    sigma = d + ck + bn passes it to _srg_terms.
    """
    b = Fraction(b)
    if a * a == b * b:
        raise NonIntegral("a^2 = b^2 has no two-value derivation here")
    k = (n * ell - ell * ell - (n - 1) * b * b) / (a * a - b * b)
    sigma = ell - b + (a - b) * k + b * n
    return tuple(num / den for num, den in _srg_terms(n, ell, a, b, sigma))


def _derive_from_b(n: int, ell: int, a: int, b: int, sigma: int) -> tuple[int, SrgParams]:
    """b and its a-graph for row sum sigma, with derive_srg_case_a's errors.

    Two +-1 columns of length ell that disagree in d places have inner
    product ell - 2d, so a Gram value lies in [-ell, ell] with ell's parity.
    """
    if a * a == b * b:
        raise NonIntegral("a^2 = b^2 has no two-value derivation here")
    if not (abs(a) <= ell and abs(b) <= ell and (ell - a) % 2 == 0 == (ell - b) % 2):
        raise HadsplitError(
            f"no +-1 columns of length {ell} have inner products a = {a} and b = {b}"
        )
    return b, _require_graph(_srg_params(n, ell, a, b, sigma))


def derive_srg_case_a(n: int, ell: int, a: int) -> tuple[int, SrgParams]:
    """b and the a-marked graph parameters on the zero-row-sum branch.

    Raises ValueError unless n >= 4 and 1 <= ell <= n, NonIntegral when
    the branch denominator vanishes, a^2 = b^2 or b, k, lam or mu is not
    an integer, and HadsplitError when a and b are not both inner products
    of +-1 columns of length ell, or when no graph has k, lam and mu.
    """
    _check_range("case-a derivation", n, ell)
    num, den = _case_a_b(n, ell, a)
    if den == 0:
        raise NonIntegral("branch denominator a(n-1) + ell vanishes")
    return _derive_from_b(n, ell, a, _exact("b", num, den), 0)


def derive_srg_case_b(n: int, ell: int, a: int) -> tuple[int, SrgParams]:
    """b and the a-marked graph parameters on the other non-seidel branch,
    where G has row sum sigma = n, with the errors of derive_srg_case_a."""
    _check_range("case-b derivation", n, ell)
    num, den = _case_b_b(n, ell, a)
    if den == 0:
        raise NonIntegral("branch denominator a(n-1) + ell - n vanishes")
    return _derive_from_b(n, ell, a, _exact("b", num, den), n)


def verify_seidel_matrix(report: SplitReport) -> bool:
    """Check the quadratic identity of the split's Seidel matrix.

    S is the Seidel matrix oriented so S = (G - ell I)/a, i.e. +1 on
    a-positions. The identity, cleared of denominators, is
    a^2 S^2 = a(n - 2 ell) S + ell(n - ell) I.
    """
    p = report.params
    if p.b != -p.a:
        raise InfeasibleSeidel("report is not on the b = -a branch")
    if report.adjacency is None:
        raise InfeasibleSeidel("no adjacency available")
    n, ell, a = p.n, p.ell, p.a
    eye = IntMatrix.identity(n)
    j = IntMatrix.ones(n)
    # S = 2A + I - J coincides with (G - ell I)/a on the b = -a branch
    s = 2 * report.adjacency + eye - j
    return a * a * (s @ s) == a * (n - 2 * ell) * s + (ell * (n - ell)) * eye


def _constant_sign_rows(h: HadamardMatrix) -> np.ndarray:
    # every entry is +-1, so a row has one sign exactly when |row sum| = n
    return np.flatnonzero(np.abs(h.array.sum(axis=1)) == h.order)


def delete_allones_transform(h: HadamardMatrix, report: SplitReport) -> SplitReport:
    """Drop the all-ones row from the split complement and re-split.

    For a b = -a split whose complement contains a constant-sign row, the
    remaining n - ell - 1 rows form a split with parameters
    (n, n - ell - 1, a - 1, -a - 1).
    """
    _require_report_of(h, report)
    p = report.params
    if p.b != -p.a:
        raise InfeasibleSeidel("transform needs b = -a")
    split = set(report.rows)
    outside = [i for i in _constant_sign_rows(h) if i not in split]
    if not outside:
        raise MissingAllOnesRow("no constant-sign row outside the split")
    drop = int(outside[0])
    keep = [i for i in range(h.order) if i not in split and i != drop]
    out = check_split(h, keep)
    want = SplitParams(p.n, p.n - p.ell - 1, p.a - 1, -p.a - 1)
    if out.params != want:
        raise HadsplitError(f"transform produced {out.params}, expected {want}")
    return out


def equiangular_report(params: SplitParams) -> EquiangularReport:
    """Line-count bound for a b = -a split seen as equiangular lines.

    The n columns of H1 are n lines in dimension m = ell with squared
    cosine alpha^2 = a^2 / ell^2 = (n - ell)/(ell (n - 1)) by the order
    identity, which must hold; the bound m(1 - alpha^2)/(1 - m alpha^2)
    on their number applies while m alpha^2 < 1.
    """
    n, ell = params.n, params.ell
    if n < 2 or not 1 <= ell <= n:
        raise ValueError(
            f"equiangular analysis needs n >= 2 and 1 <= ell <= n, not n = {n}, ell = {ell}"
        )
    if params.b != -params.a:
        raise InfeasibleSeidel("equiangular analysis needs b = -a")
    if ell * ell + params.a**2 * (n - 1) != n * ell:
        raise InfeasibleSeidel(f"ell^2 + a^2(n-1) != n ell for {(n, ell, params.a)}")
    alpha_sq = Fraction(n - ell, ell * (n - 1))
    denom = 1 - ell * alpha_sq
    if denom <= 0:
        raise BoundInapplicable(f"m alpha^2 = {ell * alpha_sq} >= 1")
    bound = Fraction(ell) * (1 - alpha_sq) / denom
    return EquiangularReport(m=ell, alpha_sq=alpha_sq, bound=bound, attained=bound == n)


def unbiased_partner(h: HadamardMatrix, report: SplitReport) -> HadamardMatrix:
    """Hadamard matrix K with H Kt entries all +-sqrt(n).

    Exists for b = -a splits with n = 4a^2 and ell = (n +- sqrt n)/2, where
    report is check_split's report of rows of h. K = (2G - nI) / (2a) is
    read off the report's adjacency A with no product: there
    G = (ell + a) I + 2aA - aJ, so K = 2A - J + cI with
    c = (2 ell + 2a - n) / (2a), which is 0 or 2.

    Nothing is re-proved. K is symmetric, so G^2 = nG and n = 4a^2 give
    KKt = (4G^2 - 4nG + n^2 I) / (4a^2) = nI. HHt = nI gives H H1t H1 = nDH,
    with D marking the split rows, so H Kt = (n / 2a)(2D - I) H has every
    entry +-n/(2a) = +-sqrt(n).
    """
    _require_report_of(h, report)
    p = report.params
    n, ell, a = p.n, p.ell, p.a
    root = isqrt_exact(n)
    if p.b != -a or root is None or root != 2 * a or 2 * ell not in (n - root, n + root):
        raise NotUnbiasedCase(f"{p} is not an unbiased-partner case")
    k = 2 * report.adjacency.array - 1
    np.fill_diagonal(k, (2 * ell + 2 * a - n) // (2 * a) - 1)
    return _proved_hadamard(k)


def regular_hadamard_normalize(h: HadamardMatrix, report: SplitReport) -> HadamardMatrix:
    """Sign-normalize a (4m^2, 2m^2 - m, m, -m) split to constant sums 2m.

    Rows outside the split are negated, then columns are flipped to make
    every column sum +2m. Sign flips keep H Hadamard, so the result is not
    re-proved, and its row sums are 2m too: 1t H = 2m 1t and H Ht = nI give
    n 1t = 2m 1t Ht, so H 1 = (n / 2m) 1 = 2m 1.
    """
    _require_report_of(h, report)
    p = report.params
    m = p.a
    if p.b != -m or p.n != 4 * m * m or p.ell != 2 * m * m - m:
        raise WrongParameters(f"{p} is not of the form (4m^2, 2m^2 - m, m, -m)")
    rows = np.full(p.n, -1, dtype=np.int64)
    rows[list(report.rows)] = 1
    sums = (rows[:, None] * h.array).sum(axis=0)
    if not np.all(np.abs(sums) == 2 * m):
        raise HadsplitError("column sums are not +-2m after row flips")
    return _resigned(h, rows, np.where(sums < 0, -1, 1))


def diagonalize_by_hadamard(a: IntMatrix, h: HadamardMatrix) -> SpectrumLayout:
    """Eigenvalues read off D = H A Ht when it is diagonal."""
    n = h.order
    if a.shape != (n, n):
        raise ValueError("shape mismatch")
    d = (h @ a @ h.T).array
    off = d != 0
    np.fill_diagonal(off, False)
    bad = np.flatnonzero(off)
    if bad.size:
        i, j = divmod(int(bad[0]), n)
        raise NotDiagonalized(f"off-diagonal entry at ({i}, {j})", witness=(i, j, int(d[i, j])))
    # H A Ht = D and Ht H = nI give A Ht = Ht D / n: each D_ii / n is a
    # rational eigenvalue of the integer matrix A, so an integer
    return SpectrumLayout(per_row=tuple((np.diagonal(d) // n).tolist()))


def split_from_diagonalizable_srg(a: IntMatrix, h: HadamardMatrix) -> SplitReport:
    """Recover a split from an SRG diagonalized by H (all-ones row last)."""
    n = h.order
    if set(h.row(n - 1)) != {1}:
        raise MissingAllOnesRow("the last row of h must be all-ones")
    if direct_srg_params(a) is None:
        raise ValueError("input is not a strongly regular graph")
    # the last row of h is 1t and A is k-regular, so that row carries the
    # valency: per_row[n - 1] = 1t A 1 / n = k
    layout = diagonalize_by_hadamard(a, h)
    others = sorted({v for i, v in enumerate(layout.per_row) if i != n - 1})
    if len(others) != 2:
        raise HadsplitError(f"expected two non-valency eigenvalues, got {others}")
    theta = others[1]
    rows = [i for i in range(n - 1) if layout.per_row[i] == theta]
    return check_split(h, rows)


# Off-diagonal Gram entries screened per chunk in search_splits: 1092
# subsets at n = 16, under 1 MB of int8 sums and masks.
_SCREEN_ENTRIES = 2**17
# Largest pair-product table search_splits keeps, in entries: every order up
# to 256 (8,355,840 entries at n = 256).
_PAIR_TABLE_ENTRIES = 2**23
# Subset elements search_splits unranks at once, whole chunks of subsets but
# at least one chunk: 1 MB of indices.
_UNRANK_ENTRIES = 2**17


def _pair_products(rows: np.ndarray, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """out[r, e] = rows[r, p[e]] * rows[r, q[e]], in the type of rows."""
    out = rows.take(p, axis=1)
    out *= rows.take(q, axis=1)
    return out


def _colex_table(n: int, ell: int) -> np.ndarray:
    """table[i - 1, j] = C(i - 1 + j, i) for 1 <= i <= ell and 0 <= j <= n - ell.

    Row 1 is j, and each later row the running sum of the one before
    (C(x, i) = sum of C(y, i - 1) over y < x). Every entry is at most
    C(n - 1, ell), so the table is exact in int64 wherever C(n, ell) is.
    """
    table = np.empty((ell, n - ell + 1), dtype=np.int64)
    table[0] = np.arange(n - ell + 1)
    for i in range(1, ell):
        np.cumsum(table[i - 1], out=table[i])
    return table


def _unrank_subsets(table: np.ndarray, n: int, count: int, start: int, stop: int) -> np.ndarray:
    """cols[t, s]: the t-th smallest element of the ell-subset of range(n)
    of lexicographic rank start + s, for start <= start + s < stop.

    The mirrored subset {n - 1 - c} has co-lexicographic rank
    count - 1 - r, count = C(n, ell), and its i-th smallest element d_i
    is the largest d with C(d, i) <= the rank left after the larger ones
    are taken off (Knuth, TAOCP 4A, 7.2.1.3). With d_i = i - 1 + j, the
    j of each subset is one searchsorted in table row i - 1, largest
    element first, and c = n - 1 - d_i is the (ell - i)-th smallest.
    """
    ell = len(table)
    rank = np.arange(count - 1 - start, count - 1 - stop, -1, dtype=np.int64)
    cols = np.empty((ell, stop - start), dtype=np.intp)
    for t, row in enumerate(table[::-1]):
        j = row.searchsorted(rank, side="right") - 1
        rank -= row[j]
        np.subtract(n - ell + t, j, out=cols[t])
    return cols


def search_splits(h: HadamardMatrix, ell: int, budget: int = 10**7) -> list[SplitReport]:
    """All balanced ell-row splits, deduplicated by parameter tuple.

    Subsets are scanned in lexicographic order and the first representative
    of each parameter tuple is kept, so output is deterministic. Raises
    BudgetExceeded when C(n, ell) exceeds the budget, and OverflowError,
    before any array is built, when C(n, ell) >= 2^62, past what int64
    ranks hold (only a budget that large gets there).

    Subsets are taken by rank: the ranks 0 .. C(n, ell) - 1 are unranked
    in batches of whole chunks into index arrays (_unrank_subsets), so no
    Python object is built per subset. Each chunk's subsets are screened
    at once. A subset whose off-diagonal Gram entries take only the values
    max and min has the parameter tuple (n, ell, max, min) in check_split's
    report, so check_split runs once per tuple, on its first subset;
    check_split cannot raise on a subset that passes the screen.

    The screen forms no Gram product. prods[r, e] = h[r, p] h[r, q] for
    the e-th column pair p < q, so a subset's off-diagonal Gram entries are
    the sum of its ell rows of prods. A partial sum of t terms of +-1 lies
    in [-t, t], so int8 holds every one exactly while ell <= 127, and int16
    past that (ell <= n, and h alone would take 8 GB at n = 2^15).

    Memory: while prods has at most _PAIR_TABLE_ENTRIES entries, every order
    up to 256, it is built once (8 MB of int8 at n = 256, twice that while it
    is built). Past that no table is kept, since it grows like n^3: each
    chunk forms the prods rows of its subsets from h's rows. A chunk holds
    at most max(_SCREEN_ENTRIES, n (n - 1) / 2) sums, as many for each row
    it adds (two more without the table) and the screen's boolean masks.
    A batch of unranked subsets holds at most max(_UNRANK_ENTRIES, ell
    chunk) indices.
    """
    n = h.order
    _require_order_above_1(n)
    if not 1 <= ell <= n:
        raise ValueError("ell out of range")
    count = math.comb(n, ell)
    if count > budget:
        raise BudgetExceeded(f"C({n}, {ell}) = {count} exceeds budget {budget}")
    if count >= _INT64_SAFE:
        raise OverflowError(f"C({n}, {ell}) = {count} subsets exceed the int64 ranks below 2^62")
    arr = h.array.astype(np.int8 if ell <= 127 else np.int16)
    p, q = np.triu_indices(n, 1)
    if n * len(p) <= _PAIR_TABLE_ENTRIES:
        # row-major: a subset gathers whole rows of prods
        prods = _pair_products(arr, p, q)

        def pair_rows(col: np.ndarray) -> np.ndarray:
            return prods.take(col, axis=0)

    else:

        def pair_rows(col: np.ndarray) -> np.ndarray:
            return _pair_products(arr.take(col, axis=0), p, q)

    chunk = max(1, _SCREEN_ENTRIES // len(p))
    batch = chunk * max(1, _UNRANK_ENTRIES // (chunk * ell))
    table = _colex_table(n, ell)
    seen: set[tuple[int, int, int, int]] = set()
    out: list[SplitReport] = []
    for first in range(0, count, batch):
        subsets = _unrank_subsets(table, n, count, first, min(first + batch, count))
        for start in range(0, subsets.shape[1], chunk):
            cols = subsets[:, start : start + chunk]
            off = pair_rows(cols[0])
            for col in cols[1:]:
                off += pair_rows(col)
            hi, lo = off.max(axis=1), off.min(axis=1)
            two = ((off == hi[:, None]) | (off == lo[:, None])).all(axis=1)
            for pos in np.flatnonzero(two).tolist():
                key = (n, ell, int(hi[pos]), int(lo[pos]))
                if key not in seen:
                    seen.add(key)
                    out.append(check_split(h, cols[:, pos].tolist()))
    return out


def classify_srg16(a: IntMatrix) -> str:
    """Distinguish the two SRG(16, 6, 2, 2) graphs by clique number."""
    srg = direct_srg_params(a)
    if srg is None or srg.astuple() != (16, 6, 2, 2):
        raise ValueError("input is not an SRG(16, 6, 2, 2)")
    size, _ = max_clique(_bitmasks(a.array != 0))
    if size == 4:
        return "lattice"
    if size == 3:
        return "shrikhande"
    raise AssertionError(f"impossible clique number {size}")  # pragma: no cover
