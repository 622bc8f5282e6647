"""Feasibility screens and parameter enumeration for balanced splits.

Each enumeration lists the parameter sets surviving every implemented screen
and annotates them with a status: realized by a construction, excluded by a
mod-4 sign count, excluded by an exhaustive eigenvector search, or open.

Parity: two +-1 columns of length ell that disagree in d places have inner
product ell - 2d, so every off-diagonal Gram value of a split is congruent
to ell mod 2. The zero-row-sum table keeps only cells with
a = b = ell (mod 2).

The Seidel table screens its whole (n, a) grid at once in int64 numpy, the
zero-row-sum table only the cells where b is an integer, found as divisor
pairs (_case_a_cells); the SRG screens of srg_primitive_feasible then run
on the surviving columns, also in int64 (_srg_feasible), and Python
objects are built only for the rows that pass. The arrays are exact for
orders n <= _MAX_GRID_ORDER = 2^15, and both tables raise OverflowError
past it before building anything:

  Seidel (b = -a): the grid holds n^2 - 4 a^2 (n-1), which lies in
  [0, n^2] with n^2 <= 2^30 where it is used. float64 holds such integers
  exactly, and its correctly rounded sqrt of a perfect square is the root
  itself, so rint(sqrt(x))^2 == x is an exact squareness test. k, lam and
  mu are formed (splitting._srg_terms with sigma = 0, so c = 2a and
  d = ell + a) on cells with a^2 < ell < n and a^2 <= n/3: k's numerator
  an - ell - a and mu's na(a - 1) are below n^2, and lam's adds
  2a(n - 2 ell - 2a), below 4an <= 4n^2/3, so every term is below 2n^2.

  Zero row sums: the items (n, a, t) of _case_a_cells have
  K = n - 1 - a in [0, n) and 0 <= t <= K^2 / (4an), so K^2 <= n^2 and
  4ant <= 4n^3 <= 2^47 (in fact 4ant <= K^2), and
  D = (K - t)^2 - 4ant lies in [-n^2, n^2]; the square root runs on
  max(D, 0) <= n^2 <= 2^30, where the float64 test above is exact. b's
  numerator ell (ell - a - n) and denominator a (n-1) + ell are below n^2
  in magnitude. k, lam and mu are formed (_srg_terms with sigma = 0) only
  on cells with b an integer in [-ell, 0) and 1 <= a <= ell < n, so
  c = a - b and d = ell - b lie in [1, 2 ell]. k's numerator -d - bn lies
  in [0, n^2); mu's, nb(b + 1), in [0, n ell (ell - 1)]; (n - 2d) c in
  (-6n^2, 2n ell), so lam's numerator, their sum, lies in
  (-6n^2, n ell (ell + 1)); and c^2 <= 4 ell^2. Every product and sum is
  below n^3 <= 2^45 in magnitude for n >= 8.

  SRG screens: the range tests 0 < k < v - 1, 0 <= lam < k and
  1 <= mu < k, comparisons only, run first and the columns are compressed
  to the cells that pass, so every later quantity is bounded in terms of
  v = n <= 2^15: the discriminant (lam - mu)^2 + 4 (k - mu) lies in
  [4, v^2 + 4v], below 2^53, so float64 sqrt decides squareness exactly as
  above; its root is below v + 2, the eigenvalues below v + 1 in
  magnitude, and the largest product, a Krein side, below 2 (v + 2)^3,
  far below 2^62.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constructions import witness_for
from .core import _INT64_SAFE, HadsplitError, IntMatrix, exact_matmul, isqrt_exact
from .exactla import rref
from .search import _bitmasks, max_clique
from .splitting import (
    BudgetExceeded,
    SplitParams,
    SrgParams,
    _case_a_b,
    _srg_terms,
)

__all__ = [
    "STATUS_EXISTS",
    "STATUS_MOD4_SUM",
    "STATUS_MOD4_DIFF",
    "STATUS_EIGSEARCH",
    "STATUS_OPEN",
    "FeasibleRow",
    "MultiplicityMismatch",
    "EigvecSearchResult",
    "srg_basic_ok",
    "srg_multiplicities",
    "srg_krein_ok",
    "srg_absolute_bound_ok",
    "srg_complement_ok",
    "srg_primitive_feasible",
    "filter_mod4_sum",
    "filter_mod4_diff",
    "solve_sign_pattern",
    "SignPatternSolution",
    "enumerate_seidel",
    "enumerate_case_a",
    "eigvec_search",
]

STATUS_EXISTS = "exists-by-construction"
STATUS_MOD4_SUM = "excluded-mod4-sum"
STATUS_MOD4_DIFF = "excluded-mod4-diff"
STATUS_EIGSEARCH = "excluded-eigsearch"
STATUS_OPEN = "open"

# The status of each row that neither a construction nor a mod-4 count
# settles, keyed by (n, ell, a, b); None drops the row from its table.
_RECORDS: dict[tuple[int, int, int, int], str | None] = {
    # derive_seidel gives Seidel eigenvalues 19 and -5, so the split would be
    # a regular two-graph on 96 points with an SRG(95, 40, 12, 20) as its
    # descendant, and no such graph exists (Azarija and Marc, "There is no
    # (95, 40, 12, 20) strongly regular graph", J. Combin. Des. 28, 2020;
    # arXiv:1603.02032).
    (96, 20, 4, -4): None,
    # eigvec_search on the bundled rook graph SRG(36, 10, 4, 2), the unique
    # L2(6), certifies (36, 10, 4, -2) in about 10 ms, and (36, 25, 1, -5)
    # through its complementary split (36, 11, 5, -1).
    (36, 10, 4, -2): STATUS_EIGSEARCH,
    (36, 25, 1, -5): STATUS_EIGSEARCH,
    # These rest on the source paper's searches; the repo lacks the catalogs
    # of SRG(36, 14, 4, 6) and SRG(36, 15, 6, 6) that a search here needs.
    (36, 14, 2, -4): STATUS_EIGSEARCH,
    (36, 20, 2, -4): STATUS_EIGSEARCH,
}


class MultiplicityMismatch(HadsplitError):
    """Eigenspace dimension disagrees with the requested block size."""


@dataclass(frozen=True)
class FeasibleRow:
    params: SplitParams
    srg: SrgParams
    status: str
    witness: str | None = None

    def as_dict(self) -> dict:
        return {
            "n": self.params.n,
            "ell": self.params.ell,
            "a": self.params.a,
            "b": self.params.b,
            "k": self.srg.k,
            "lam": self.srg.lam,
            "mu": self.srg.mu,
            "status": self.status,
            "witness": self.witness,
        }


def srg_basic_ok(p: SrgParams) -> bool:
    v, k, lam, mu = p.astuple()
    if not (0 < k < v - 1):
        return False
    if not (0 <= lam <= k - 1 and 0 <= mu <= k):
        return False
    return p.identity_ok()


def srg_multiplicities(p: SrgParams) -> tuple[int, int] | None:
    """Multiplicities (f, g) of the positive and negative eigenvalue,
    or None when no integral assignment exists."""
    v, k, lam, mu = p.astuple()
    disc = (lam - mu) ** 2 + 4 * (k - mu)
    if disc <= 0:
        return None
    d = isqrt_exact(disc)
    t = 2 * k + (v - 1) * (lam - mu)
    if d is None:
        # irrational eigenvalues force equal halves
        if t != 0 or (v - 1) % 2:
            return None
        half = (v - 1) // 2
        return (half, half)
    num_f = (v - 1) * d - t
    num_g = (v - 1) * d + t
    if num_f % (2 * d) or num_g % (2 * d):
        return None
    f, g = num_f // (2 * d), num_g // (2 * d)
    if f < 0 or g < 0 or f + g != v - 1:
        return None
    return (f, g)


def _integer_eigenvalues(p: SrgParams) -> tuple[int, int] | None:
    _, k, lam, mu = p.astuple()
    disc = (lam - mu) ** 2 + 4 * (k - mu)
    d = isqrt_exact(disc) if disc >= 0 else None
    if d is None or (lam - mu + d) % 2:
        return None
    return ((lam - mu + d) // 2, (lam - mu - d) // 2)


def srg_krein_ok(p: SrgParams) -> bool:
    eig = _integer_eigenvalues(p)
    if eig is None:
        # the equal-multiplicity family satisfies both conditions
        return True
    r, s = eig
    k = p.k
    if (r + 1) * (k + r + 2 * r * s) > (k + r) * (s + 1) ** 2:
        return False
    if (s + 1) * (k + s + 2 * r * s) > (k + s) * (r + 1) ** 2:
        return False
    return True


def srg_absolute_bound_ok(p: SrgParams) -> bool:
    mult = srg_multiplicities(p)
    if mult is None:
        return False
    f, g = mult
    return p.v <= f * (f + 3) // 2 and p.v <= g * (g + 3) // 2


def srg_complement_ok(p: SrgParams) -> bool:
    comp = p.complement()
    return comp.lam >= 0 and comp.mu >= 0


def srg_primitive_feasible(p: SrgParams) -> bool:
    """Every screen at once, restricted to primitive parameter sets."""
    if not srg_basic_ok(p):
        return False
    if not (1 <= p.mu < p.k):
        return False
    if srg_multiplicities(p) is None:
        return False
    return srg_krein_ok(p) and srg_absolute_bound_ok(p) and srg_complement_ok(p)


# The two sign-count systems share the matrix below; it is symmetric with
# square 4I, so solving means multiplying the right side by it and dividing
# by four.
_SIGN_MATRIX = (
    (1, 1, 1, 1),
    (1, 1, -1, -1),
    (1, -1, 1, -1),
    (1, -1, -1, 1),
)


@dataclass(frozen=True)
class SignPatternSolution:
    kind: str
    rhs: tuple[int, int, int, int]
    counts: tuple[Fraction, Fraction, Fraction, Fraction]

    @property
    def integral(self) -> bool:
        return all(c.denominator == 1 for c in self.counts)


def solve_sign_pattern(kind: str, ell: int, a: int) -> SignPatternSolution:
    """Exact column sign counts forced on a b = -a split.

    kind "sum" counts against the all-ones row plus a split row; kind "diff"
    counts against the difference of two split rows.
    """
    if kind == "sum":
        rhs = (ell, a, a, -a)
    elif kind == "diff":
        rhs = (ell, a, a, a)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    counts = tuple(
        Fraction(sum(m * r for m, r in zip(row, rhs)), 4) for row in _SIGN_MATRIX
    )
    return SignPatternSolution(kind=kind, rhs=rhs, counts=counts)


def filter_mod4_sum(ell: int, a: int) -> bool:
    """True when the sum sign count rules the parameters out."""
    return (ell + a) % 4 != 0


def filter_mod4_diff(ell: int, a: int) -> bool:
    """True when the difference sign count rules the parameters out.

    Needs two distinct split rows agreeing in a columns, hence a > 1.
    """
    return a > 1 and (ell - a) % 4 != 0


# Largest max_n whose grids stay exact in int64 (see the module docstring).
_MAX_GRID_ORDER = 2**15


def _check_grid_order(max_n: int) -> None:
    if max_n > _MAX_GRID_ORDER:
        raise OverflowError(
            f"max_n = {max_n} exceeds {_MAX_GRID_ORDER}, the largest order whose "
            "feasibility grid is exact in int64"
        )


def _status(params: SplitParams) -> tuple[str | None, str | None]:
    """(status, witness) of a table row; a status of None drops the row.

    A construction settles the row first, then a record, then on b = -a
    rows the mod-4 sign counts; a row none of them settles is open.
    """
    n, ell, a, b = key = params.astuple()
    witness = witness_for(n, ell, a, b)
    if witness:
        return STATUS_EXISTS, witness
    if key in _RECORDS:
        return _RECORDS[key], None
    if b == -a and filter_mod4_sum(ell, a):
        return STATUS_MOD4_SUM, None
    if b == -a and filter_mod4_diff(ell, a):
        return STATUS_MOD4_DIFF, None
    return STATUS_OPEN, None


def _srg_feasible(v: np.ndarray, k: np.ndarray, lam: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """srg_primitive_feasible(SrgParams(v, k, lam, mu)) on int64 columns,
    cell by cell, for v <= 2^15 (bounds in the module docstring)."""
    out = (0 < k) & (k < v - 1) & (0 <= lam) & (lam < k) & (1 <= mu) & (mu < k)
    cells = np.flatnonzero(out)
    v, k, lam, mu = v[cells], k[cells], lam[cells], mu[cells]
    ok = k * (k - lam - 1) == (v - k - 1) * mu
    ok &= (v - 2 * k + mu - 2 >= 0) & (v - 2 * k + lam >= 0)
    # multiplicities: disc >= 4 since mu < k, so d >= 2 whether or not disc
    # is a square
    disc = (lam - mu) ** 2 + 4 * (k - mu)
    d = np.rint(np.sqrt(disc)).astype(np.int64)
    square = d * d == disc
    t = 2 * k + (v - 1) * (lam - mu)
    num_f, num_g = (v - 1) * d - t, (v - 1) * d + t
    rational = (num_f % (2 * d) == 0) & (num_g % (2 * d) == 0) & (num_f >= 0) & (num_g >= 0)
    # irrational eigenvalues force equal halves
    halves = (t == 0) & ((v - 1) % 2 == 0)
    ok &= np.where(square, rational, halves)
    # f + g = v - 1 on the cells still ok, and f, g lie in [0, v - 1]
    f = np.where(square & rational, num_f // (2 * d), (v - 1) // 2)
    g = v - 1 - f
    ok &= (v <= f * (f + 3) // 2) & (v <= g * (g + 3) // 2)
    # Krein conditions, where the eigenvalues are integers
    r, s = (lam - mu + d) // 2, (lam - mu - d) // 2
    krein = ((r + 1) * (k + r + 2 * r * s) <= (k + r) * (s + 1) ** 2) & (
        (s + 1) * (k + s + 2 * r * s) <= (k + s) * (r + 1) ** 2
    )
    ok &= krein | ~square | ((lam - mu + d) % 2 == 1)
    out[cells] = ok
    return out


def _integral_cells(terms: tuple[tuple, ...], *cols: np.ndarray) -> list[np.ndarray]:
    """The columns cols, then k, lam and mu, of the cells where each of the
    (numerator, denominator) columns in terms is an integer."""
    keep = np.logical_and.reduce([num % den == 0 for num, den in terms])
    return [c[keep] for c in cols] + [num[keep] // den[keep] for num, den in terms]


def _feasible_cells(cols: list[np.ndarray]) -> list[tuple[int, ...]]:
    """The rows of the columns (n, ..., k, lam, mu) that pass _srg_feasible."""
    ok = _srg_feasible(cols[0], *cols[-3:])
    return list(zip(*(c[ok].tolist() for c in cols)))


def _table(cells: list[tuple[int, ...]]) -> list[FeasibleRow]:
    """The rows (n, ell, a, b, k, lam, mu) that _status keeps, as table rows
    sorted by (n, ell, a, b)."""
    rows: list[FeasibleRow] = []
    for n, ell, a, b, k, lam, mu in cells:
        params = SplitParams(n, ell, a, b)
        status, witness = _status(params)
        if status is not None:
            rows.append(FeasibleRow(params, SrgParams(n, k, lam, mu), status, witness))
    rows.sort(key=lambda r: r.params.astuple())
    return rows


def enumerate_seidel(max_n: int) -> list[FeasibleRow]:
    """All b = -a parameter sets with n <= max_n surviving every screen.

    Emits the smaller of the two complementary block sizes, and drops the
    rows a record rules out by a cited nonexistence result. Raises
    OverflowError when max_n > 2^15.
    """
    _check_grid_order(max_n)
    n, ell, a = _seidel_cells(max_n)
    return _table(_feasible_cells(_integral_cells(_srg_terms(n, ell, a, -a, 0), n, ell, a, -a)))


def _seidel_cells(max_n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns (n, ell, a) for n = 4, 8, ..., max_n and a >= 1 where
    n^2 - 4a^2(n-1) = d^2 is a perfect square with n - d even, ell = (n-d)/2
    exceeds a^2, and a divides ell and n - ell.

    The quotients ell/a and (n - ell)/a, the sign-matrix eigenvalues, are
    then odd with no further screen: ell (n - ell) = (n^2 - d^2)/4 =
    a^2 (n-1), so the two quotients multiply to n - 1, which is odd, as n is
    a multiple of 4."""
    n = np.arange(4, max_n + 1, 4, dtype=np.int64)[:, None]
    # 4a^2(n-1) <= n^2 forces a^2 <= n^2 / (4(n-1)) <= n/3 for n >= 4
    a = np.arange(1, math.isqrt(max(max_n, 0) // 3) + 1, dtype=np.int64)
    disc = n * n - 4 * a * a * (n - 1)
    d = np.rint(np.sqrt(np.maximum(disc, 0))).astype(np.int64)
    i, j = np.nonzero((disc >= 0) & (d * d == disc))
    n, a, d = n[i, 0], a[j], d[i, j]
    ell = (n - d) // 2
    ok = ((n - d) % 2 == 0) & (ell > a * a) & (ell % a == 0) & ((n - ell) % a == 0)
    return n[ok], ell[ok], a[ok]


def enumerate_case_a(max_n: int) -> list[FeasibleRow]:
    """All zero-row-sum branch parameter sets with n <= max_n surviving
    every screen, sorted by (n, ell, a). Raises OverflowError when
    max_n > 2^15."""
    _check_grid_order(max_n)
    return _table(_case_a_cells(max_n))


# Most (n, a, t) items that _case_a_cells screens in one block, and most
# (n, a) pairs it numbers at once unless one order has more: peak memory
# stays flat in max_n, and arrays of at most 512 KB are reused from the heap
# rather than mapped and faulted in afresh per block.
_GRID_CELLS = 2**16


def _case_a_cells(max_n: int) -> list[tuple[int, ...]]:
    """Rows (n, ell, a, b, k, lam, mu) for n = 8, 12, ..., max_n, 2 <= ell < n and
    1 <= a <= ell where the zero-row-sum b is an integer, b >= -ell,
    a^2 != b^2, a = b = ell (mod 2), and k, lam and mu are integers passing
    every SRG screen; in no particular order.

    Only the cells with an integral b are visited, as divisor pairs. With
    den = a(n-1) + ell, ell = -a(n-1) (mod den) turns b's numerator
    ell (ell - a - n) into N = a(a+1) n(n-1) modulo den, so b is an integer
    exactly when den divides N. With K = n - 1 - a, N = an (an + K) and
    den = an + x, x = ell - a in [0, K]; where den divides N, its cofactor
    N/den = an + y lies in [an, an + K] too. Expanding
    (an + x)(an + y) = an (an + K) gives xy = an (K - x - y), so
    t = K - x - y is an integer with x + y = K - t and xy = ant; t >= 0,
    and 4ant = 4xy <= (x + y)^2 <= K^2 bounds t by K^2 / (4an). Conversely,
    for an (n, a, t) item, x and y are the roots of z^2 - (K - t) z + ant,
    and when D = (K - t)^2 - 4ant is a perfect square, which then has the
    parity of K - t since D = (K - t)^2 (mod 4), they are integers in
    [0, K] with (an + x)(an + y) = N: ell = a + x and ell = a + y are
    integral cells, and each integral cell comes from one item. An order
    has K^2 / (4an) + 1 items per a, about n + (n/4) ln n in all, against
    the n^2 / 2 cells of its (ell, a) grid.
    """
    found = [_case_a_integral_cells(*_divisor_pair_cells(*c)) for c in _case_a_items(max_n)]
    if not found:
        return []
    return _feasible_cells([np.concatenate(c) for c in zip(*found)])


def _case_a_items(max_n: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Blocks of at most _GRID_CELLS item columns (n, a, t), over n = 8, 12,
    ..., max_n, 1 <= a < n and 0 <= t <= K^2 / (4an) with K = n - 1 - a."""
    # The (n, a) pairs come a run of whole orders at a time, at most
    # _GRID_CELLS of them unless one order alone has more; the items of a
    # run are numbered pair by pair and cut into blocks.
    orders = np.arange(8, max_n + 1, 4, dtype=np.int64)
    stop = np.cumsum(orders - 1)
    lo = 0
    while lo < len(orders):
        first = stop[lo] - orders[lo] + 1
        hi = max(lo + 1, int(np.searchsorted(stop, first + _GRID_CELLS, side="right")))
        run = orders[lo:hi]
        n = np.repeat(run, run - 1)
        # a = 1, ..., n - 1 within each order
        a = np.arange(len(n)) - np.repeat(np.cumsum(run - 1) - run, run - 1)
        span = n - 1 - a
        count = span * span // (4 * a * n) + 1
        end = np.cumsum(count)
        total = int(end[-1])
        for start in range(0, total, _GRID_CELLS):
            item = np.arange(start, min(start + _GRID_CELLS, total))
            j = np.searchsorted(end, item, side="right")
            yield n[j], a[j], item - end[j] + count[j]
        lo = hi


def _divisor_pair_cells(n: np.ndarray, a: np.ndarray, t: np.ndarray) -> tuple[np.ndarray, ...]:
    """Columns (n, ell, a, b) of the integral cells with ell >= 2 that the
    item columns (n, a, t) give, each once (see _case_a_cells)."""
    s = n - 1 - a - t
    disc = s * s - 4 * a * n * t
    root = np.rint(np.sqrt(np.maximum(disc, 0))).astype(np.int64)
    i = np.flatnonzero(root * root == disc)
    # the roots (s + root) / 2 and (s - root) / 2 give a cell each, one
    # cell when they coincide
    j = i[root[i] > 0]
    n, a = np.concatenate([n[i], n[j]]), np.concatenate([a[i], a[j]])
    ell = a + np.concatenate([(s[i] + root[i]) // 2, (s[j] - root[j]) // 2])
    keep = ell >= 2
    n, ell, a = n[keep], ell[keep], a[keep]
    num, den = _case_a_b(n, ell, a)
    return n, ell, a, num // den


def _case_a_integral_cells(
    n: np.ndarray, ell: np.ndarray, a: np.ndarray, b: np.ndarray
) -> list[np.ndarray]:
    """Columns (n, ell, a, b, k, lam, mu) of the integral cells (n, ell, a, b)
    with b >= -ell, a^2 != b^2, a = b = ell (mod 2), and integral k, lam
    and mu."""
    keep = (b >= -ell) & (a * a != b * b) & ((ell - a) % 2 == 0) & ((ell - b) % 2 == 0)
    n, ell, a, b = n[keep], ell[keep], a[keep], b[keep]
    return _integral_cells(_srg_terms(n, ell, a, b, 0), n, ell, a, b)


@dataclass(frozen=True)
class EigvecSearchResult:
    eigenspace_dim: int
    survivors: tuple[tuple[int, ...], ...]
    best_size: int
    best_set: tuple[int, ...]
    certifies_nonexistence: bool


# Survivor Gram entries computed per block in eigvec_search.
_GRAM_ENTRIES = 2**20
# Most survivors eigvec_search keeps: their orthogonality bitmasks then take
# at most _SURVIVOR_CAP**2 / 8 bytes = 32 MB.
_SURVIVOR_CAP = 2**14
# Partial sign vectors per block of the eigvec_search frontier.
_FRONTIER_ROWS = 2**12


def eigvec_search(adjacency: IntMatrix, ell: int, a: int, b: int) -> EigvecSearchResult:
    """Exhaust the sign vectors in the top eigenspace of a candidate Gram.

    Builds B = ell I + (a-b) A + b (J-I) from the adjacency matrix, takes the
    eigenvalue-n eigenspace over the rationals (its dimension must equal ell,
    else MultiplicityMismatch), enumerates all +-1 vectors inside it up to
    global sign, and reports a maximum pairwise orthogonal subset. A maximum
    below ell certifies that no split with this Gram exists. Raises
    ValueError unless 1 <= ell <= v and the adjacency matrix is a graph's
    (symmetric, 0/1, zero diagonal), and BudgetExceeded, before any Gram
    or bitmask is built, when the search finds more than _SURVIVOR_CAP
    sign vectors.

    The search runs on integers. B - nI is an integer matrix, so rref
    reduces it fraction-free on a numpy array, every row at each pivot, in
    int64 while its bound allows and on Python ints past it. With scale =
    lcm of the denominators of the reduced free columns, each pivot entry
    of an eigenvector is (sum of coeff[t] * sign[t] over the free entries)
    / scale for integer coeff; the search bounds scale * entry instead of
    the entry. Its frontier holds these partial sums for every partial sign
    vector that can still be completed, one int64 row each: a level extends
    each row by +coeff[t] and -coeff[t], interleaved, and keeps the rows
    within rem of +-scale on every pivot, rem bounding the terms still to
    come. Blocks of at most
    _FRONTIER_ROWS rows are extended depth-first, so survivors come in the
    order of a depth-first search that tries +1 first. Every sum and
    test lies within scale + max(rem) of 0; at 2^62 and above the same loop
    runs on Python ints in object arrays.
    """
    v = adjacency.nrows
    if not 1 <= ell <= v:
        raise ValueError(f"eigenvector search needs 1 <= ell <= v, not v = {v}, ell = {ell}")
    if not adjacency.is_square or not adjacency.is_symmetric():
        raise ValueError("adjacency must be square and symmetric")
    arr = adjacency.array
    if not np.all((arr == 0) | (arr == 1)) or np.any(np.diagonal(arr)):
        raise ValueError("adjacency must have 0/1 entries and a zero diagonal")
    # B - vI = (a-b) A + b J + (ell - v - b) I, on Python ints
    system = [[(a - b) * x + b for x in row] for row in adjacency.tolist()]
    for i in range(v):
        system[i][i] += ell - v - b
    reduced, pivots = rref(system)
    free = [c for c in range(v) if c not in pivots]
    dim = len(free)
    if dim != ell:
        raise MultiplicityMismatch(f"eigenspace dimension {dim}, expected {ell}")

    scale = math.lcm(*(reduced[i][f].denominator for i in range(len(pivots)) for f in free))
    coeff = [
        [-x.numerator * (scale // x.denominator) for x in (reduced[i][f] for f in free)]
        for i in range(len(pivots))
    ]
    total = max((sum(map(abs, row)) for row in coeff), default=0)
    dtype = np.int64 if scale + total < _INT64_SAFE else object
    column = np.array(coeff, dtype=dtype).T.reshape(dim, len(pivots))
    # rem[t, i]: the terms from t on sum to at most this on pivot row i
    rem = np.zeros((dim + 1, len(pivots)), dtype=dtype)
    rem[:dim] = np.cumsum(np.abs(column[::-1]), axis=0)[::-1]

    found: list[np.ndarray] = []
    count = 0
    # (level, partial sums, signs so far), the next block to extend on top
    stack = [(0, np.zeros((1, len(pivots)), dtype=dtype), np.zeros((1, 0), dtype=np.int8))]
    while stack:
        t, partial, signs = stack.pop()
        if t == dim:
            # the last level kept only |x| = scale, unless there was none
            hit = np.all(np.abs(partial) == scale, axis=1)
            vecs = np.zeros((int(hit.sum()), v), dtype=np.int64)
            vecs[:, free] = signs[hit]
            vecs[:, pivots] = partial[hit] // scale
            found.append(vecs)
            count += len(vecs)
            if count > _SURVIVOR_CAP:
                raise BudgetExceeded(
                    f"{_SURVIVOR_CAP + 1} survivors exceed the budget of {_SURVIVOR_CAP}"
                )
            continue
        step = (1,) if t == 0 else (1, -1)
        chosen = np.tile(np.array(step, dtype=np.int8), len(signs))
        partial = np.repeat(partial, len(step), axis=0) + chosen[:, None] * column[t]
        signs = np.hstack([np.repeat(signs, len(step), axis=0), chosen[:, None]])
        # keep a row while +scale or -scale lies in [x - rem, x + rem] on every pivot
        keep = np.all(np.abs(np.abs(partial) - scale) <= rem[t + 1], axis=1)
        partial, signs = partial[keep], signs[keep]
        for start in reversed(range(0, len(partial), _FRONTIER_ROWS)):
            block = slice(start, start + _FRONTIER_ROWS)
            stack.append((t + 1, partial[block], signs[block]))

    # survivors are +-1 vectors of length v: their Gram is bounded by v, and
    # bit j of neighbors[i] marks survivor j orthogonal to survivor i; the
    # Gram is built a block of rows at a time, so only the packed bits of
    # all N^2 entries are held at once
    vecs = np.concatenate(found) if found else np.zeros((0, v), dtype=np.int64)
    step = max(1, _GRAM_ENTRIES // max(1, len(vecs)))
    neighbors = []
    for start in range(0, len(vecs), step):
        neighbors += _bitmasks(exact_matmul(vecs[start : start + step], vecs.T) == 0)
    best_size, best_set = max_clique(neighbors)
    return EigvecSearchResult(
        eigenspace_dim=dim,
        survivors=tuple(map(tuple, vecs.tolist())),
        best_size=best_size,
        best_set=tuple(best_set),
        certifies_nonexistence=best_size < ell,
    )
