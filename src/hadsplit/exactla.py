"""Exact linear algebra over the rationals, and the Gaussian rationals that
eigenmatrix entries live in.

Small dense matrices only. Every elimination is fraction-free and runs in
one loop, _echelon_array, on a numpy array that it updates every row at
once at each pivot, in int64 while a bound allows and on Python ints past
it. rref runs on it, for the eigenspace systems of
feasibility.eigvec_search, which have one row per vertex; _kernel_int gives
its kernel as primitive integer vectors, and nullspace is built on that.
The exact subspace splitting of schemes.eigenmatrices, which runs only
when that function's float proposal of P fails its exact character check,
splits with _kernel_int and _echelon_array.
rref and nullspace take int and Fraction entries, scale each row to
integers, and build only their results from Fractions. mat_vec takes any
elements supporting + and *; schemes applies integer matrices with it.
_gaussian_characters, which schemes.eigenmatrices asks first, reads a
scheme's character table off one float eigendecomposition, where floats
only propose: it returns the table only when an exact int64 identity
check proves every row a character and the rows are distinct.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Sequence

import numpy as np

from .core import _INT64_SAFE, _max_abs

__all__ = ["GaussianRational", "rref", "nullspace", "mat_vec"]


class GaussianRational:
    """Element of Q(i) with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = Fraction(re)
        self.im = Fraction(im)

    @staticmethod
    def _coerce(v) -> "GaussianRational":
        if isinstance(v, GaussianRational):
            return v
        if isinstance(v, (int, Fraction)):
            return GaussianRational(v)
        raise TypeError(f"cannot coerce {type(v).__name__}")

    def __add__(self, o):
        o = self._coerce(o)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, o):
        o = self._coerce(o)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, o):
        return self._coerce(o) - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, o):
        o = self._coerce(o)
        return GaussianRational(self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, o):
        o = self._coerce(o)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero in Q(i)")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / d, (self.im * o.re - self.re * o.im) / d
        )

    def __rtruediv__(self, o):
        return self._coerce(o) / self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, o) -> bool:
        try:
            o = self._coerce(o)
        except TypeError:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self) -> int:
        # a real value equals its Fraction, and so the int it may be
        return hash(self.re) if self.im == 0 else hash((self.re, self.im))

    @property
    def is_rational(self) -> bool:
        return self.im == 0

    def sort_key(self) -> tuple[Fraction, Fraction]:
        return (self.re, self.im)

    def __repr__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


Matrix = list[list]


def _primitive(row: list[int]) -> list[int]:
    """A nonzero integer vector divided by the gcd of its entries."""
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _scaled_int(m: Sequence[Sequence[int | Fraction]]) -> Matrix:
    """m with each row scaled by the lcm d of its entries' denominators,
    which keeps its row space; entries other than int and Fraction raise
    TypeError. A row of plain ints is copied as it is."""
    scaled = []
    for row in m:
        if set(map(type, row)) == {int}:
            scaled.append(list(row))
            continue
        for v in row:
            if not isinstance(v, (int, Fraction)):
                raise TypeError(f"rref needs int or Fraction entries, got {type(v).__name__}")
        d = math.lcm(*(v.denominator for v in row))
        scaled.append([v.numerator * (d // v.denominator) for v in row])
    return scaled


def _primitive_rows(a: np.ndarray) -> np.ndarray:
    """Each row of a divided by the gcd of its entries; a zero row stays.
    initial=0 keeps the gcd nonnegative, also for a row of one entry."""
    return a // np.maximum(np.gcd.reduce(a, axis=1, initial=0), 1)[:, None]


def _echelon_array(m: Sequence[Sequence[int]]) -> tuple[Matrix, list[int]]:
    """Fraction-free Gauss-Jordan on an integer matrix: the nonzero rows,
    each primitive, and the pivot column indices.

    Each pivot step forms pv * row - f * pivot_row for every row with
    f != 0 at once and divides each by the gcd of its entries. Every row
    stays a nonzero multiple of the row that a Fraction elimination holds
    at the same step, so the zero pattern, the pivots and the ratios
    row[c] / row[pivot] are those of rref; dividing each row by its pivot
    entry gives rref itself.

    Every update is bounded by 2 max|a|^2. The step runs in int64 while
    that bound is below 2**62, and from the first step past it the array
    holds Python ints (dtype object) and the same loop runs on those; the
    rows come back as Python ints either way.
    """
    try:
        a = np.array(m, dtype=np.int64)
    except OverflowError:
        a = np.array(m, dtype=object)
    nrows, ncols = a.shape
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        below = a[r:, c].nonzero()[0]
        if not below.size:
            continue
        pr = r + int(below[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        rows = a[:, c].nonzero()[0]
        rows = rows[rows != r]
        if rows.size:
            if a.dtype != object and 2 * _max_abs(a) ** 2 >= _INT64_SAFE:
                a = a.astype(object)
            a[rows] = _primitive_rows(a[r, c] * a[rows] - a[rows, c, None] * a[r])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return _primitive_rows(a[:r]).tolist(), pivots


def _kernel_int(m: Sequence[Sequence[int]]) -> list[list[int]]:
    """Right kernel of an integer matrix as primitive integer vectors: the
    nullspace basis, one vector per free column, each scaled by a positive
    integer to gcd 1.

    With L the lcm of the pivot entries, the vector for free column fc is
    L at fc and -row[fc] * (L // row[pivot]) at each pivot, L times the
    nullspace vector, so every entry is an integer.
    """
    rows, pivots = _echelon_array(m)
    scale = math.lcm(*(row[p] for row, p in zip(rows, pivots)))
    basis = []
    for fc in range(len(m[0])):
        if fc in pivots:
            continue
        v = [0] * len(m[0])
        v[fc] = scale
        for row, pc in zip(rows, pivots):
            v[pc] = -row[fc] * (scale // row[pc])
        basis.append(_primitive(v))
    return basis


def rref(m: Sequence[Sequence[int | Fraction]]) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form of a rational matrix; returns (all rows,
    nonzero rows first, as Fractions, and the pivot column indices), from
    _echelon_array on the integer rows of _scaled_int."""
    scaled = _scaled_int(m)
    if not scaled:
        return [], []
    rows, pivots = _echelon_array(scaled)
    zero = Fraction(0)
    out = [[Fraction(x, row[p]) if x else zero for x in row] for row, p in zip(rows, pivots)]
    out += [[zero] * len(scaled[0]) for _ in range(len(scaled) - len(rows))]
    return out, pivots


def nullspace(m: Sequence[Sequence[int | Fraction]]) -> list[list[Fraction]]:
    """Basis of the right kernel of a rational matrix, one vector per free
    column, each carrying 1 at its own free column: the _kernel_int vector
    of the scaled matrix divided by its entry there, which is positive. A
    pivot row is zero left of its pivot, so the free column is the last
    nonzero entry."""
    if not m:
        return []
    basis = []
    for v in _kernel_int(_scaled_int(m)):
        last = next(x for x in reversed(v) if x)
        basis.append([Fraction(x, last) for x in v])
    return basis


def mat_vec(a: Sequence[Sequence], v: Sequence) -> list:
    if a and len(a[0]) != len(v):
        raise ValueError(f"inner dimensions differ: {len(a[0])} columns against {len(v)} entries")
    return [sum(map(mul, row, v)) for row in a]


def _prime_roots(count: int) -> np.ndarray:
    """sqrt(2), sqrt(3), sqrt(5), ...: the square roots of the first count
    primes, which are linearly independent over Q."""
    primes: list[int] = []
    n = 2
    while len(primes) < count:
        if all(n % q for q in primes):
            primes.append(n)
        n += 1
    return np.sqrt(np.array(primes, dtype=np.float64))


def _gaussian_characters(
    p: Sequence[Sequence[Sequence[int]]], valencies: Sequence[int]
) -> list[tuple[list[int], list[int]]] | None:
    """The characters of a commutative scheme's Bose-Mesner algebra,
    proposed by one float eigendecomposition and proved exactly, as integer
    (real parts, imaginary parts); None when the proposal fails any check.

    p[i][j][k] = p_ij^k is the intersection table and valencies the k_i,
    so A_i A_j = sum_k p_ij^k A_k and A_0 = I. p[i], indexed [k][m], is
    B_i^T for B_i, multiplication by A_i, so a common left eigenvector x
    of the B_i is an eigenvector of the combination sum_i w_i p[i], w_i
    the square root of the i-th prime, with eigenvalue sum_i w_i theta_i.
    The w_i are linearly independent over Q, so distinct characters in
    Z[i] get distinct eigenvalues. Each eigenvector x is scaled to x_0 = 1
    and rounded to Gaussian integers; floats only propose. A row theta is
    kept when theta_0 = 1, |theta_i| <= k_i and theta_i theta_j =
    sum_k p_ij^k theta_k for every i and j, compared exactly in int64 on
    real and imaginary parts. As sum_k p_ij^k k_k = k_i k_j, each side and
    every partial sum is at most k_i k_j <= v^2 < 2^62 in magnitude, with
    v = sum_i k_i < 2^31 (and |re|^2 + |im|^2 <= 2 v^2 < 2^63), so nothing
    wraps. Such a row is a character: A_i -> theta_i respects the unit A_0
    and every product. The algebra is commutative and semisimple of
    dimension d+1, so it has exactly d+1 characters, and d+1 distinct rows
    are all of them.
    """
    d1 = len(valencies)
    if sum(valencies) >= 2**31:
        return None
    p = np.array(p, dtype=np.int64)
    val = np.array(valencies, dtype=np.int64)
    try:
        _, vecs = np.linalg.eig(np.tensordot(_prime_roots(d1), p, axes=1))
    except np.linalg.LinAlgError:
        return None
    with np.errstate(all="ignore"):
        rows = (vecs / vecs[0]).T
        re, im = np.round(rows.real), np.round(rows.imag)
        # a NaN or an infinity fails the comparison too
        if not ((np.abs(re) <= val) & (np.abs(im) <= val)).all():
            return None
    re, im = re.astype(np.int64), im.astype(np.int64)
    if (re * re + im * im > val * val).any() or (re[:, 0] != 1).any() or im[:, 0].any():
        return None
    sums = p.reshape(d1 * d1, d1).T
    lhs_re = re[:, :, None] * re[:, None, :] - im[:, :, None] * im[:, None, :]
    lhs_im = re[:, :, None] * im[:, None, :] + im[:, :, None] * re[:, None, :]
    if not (
        np.array_equal(lhs_re.reshape(d1, -1), re @ sums)
        and np.array_equal(lhs_im.reshape(d1, -1), im @ sums)
    ):
        return None
    lines = list(zip(re.tolist(), im.tolist()))
    if len({(tuple(a), tuple(b)) for a, b in lines}) < d1:
        return None
    return lines
