"""Exact linear algebra over the rationals, the Gaussian rationals that
eigenmatrix entries live in, and the characters of a commutative scheme's
Bose-Mesner algebra.

Small dense matrices only. Every elimination is fraction-free and runs in
one loop, _echelon_array, on a numpy array that it updates every row at
once at each pivot, in int64 while a bound allows and on Python ints past
it. rref runs on it, for the eigenspace systems of
feasibility.eigvec_search, which have one row per vertex, and _kernel_int
gives its kernel as primitive integer vectors. rref takes int and Fraction
entries, scales each row to integers, and builds only its result from
Fractions. mat_vec takes any elements supporting + and *.

_characters gives the d+1 characters of the algebra from its intersection
table, each as integer (real parts, imaginary parts) with theta_0 = 1.
Floats only propose: _gaussian_characters reads them off one float
eigendecomposition and returns them only when an exact int64 identity
check proves every row a character and the rows are distinct. Otherwise
the exact subspace splitting, _split_eigenspaces, finds them on integers
alone: invariant subspaces are held as primitive integer vectors,
eigenvalues are the integer roots of the intersection matrices'
characteristic polynomials, and each eigenspace is an integer kernel
(_kernel_int, _echelon_array). It raises IrrationalEigenvalue when a
character leaves Z[i].
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import mul
from typing import Sequence

import numpy as np

from .core import _INT64_SAFE, HadsplitError, _max_abs, isqrt_exact

__all__ = ["GaussianRational", "rref", "mat_vec"]


class IrrationalEigenvalue(HadsplitError):
    """An eigenvalue lies outside the Gaussian rationals."""


class GaussianRational:
    """Element of Q(i) with exact Fraction parts."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        # a Fraction is immutable, so it is kept; Fraction(Fraction) would
        # copy it through the slow numbers.Rational check
        self.re = re if type(re) is Fraction else Fraction(re)
        self.im = im if type(im) is Fraction else Fraction(im)

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


def _integer_roots(m: Sequence[Sequence[int]], bound: int) -> list[int]:
    """Integers in [-bound, bound], increasing, that are roots of det(xI - m).

    Faddeev-LeVerrier gives the coefficients of the integer matrix m
    (M_1 = I, c_(n-k) = -tr(m M_k) / k, M_(k+1) = m M_k + c_(n-k) I); they
    are integers, so each division is exact. Horner's rule evaluates them.
    M_k is held by columns, so m M_k is m applied to each column.
    """
    n = len(m)
    coeffs = [1]
    prod = [[0] * n for _ in range(n)]
    for k in range(1, n + 1):
        for r in range(n):
            prod[r][r] += coeffs[-1]
        prod = [mat_vec(m, col) for col in prod]
        coeffs.append(-sum(prod[r][r] for r in range(n)) // k)
    roots = []
    for theta in range(-bound, bound + 1):
        acc = 0
        for c in coeffs:
            acc = acc * theta + c
        if not acc:
            roots.append(theta)
    return roots


def _combine(basis: list[list[int]], coeffs: Sequence[int]) -> list[int]:
    """sum_t coeffs[t] basis[t], made primitive."""
    return _primitive([sum(c * x for c, x in zip(coeffs, col)) for col in zip(*basis)])


def _split_by_integer_eigenvalues(basis: list[list[int]], bmat, roots: list[int]):
    """Split a bmat-invariant subspace into integer eigenspaces plus a leftover.

    basis holds independent primitive integer vectors X; every piece comes
    back the same way. With the images Y = bmat X, bmat X c = theta X c
    exactly when (Y - theta X) c = 0, so X c over an integer kernel basis of
    Y - theta X spans the theta-eigenspace inside span(X). roots holds every
    integer eigenvalue of bmat. The restriction T (bmat X = X T) has only
    eigenvalues of bmat, and its rational ones are rational roots of a monic
    integer polynomial, hence integers. The leftover is the image of the
    product of (T - theta I) over the eigenvalues found, which kills every
    found eigenspace; X times it is the product of (bmat - theta I) applied
    to X, whose column space an integer echelon form spans.
    """
    s = len(basis)
    rows = list(zip(zip(*basis), zip(*(mat_vec(bmat, v) for v in basis))))
    found = []
    pieces = []
    used = 0
    for theta in roots:
        if used == s:
            break
        ker = _kernel_int([[y - theta * x for x, y in zip(xs, ys)] for xs, ys in rows])
        if ker:
            found.append(theta)
            pieces.append([_combine(basis, c) for c in ker])
            used += len(ker)
    if used < s:
        left = basis
        for theta in found:
            left = [[y - theta * x for x, y in zip(v, mat_vec(bmat, v))] for v in left]
        pieces.append(_echelon_array(left)[0])
    return pieces


def _split_complex_pair(basis: list[list[int]], bmat):
    """Split a 2-dimensional invariant subspace over the Gaussian rationals.

    With Y = bmat X and M a nonsingular 2 x 2 minor of X on rows r, q, the
    restriction is T = M^(-1) Y[r, q]. U = adj(M) Y[r, q] = det(M) T is an
    integer matrix with T's eigenvectors and det(M)^2 times its
    discriminant. Two rational eigenvalues cannot occur: they would be
    integers, and every class either acts on a pending plane as one integer
    scalar (disc = 0) or has no integer eigenvalue on it, since the plane
    lies in that class's leftover. With disc < 0 each eigenvalue mu of U
    leaves U - mu I singular but not zero, row 0 is nonzero, and its kernel
    vector 2 (-u01, u00 - mu) = (-2 u01, 2 u00 - tr -+ i root). Each line
    comes back as its integer real and imaginary parts.
    """
    x1, x2 = basis
    y1, y2 = mat_vec(bmat, x1), mat_vec(bmat, x2)
    r, q, det = next(
        (r, q, x1[r] * x2[q] - x1[q] * x2[r])
        for r in range(len(x1))
        for q in range(r + 1, len(x1))
        if x1[r] * x2[q] != x1[q] * x2[r]
    )
    u00, u01 = x2[q] * y1[r] - x2[r] * y1[q], x2[q] * y2[r] - x2[r] * y2[q]
    u10, u11 = x1[r] * y1[q] - x1[q] * y1[r], x1[r] * y2[q] - x1[q] * y2[r]
    tr = u00 + u11
    disc = tr * tr - 4 * (u00 * u11 - u01 * u10)
    if disc == 0:
        return None
    root = isqrt_exact(abs(disc))
    if root is None:
        shape = "a square" if disc > 0 else "minus a square"
        raise IrrationalEigenvalue(f"discriminant {Fraction(disc, det * det)} is not {shape}")
    if disc > 0:
        raise HadsplitError("a pending plane has two rational eigenvalues")
    re = [(2 * u00 - tr) * b - 2 * u01 * a for a, b in zip(x1, x2)]
    return [(re, [-root * b for b in x2]), (re, [root * b for b in x2])]


def _split_eigenspaces(
    p: Sequence[Sequence[Sequence[int]]], valencies: Sequence[int]
) -> list[tuple[list[int], list[int]]]:
    """The characters of a commutative scheme's Bose-Mesner algebra, as
    _gaussian_characters gives them, found by exact subspace splitting
    alone.

    Simultaneously diagonalizes the intersection matrices over Q, splitting
    any leftover plane over Q(i); raises IrrationalEigenvalue when the
    algebra needs a larger field. Every subspace is held as independent
    primitive integer vectors, and every split is integer arithmetic.

    B_i, multiplication by A_i in the basis A_0..A_d, is an integer matrix
    with the eigenvalues of A_i, so they lie in [-k_i, k_i]; p[i], indexed
    [k][m], is B_i^T. Each split takes eigenspaces, or the leftover image,
    of one B_i^T inside a subspace invariant under all of them; they
    commute, so every piece is invariant too and each settled line is a
    common left eigenvector x of the B_i. Coordinate 0 of x B_i = theta_i x
    reads theta_i x_0 = x_i, so x / x_0 is a character. The d+1 settled
    lines are independent common eigenvectors of this representation of a
    commutative semisimple algebra, where each character occurs exactly
    once, so they give the d+1 distinct characters. A character value is
    an eigenvalue of an integer matrix, an algebraic integer, so one in
    Q(i) lies in Z[i] and each division by x_0 is exact.
    """
    d1 = len(valencies)
    subspaces = [[[int(r == c) for r in range(d1)] for c in range(d1)]]
    for i in range(1, d1):
        if len(subspaces) == d1:
            break
        roots = _integer_roots(p[i], valencies[i])
        nxt = []
        for basis in subspaces:
            if len(basis) == 1:
                nxt.append(basis)
            else:
                nxt.extend(_split_by_integer_eigenvalues(basis, p[i], roots))
        subspaces = nxt

    zero = [0] * d1
    settled = [(b[0], zero) for b in subspaces if len(b) == 1]
    pending = [b for b in subspaces if len(b) > 1]
    while pending:
        basis = pending.pop()
        if len(basis) != 2:
            raise IrrationalEigenvalue("cannot separate a subspace of dimension > 2")
        for i in range(1, d1):
            pieces = _split_complex_pair(basis, p[i])
            if pieces is not None:
                settled.extend(pieces)
                break
        else:
            raise HadsplitError("eigenspaces are not separated by the classes")
    if len(settled) != d1:
        raise HadsplitError("eigenspace count mismatch")
    characters = []
    for re, im in settled:
        # x_i / x_0 = x_i conj(x_0) / |x_0|^2
        norm = re[0] * re[0] + im[0] * im[0]
        nums = [(a * re[0] + b * im[0], b * re[0] - a * im[0]) for a, b in zip(re, im)]
        if any(u % norm or w % norm for u, w in nums):
            raise HadsplitError("a character value is not a Gaussian integer")
        characters.append(([u // norm for u, _ in nums], [w // norm for _, w in nums]))
    return characters


def _characters(
    p: Sequence[Sequence[Sequence[int]]], valencies: Sequence[int]
) -> list[tuple[list[int], list[int]]]:
    """The d+1 characters of a commutative scheme's Bose-Mesner algebra,
    each as integer (real parts, imaginary parts) with theta_0 = 1: the
    float proposal when its exact check proves it, else the exact
    splitting, which raises IrrationalEigenvalue for a character outside
    Z[i]."""
    return _gaussian_characters(p, valencies) or _split_eigenspaces(p, valencies)
