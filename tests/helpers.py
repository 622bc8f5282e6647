"""Reference arithmetic for the tests."""

from fractions import Fraction
from typing import Sequence

import numpy as np

from hadsplit.exactla import GaussianRational, Matrix, _primitive
from hadsplit.latin import LatinSquare
from hadsplit.schemes import AuxiliarySet


def mat_mul(a: Sequence[Sequence], b: Sequence[Sequence]) -> list[list]:
    """Product of two matrices given as rows, over any elements supporting
    + and * (Fractions, GaussianRationals), one term at a time."""
    n, k, m = len(a), len(b), len(b[0])
    if len(a[0]) != k:
        raise ValueError(f"inner dimensions differ: {len(a[0])} columns against {k} rows")
    out = []
    for i in range(n):
        row = []
        for j in range(m):
            s = a[i][0] * b[0][j]
            for t in range(1, k):
                s = s + a[i][t] * b[t][j]
            row.append(s)
        out.append(row)
    return out


def srg_polynomials(n, ell, a, b) -> tuple[Fraction, Fraction, Fraction]:
    """(k, lam, mu) of the a-graph of a two-value split over Fraction, from
    closed-form polynomials in (n, ell, a, b): k from the trace of
    G^2 = nG, lam and mu from its entries. Needs a^2 != b^2."""
    b = Fraction(b)
    den = (a - b) ** 2 * (a + b)
    k = (n * ell - ell * ell - b * b * (n - 1)) / (a * a - b * b)
    lam = (
        n * (a * a - a * (b - 1) * b + b**3 - 2 * b * ell)
        + 2 * (b - ell) * (a * a + a * b - b * (b + ell))
    ) / den
    mu = (b * n * (-a * b + a + b * b + b - 2 * ell) + 2 * b * (a - ell) * (b - ell)) / den
    return k, lam, mu


def _echelon_int(m: Sequence[Sequence[int]]) -> tuple[Matrix, list[int]]:
    """Fraction-free Gauss-Jordan on an integer matrix: the nonzero rows,
    each primitive, and the pivot column indices.

    Each elimination is pv * row - f * pivot_row, divided by the gcd of its
    entries. Every row stays a nonzero multiple of the row that a Fraction
    elimination holds at the same step, so the zero pattern, the pivots and
    the ratios row[c] / row[pivot] are those of rref; dividing each row by
    its pivot entry gives rref itself.
    """
    a = [list(row) for row in m]
    nrows, ncols = len(a), len(a[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        prow = a[r]
        pv = prow[c]
        for i in range(nrows):
            f = a[i][c]
            if i != r and f:
                a[i] = _primitive([pv * x - f * y for x, y in zip(a[i], prow)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [_primitive(row) for row in a[:r]], pivots


def fraction_rref(m):
    """Reference rref: Gauss-Jordan elimination over Fraction, dividing each
    pivot row by its pivot."""
    a = [[Fraction(v) for v in row] for row in m]
    if not a:
        return a, []
    nrows, ncols = len(a), len(a[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if a[i][c]), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        pv = a[r][c]
        a[r] = [v / pv for v in a[r]]
        for i in range(nrows):
            if i != r and a[i][c]:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return a, pivots


def fraction_nullspace(m):
    """Reference kernel from fraction_rref: one vector per free column fc,
    1 at fc and -rref[i][fc] at the i-th pivot."""
    red, pivots = fraction_rref(m)
    basis = []
    for fc in range(len(m[0])):
        if fc in pivots:
            continue
        v = [Fraction(0)] * len(m[0])
        v[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def lift_latin(square: LatinSquare, aux: AuxiliarySet) -> np.ndarray:
    """Dense lift of a Latin square: cell (i, j) holding symbol s >= 1
    becomes the block h_s h_st of split row s, and symbol 0 a zero block.
    The square is not checked."""
    h1 = aux.h.array[list(aux.report.rows)]
    m, n = square.order, h1.shape[1]
    rows = np.vstack([np.zeros((1, n), dtype=np.int64), h1])
    blocks = rows[np.array(square.cells)]
    return np.einsum("ija,ijb->iajb", blocks, blocks).reshape(m * n, m * n)


def table_as_ints(rows: Sequence[Sequence[GaussianRational]]) -> tuple[tuple[int, ...], ...]:
    """Render a table of Gaussian rationals as plain integers, or fail."""
    out = []
    for row in rows:
        ints = []
        for e in row:
            if not e.is_rational or e.re.denominator != 1:
                raise ValueError(f"entry {e!r} is not a plain integer")
            ints.append(int(e.re))
        out.append(tuple(ints))
    return tuple(out)
