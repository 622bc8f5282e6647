"""Reference arithmetic for the tests."""

from typing import Sequence

from hadsplit.exactla import Matrix, _primitive


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
