"""Reference arithmetic for the tests."""

from typing import Sequence


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
