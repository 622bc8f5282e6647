"""Expected answers for every benchmark op, derived without the library.

Split parameters come from the family formulas, block-graph parameters from
the identity G^2 = nG, scheme sizes, valencies and multiplicities from the
formulas the acceptance tests use, and matrices are re-checked with plain
numpy (float64 products of +-1 or 0/1 entries, exact far below 2^53).
Counts no formula gives are frozen below; `test_oracle.py` re-derives the
ones a brute force can reach.

Every check raises `Mismatch`; the benchmark loop counts it as a failed op
and carries on.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np


class Mismatch(Exception):
    """An op returned something other than the expected answer."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def expect_eq(got, want, what: str) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got!r}, want {want!r}")


# ------------------------------------------------------------ split families


def twin_params(m: int) -> tuple[tuple[int, int, int, int], tuple[int, int, int, int]]:
    """Block and twin parameters of the order-4^m Sylvester partition."""
    n, r, half = 4**m, 2**m, 2 ** (m - 1)
    return (n, r, r, 0), (n, half * (r - 1), half, -half)


def kron_large_params(m: int) -> tuple[int, int, int, int]:
    return (m * m, (m - 1) ** 2, 1, 1 - m)


def kron_small_params(m: int) -> tuple[int, int, int, int]:
    return (m * m, 2 * m - 2, m - 2, -2)


def gram_params(m: int) -> tuple[int, int, int, int]:
    return (m * m, m, m, 0)


def two_row_params(n: int) -> tuple[int, int, int, int]:
    return (n, n - 2, 0, -2)


def core_tensor_params(k: int, m: int) -> tuple[int, int, int, int]:
    return (k * m, k * (m - 1), 0, -k)


def skew_core_params(q: int) -> tuple[int, int, int, int]:
    return (q * (q + 1), q, q, -1)


def split_srg(params: tuple[int, int, int, int], ones_row: bool) -> tuple[int, int, int, int]:
    """Block graph (v, k, lam, mu) of the a-marked graph of a split.

    Write G = (ell - b) I + (a - b) A + b J.  G J = c J with c = n when a
    constant row lies in the split and c = 0 otherwise, which fixes k;
    comparing G^2 = n G with A^2 = (k - mu) I + (lam - mu) A + mu J fixes
    lam and mu.
    """
    n, ell, a, b = params
    d = a - b
    c = n if ones_row else 0
    k = Fraction(c - ell + b - b * n, d)
    mu = Fraction(n * b - 2 * b * (ell - b) - 2 * b * d * k - b * b * n, d * d)
    lam = mu + Fraction(n - 2 * (ell - b), d)
    out = (n, k, lam, mu)
    if any(Fraction(x).denominator != 1 for x in out):
        raise ValueError(f"non-integral block graph for {params}")
    return tuple(int(x) for x in out)  # type: ignore[return-value]


def split_branch(params: tuple[int, int, int, int]) -> str:
    """First matching branch: b = -a, then the zero-row-sum formula for b,
    then the all-ones-row formula for b."""
    n, ell, a, b = params
    if b == -a:
        return "seidel"
    if Fraction(ell * (ell - a - n), a * (n - 1) + ell) == b:
        return "case-a"
    den = a * (n - 1) + ell - n
    if den and Fraction((ell - a) * (ell - n), den) == b:
        return "case-b"
    return "unclassified"


# ------------------------------------------------------------ matrix checks


def as_array(m) -> np.ndarray:
    """Dense int64 copy of a library matrix, through its public tolist()."""
    return np.array(m.tolist(), dtype=np.int64)


def check_hadamard(arr: np.ndarray, what: str) -> None:
    n = arr.shape[0]
    expect(arr.shape == (n, n), f"{what}: not square")
    expect(bool(np.all(np.abs(arr) == 1)), f"{what}: entries outside +-1")
    f = arr.astype(np.float64)
    expect(np.array_equal(f @ f.T, n * np.eye(n)), f"{what}: rows not orthogonal")


def check_split_rows(arr: np.ndarray, rows, params, what: str) -> None:
    """The Gram matrix of the given rows takes exactly the values a and b
    off the diagonal (a alone when a == b) and ell on it."""
    n, ell, a, b = params
    expect_eq(len(rows), ell, f"{what}: split size")
    h1 = arr[list(rows)].astype(np.float64)
    gram = h1.T @ h1
    expect(bool(np.all(np.diagonal(gram) == ell)), f"{what}: Gram diagonal")
    off = set(np.unique(gram[~np.eye(n, dtype=bool)]).astype(np.int64).tolist())
    expect_eq(off, {a, b}, f"{what}: off-diagonal Gram values")


def check_report(report, params, ones_row: bool, what: str, rows=None) -> None:
    """A SplitReport against the expected parameters, branch and graph."""
    expect_eq(report.params.astuple(), params, f"{what}: params")
    if rows is not None:
        expect_eq(tuple(report.rows), tuple(sorted(rows)), f"{what}: rows")
    expect_eq(report.branch, split_branch(params), f"{what}: branch")
    expect_eq(report.srg.astuple(), split_srg(params, ones_row), f"{what}: block graph")
    checks = dict(report.checks)
    expect_eq(checks.pop("rowsum_zero", None), not ones_row, f"{what}: rowsum_zero")
    expect(all(checks.values()), f"{what}: failed checks {report.checks}")


def check_unbiased(h: np.ndarray, k: np.ndarray, what: str) -> None:
    """K is Hadamard and every entry of H K^T is +-sqrt(n)."""
    check_hadamard(k, what)
    root = int(round(h.shape[0] ** 0.5))
    prod = h.astype(np.float64) @ k.astype(np.float64).T
    expect(bool(np.all(np.abs(prod) == root)), f"{what}: H K^T not all +-{root}")


def srg_of(adj: np.ndarray) -> tuple[int, int, int, int] | None:
    """(v, k, lam, mu) of a 0/1 adjacency matrix, or None if not strongly regular."""
    v = adj.shape[0]
    deg = adj.sum(axis=1)
    if not np.all(deg == deg[0]):
        return None
    sq = adj.astype(np.float64) @ adj.astype(np.float64)
    edge = adj == 1
    non = (adj == 0) & ~np.eye(v, dtype=bool)
    lam, mu = set(sq[edge].tolist()), set(sq[non].tolist())
    if len(lam) > 1 or len(mu) > 1:
        return None
    return (v, int(deg[0]), int(lam.pop()) if lam else 0, int(mu.pop()) if mu else 0)


# ------------------------------------------------------------ searches


# eigvec_search counts: (survivors, best orthogonal set, certifies).  The
# rook-graph rows (L2(6), 36 vertices) are frozen from the library; the
# 16-vertex rows are re-derived by brute force in test_oracle.py.
EIGVEC_EXPECTED = {
    ("rook", 10, 4, -2): (20, 2, True),
    ("rook", 11, 5, -1): (63, 3, True),
    ("lattice", 6, 2, -2): (6, 6, False),
    ("shrikhande", 6, 2, -2): (6, 6, False),
}


def check_eigvec(result, adj: np.ndarray, key, what: str) -> None:
    survivors, best, certifies = EIGVEC_EXPECTED[key]
    _, ell, a, b = key
    v = adj.shape[0]
    expect_eq(result.eigenspace_dim, ell, f"{what}: eigenspace dimension")
    expect_eq(len(result.survivors), survivors, f"{what}: survivors")
    expect_eq(result.best_size, best, f"{what}: best size")
    expect_eq(result.certifies_nonexistence, certifies, f"{what}: certificate")
    vecs = np.array(result.survivors, dtype=np.float64)
    expect(bool(np.all(np.abs(vecs) == 1)), f"{what}: survivor entries outside +-1")
    gram = ell * np.eye(v) + (a - b) * adj + b * (np.ones((v, v)) - np.eye(v))
    expect(np.array_equal(gram @ vecs.T, v * vecs.T), f"{what}: survivor outside the eigenspace")
    chosen = vecs[list(result.best_set)]
    expect(
        np.array_equal(chosen @ chosen.T, v * np.eye(len(chosen))),
        f"{what}: best set not pairwise orthogonal",
    )


# search_splits on an order-16 Hadamard matrix: the parameter sets found
# (re-derived by brute force in test_oracle.py).
SEARCH_SPLITS_EXPECTED = {5: {(16, 5, 1, -3)}, 6: {(16, 6, 2, -2)}}


def check_search_splits(reports, arr: np.ndarray, ell: int, what: str) -> None:
    got = {r.params.astuple() for r in reports}
    expect_eq(got, SEARCH_SPLITS_EXPECTED[ell], f"{what}: parameter sets")
    expect_eq(len(reports), len(got), f"{what}: duplicate parameter sets")
    for r in reports:
        check_split_rows(arr, r.rows, r.params.astuple(), what)


# ------------------------------------------------------------ tables

EXISTS = "exists-by-construction"
SUM = "excluded-mod4-sum"
DIFF = "excluded-mod4-diff"
EIG = "excluded-eigsearch"
OPEN = "open"

# Row count and status counts per table and size.  The n <= 1024 and
# n <= 64 rows are the acceptance tables; the larger ones are frozen from
# the library.  A change that moves a row's status must update these in a
# benchmark change of its own.
TABLE_EXPECTED = {
    ("seidel", 1024): {EXISTS: 4, SUM: 11, DIFF: 4, OPEN: 9},
    ("seidel", 4096): {EXISTS: 5, SUM: 28, DIFF: 13, OPEN: 28},
    ("case_a", 64): {EXISTS: 6, EIG: 4, OPEN: 4},
    ("case_a", 128): {EXISTS: 6, EIG: 4, OPEN: 28},
}


def _status_counts(statuses) -> dict[str, int]:
    out: dict[str, int] = {}
    for s in statuses:
        out[s] = out.get(s, 0) + 1
    return out


def check_table_rows(rows: list[dict], table: str, max_n: int, what: str) -> None:
    """Rows as dicts (FeasibleRow.as_dict() or CLI JSON): counts plus the
    defining equation of each row and the SRG counting identity."""
    want = TABLE_EXPECTED[(table, max_n)]
    expect_eq(len(rows), sum(want.values()), f"{what}: row count")
    expect_eq(_status_counts(r["status"] for r in rows), want, f"{what}: status counts")
    for r in rows:
        n, ell, a, b = r["n"], r["ell"], r["a"], r["b"]
        v, k, lam, mu = n, r["k"], r["lam"], r["mu"]
        expect(n <= max_n, f"{what}: n = {n} above {max_n}")
        if table == "seidel":
            expect(b == -a and 4 * ell * (n - ell) == 4 * a * a * (n - 1), f"{what}: row {r}")
        else:
            expect(b * (a * (n - 1) + ell) == ell * (ell - a - n), f"{what}: row {r}")
        expect(k * (k - lam - 1) == (v - k - 1) * mu, f"{what}: SRG identity {r}")
        expect((r["witness"] is not None) == (r["status"] == EXISTS), f"{what}: witness {r}")


# ------------------------------------------------------------ schemes


def four_class_expected(n: int, ell: int, k: int, symmetric: bool):
    size = (ell + 1) * n
    valencies = (1, k, n - 1 - k, ell * n // 2, ell * n // 2)
    mults = sorted([1, ell, (ell + 1) * (n - ell - 1), ell * (ell + 1) // 2, ell * (ell + 1) // 2])
    transpose = (0, 1, 2, 3, 4) if symmetric else (0, 1, 2, 4, 3)
    return size, valencies, mults, transpose


def five_class_expected(n: int, ell: int, a: int, f: int):
    d = (n - 1) * a * a + 2 * ell * a + ell * (n - ell)
    size = f * ell * n
    valencies = (
        1,
        ell * (n - ell - 1) * n // d,
        (ell + a * (n - 1)) ** 2 // d,
        (f - 1) * ell * n // 2,
        (f - 1) * ell * n // 2,
        (ell - 1) * n,
    )
    mults = sorted(
        [1, ell * ell, f * ell * (n - ell - 1), f * (ell - 1), (f - 1) * ell * ell, f - 1]
    )
    return size, valencies, mults, (0, 1, 2, 3, 4, 5)


def six_class_expected(n: int, ell: int, k: int, f: int):
    m = ell + 1
    size = f * m * n
    valencies = (1, k, n - 1 - k, (f - 1) * ell * n // 2, (f - 1) * ell * n // 2, (m - 1) * n, (f - 1) * n)
    # multiplicities of the f = 2 scheme in the acceptance tests
    mults = sorted([1, 126, 42, 42, 1, 6, 6]) if (n, ell, f) == (16, 6, 2) else None
    return size, valencies, mults, (0, 1, 2, 3, 4, 5, 6)


def check_scheme(scheme, size: int, valencies, transpose, what: str) -> None:
    expect_eq(scheme.size, size, f"{what}: size")
    expect_eq(tuple(scheme.valencies), tuple(valencies), f"{what}: valencies")
    expect_eq(tuple(scheme.transpose_map), tuple(transpose), f"{what}: transpose map")
    d1 = len(valencies)
    for i in range(d1):
        for j in range(d1):
            expect(
                sum(scheme.p[i][j][k] * valencies[k] for k in range(d1))
                == valencies[i] * valencies[j],
                f"{what}: row sums of the product of classes {i} and {j}",
            )


def check_eigen(tables, valencies, mults, size: int, what: str) -> None:
    expect_eq(
        tuple((e.re, e.im) for e in tables.p[0]),
        tuple((Fraction(v), Fraction(0)) for v in valencies),
        f"{what}: first eigenmatrix row",
    )
    expect_eq(sum(tables.multiplicities), size, f"{what}: multiplicity total")
    if mults is not None:
        expect_eq(sorted(tables.multiplicities), mults, f"{what}: multiplicities")


def hamming_valencies(n: int) -> tuple[int, ...]:
    from math import comb

    return tuple(comb(n, i) for i in range(n + 1))


# muzychuk_fusion(6, variant): class-1 and class-2 block graphs (acceptance tests).
FUSION_EXPECTED = {
    "01": ((64, 27, 10, 12), (64, 36, 20, 20)),
    "03": ((64, 35, 18, 20), (64, 28, 12, 12)),
}
