"""Association schemes assembled from balanced splits and Latin squares.

Builders construct candidate class matrices and hand them to verify_scheme,
which checks every axiom outright, so any returned Scheme is genuine and
carries an exact intersection table. Eigenmatrices are computed over the
rationals (extended by i for the non-symmetric scheme) with no floating
point anywhere in the algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import HadamardMatrix, HadsplitError, IntMatrix, exact_matmul, isqrt_exact
from .exactla import GaussianRational, invert, mat_vec, nullspace, rref
from .latin import LatinSquare, NotUfs, circle_symmetric, compose_ufs, is_mutually_ufs
from .splitting import SplitReport

__all__ = [
    "AxiomFailure",
    "OddityViolation",
    "IrrationalEigenvalue",
    "AuxiliarySet",
    "lift_latin",
    "Scheme",
    "verify_scheme",
    "build_4class_symmetric",
    "build_4class_nonsymmetric",
    "build_5class",
    "build_6class",
    "EigenTables",
    "eigenmatrices",
    "table_as_ints",
    "hamming_scheme",
    "muzychuk_fusion",
]


class AxiomFailure(HadsplitError):
    """A candidate family of class matrices is not an association scheme."""


class OddityViolation(HadsplitError):
    """The block count parity rules out the requested construction."""


class IrrationalEigenvalue(HadsplitError):
    """An eigenvalue lies outside the Gaussian rationals."""


class AuxiliarySet:
    """Rank-one projector family of a split: the i-th member is the outer
    product of row i with itself.

    The projectors sum to n times the identity, square to n times
    themselves and annihilate each other, and the split members sum to the
    split Gram H1t H1 by definition. The first three facts reduce to row and
    column orthogonality of the parent matrix, which HadamardMatrix proved
    when h was built (HHt = nI, hence HtH = nI), so nothing is re-checked here.
    """

    def __init__(self, h: HadamardMatrix, report: SplitReport):
        n = h.order
        if report.params.n != n:
            raise ValueError("report does not belong to this matrix")
        arr = h.array
        self.h = h
        self.report = report
        self._arr = arr
        self._cs = [np.outer(arr[i], arr[i]) for i in range(n)]
        h1 = arr[list(report.rows)]
        self.gram = exact_matmul(h1.T, h1)

    @property
    def matrices(self) -> tuple[IntMatrix, ...]:
        return tuple(IntMatrix(c) for c in self._cs)

    def projector(self, i: int) -> np.ndarray:
        return self._cs[i]

    def lemma_c_ok(self) -> bool:
        """Split projectors with zero row sums commute with the a-marked
        graph, scaling by (n - ell + b)/(a - b)."""
        rep = self.report
        if rep.adjacency is None:
            return False
        n, ell, a, b = rep.params.astuple()
        adj = rep.adjacency.array
        for i in rep.rows:
            if int(self._arr[i].sum()) != 0:
                return False
            c = self._cs[i]
            left = (a - b) * exact_matmul(adj, c)
            right = (n - ell + b) * c
            if not np.array_equal(left, right) or not np.array_equal(
                (a - b) * exact_matmul(c, adj), right
            ):
                return False
        return True


def _lift_array(square: LatinSquare, aux: AuxiliarySet) -> np.ndarray:
    n, ell = aux.report.params.n, aux.report.params.ell
    m = square.order
    if square.min_symbol not in (0, 1) or square.min_symbol + m - 1 != ell:
        raise ValueError(f"square symbols {square.symbols} do not index a split of size {ell}")
    split = aux.report.rows
    big = np.zeros((m * n, m * n), dtype=np.int64)
    for i in range(m):
        for j in range(m):
            s = square.cells[i][j]
            if s >= 1:
                big[i * n : (i + 1) * n, j * n : (j + 1) * n] = aux.projector(split[s - 1])
    return big


def lift_latin(square: LatinSquare, aux: AuxiliarySet) -> IntMatrix:
    """Replace each symbol by the matching split projector (0 by a zero block).

    Checks that the lift times its transpose is the identity pattern of
    split Grams, which holds exactly when distinct rows of the square never
    agree at a nonzero symbol.
    """
    big = _lift_array(square, aux)
    n = aux.report.params.n
    want = np.kron(np.eye(square.order, dtype=np.int64), n * aux.gram)
    if not np.array_equal(exact_matmul(big, big.T), want):
        raise HadsplitError("distinct rows of the square agree at a nonzero symbol")
    return IntMatrix(big)


@dataclass(frozen=True)
class Scheme:
    """Verified association scheme: class matrices plus the exact
    intersection table p[i][j][k]."""

    matrices: tuple[IntMatrix, ...]
    p: tuple[tuple[tuple[int, ...], ...], ...]
    valencies: tuple[int, ...]
    transpose_map: tuple[int, ...]

    @property
    def size(self) -> int:
        return self.matrices[0].nrows

    @property
    def classes(self) -> int:
        return len(self.matrices) - 1

    @property
    def is_symmetric(self) -> bool:
        return all(t == i for i, t in enumerate(self.transpose_map))


def verify_scheme(matrices: Sequence[IntMatrix]) -> Scheme:
    """Check every axiom on a candidate list of 0/1 class matrices."""
    if not matrices:
        raise AxiomFailure("no class matrices")
    arrs = [m.array for m in matrices]
    v = arrs[0].shape[0]
    for idx, a in enumerate(arrs):
        if a.shape != (v, v):
            raise AxiomFailure(f"class {idx} is not {v} x {v}")
        if not np.all((a == 0) | (a == 1)):
            raise AxiomFailure(f"class {idx} has entries outside 0/1")
    arrs = [a.astype(np.int64, copy=False) for a in arrs]
    if not np.array_equal(arrs[0], np.eye(v, dtype=np.int64)):
        raise AxiomFailure("first class is not the identity")
    total = np.zeros((v, v), dtype=np.int64)
    color = np.zeros((v, v), dtype=np.int64)
    for idx, a in enumerate(arrs):
        total += a
        color += idx * a
    if not np.all(total == 1):
        raise AxiomFailure("classes do not partition the cells")

    d1 = len(arrs)
    transpose_map = []
    for i, a in enumerate(arrs):
        t = next((j for j, bmat in enumerate(arrs) if np.array_equal(a.T, bmat)), None)
        if t is None:
            raise AxiomFailure(f"transpose of class {i} is not a class")
        transpose_map.append(t)

    reps = []
    for k, a in enumerate(arrs):
        flat = int(np.argmax(a))
        if a.flat[flat] != 1:
            raise AxiomFailure(f"class {k} is empty")
        reps.append(divmod(flat, v))

    sums = [a.sum(axis=1) for a in arrs]
    valencies = []
    for k, s in enumerate(sums):
        if not np.all(s == s[0]):
            raise AxiomFailure(f"class {k} is not regular")
        valencies.append(int(s[0]))

    p = [[None] * d1 for _ in range(d1)]
    for i in range(d1):
        for j in range(d1):
            prod = exact_matmul(arrs[i], arrs[j])
            pk = tuple(int(prod[x, y]) for x, y in reps)
            if not np.array_equal(prod, np.array(pk, dtype=np.int64)[color]):
                raise AxiomFailure(f"product of classes {i}, {j} leaves the algebra")
            p[i][j] = pk
    for i in range(d1):
        for j in range(d1):
            if p[i][j] != p[j][i]:
                raise AxiomFailure(f"classes {i}, {j} do not commute")

    return Scheme(
        matrices=tuple(matrices),
        p=tuple(tuple(row) for row in p),
        valencies=tuple(valencies),
        transpose_map=tuple(transpose_map),
    )


def _split_pattern_blocks(report: SplitReport, n: int, copies: int) -> tuple[np.ndarray, np.ndarray]:
    adj = report.adjacency.array
    eye_b = np.eye(copies, dtype=np.int64)
    a1 = np.kron(eye_b, adj)
    a2 = np.kron(eye_b, np.ones((n, n), dtype=np.int64) - adj - np.eye(n, dtype=np.int64))
    return a1, a2


def _require_zero_row_sums(h: HadamardMatrix, report: SplitReport) -> None:
    if report.adjacency is None:
        raise HadsplitError("need a two-value split")
    if not report.checks.get("rowsum_zero"):
        raise HadsplitError("split rows must sum to zero")


def _signed_parts(big: np.ndarray) -> tuple[IntMatrix, IntMatrix]:
    return IntMatrix(big > 0), IntMatrix(big < 0)


def _check_scheme_square(square: LatinSquare, ell: int) -> None:
    if square.order != ell + 1 or square.min_symbol != 0:
        raise ValueError(f"need a square of order {ell + 1} on symbols 0..{ell}")
    if not square.is_latin():
        raise ValueError("square is not Latin")
    if not square.is_symmetric() or not square.has_constant_diagonal(0):
        raise ValueError("square must be symmetric with zero diagonal")


def build_4class_symmetric(
    h: HadamardMatrix, report: SplitReport, square: LatinSquare | None = None
) -> Scheme:
    """Symmetric scheme on (ell+1) n points from a zero-row-sum split and a
    symmetric zero-diagonal square; the one-factorization square is the
    default. ell must be odd for such a square to exist."""
    _require_zero_row_sums(h, report)
    n, ell = report.params.n, report.params.ell
    if ell % 2 == 0:
        raise OddityViolation("an even split size leaves no symmetric zero-diagonal square")
    if square is None:
        square = circle_symmetric(ell + 1)
    _check_scheme_square(square, ell)
    aux = AuxiliarySet(h, report)
    lifted = lift_latin(square, aux).array
    a1, a2 = _split_pattern_blocks(report, n, ell + 1)
    a3, a4 = _signed_parts(lifted)
    size = (ell + 1) * n
    mats = [
        IntMatrix.identity(size),
        IntMatrix(a1),
        IntMatrix(a2),
        a3,
        a4,
    ]
    return verify_scheme(mats)


def build_4class_nonsymmetric(
    h: HadamardMatrix, report: SplitReport, square: LatinSquare | None = None
) -> Scheme:
    """Same point set as the symmetric builder, with the lifted blocks above
    the diagonal negated below it, pairing the last two classes as mutual
    transposes."""
    _require_zero_row_sums(h, report)
    n, ell = report.params.n, report.params.ell
    if ell % 2 == 0:
        raise OddityViolation("an even split size leaves no symmetric zero-diagonal square")
    if square is None:
        square = circle_symmetric(ell + 1)
    _check_scheme_square(square, ell)
    aux = AuxiliarySet(h, report)
    lifted = lift_latin(square, aux).array
    m = ell + 1
    signs = np.kron(
        np.triu(np.ones((m, m), dtype=np.int64)) - np.tril(np.ones((m, m), dtype=np.int64), -1),
        np.ones((n, n), dtype=np.int64),
    )
    lifted = lifted * signs
    a1, a2 = _split_pattern_blocks(report, n, m)
    a3, a4 = _signed_parts(lifted)
    size = m * n
    mats = [
        IntMatrix.identity(size),
        IntMatrix(a1),
        IntMatrix(a2),
        a3,
        a4,
    ]
    return verify_scheme(mats)


def _check_ufs_family(squares: Sequence[LatinSquare], order: int, min_symbol: int) -> None:
    if len(squares) < 2:
        raise ValueError("need at least two squares")
    for sq in squares:
        if sq.order != order or sq.min_symbol != min_symbol:
            raise ValueError(f"every square must have order {order} and symbols from {min_symbol}")
        if not sq.is_latin():
            raise ValueError("square is not Latin")
    if not is_mutually_ufs(list(squares)):
        raise NotUfs("squares are not pairwise UFS")


def _composed_cross_blocks(
    squares: Sequence[LatinSquare], aux: AuxiliarySet, n: int, block: int
) -> np.ndarray:
    f = len(squares)
    size = f * block * n
    big = np.zeros((size, size), dtype=np.int64)
    s = block * n
    for u in range(f):
        for w in range(f):
            if u == w:
                continue
            lifted = lift_latin(compose_ufs(squares[u], squares[w]), aux)
            big[u * s : (u + 1) * s, w * s : (w + 1) * s] = lifted.array
    return big


def build_5class(
    h: HadamardMatrix, report: SplitReport, squares: Sequence[LatinSquare]
) -> Scheme:
    """Scheme on f * ell * n points from f mutually UFS squares of order ell
    on symbols 1..ell."""
    _require_zero_row_sums(h, report)
    n, ell = report.params.n, report.params.ell
    _check_ufs_family(squares, ell, 1)
    f = len(squares)
    aux = AuxiliarySet(h, report)
    big = _composed_cross_blocks(squares, aux, n, ell)
    a1, a2 = _split_pattern_blocks(report, n, f * ell)
    a3, a4 = _signed_parts(big)
    a5 = np.kron(
        np.eye(f, dtype=np.int64),
        np.kron(
            np.ones((ell, ell), dtype=np.int64) - np.eye(ell, dtype=np.int64),
            np.ones((n, n), dtype=np.int64),
        ),
    )
    size = f * ell * n
    mats = [
        IntMatrix.identity(size),
        IntMatrix(a1),
        IntMatrix(a2),
        a3,
        a4,
        IntMatrix(a5),
    ]
    return verify_scheme(mats)


def build_6class(
    h: HadamardMatrix, report: SplitReport, squares: Sequence[LatinSquare]
) -> Scheme:
    """Scheme on f * (ell+1) * n points from f mutually UFS squares of order
    ell+1 on symbols 0..ell with constant zero diagonal."""
    _require_zero_row_sums(h, report)
    n, ell = report.params.n, report.params.ell
    _check_ufs_family(squares, ell + 1, 0)
    for sq in squares:
        if not sq.has_constant_diagonal(0):
            raise ValueError("every square must have a zero diagonal")
    f = len(squares)
    m = ell + 1
    aux = AuxiliarySet(h, report)
    big = _composed_cross_blocks(squares, aux, n, m)
    a1, a2 = _split_pattern_blocks(report, n, f * m)
    a3, a4 = _signed_parts(big)
    jn = np.ones((n, n), dtype=np.int64)
    a5 = np.kron(
        np.eye(f, dtype=np.int64),
        np.kron(np.ones((m, m), dtype=np.int64) - np.eye(m, dtype=np.int64), jn),
    )
    a6 = np.kron(
        np.ones((f, f), dtype=np.int64) - np.eye(f, dtype=np.int64),
        np.kron(np.eye(m, dtype=np.int64), jn),
    )
    size = f * m * n
    mats = [
        IntMatrix.identity(size),
        IntMatrix(a1),
        IntMatrix(a2),
        a3,
        a4,
        IntMatrix(a5),
        IntMatrix(a6),
    ]
    return verify_scheme(mats)


@dataclass(frozen=True)
class EigenTables:
    """First and second eigenmatrices with eigenspace multiplicities.

    Row j of p holds the eigenvalues of every class on the j-th common
    eigenspace; q = size * p^(-1)."""

    p: tuple[tuple[GaussianRational, ...], ...]
    q: tuple[tuple[GaussianRational, ...], ...]
    multiplicities: tuple[int, ...]
    size: int


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


def _sqrt_fraction(fr: Fraction) -> Fraction | None:
    if fr < 0:
        return None
    num = isqrt_exact(fr.numerator)
    den = isqrt_exact(fr.denominator)
    if num is None or den is None:
        return None
    return Fraction(num, den)


def _coords_in_basis(basis: list[list], vecs: list[list]):
    """Coordinates of each vector in the given independent basis."""
    s = len(basis)
    dim = len(basis[0])
    rows = [
        [basis[t][r] for t in range(s)] + [vec[r] for vec in vecs] for r in range(dim)
    ]
    red, piv = rref(rows)
    if list(piv) != list(range(s)):
        raise HadsplitError("vectors leave the subspace")
    coords = []
    for idx in range(len(vecs)):
        coords.append([red[t][s + idx] for t in range(s)])
    return coords


def _restricted_matrix(bmat: list[list], basis: list[list]):
    images = [mat_vec(bmat, v) for v in basis]
    cols = _coords_in_basis(basis, images)
    s = len(basis)
    return [[cols[c][r] for c in range(s)] for r in range(s)]


def _combine(basis: list[list], coeffs: list) -> list:
    dim = len(basis[0])
    out = []
    for r in range(dim):
        acc = coeffs[0] * basis[0][r]
        for t in range(1, len(basis)):
            acc = acc + coeffs[t] * basis[t][r]
        out.append(acc)
    return out


def _split_by_integer_eigenvalues(basis: list[list], bmat: list[list], bound: int):
    """Split an invariant subspace into integer eigenspaces plus a leftover."""
    s = len(basis)
    t = _restricted_matrix(bmat, basis)
    pieces = []
    found_eigs = []
    used = 0
    for theta in range(-bound, bound + 1):
        m = [[t[r][c] - (theta if r == c else 0) for c in range(s)] for r in range(s)]
        ker = nullspace(m)
        if not ker:
            continue
        pieces.append([_combine(basis, c) for c in ker])
        found_eigs.append(theta)
        used += len(ker)
        if used == s:
            break
    if used < s:
        # leftover = column space of the product of (T - theta I) over the
        # eigenvalues already found; the product kills every found eigenspace
        prod = [[Fraction(1) if r == c else Fraction(0) for c in range(s)] for r in range(s)]
        for theta in found_eigs:
            m = [[t[r][c] - (theta if r == c else 0) for c in range(s)] for r in range(s)]
            prod = [
                [sum((prod[r][k] * m[k][c] for k in range(s)), Fraction(0)) for c in range(s)]
                for r in range(s)
            ]
        red, piv = rref([list(col) for col in zip(*prod)])
        left = [list(red[i]) for i in range(len(piv))]
        pieces.append([_combine(basis, c) for c in left])
    return pieces


def _split_complex_pair(basis: list[list], bmat: list[list]):
    """Split a 2-dimensional invariant subspace over the Gaussian rationals."""
    t = _restricted_matrix(bmat, basis)
    tr = t[0][0] + t[1][1]
    det = t[0][0] * t[1][1] - t[0][1] * t[1][0]
    disc = tr * tr - 4 * det
    if disc == 0:
        return None
    if disc > 0:
        root = _sqrt_fraction(Fraction(disc))
        if root is None:
            raise IrrationalEigenvalue(f"discriminant {disc} is not a square")
        eigs = [Fraction(tr + root, 2), Fraction(tr - root, 2)]
        one = Fraction(1)
    else:
        root = _sqrt_fraction(Fraction(-disc))
        if root is None:
            raise IrrationalEigenvalue(f"discriminant {disc} is not minus a square")
        half_tr = Fraction(tr, 2)
        eigs = [
            GaussianRational(half_tr, root / 2),
            GaussianRational(half_tr, -root / 2),
        ]
        one = GaussianRational(1)
    pieces = []
    for lam in eigs:
        m = [[t[r][c] * one - (lam if r == c else 0 * one) for c in range(2)] for r in range(2)]
        ker = nullspace(m, one=one)
        if len(ker) != 1:
            raise HadsplitError("complex eigenspace has unexpected dimension")
        gen_basis = [[one * x for x in vec] for vec in basis]
        pieces.append([_combine(gen_basis, ker[0])])
    return pieces


def eigenmatrices(scheme: Scheme) -> EigenTables:
    """Exact eigenmatrices of a commutative scheme.

    Simultaneously diagonalizes the intersection matrices over Q, splitting
    any leftover plane over Q(i); raises IrrationalEigenvalue when the
    algebra needs a larger field.
    """
    d1 = scheme.classes + 1
    bmats = []
    for i in range(d1):
        bmats.append(
            [[Fraction(scheme.p[i][k][m]) for k in range(d1)] for m in range(d1)]
        )

    unit = [[Fraction(1) if r == c else Fraction(0) for r in range(d1)] for c in range(d1)]
    subspaces = [unit]
    for i in range(1, d1):
        nxt = []
        for basis in subspaces:
            if len(basis) == 1:
                nxt.append(basis)
            else:
                nxt.extend(
                    _split_by_integer_eigenvalues(basis, bmats[i], scheme.valencies[i])
                )
        subspaces = nxt

    settled = [b for b in subspaces if len(b) == 1]
    pending = [b for b in subspaces if len(b) > 1]
    while pending:
        basis = pending.pop()
        if len(basis) != 2:
            raise IrrationalEigenvalue("cannot separate a subspace of dimension > 2")
        for i in range(1, d1):
            pieces = _split_complex_pair(basis, bmats[i])
            if pieces is not None:
                settled.extend(pieces)
                break
        else:
            raise HadsplitError("eigenspaces are not separated by the classes")
    if len(settled) != d1:
        raise HadsplitError("eigenspace count mismatch")

    rows = []
    for (vec,) in settled:
        t0 = next(t for t in range(d1) if vec[t])
        row = []
        for i in range(d1):
            img = mat_vec(bmats[i], vec)
            theta = img[t0] / vec[t0]
            if any(img[t] != theta * vec[t] for t in range(d1)):
                raise HadsplitError("vector is not a common eigenvector")
            row.append(GaussianRational._coerce(theta))
        rows.append(tuple(row))

    val_row = tuple(GaussianRational(v) for v in scheme.valencies)
    try:
        lead = rows.index(val_row)
    except ValueError:
        raise HadsplitError("no eigenspace carries the valencies") from None
    first = rows.pop(lead)
    rows.sort(key=lambda row: tuple(e.sort_key() for e in row))
    p_rows = [first] + rows

    pinv = invert([list(r) for r in p_rows])
    if pinv is None:
        raise HadsplitError("eigenvalue matrix is singular")
    size = scheme.size
    q_rows = tuple(
        tuple(GaussianRational._coerce(size * e) for e in row) for row in pinv
    )

    mults = []
    for j in range(d1):
        m = q_rows[0][j]
        if not m.is_rational or m.re.denominator != 1 or m.re <= 0:
            raise HadsplitError(f"multiplicity {m!r} is not a positive integer")
        mults.append(int(m.re))
    if sum(mults) != size:
        raise HadsplitError("multiplicities do not sum to the point count")

    _verify_idempotents(scheme, p_rows, q_rows)
    return EigenTables(
        p=tuple(p_rows), q=q_rows, multiplicities=tuple(mults), size=size
    )


def _verify_idempotents(scheme: Scheme, p_rows, q_rows) -> None:
    d1 = scheme.classes + 1
    size = scheme.size
    zero = GaussianRational(0)
    cols = []
    for j in range(d1):
        cols.append([q_rows[i][j] / size for i in range(d1)])

    def algebra_product(x, y):
        out = [zero] * d1
        for i in range(d1):
            if not x[i]:
                continue
            for k in range(d1):
                if not y[k]:
                    continue
                coef = x[i] * y[k]
                for m in range(d1):
                    pik = scheme.p[i][k][m]
                    if pik:
                        out[m] = out[m] + coef * pik
        return out

    for j in range(d1):
        for k in range(d1):
            prod = algebra_product(cols[j], cols[k])
            want = cols[j] if j == k else [zero] * d1
            if prod != want:
                raise HadsplitError("idempotent identities failed")
    for i in range(d1):
        total = q_rows[i][0]
        for j in range(1, d1):
            total = total + q_rows[i][j]
        if total != (size if i == 0 else 0):
            raise HadsplitError("second eigenmatrix rows do not resolve the identity")


def hamming_scheme(n: int) -> Scheme:
    """Distance scheme on binary words of length n, classes by Hamming
    distance, built by the tensor recursion on word length."""
    if n < 1:
        raise ValueError("length must be positive")
    base = [np.eye(2, dtype=np.int64), np.array([[0, 1], [1, 0]], dtype=np.int64)]
    mats = list(base)
    for _ in range(n - 1):
        prev = mats
        top = len(prev)
        nxt = []
        for i in range(top + 1):
            order = prev[0].shape[0] * 2
            acc = np.zeros((order, order), dtype=np.int64)
            if i < top:
                acc += np.kron(prev[i], base[0])
            if 0 <= i - 1 < top:
                acc += np.kron(prev[i - 1], base[1])
            nxt.append(acc)
        mats = nxt
    return verify_scheme([IntMatrix(a) for a in mats])


def muzychuk_fusion(n: int, variant: str) -> Scheme:
    """Fuse the distance classes of the length-n binary scheme into two,
    grouping distances by residue mod 4: variant "01" keeps 0 and 1,
    variant "03" keeps 0 and 3 (distance zero always stays separate)."""
    if variant == "01":
        keep = {0, 1}
    elif variant == "03":
        keep = {0, 3}
    else:
        raise ValueError(f"unknown variant {variant!r}")
    if n < 2:
        raise ValueError("need length at least 2")
    ham = hamming_scheme(n)
    arrs = [m.array for m in ham.matrices]
    inside = [k for k in range(1, n + 1) if k % 4 in keep]
    outside = [k for k in range(1, n + 1) if k % 4 not in keep]
    if not inside or not outside:
        raise ValueError("fusion would leave an empty class")
    a1 = sum(arrs[k] for k in inside)
    a2 = sum(arrs[k] for k in outside)
    v = arrs[0].shape[0]
    return verify_scheme(
        [IntMatrix.identity(v), IntMatrix(a1), IntMatrix(a2)]
    )
