"""Association schemes assembled from balanced splits and Latin squares.

Builders construct candidate class matrices and hand them to verify_scheme,
which checks every axiom outright, so any returned Scheme is genuine and
carries an exact intersection table. Eigenmatrices are computed over the
rationals (extended by i for the non-symmetric scheme) on integers alone:
invariant subspaces are held as primitive integer vectors, eigenvalues are
the integer roots of the intersection matrices' characteristic
polynomials, each eigenspace is an integer kernel, and Q follows from P by
the orthogonality relations; only the final table entries are fractions.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .core import (
    _FLOAT32_EXACT,
    HadamardMatrix,
    HadsplitError,
    IntMatrix,
    exact_matmul,
    isqrt_exact,
)
from .exactla import GaussianRational, _echelon_int, _kernel_int, _primitive, mat_vec
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
    Projectors are formed only when asked for.
    """

    def __init__(self, h: HadamardMatrix, report: SplitReport):
        if report.params.n != h.order:
            raise ValueError("report does not belong to this matrix")
        self.h = h
        self.report = report
        self._arr = h.array
        self._h1 = self._arr[list(report.rows)]
        self.gram = exact_matmul(self._h1.T, self._h1)

    @property
    def matrices(self) -> tuple[IntMatrix, ...]:
        return tuple(IntMatrix(self.projector(i)) for i in range(self.h.order))

    def projector(self, i: int) -> np.ndarray:
        return np.outer(self._arr[i], self._arr[i])

    def lemma_c_ok(self) -> bool:
        """Split projectors with zero row sums commute with the a-marked
        graph, scaling by (n - ell + b)/(a - b).

        A is symmetric and each split row h is nonzero, so
        (a - b) A hht = (n - ell + b) hht holds exactly when
        (a - b) A h = (n - ell + b) h, and hht A is the transpose of A hht:
        one product of A with the split rows decides the lemma.
        """
        rep = self.report
        if rep.adjacency is None:
            return False
        n, ell, a, b = rep.params.astuple()
        if np.any(self._h1.sum(axis=1)):
            return False
        left = (a - b) * exact_matmul(rep.adjacency.array, self._h1.T)
        return bool(np.array_equal(left, (n - ell + b) * self._h1.T))


def lift_latin(square: LatinSquare, aux: AuxiliarySet) -> IntMatrix:
    """Replace each symbol s >= 1 by the projector of split row s and 0 by a
    zero block.

    The lift L satisfies L Lt = I (x) nG, with G the split Gram. Since
    HHt = nI, the split projectors P_s satisfy P_s P_t = n [s = t] P_s and
    are linearly independent, so block (i, k) of L Lt is n times the sum of
    P_s over the columns where rows i and k both hold s >= 1. The identity
    therefore holds exactly when every row holds each split symbol 1..ell
    exactly once and distinct rows never agree at a nonzero symbol; both
    are checked on the square, and no product of the lift is formed.
    """
    n, ell = aux.report.params.n, aux.report.params.ell
    m = square.order
    if square.min_symbol not in (0, 1) or square.min_symbol + m - 1 != ell:
        raise ValueError(f"square symbols {square.symbols} do not index a split of size {ell}")
    for i, row in enumerate(square.cells):
        for j, s in enumerate(row):
            if s not in square.symbols:
                raise ValueError(
                    f"cell ({i}, {j}) holds {s!r}, outside the symbols {square.min_symbol}..{ell}"
                )
    # m distinct cells within the symbols are each split symbol once
    for i, row in enumerate(square.cells):
        if len(set(row)) != m:
            raise HadsplitError(f"row {i} of the square repeats a symbol")
    cells = np.array(square.cells, dtype=np.int64)
    agree = (cells[:, None, :] == cells[None, :, :]) & (cells[None, :, :] >= 1)
    if np.any(agree[~np.eye(m, dtype=bool)]):
        raise HadsplitError("distinct rows of the square agree at a nonzero symbol")
    rows = np.zeros((ell + 1, n), dtype=np.int64)
    rows[1:] = aux._h1
    blocks = rows[cells]
    lifted = np.einsum("ija,ijb->iajb", blocks, blocks, order="C")
    return IntMatrix(lifted.reshape(m * n, m * n))


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


def _reduce(rows: list[tuple[int, list[int]]], x: list[int]) -> list[int]:
    """x with the pivots of the echelon rows (pivot, row), in increasing
    pivot order, eliminated fraction-free; zero exactly when x lies in their
    span."""
    for c, row in rows:
        if x[c]:
            x = _primitive([row[c] * a - x[c] * b for a, b in zip(x, row)])
    return x


def _open_product(a: np.ndarray, color: np.ndarray, reps, base: int, todo: list[int]) -> int | None:
    """The first j in todo for which A A_j, A_j the cells of color j, is not
    constant on every class, or None; every entry of each A A_j lies below
    base. The products are packed several to a kernel call, as described
    in verify_scheme."""
    v, d1 = a.shape[0], len(reps[0])
    width = 1
    while v * base**width < _FLOAT32_EXACT:
        width += 1
    for start in range(0, len(todo), width):
        chunk = todo[start : start + width]
        scale = base ** np.arange(len(chunk), dtype=np.int64)
        weights = np.zeros(d1, dtype=np.int64)
        weights[chunk] = scale
        prod = exact_matmul(a, weights[color])
        packed = prod[reps]
        if np.array_equal(prod, packed[color]):
            continue
        for t, j in enumerate(chunk):
            if not np.array_equal(prod // scale[t] % base, (packed // scale[t] % base)[color]):
                return j
    return None


def verify_scheme(matrices: Sequence[IntMatrix]) -> Scheme:
    """Check every axiom on a candidate list of 0/1 class matrices.

    Products are formed only up to transposition. A_0 = I is checked
    outright, so p_0j^k = p_j0^k = [j = k] needs no product. For i, j >= 1,
    (A_i A_j)^T = A_j' A_i', where ' is the transpose map, an involution on
    nonempty classes that partition the cells. Once A_i A_j = sum_k p_ij^k
    A_k is proved, transposing gives A_j' A_i' = sum_k p_ij^k A_k'. So one
    product per orbit {(i, j), (j', i')} proves both, and a product leaves
    the algebra exactly when its partner does.

    Products are formed only for a few generator classes. The classes are
    disjoint and nonempty, hence a basis of their span V. Once every
    A_g A_j lies in V, multiplication by A_g maps V into V with the integer
    matrix B_g, B_g[k][j] = p_gj^k. The generators start with class 1; while
    the span W of their words applied to A_0 = I, read through the B_g by
    exact integer elimination, misses a class, the first class it misses, g,
    joins them. W holds I and is closed under each generator, so it is the
    algebra they generate, and each of its elements maps V into V. So when
    A_j' lies in W, A_j' A_g' lies in V and so does its transpose A_g A_j:
    only the products of g with A_j' outside W are formed. No orbit is
    formed twice, since a partner (j', g') formed before belongs to a
    generator j' already in W; at worst every class is a generator and every
    orbit is formed once. Once W holds every class, W = V and V is closed
    under products.

    Each A_i A_j then lies in V, so its coordinates are its entries at the
    class representatives: with c(x, y) the class of cell (x, y), p_ij^k is
    the triangle count #{z : c(x_k, z) = i, c(z, y_k) = j} at the
    representative (x_k, y_k) of class k, and the classes commute exactly
    when p_ij = p_ji in that table.

    When a product of g leaves V, every class i < g lies in W, so its
    products stay in V, as do the products of g left unformed. The first
    product of g that leaves V is therefore also the first pair, in (i, j)
    order with one product per orbit, that leaves V, and it is the one named.

    The products of one A_i are packed, several to a kernel call. Regularity
    is checked first, so every entry of A_i A_j lies in [0, k_i]. Give the
    classes j_0, ..., j_(c-1) of a chunk the weights base^t, base = k_i + 1,
    and let M = sum_t base^t A_(j_t). Each entry of A_i M is then a base
    k_i + 1 number whose digit t is exactly that entry of A_i A_(j_t), so
    A_i M is constant on every class exactly when each A_i A_(j_t) is. A
    chunk holds as many classes as keep the kernel's bound v base^(c-1)
    below 2**24, so each call takes the exact float32 route.
    """
    if not matrices:
        raise AxiomFailure("no class matrices")
    arrs = [m.array for m in matrices]
    v = arrs[0].shape[0]
    for idx, a in enumerate(arrs):
        if a.shape != (v, v):
            raise AxiomFailure(f"class {idx} is not {v} x {v}")
        # IntMatrix holds int64, and a negative entry reads as >= 2**63 here
        if not np.all(a.view(np.uint64) <= 1):
            raise AxiomFailure(f"class {idx} has entries outside 0/1")
    # 0/1 entries: uint8 holds them exactly and is the kernel's cheapest cast
    arrs = [a.astype(np.uint8) for a in arrs]
    if not np.array_equal(arrs[0], np.eye(v, dtype=np.uint8)):
        raise AxiomFailure("first class is not the identity")
    d1 = len(arrs)
    # sums in the narrowest type that holds d1; the colors index as int64
    acc = np.uint8 if d1 <= np.iinfo(np.uint8).max else np.int64
    total = np.zeros((v, v), dtype=acc)
    color = np.zeros((v, v), dtype=acc)
    for idx, a in enumerate(arrs):
        total += a
        color += acc(idx) * a
    if not np.all(total == 1):
        raise AxiomFailure("classes do not partition the cells")
    color = color.astype(np.int64)

    first = [int(np.argmax(a)) for a in arrs]
    sizes = np.array([np.count_nonzero(a) for a in arrs])
    # A_i^T = A_j exactly when every cell of class i has its transpose in
    # class j, the class of the first one's transpose, and |A_i| = |A_j|
    tmap = np.where(sizes > 0, color.T.ravel()[first], np.arange(d1))
    wrong = set(np.unique(color[color.T != tmap[color]]).tolist())
    wrong.update(np.flatnonzero(sizes != sizes[tmap]).tolist())
    if wrong:
        raise AxiomFailure(f"transpose of class {min(wrong)} is not a class")
    tr = tuple(int(t) for t in tmap)

    for k in range(d1):
        if not sizes[k]:
            raise AxiomFailure(f"class {k} is empty")
    reps = np.divmod(first, v)

    valencies = []
    for k, a in enumerate(arrs):
        s = a.sum(axis=1, dtype=np.int32)
        if not np.all(s == s[0]):
            raise AxiomFailure(f"class {k} is not regular")
        valencies.append(int(s[0]))

    # p[i, j, k] = #{z : c(x_k, z) = i, c(z, y_k) = j}, each count at most v
    p = np.empty((d1, d1, d1), dtype=np.min_scalar_type(v))
    for k, (x, y) in enumerate(zip(*reps)):
        p[:, :, k] = np.bincount(color[x] * d1 + color[:, y], minlength=d1 * d1).reshape(d1, d1)

    # span: W as echelon rows (pivot, row) in class coordinates; pending: the
    # vectors of W not reduced into it yet; gens: the B_g. Each new echelon
    # row meets each B_g once: re-eliminating the whole span per step takes
    # minutes on a 256-class thin scheme, where W grows one row at a time
    unit = [[int(j == k) for k in range(d1)] for j in range(d1)]
    span: list[tuple[int, list[int]]] = []
    pending = [unit[0]]
    gens: list[list[list[int]]] = []
    while True:
        while pending:
            x = _reduce(span, pending.pop())
            pivot = next((c for c, e in enumerate(x) if e), None)
            if pivot is not None:
                bisect.insort(span, (pivot, x))
                pending += [mat_vec(b, x) for b in gens]
        outside = [k for k in range(1, d1) if any(_reduce(span, unit[k]))]
        if not outside:
            break
        g = outside[0]
        todo = [j for j in range(1, d1) if tr[j] in outside]
        j = _open_product(arrs[g], color, reps, valencies[g] + 1, todo)
        if j is not None:
            raise AxiomFailure(f"product of classes {g}, {j} leaves the algebra")
        gens.append(p[g].T.tolist())
        pending = [mat_vec(gens[-1], x) for _, x in span]

    uneven = np.argwhere((p != p.transpose(1, 0, 2)).any(axis=2))
    if len(uneven):
        i, j = uneven[0].tolist()
        raise AxiomFailure(f"classes {i}, {j} do not commute")

    # p_ij = p_ji now, so both entries hold one tuple
    table = [[()] * d1 for _ in range(d1)]
    for i in range(d1):
        for j in range(i, d1):
            table[i][j] = table[j][i] = tuple(p[i, j].tolist())
    return Scheme(
        matrices=tuple(matrices),
        p=tuple(map(tuple, table)),
        valencies=tuple(valencies),
        transpose_map=tr,
    )


def _require_zero_row_sums(report: SplitReport) -> None:
    if report.adjacency is None:
        raise HadsplitError("need a two-value split")
    if not report.checks.get("rowsum_zero"):
        raise HadsplitError("split rows must sum to zero")


def _assemble(
    report: SplitReport, copies: int, lifted: np.ndarray, patterns: Sequence[np.ndarray] = ()
) -> Scheme:
    """Verify the classes I, I_c (x) A, I_c (x) (J - I - A), the positive and
    the negative cells of the lift, and each block pattern (x) J_n."""
    n = report.params.n
    adj = report.adjacency.array
    eye_c = np.eye(copies, dtype=np.int64)
    jn = np.ones((n, n), dtype=np.int64)
    mats = [
        IntMatrix.identity(copies * n),
        IntMatrix(np.kron(eye_c, adj)),
        IntMatrix(np.kron(eye_c, jn - adj - np.eye(n, dtype=np.int64))),
        IntMatrix(lifted > 0),
        IntMatrix(lifted < 0),
    ]
    mats += [IntMatrix(np.kron(pattern, jn)) for pattern in patterns]
    return verify_scheme(mats)


def _check_scheme_square(square: LatinSquare, ell: int) -> None:
    if square.order != ell + 1 or square.min_symbol != 0:
        raise ValueError(f"need a square of order {ell + 1} on symbols 0..{ell}")
    if not square.is_latin():
        raise ValueError("square is not Latin")
    if not square.is_symmetric() or not square.has_constant_diagonal(0):
        raise ValueError("square must be symmetric with zero diagonal")


def _build_4class(
    h: HadamardMatrix, report: SplitReport, square: LatinSquare | None, below: int
) -> Scheme:
    """4-class body: the lifted blocks below the block diagonal are scaled
    by below (1 keeps the scheme symmetric, -1 pairs the last two classes)."""
    _require_zero_row_sums(report)
    n, ell = report.params.n, report.params.ell
    if ell % 2 == 0:
        raise OddityViolation("an even split size leaves no symmetric zero-diagonal square")
    if square is None:
        square = circle_symmetric(ell + 1)
    _check_scheme_square(square, ell)
    m = ell + 1
    lifted = lift_latin(square, AuxiliarySet(h, report)).array
    signs = np.where(np.tri(m, k=-1, dtype=bool), below, 1)
    lifted = (lifted.reshape(m, n, m, n) * signs[:, None, :, None]).reshape(m * n, m * n)
    return _assemble(report, m, lifted)


def build_4class_symmetric(
    h: HadamardMatrix, report: SplitReport, square: LatinSquare | None = None
) -> Scheme:
    """Symmetric scheme on (ell+1) n points from a zero-row-sum split and a
    symmetric zero-diagonal square; the one-factorization square is the
    default. ell must be odd for such a square to exist."""
    return _build_4class(h, report, square, 1)


def build_4class_nonsymmetric(
    h: HadamardMatrix, report: SplitReport, square: LatinSquare | None = None
) -> Scheme:
    """Same point set as the symmetric builder, with the lifted blocks above
    the diagonal negated below it, pairing the last two classes as mutual
    transposes."""
    return _build_4class(h, report, square, -1)


def _ufs_cross_lift(
    h: HadamardMatrix, report: SplitReport, squares: Sequence[LatinSquare], min_symbol: int
) -> np.ndarray:
    """Check the split and a family of f pairwise UFS squares of order
    ell + 1 - min_symbol (with zero diagonal when 0 is a symbol), and return
    the f x f block array whose (u, w) block, u != w, lifts the composition
    of squares u and w."""
    _require_zero_row_sums(report)
    n, ell = report.params.n, report.params.ell
    order = ell + 1 - min_symbol
    if len(squares) < 2:
        raise ValueError("need at least two squares")
    for sq in squares:
        if sq.order != order or sq.min_symbol != min_symbol:
            raise ValueError(f"every square must have order {order} and symbols from {min_symbol}")
        if not sq.is_latin():
            raise ValueError("square is not Latin")
    if not is_mutually_ufs(list(squares)):
        raise NotUfs("squares are not pairwise UFS")
    if min_symbol == 0 and not all(sq.has_constant_diagonal(0) for sq in squares):
        raise ValueError("every square must have a zero diagonal")
    aux = AuxiliarySet(h, report)
    f = len(squares)
    s = order * n
    big = np.zeros((f * s, f * s), dtype=np.int64)
    for u in range(f):
        for w in range(f):
            if u != w:
                lifted = lift_latin(compose_ufs(squares[u], squares[w]), aux)
                big[u * s : (u + 1) * s, w * s : (w + 1) * s] = lifted.array
    return big


def build_5class(
    h: HadamardMatrix, report: SplitReport, squares: Sequence[LatinSquare]
) -> Scheme:
    """Scheme on f * ell * n points from f mutually UFS squares of order ell
    on symbols 1..ell."""
    ell = report.params.ell
    big = _ufs_cross_lift(h, report, squares, 1)
    f = len(squares)
    off = np.ones((ell, ell), dtype=np.int64) - np.eye(ell, dtype=np.int64)
    return _assemble(report, f * ell, big, [np.kron(np.eye(f, dtype=np.int64), off)])


def build_6class(
    h: HadamardMatrix, report: SplitReport, squares: Sequence[LatinSquare]
) -> Scheme:
    """Scheme on f * (ell+1) * n points from f mutually UFS squares of order
    ell+1 on symbols 0..ell with constant zero diagonal."""
    m = report.params.ell + 1
    big = _ufs_cross_lift(h, report, squares, 0)
    f = len(squares)
    eye_f, eye_m = np.eye(f, dtype=np.int64), np.eye(m, dtype=np.int64)
    patterns = [
        np.kron(eye_f, np.ones((m, m), dtype=np.int64) - eye_m),
        np.kron(np.ones((f, f), dtype=np.int64) - eye_f, eye_m),
    ]
    return _assemble(report, f * m, big, patterns)


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
        pieces.append(_echelon_int(left)[0])
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


def _entry(num_re: int, num_im: int, den: int) -> GaussianRational:
    """(num_re + i num_im) / den, with integer parts passed as ints."""
    re = Fraction(num_re, den) if num_re % den else num_re // den
    im = Fraction(num_im, den) if num_im % den else num_im // den
    return GaussianRational(re, im)


def eigenmatrices(scheme: Scheme) -> EigenTables:
    """Exact eigenmatrices of a commutative scheme.

    Simultaneously diagonalizes the intersection matrices over Q, splitting
    any leftover plane over Q(i); raises IrrationalEigenvalue when the
    algebra needs a larger field. Every subspace is held as independent
    primitive integer vectors, and every split is integer arithmetic.

    B_i, multiplication by A_i in the basis A_0..A_d of the algebra
    verify_scheme proved closed and commutative, is an integer matrix with
    the eigenvalues of A_i, so they lie in [-k_i, k_i]; scheme.p[i], indexed
    [k][m], is B_i^T. Each split takes eigenspaces, or the leftover image,
    of one B_i^T inside a subspace invariant under all of them; they
    commute, so every piece is invariant too and each settled line is a
    common left eigenvector x of the B_i. Coordinate 0 of x B_i = theta_i x
    reads theta_i x_0 = x_i, so x / x_0 is a row of P, with theta_0 = 1 and
    theta_i theta_j = sum_k p_ij^k theta_k: each row of P is a character.
    The d+1 settled lines are independent common eigenvectors of this
    representation of a commutative semisimple algebra, where each
    character occurs exactly once, so the rows of P are the d+1 distinct
    characters and P needs no singularity check. The first orthogonality
    relation then gives m_j = |X| / sum_i |P_ji|^2 / k_i and Q_ij = m_j
    conj(P_ji) / k_i with PQ = |X| I, so E_j = sum_i Q_ij A_i / |X| are the
    primitive idempotents: E_j E_k = [j = k] E_j and sum_j E_j = I, none of
    it re-checked (Bannai and Ito, Algebraic Combinatorics I, 1984, sec. II.3).
    A line x = re + i im gives P_ji = N_i / D with the Gaussian integers
    N_i = x_i conj(x_0) and D = |x_0|^2, so with L = lcm(k_i) both
    m_j = |X| L D^2 / sum_i |N_i|^2 (L / k_i) and Q_ij = m_j conj(N_i) /
    (D k_i) are quotients of integers.
    """
    d1 = scheme.classes + 1
    val = scheme.valencies

    subspaces = [[[int(r == c) for r in range(d1)] for c in range(d1)]]
    for i in range(1, d1):
        if len(subspaces) == d1:
            break
        roots = _integer_roots(scheme.p[i], val[i])
        nxt = []
        for basis in subspaces:
            if len(basis) == 1:
                nxt.append(basis)
            else:
                nxt.extend(_split_by_integer_eigenvalues(basis, scheme.p[i], roots))
        subspaces = nxt

    zero = [0] * d1
    settled = [(b[0], zero) for b in subspaces if len(b) == 1]
    pending = [b for b in subspaces if len(b) > 1]
    while pending:
        basis = pending.pop()
        if len(basis) != 2:
            raise IrrationalEigenvalue("cannot separate a subspace of dimension > 2")
        for i in range(1, d1):
            pieces = _split_complex_pair(basis, scheme.p[i])
            if pieces is not None:
                settled.extend(pieces)
                break
        else:
            raise HadsplitError("eigenspaces are not separated by the classes")
    if len(settled) != d1:
        raise HadsplitError("eigenspace count mismatch")

    lines = []
    for re, im in settled:
        den = re[0] * re[0] + im[0] * im[0]
        nums = [(a * re[0] + b * im[0], b * re[0] - a * im[0]) for a, b in zip(re, im)]
        lines.append((tuple(_entry(nr, ni, den) for nr, ni in nums), nums, den))
    lead = [j for j, (_, nums, den) in enumerate(lines) if nums == [(v * den, 0) for v in val]]
    if not lead:
        raise HadsplitError("no eigenspace carries the valencies")
    first = lines.pop(lead[0])
    lines.sort(key=lambda line: tuple(e.sort_key() for e in line[0]))
    lines.insert(0, first)

    size = scheme.size
    lcm = math.lcm(*val)
    mults = []
    for _, nums, den in lines:
        num = size * lcm * den * den
        norm = sum((nr * nr + ni * ni) * (lcm // k) for (nr, ni), k in zip(nums, val))
        if num % norm:
            raise HadsplitError(f"multiplicity {Fraction(num, norm)} is not a positive integer")
        mults.append(num // norm)
    if sum(mults) != size:
        raise HadsplitError("multiplicities do not sum to the point count")

    q_rows = tuple(
        tuple(
            _entry(m * nums[i][0], -m * nums[i][1], den * val[i])
            for m, (_, nums, den) in zip(mults, lines)
        )
        for i in range(d1)
    )
    return EigenTables(
        p=tuple(row for row, _, _ in lines), q=q_rows, multiplicities=tuple(mults), size=size
    )


_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def _hamming_distances(n: int) -> np.ndarray:
    """Hamming distances between the binary words of length n, word x being
    the bits of the index x: the popcount of x XOR y, summed over its bytes
    from a 256-entry table. The words are held in the smallest unsigned type
    that holds 2**n - 1, the distances in uint8."""
    words = np.arange(1 << n, dtype=np.min_scalar_type((1 << n) - 1))
    xor = words[:, None] ^ words[None, :]
    return _POPCOUNT[xor.view(np.uint8)].reshape(*xor.shape, -1).sum(axis=-1, dtype=np.uint8)


def hamming_scheme(n: int) -> Scheme:
    """Distance scheme on binary words of length n, classes by Hamming
    distance."""
    if n < 1:
        raise ValueError("length must be positive")
    dist = _hamming_distances(n)
    return verify_scheme([IntMatrix(dist == k) for k in range(n + 1)])


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
    inside = [k for k in range(1, n + 1) if k % 4 in keep]
    outside = [k for k in range(1, n + 1) if k % 4 not in keep]
    if not inside or not outside:
        raise ValueError("fusion would leave an empty class")
    dist = _hamming_distances(n)
    return verify_scheme(
        [IntMatrix(dist == 0), IntMatrix(np.isin(dist, inside)), IntMatrix(np.isin(dist, outside))]
    )
