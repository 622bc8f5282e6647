"""Association schemes assembled from balanced splits and Latin squares.

Every returned Scheme is genuine and carries an exact intersection table.
The split builders prove every axiom in the Kronecker algebra: each class is
an m x m grid of n x n blocks drawn from a short list of 0/1 matrices, held
by their coordinates on the idempotents of the split's n-side algebra (see
_KroneckerForm), so no v x v array or product is formed. The Hamming and
fusion schemes are translation schemes on Z_2^n, proved on one row of v
class indices (see _TranslationForm). The class of every cell is written
into one index array only when colors is read. Only verify_scheme's input,
a list of class matrices from the user, is checked on such an index array
outright (_verify_colors). Eigenmatrices are exact over the Gaussian
rationals: the rows of P are the characters of the algebra, which
exactla._characters finds as Gaussian integers, eigenmatrices orders them,
and Q follows from P by the orthogonality relations; only the final table
entries are fractions.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

from .core import _FLOAT32_EXACT, HadamardMatrix, HadsplitError, IntMatrix, exact_matmul
from .exactla import GaussianRational, IrrationalEigenvalue, _characters, _primitive, mat_vec
from .latin import LatinSquare, circle_symmetric, compose_ufs
from .splitting import SplitReport, _require_report_of, _srg_terms

__all__ = [
    "AxiomFailure",
    "OddityViolation",
    "IrrationalEigenvalue",
    "AuxiliarySet",
    "Scheme",
    "verify_scheme",
    "build_4class_symmetric",
    "build_4class_nonsymmetric",
    "build_5class",
    "build_6class",
    "EigenTables",
    "eigenmatrices",
    "hamming_scheme",
    "muzychuk_fusion",
]


class AxiomFailure(HadsplitError):
    """A candidate family of class matrices is not an association scheme."""


class OddityViolation(HadsplitError):
    """The block count parity rules out the requested construction."""


class AuxiliarySet:
    """Rank-one projector family of a split: the i-th member is the outer
    product of row i with itself.

    The projectors sum to n times the identity, square to n times
    themselves and annihilate each other, and the split members sum to the
    split Gram H1t H1 by definition. The first three facts reduce to row and
    column orthogonality of the parent matrix, which HadamardMatrix proved
    when h was built (HHt = nI, hence HtH = nI), so nothing is re-checked here.
    report must be check_split's report of rows of h (ValueError otherwise),
    so all it states holds of the rows of h. Projectors are formed only when
    asked for.
    """

    def __init__(self, h: HadamardMatrix, report: SplitReport):
        _require_report_of(h, report)
        self.h = h
        self.report = report
        self._arr = h.array
        self._h1 = self._arr[list(report.rows)]
        self.gram = exact_matmul(self._h1.T, self._h1).astype(np.int64, copy=False)

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
        one product of A with the split rows decides the lemma. The report
        is of h, so rowsum_zero says whether every split row sums to zero.
        """
        rep = self.report
        if rep.adjacency is None or not rep.checks["rowsum_zero"]:
            return False
        n, ell, a, b = rep.params.astuple()
        left = (a - b) * exact_matmul(rep.adjacency.array, self._h1.T).astype(np.int64, copy=False)
        return bool(np.array_equal(left, (n - ell + b) * self._h1.T))


@dataclass(frozen=True, eq=False)
class Scheme:
    """Verified association scheme with intersection table p[i][j][k].

    cells holds the classes: a v x v class-index array, the Kronecker form
    of a split build, or the class row of a translation scheme on Z_2^n.
    colors[x, y], the class of cell (x, y), and the class matrices are
    formed on first read."""

    p: tuple[tuple[tuple[int, ...], ...], ...]
    valencies: tuple[int, ...]
    transpose_map: tuple[int, ...]
    cells: np.ndarray | _KroneckerForm | _TranslationForm = field(repr=False)

    @cached_property
    def colors(self) -> np.ndarray:
        colors = self.cells if isinstance(self.cells, np.ndarray) else self.cells.colors()
        colors.setflags(write=False)
        return colors

    @cached_property
    def matrices(self) -> tuple[IntMatrix, ...]:
        return tuple(IntMatrix(self.colors == k) for k in range(len(self.valencies)))

    @property
    def size(self) -> int:
        # the classes partition every row, so the valencies sum to v
        return sum(self.valencies)

    @property
    def classes(self) -> int:
        return len(self.valencies) - 1

    @property
    def is_symmetric(self) -> bool:
        return all(t == i for i, t in enumerate(self.transpose_map))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Scheme):
            return NotImplemented
        tables = [(s.p, s.valencies, s.transpose_map) for s in (self, other)]
        if tables[0] != tables[1]:
            return False
        if isinstance(self.cells, _TranslationForm) and isinstance(other.cells, _TranslationForm):
            # row 0 of colors is the class row, and it fixes every other row
            return bool(np.array_equal(self.cells.row, other.cells.row))
        return bool(np.array_equal(self.colors, other.colors))

    def __hash__(self) -> int:
        return hash((self.p, self.valencies, self.transpose_map))


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
    constant on every class, or None; a is the boolean A and every entry of
    each A A_j lies below base. The products are packed several to a kernel
    call, as described in _verify_colors; every weight lies below 2**24, so
    the weights are gathered over the cells as int32. A packed product is
    compared with its class representatives in the kernel's dtype, which
    holds each packed entry exactly. Only a chunk that fails is formed again,
    one class at a time, to name its first failing class."""
    v, d1 = a.shape[0], len(reps[0])
    width = 1
    while v * base**width < _FLOAT32_EXACT:
        width += 1
    for start in range(0, len(todo), width):
        chunk = todo[start : start + width]
        weights = np.zeros(d1, dtype=np.int32)
        weights[chunk] = base ** np.arange(len(chunk))
        prod = exact_matmul(a, weights[color])
        if np.array_equal(prod, prod[reps][color]):
            continue
        for j in chunk:
            prod = exact_matmul(a, color == j)
            if not np.array_equal(prod, prod[reps][color]):
                return j
    return None


def verify_scheme(matrices: Sequence[IntMatrix]) -> Scheme:
    """Check every axiom on a candidate list of 0/1 class matrices: shapes,
    entries, identity and partition here, the rest in _verify_colors."""
    if not matrices:
        raise AxiomFailure("no class matrices")
    arrs = [m.array for m in matrices]
    v, d1 = arrs[0].shape[0], len(arrs)
    for idx, a in enumerate(arrs):
        if a.shape != (v, v):
            raise AxiomFailure(f"class {idx} is not {v} x {v}")
        # IntMatrix holds int64, and a negative entry reads as >= 2**63 here
        if not np.all(a.view(np.uint64) <= 1):
            raise AxiomFailure(f"class {idx} has entries outside 0/1")
    if not np.array_equal(arrs[0], np.eye(v, dtype=np.int64)):
        raise AxiomFailure("first class is not the identity")
    # class k adds k + d1 on its cells, so a cell not in exactly one class reads < 0 or >= d1
    return _verify_colors(sum((k + d1) * a for k, a in enumerate(arrs)) - d1, d1)


def _verify_colors(colors: np.ndarray, d1: int) -> Scheme:
    """Check every axiom on the classes 0..d1-1 of the cells, cell (x, y)
    in class colors[x, y]; an index outside 0..d1-1 breaks the partition.
    The closure and commutativity checks are _close's.

    The products of one A_i are packed, several to a kernel call. Regularity
    is checked first, so every entry of A_i A_j lies in [0, k_i]. Give the
    classes j_0, ..., j_(c-1) of a chunk the weights base^t, base = k_i + 1,
    and let M = sum_t base^t A_(j_t). Each entry of A_i M is then a base
    k_i + 1 number whose digit t is exactly that entry of A_i A_(j_t), so
    A_i M is constant on every class exactly when each A_i A_(j_t) is. A
    chunk holds as many classes as keep the kernel's bound v base^(c-1)
    below 2**24, so each call takes the exact float32 route.
    """
    v = colors.shape[0]
    if colors.min() < 0 or colors.max() >= d1:
        raise AxiomFailure("classes do not partition the cells")
    if not np.array_equal(colors == 0, np.eye(v, dtype=bool)):
        raise AxiomFailure("first class is not the identity")
    colors.setflags(write=False)

    # pairs[i, j] counts the cells of class i whose transpose lies in class
    # j; A_i^T = A_j exactly when row i is nonzero at j alone and |A_i| = |A_j|
    pairs = np.bincount((colors.astype(np.int64) * d1 + colors.T).ravel(), minlength=d1 * d1)
    pairs = pairs.reshape(d1, d1)
    sizes = pairs.sum(axis=1)
    tmap = np.where(sizes > 0, pairs.argmax(axis=1), np.arange(d1))
    wrong = np.flatnonzero((np.count_nonzero(pairs, axis=1) > 1) | (sizes != sizes[tmap]))
    if len(wrong):
        raise AxiomFailure(f"transpose of class {wrong[0]} is not a class")
    if not sizes.all():
        raise AxiomFailure(f"class {sizes.argmin()} is empty")

    # counts[x, k] is the number of cells of class k in row x
    counts = np.bincount((colors + d1 * np.arange(v)[:, None]).ravel(), minlength=v * d1)
    counts = counts.reshape(v, d1)
    irregular = np.flatnonzero((counts != counts[0]).any(axis=0))
    if len(irregular):
        raise AxiomFailure(f"class {irregular[0]} is not regular")
    valencies = tuple(counts[0].tolist())
    # every class meets row 0, so its first cell there is its first cell
    reps = (np.zeros(d1, dtype=np.intp), (colors[0] == np.arange(d1)[:, None]).argmax(axis=1))
    p = _triangle_counts(colors[0], colors[:, reps[1]].T)

    def open_product(g: int, todo: list[int]) -> int | None:
        return _open_product(colors == g, colors, reps, valencies[g] + 1, todo)

    return _close(p, valencies, tmap, open_product, colors)


def _triangle_counts(row: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """p[i, j, k] = #{z : c(x, z) = i, c(z, y_k) = j} from row x of the class
    indices and their columns y_k, at most v each: the entry of A_i A_j at
    (x, y_k)."""
    d1 = len(columns)
    row = row.astype(np.int64) * d1
    p = np.empty((d1, d1, d1), dtype=np.min_scalar_type(len(row)))
    for k, col in enumerate(columns):
        p[:, :, k] = np.bincount(row + col, minlength=d1 * d1).reshape(d1, d1)
    return p


def _close(
    p: np.ndarray, valencies: tuple[int, ...], tmap: np.ndarray, open_product, cells
) -> Scheme:
    """Prove the span V of the classes closed under products and
    commutative, and return the Scheme. The classes partition the cells,
    A_0 = I, the transpose of class i is class tmap[i] and class i is
    regular of valency valencies[i]; p[i, j, k] is the entry of A_i A_j at a
    cell of class k. open_product(g, todo) returns the first j in todo for
    which A_g A_j is not sum_k p_gj^k A_k, or None.

    Products are formed only up to transposition. A_0 = I, so
    p_0j^k = p_j0^k = [j = k] needs no product. For i, j >= 1,
    (A_i A_j)^T = A_j' A_i', where ' is the transpose map, an involution on
    nonempty classes that partition the cells. Once A_i A_j = sum_k p_ij^k
    A_k is proved, transposing gives A_j' A_i' = sum_k p_ij^k A_k'. So one
    product per orbit {(i, j), (j', i')} proves both, and a product leaves
    the algebra exactly when its partner does.

    Products are formed only for a few generator classes. The classes are
    disjoint and nonempty, hence a basis of V. Once every A_g A_j lies in
    V, multiplication by A_g maps V into V with the integer matrix B_g,
    B_g[k][j] = p_gj^k. The generators start with class 1; while the span W
    of their words applied to A_0 = I, read through the B_g by exact integer
    elimination, misses a class, the first class it misses, g, joins them.
    W holds I and is closed under each generator, so it is the algebra they
    generate, and each of its elements maps V into V. So when A_j' lies in
    W, A_j' A_g' lies in V and so does its transpose A_g A_j: only the
    products of g with A_j' outside W are formed. No orbit is formed twice,
    since a partner (j', g') formed before belongs to a generator j' already
    in W; at worst every class is a generator and every orbit is formed
    once. Once W holds every class, W = V and V is closed under products.

    Each A_i A_j then lies in V, so its coordinates are its entries at the
    class representatives, p_ij^k, and the classes commute exactly when
    p_ij = p_ji in that table.

    When a product of g leaves V, every class i < g lies in W, so its
    products stay in V, as do the products of g left unformed. The first
    product of g that leaves V is therefore also the first pair, in (i, j)
    order with one product per orbit, that leaves V, and it is the one named.
    """
    d1 = len(valencies)
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
        todo = [j for j in range(1, d1) if tmap[j] in outside]
        j = open_product(g, todo)
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
    tr = tuple(tmap.tolist())
    return Scheme(p=tuple(map(tuple, table)), valencies=valencies, transpose_map=tr, cells=cells)


def _require_zero_row_sums(report: SplitReport) -> None:
    if report.adjacency is None:
        raise HadsplitError("need a two-value split")
    if not report.checks.get("rowsum_zero"):
        raise HadsplitError("split rows must sum to zero")


# The n x n blocks a split build places, by index: 0, I, A, J - I - A, J,
# then (J + P_s)/2 for s = 1..ell and (J - P_s)/2 for s = 1..ell.
_ZERO, _EYE, _ADJ, _NON, _ONES = range(5)


class _KroneckerForm:
    """Classes of a split build as block grids: block (x, y) of class c, in
    an m x m grid of n x n blocks, is block number grids[c, x, y] of the
    list above, each of them a symmetric 0/1 matrix.

    The n-side algebra. With h_1..h_ell the split rows of h, which sum to
    zero, P_s = h_s^T h_s and G = sum_s P_s the split Gram, HH^T = nI gives
    J^2 = nJ, J P_s = P_s J = 0 and P_s P_t = n [s = t] P_s. So E_J = J/n,
    E_s = P_s/n and E_0 = I - E_J - sum_s E_s are orthogonal idempotents,
    the projections on 1, on each h_s and on their orthogonal complement;
    ell <= n - 2, so each is nonzero and they are linearly independent.
    AuxiliarySet has refused any report but check_split's report of rows of
    h, so the graph A is 0/1 and G = (ell - b) I + (a - b) A + bJ entry by
    entry, and nothing here re-proves it: only _rows reads the rows of h.
    So every listed block is 0/1, symmetric and a combination
    Y = sum_e y_e E_e, and coords[t] holds block t's y: I = (1, 1, 1..1),
    J = (0, n, 0..0), (J +- P_s)/2 has n/2 at J and +-n/2 at s, and A has
    r = -(ell - b)/(a - b) at E_0, its valency at J and
    theta = (n - ell + b)/(a - b) at each s: eigenvalues of the integer
    matrix A, rational and so integers. Y Y' = sum_e y_e y'_e E_e: blocks
    multiply coordinate by coordinate, and a class C = sum_e X_e (x) E_e,
    X_e the m x m grid of its blocks' e-th coordinates, multiplies as
    C C' = sum_e X_e X'_e (x) E_e. Equal coordinates mean equal matrices,
    and by independence only equal matrices have equal coordinates.

    Each axiom then holds on the m x m grids (see _verify_blocks). Rows of
    colors, and colors itself, are formed from the blocks themselves.
    """

    def __init__(self, aux: AuxiliarySet, grids: np.ndarray):
        n, ell, a, b = aux.report.params.astuple()
        # the report is of h, and each builder's _require_zero_row_sums read
        # a graph, so a != b, and rowsum_zero: 1t G 1 = |H1 1|^2 = 0, the split
        # rows sum to zero. At ell = n - 1 the other row is then constant and
        # G = nI - J takes one value, so ell <= n - 2
        self.aux, self.grids, self.n = aux, grids, n
        coords = np.zeros((5 + 2 * ell, ell + 2), dtype=np.int64)
        coords[_EYE] = 1
        k, c = _srg_terms(n, ell, a, b, 0)[0]
        coords[_ADJ] = [(b - ell) // c, k // c] + [(n - ell + b) // c] * ell
        coords[_NON] = -1 - coords[_ADJ]
        coords[_NON, 1] += n
        coords[_ONES, 1] = n
        coords[5:, 1] = n // 2
        s = np.arange(ell)
        coords[5 + s, 2 + s] = n // 2
        coords[5 + ell + s, 2 + s] = -(n // 2)
        self.coords = coords

    def _rows(self, points: np.ndarray) -> np.ndarray:
        """Rows points of every listed block, shape (blocks, len(points), n), in int8."""
        n, h1 = self.n, self.aux._h1.astype(np.int8)
        eye = np.eye(n, dtype=np.int8)[points]
        adj = self.aux.report.adjacency.array[points].astype(np.int8)
        same = h1[:, points, None] == h1[:, None, :]  # (J + P_s)/2 at (x, y)
        return np.concatenate(
            [[np.zeros_like(eye), eye, adj, 1 - eye - adj, np.ones_like(eye)], same, ~same],
            dtype=np.int8,
        )

    def lines(self, xs) -> np.ndarray:
        """Rows xs of colors, each formed from the one row of its blocks."""
        block, point = np.divmod(np.asarray(xs), self.n)
        rows = self._rows(point)
        which = np.arange(len(point))[:, None]
        out = sum(c * rows[g[block], which].astype(np.int64) for c, g in enumerate(self.grids))
        return out.reshape(len(point), -1)

    def colors(self) -> np.ndarray:
        """The v x v class-index array in int16, one block row at a time: each
        distinct column of the grids is one n x n block of indices."""
        d1, m, _ = self.grids.shape
        n = self.n
        kinds, which = np.unique(self.grids.reshape(d1, -1).T, axis=0, return_inverse=True)
        blocks = self._rows(np.arange(n))
        table = sum(c * blocks[kinds[:, c]].astype(np.int16) for c in range(1, d1))
        which = which.reshape(m, m)
        out = np.empty((m, n, m, n), dtype=np.int16)
        for x in range(m):
            out[x] = table[which[x]].transpose(1, 0, 2)
        return out.reshape(m * n, m * n)


def _verify_blocks(form: _KroneckerForm) -> Scheme:
    """Check every axiom on the block grids of a split build, in
    _verify_colors' order and with its messages; the closure and
    commutativity checks are _close's.

    y[c] holds class c's grids X_e, one per coordinate e, so each check is
    an identity of m x m integer matrices:
    - partition: the listed blocks are 0/1, so the classes partition the
      cells exactly when each block position's blocks sum to J, coordinate
      by coordinate;
    - identity: class 0 is I_m (x) I;
    - transposes: every listed block is symmetric and so is each E_e, so
      the transpose of class c is the class whose grids are its transposed
      grids, X_e^T;
    - regularity: E_e 1 = [e = J] 1, so the row sums of class c at block
      row x are those of its J grid, X_J 1, and class c is regular exactly
      when they agree on every block row;
    - the table: row 0 of colors and its columns at the class
      representatives are formed from their blocks (_KroneckerForm.lines),
      and p is their triangle count as in _verify_colors;
    - closure: A_g A_j = sum_k p_gj^k A_k exactly when
      X^g_e X^j_e = sum_k p_gj^k X^k_e for every e, so each product is one
      batched kernel call on (ell + 2) m x m grids per class.
    """
    grids, coords = form.grids, form.coords
    d1 = len(grids)
    y = np.stack([coords.T[:, g] for g in grids])  # (class, coordinate, m, m)
    if np.any(y.sum(axis=0) != coords[_ONES][:, None, None]):
        raise AxiomFailure("classes do not partition the cells")
    eye = np.eye(grids.shape[1], dtype=np.int64)
    if not np.array_equal(y[0], coords[_EYE][:, None, None] * eye):
        raise AxiomFailure("first class is not the identity")

    # key[t] numbers the distinct coordinate rows, so equal keys are equal blocks
    _, key = np.unique(coords, axis=0, return_inverse=True)
    keys = key.reshape(-1)[grids]
    empty = ~y.reshape(d1, -1).any(axis=1)
    same = (keys[:, None] == keys.transpose(0, 2, 1)[None]).all(axis=(2, 3))  # [d, c]: A_d = A_c^T
    tmap = np.where(empty, np.arange(d1), same.argmax(axis=0))
    wrong = np.flatnonzero(~empty & ~same.any(axis=0))
    if len(wrong):
        raise AxiomFailure(f"transpose of class {wrong[0]} is not a class")
    if empty.any():
        raise AxiomFailure(f"class {empty.argmax()} is empty")

    rowsums = y[:, 1].sum(axis=2)
    irregular = np.flatnonzero((rowsums != rowsums[:, :1]).any(axis=1))
    if len(irregular):
        raise AxiomFailure(f"class {irregular[0]} is not regular")
    valencies = tuple(rowsums[:, 0].tolist())
    row = form.lines([0])[0]
    reps = (row == np.arange(d1)[:, None]).argmax(axis=1)
    # a cell's transpose lies in the transposed class: column y of colors is tmap[row y]
    p = _triangle_counts(row, tmap[form.lines(reps)])
    flat = y.reshape(d1, -1)

    def open_product(g: int, todo: list[int]) -> int | None:
        prods = exact_matmul(y[g], y[todo]).reshape(len(todo), -1)
        bad = np.flatnonzero((prods != exact_matmul(p[g, todo], flat)).any(axis=1))
        return todo[bad[0]] if len(bad) else None

    return _close(p, valencies, tmap, open_product, form)


def _assemble_blocks(
    aux: AuxiliarySet, lift: np.ndarray, patterns: Sequence[np.ndarray] = ()
) -> _KroneckerForm:
    """The classes I, I_c (x) A, I_c (x) (J - I - A), the positive and the
    negative cells of the signed lift, and each block pattern (x) J_n. lift
    is c x c: an entry +-s puts (J +- P_s)/2 in the positive class and
    (J -+ P_s)/2 in the negative one, and 0 puts neither."""
    ell = aux.report.params.ell
    eye = np.eye(len(lift), dtype=np.int64)

    def half(x: np.ndarray) -> np.ndarray:
        return np.where(x > 0, 4 + x, np.where(x < 0, 4 + ell - x, _ZERO))

    grids = [_EYE * eye, _ADJ * eye, _NON * eye, half(lift), half(-lift)]
    grids += [_ONES * np.asarray(pattern, dtype=np.int64) for pattern in patterns]
    return _KroneckerForm(aux, np.stack(grids))


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
    aux = AuxiliarySet(h, report)
    _require_zero_row_sums(report)
    ell = report.params.ell
    if ell % 2 == 0:
        raise OddityViolation("an even split size leaves no symmetric zero-diagonal square")
    if square is None:
        square = circle_symmetric(ell + 1)
    _check_scheme_square(square, ell)
    m = ell + 1
    signs = np.where(np.tri(m, k=-1, dtype=bool), below, 1)
    return _verify_blocks(_assemble_blocks(aux, np.array(square.cells) * signs))


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
    report: SplitReport, squares: Sequence[LatinSquare], min_symbol: int
) -> np.ndarray:
    """Check the split and a family of f pairwise UFS squares of order
    ell + 1 - min_symbol (with zero diagonal when 0 is a symbol), and return
    the lift's f x f array of blocks of symbols, whose (u, w) block, u != w,
    is the composition of squares u and w. Row j of w agrees with row i of
    u in the same columns, on the same symbols, as row i of u with row j of
    w, so each pair u < w is composed once and the (w, u) block is the
    transpose of the (u, w) block. NotUfs is raised before the diagonal check."""
    _require_zero_row_sums(report)
    ell = report.params.ell
    order = ell + 1 - min_symbol
    if len(squares) < 2:
        raise ValueError("need at least two squares")
    for sq in squares:
        if sq.order != order or sq.min_symbol != min_symbol:
            raise ValueError(f"every square must have order {order} and symbols from {min_symbol}")
        if not sq.is_latin():
            raise ValueError("square is not Latin")
    f = len(squares)
    lift = np.zeros((f, order, f, order), dtype=np.int64)
    for u, w in combinations(range(f), 2):
        cells = np.array(compose_ufs(squares[u], squares[w]).cells)
        lift[u, :, w], lift[w, :, u] = cells, cells.T
    if min_symbol == 0 and not all(sq.has_constant_diagonal(0) for sq in squares):
        raise ValueError("every square must have a zero diagonal")
    return lift.reshape(f * order, f * order)


def build_5class(
    h: HadamardMatrix, report: SplitReport, squares: Sequence[LatinSquare]
) -> Scheme:
    """Scheme on f * ell * n points from f mutually UFS squares of order ell
    on symbols 1..ell."""
    aux = AuxiliarySet(h, report)
    ell = report.params.ell
    lift = _ufs_cross_lift(report, squares, 1)
    f = len(squares)
    off = np.ones((ell, ell), dtype=np.int64) - np.eye(ell, dtype=np.int64)
    pattern = np.kron(np.eye(f, dtype=np.int64), off)
    return _verify_blocks(_assemble_blocks(aux, lift, [pattern]))


def build_6class(
    h: HadamardMatrix, report: SplitReport, squares: Sequence[LatinSquare]
) -> Scheme:
    """Scheme on f * (ell+1) * n points from f mutually UFS squares of order
    ell+1 on symbols 0..ell with constant zero diagonal."""
    aux = AuxiliarySet(h, report)
    m = report.params.ell + 1
    lift = _ufs_cross_lift(report, squares, 0)
    f = len(squares)
    eye_f, eye_m = np.eye(f, dtype=np.int64), np.eye(m, dtype=np.int64)
    patterns = [
        np.kron(eye_f, np.ones((m, m), dtype=np.int64) - eye_m),
        np.kron(np.ones((f, f), dtype=np.int64) - eye_f, eye_m),
    ]
    return _verify_blocks(_assemble_blocks(aux, lift, patterns))


@dataclass(frozen=True)
class EigenTables:
    """First and second eigenmatrices with eigenspace multiplicities.

    Row j of p holds the eigenvalues of every class on the j-th common
    eigenspace; q = size * p^(-1)."""

    p: tuple[tuple[GaussianRational, ...], ...]
    q: tuple[tuple[GaussianRational, ...], ...]
    multiplicities: tuple[int, ...]
    size: int


def eigenmatrices(scheme: Scheme) -> EigenTables:
    """Exact eigenmatrices of a commutative scheme.

    The rows of P are the d+1 characters theta of the Bose-Mesner algebra,
    which exactla._characters finds as Gaussian integers, with theta_0 = 1;
    it raises IrrationalEigenvalue when a character leaves Z[i]. The row of
    valencies comes first and the others follow in increasing order of
    their (re, im) pairs, the order of GaussianRational.sort_key.

    The first orthogonality relation gives m_j = |X| / sum_i |P_ji|^2 / k_i
    and Q_ij = m_j conj(P_ji) / k_i with PQ = |X| I, so E_j = sum_i Q_ij
    A_i / |X| are the primitive idempotents: E_j E_k = [j = k] E_j and
    sum_j E_j = I, none of it re-checked (Bannai and Ito, Algebraic
    Combinatorics I, 1984, sec. II.3). With L = lcm(k_i), m_j = |X| L /
    sum_i |P_ji|^2 (L / k_i) is a quotient of integers, and so is each
    Q_ij.
    """
    val = scheme.valencies
    rows = _characters(scheme.p, val)
    trivial = (list(val), [0] * len(val))
    if trivial not in rows:
        raise HadsplitError("no eigenspace carries the valencies")
    rows.remove(trivial)
    rows.sort(key=lambda row: tuple(zip(*row)))
    rows.insert(0, trivial)

    size = scheme.size
    lcm = math.lcm(*val)
    num = size * lcm
    mults = []
    for re, im in rows:
        norm = sum((a * a + b * b) * (lcm // k) for a, b, k in zip(re, im, val))
        if num % norm:
            raise HadsplitError(f"multiplicity {Fraction(num, norm)} is not a positive integer")
        mults.append(num // norm)
    if sum(mults) != size:
        raise HadsplitError("multiplicities do not sum to the point count")

    p_rows = tuple(tuple(GaussianRational(a, b) for a, b in zip(re, im)) for re, im in rows)
    q_rows = tuple(
        tuple(
            GaussianRational(Fraction(m * re[i], k), Fraction(-m * im[i], k))
            for m, (re, im) in zip(mults, rows)
        )
        for i, k in enumerate(val)
    )
    return EigenTables(p=p_rows, q=q_rows, multiplicities=tuple(mults), size=size)


# Entries of the gather that reads one generator's products on a translation
# scheme, per block: 2**18 entries keep its temporaries near 4.5 MB.
_GATHER_ENTRIES = 2**18


class _TranslationForm:
    """Classes of a translation scheme on Z_2^n: cell (x, y) lies in class
    row[x ^ y], the word x being the bits of the index x. Every class matrix
    then commutes with each translation T_t, (x, y) -> (x ^ t, y ^ t), and
    so does every product of them, so row 0 of any such matrix fixes it
    (Delsarte 1973; Bannai and Ito, Algebraic Combinatorics I, 1984, sec.
    II.6). colors is formed only when read."""

    def __init__(self, row: np.ndarray):
        self.row = row

    def colors(self) -> np.ndarray:
        """The v x v class-index array, in row's dtype."""
        words = np.arange(len(self.row), dtype=np.min_scalar_type(len(self.row) - 1))
        return self.row[np.bitwise_xor.outer(words, words)]


def _verify_translation(row: np.ndarray, d1: int) -> Scheme:
    """Check every axiom on the translation scheme whose cell (x, y) lies in
    class row[x ^ y], in _verify_colors' order and with its messages; the
    closure and commutativity checks are _close's.

    Row x of colors is row permuted by z -> x ^ z, so each check reads row:
    - partition: every cell holds an index in 0..d1-1 exactly when row does;
    - identity: (x, y) lies in class 0 exactly when row[x ^ y] = 0, so class
      0 is I exactly when row[0] = 0 and 0 appears nowhere else in row;
    - transposes: x ^ y = y ^ x, so every class is its own transpose;
    - regularity: every row of colors is a permutation of row, so class k
      is regular, of valency |row^(-1)(k)|, and empty exactly when k is
      missing from row;
    - the table: row 0 of colors is row and its column y is row[y ^ z], so
      p is their triangle count as in _verify_colors;
    - closure: A_g A_j is translation invariant, so it is sum_k p_gj^k A_k
      exactly when its row 0 is constant on each class. Entry (0, z) is
      #{w : row[w] = g, row[z ^ w] = j}, one bincount over the gather
      row[z ^ w] for every z and every w in class g, in blocks of at most
      _GATHER_ENTRIES entries.
    """
    if row.min() < 0 or row.max() >= d1:
        raise AxiomFailure("classes do not partition the cells")
    if row[0] != 0 or np.count_nonzero(row == 0) != 1:
        raise AxiomFailure("first class is not the identity")
    row.setflags(write=False)
    sizes = np.bincount(row, minlength=d1)
    if not sizes.all():
        raise AxiomFailure(f"class {sizes.argmin()} is empty")
    valencies = tuple(sizes.tolist())
    v = len(row)
    words = np.arange(v)
    reps = (row == np.arange(d1)[:, None]).argmax(axis=1)
    p = _triangle_counts(row, row[reps[:, None] ^ words])
    offsets = words * d1

    def open_product(g: int, todo: list[int]) -> int | None:
        members = np.flatnonzero(row == g)
        step = max(1, _GATHER_ENTRIES // v)
        counts = np.zeros(v * d1, dtype=np.int64)
        for start in range(0, len(members), step):
            gather = row[members[start : start + step, None] ^ words] + offsets
            counts += np.bincount(gather.ravel(), minlength=v * d1)
        # counts[z, j] is entry (0, z) of A_g A_j, and reps[row] the first z of z's class
        counts = counts.reshape(v, d1)[:, todo]
        bad = np.flatnonzero((counts != counts[reps[row]]).any(axis=0))
        return todo[bad[0]] if len(bad) else None

    return _close(p, valencies, np.arange(d1), open_product, _TranslationForm(row))


def _weights(n: int) -> np.ndarray:
    """Hamming weight of each binary word of length n, word z being the bits
    of the index z, in uint8: the words at and above 2**k are those below it
    with bit k set, one 1 more."""
    weights = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        weights = np.concatenate([weights, weights + 1])
    return weights


def hamming_scheme(n: int) -> Scheme:
    """Distance scheme on binary words of length n, classes by Hamming
    distance: cell (x, y) lies in the class of the weight of x XOR y."""
    if n < 1:
        raise ValueError("length must be positive")
    return _verify_translation(_weights(n), n + 1)


def muzychuk_fusion(n: int, variant: str) -> Scheme:
    """Fuse the distance classes of the length-n binary scheme into two,
    grouping distances by residue mod 4: variant "01" keeps 0 and 1,
    variant "03" keeps 0 and 3 (distance zero always stays separate)."""
    keep = {"01": {0, 1}, "03": {0, 3}}.get(variant)
    if keep is None:
        raise ValueError(f"unknown variant {variant!r}")
    if n < 2:
        raise ValueError("need length at least 2")
    group = [0] + [1 if k % 4 in keep else 2 for k in range(1, n + 1)]
    if set(group[1:]) != {1, 2}:
        raise ValueError("fusion would leave an empty class")
    return _verify_translation(np.array(group, dtype=np.uint8)[_weights(n)], 3)
