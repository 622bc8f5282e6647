"""Latin squares with the agreement properties the association schemes need.

Two squares are UFS when any row of one agrees with any row of the other in
exactly one column. Composition reads off the agreed symbol and is again a
Latin square on the same symbols.

`is_ufs` and `compose_ufs` read one agreement table: for each row pair (i, j),
the number of columns where row i of l1 agrees with row j of l2, and l1's
symbol at the first of them. `_agreements` builds it a row of l1 at a time,
each step an m x m comparison with all of l2, never an m x m x m array.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .core import HadsplitError, ParseError
from .gf import GF

__all__ = [
    "OddOrder",
    "NotUfs",
    "LatinSquare",
    "is_ufs",
    "compose_ufs",
    "circle_symmetric",
    "affine_ufs_family",
    "force_constant_diagonal",
    "with_min_symbol",
    "parse_latin",
    "serialize_latin",
]


class OddOrder(HadsplitError):
    """The construction needs an even order."""


class NotUfs(HadsplitError):
    """The two squares lack the unique-agreement property."""


@dataclass(frozen=True)
class LatinSquare:
    order: int
    min_symbol: int
    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.order < 1:
            raise ValueError("order must be positive")
        if len(self.cells) != self.order or any(len(r) != self.order for r in self.cells):
            raise ValueError("cell grid must be order x order")

    def __getitem__(self, pos: tuple[int, int]) -> int:
        i, j = pos
        return self.cells[i][j]

    @property
    def symbols(self) -> range:
        return range(self.min_symbol, self.min_symbol + self.order)

    def is_latin(self) -> bool:
        want = set(self.symbols)
        for i in range(self.order):
            if set(self.cells[i]) != want:
                return False
            if {self.cells[r][i] for r in range(self.order)} != want:
                return False
        return True

    def is_symmetric(self) -> bool:
        return all(
            self.cells[i][j] == self.cells[j][i]
            for i in range(self.order)
            for j in range(i + 1, self.order)
        )

    def has_constant_diagonal(self, symbol: int | None = None) -> bool:
        diag = {self.cells[i][i] for i in range(self.order)}
        if len(diag) != 1:
            return False
        return symbol is None or diag == {symbol}


def _agreements(l1: LatinSquare, l2: LatinSquare) -> tuple[np.ndarray, np.ndarray]:
    """(counts, first): the agreements of row i of l1 with row j of l2 and
    l1's symbol at the first (at column 0 when there is none), per (i, j)."""
    a, b = np.array(l1.cells), np.array(l2.cells)
    if a.dtype != np.int64 or b.dtype != np.int64:  # past int64 numpy may round to float
        a, b = np.array(l1.cells, dtype=object), np.array(l2.cells, dtype=object)
    counts, first = np.empty(a.shape, dtype=np.int64), np.empty_like(a)
    for i, row in enumerate(a):
        agree = b == row
        counts[i] = agree.sum(axis=1)
        first[i] = row[agree.argmax(axis=1)]
    return counts, first


def is_ufs(l1: LatinSquare, l2: LatinSquare) -> bool:
    """Every row of l1 meets every row of l2 in exactly one column."""
    same = l1.order == l2.order and l1.min_symbol == l2.min_symbol
    return same and bool((_agreements(l1, l2)[0] == 1).all())


def compose_ufs(l1: LatinSquare, l2: LatinSquare) -> LatinSquare:
    """Square whose (i, j) cell is the symbol where row i of l1 agrees with
    row j of l2. Raises NotUfs when some agreement is not unique."""
    if l1.order != l2.order or l1.min_symbol != l2.min_symbol:
        raise NotUfs("orders or symbol ranges differ")
    counts, first = _agreements(l1, l2)
    if (counts != 1).any():
        i, j = np.argwhere(counts != 1)[0]
        raise NotUfs(f"rows {i}, {j} agree {counts[i, j]} times")
    return LatinSquare(l1.order, l1.min_symbol, tuple(map(tuple, first.tolist())))


def circle_symmetric(v: int) -> LatinSquare:
    """Symmetric order-v square with zero diagonal from the rotating
    one-factorization of the complete graph (one fixed vertex, v-1 rotating).

    Cell (x, y) holds 1 plus the index of the factor pairing x with y.
    Distinct rows never agree in any column.
    """
    if v % 2:
        raise OddOrder(f"no one-factorization of an odd order ({v})")
    m = v - 1
    half = v // 2  # inverse of 2 modulo the odd m
    cells = [[0] * v for _ in range(v)]
    for x in range(m):
        for y in range(m):
            if x != y:
                cells[x][y] = (x + y) * half % m + 1
        cells[x][m] = cells[m][x] = x + 1
    return LatinSquare(order=v, min_symbol=0, cells=tuple(tuple(r) for r in cells))


def affine_ufs_family(q: int) -> list[LatinSquare]:
    """The q-1 symmetric squares a*(i+j) over the q-element field.

    Pairwise UFS, and within one square distinct rows never agree.
    """
    return _affine_squares(GF(q), range(1, q))


def _affine_squares(field: GF, multipliers: Iterable[int]) -> list[LatinSquare]:
    """The squares a*(i+j) over field for each nonzero a in multipliers,
    forming every sum i + j once."""
    q = field.q
    sums = [[field.add(i, j) for j in range(q)] for i in range(q)]
    out = []
    for a in multipliers:
        cells = tuple(tuple(field.mul(a, s) for s in row) for row in sums)
        out.append(LatinSquare(order=q, min_symbol=0, cells=cells))
    return out


def force_constant_diagonal(square: LatinSquare, symbol: int) -> LatinSquare:
    """Permute rows so the diagonal is constant.

    Row i of the result is the row holding the symbol in column i. Latinity
    and every cross-square UFS relation survive; symmetry in general does not.
    """
    if symbol not in square.symbols:
        raise ValueError(f"symbol {symbol} outside {square.symbols}")
    hits = np.array(square.cells, dtype=object) == symbol
    if not (hits.sum(axis=0) == 1).all():
        raise ValueError("square is not Latin in some column")
    cells = tuple(square.cells[r] for r in hits.argmax(axis=0))
    return LatinSquare(order=square.order, min_symbol=square.min_symbol, cells=cells)


def with_min_symbol(square: LatinSquare, min_symbol: int) -> LatinSquare:
    """Shift every symbol so the smallest becomes min_symbol."""
    shift = min_symbol - square.min_symbol
    if shift == 0:
        return square
    cells = tuple(tuple(c + shift for c in row) for row in square.cells)
    return LatinSquare(order=square.order, min_symbol=min_symbol, cells=cells)


def parse_latin(text: str) -> LatinSquare:
    """Read the two-int header line (order, min symbol) then the cell rows."""
    tokens: list[list[str]] = []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line:
            tokens.append(line.split())
    if not tokens or len(tokens[0]) != 2:
        raise ParseError("expected a header line with order and min symbol")
    try:
        order, min_symbol = int(tokens[0][0]), int(tokens[0][1])
        rows = [tuple(int(t) for t in row) for row in tokens[1:]]
    except ValueError as exc:
        raise ParseError(f"bad integer token: {exc}") from None
    if len(rows) != order:
        raise ParseError(f"expected {order} rows, found {len(rows)}")
    return LatinSquare(order=order, min_symbol=min_symbol, cells=tuple(rows))


def serialize_latin(square: LatinSquare) -> str:
    lines = [f"{square.order} {square.min_symbol}"]
    for row in square.cells:
        lines.append(" ".join(str(c) for c in row))
    return "\n".join(lines) + "\n"
