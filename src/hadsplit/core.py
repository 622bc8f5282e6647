"""Exact integer matrices and Hadamard matrix primitives.

Every matrix is a read-only numpy int64 array. Each operation bounds its
entries and intermediates first and raises OverflowError when the bound
reaches 2**62, so int64 never wraps; nothing the package builds comes near.

Every matrix product goes through exact_matmul, which picks one of three
routes from bound = max|A| * max|B| * inner dimension:

  float32: bound < 2**24. Each entry, each term a_ik b_kj and each partial
    sum of terms is an integer of absolute value at most bound, and every
    integer below 2**24 is a float32, so no addition or fused multiply-add
    ever rounds: the result is exact whatever order BLAS sums in. The class
    matrices of a scheme on fewer than 2**24 points always take this route.
  float64: bound < 2**53, by the same argument with the float64 mantissa.
  int64: bound < 2**62, so no partial sum can overflow.

The product comes back in its route's dtype: float32, float64 or int64,
each entry an exact integer of absolute value at most the route's bound.
A caller that only compares or counts its entries uses it as it is:
_check_hadamard here, check_split and direct_srg_params, the scheme closure
checks and eigvec_search. Only a caller that keeps a product or does
arithmetic on its entries widens it to int64, where it does so: IntMatrix @
here, and in schemes the auxiliary Gram and the scaling in lemma_c_ok.
"""

from __future__ import annotations

import math
import re
import struct
from typing import Iterable

import numpy as np

__all__ = [
    "HadsplitError",
    "ParseError",
    "IntMatrix",
    "HadamardMatrix",
    "SkewCore",
    "kronecker",
    "sylvester",
    "normalize",
    "paley_skew_core",
    "conference_from_core",
    "parse_matrix",
    "serialize_matrix",
]
# exact_matmul is importable but not exported: it works on the raw arrays of
# the package's own modules, and IntMatrix @ is the public product.

# Products whose bound max|A| * max|B| * inner_dim stays below these are
# exact in float32, float64 and int64 respectively (see the module docstring).
_FLOAT32_EXACT = 2**24
_FLOAT64_EXACT = 2**53
_INT64_SAFE = 2**62


class HadsplitError(Exception):
    """Base for all library errors."""


class ParseError(HadsplitError):
    """Malformed matrix or Latin square text."""


def _as_array(rows: Iterable[Iterable[int]] | np.ndarray | IntMatrix) -> np.ndarray:
    if isinstance(rows, IntMatrix):  # already checked and read-only
        return rows.array
    built = False
    if isinstance(rows, (list, tuple)):
        guess = _typed_rows(rows)
        if guess is None:
            try:
                guess = np.array(rows)
            except (TypeError, ValueError):  # ragged or odd rows: the loop below reports them
                guess = None
        if guess is not None and (guess.dtype.kind in "biu" or guess.ndim != 2):
            rows, built = guess, True
    if isinstance(rows, np.ndarray) and rows.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {rows.shape}")
    if isinstance(rows, np.ndarray) and rows.size and rows.dtype.kind in "biu":
        _check_bound(_max_abs(rows))
        # copy a caller's array, which the caller keeps, but not one built here
        arr = rows.astype(np.int64, copy=not built)
    else:
        data = [[_integer(v) for v in row] for row in rows]
        if not data or not data[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(data[0])
        for row in data:
            if len(row) != width:
                raise ValueError("ragged rows")
        _check_bound(max(abs(v) for row in data for v in row))
        arr = np.array(data, dtype=np.int64)
    arr.setflags(write=False)
    return arr


def _typed_rows(rows: list | tuple) -> np.ndarray | None:
    """Rectangular rows that are lists of ints, read in one int64 pass.

    One struct.Struct of width "q" fields packs each row into its place in
    one preallocated array, so the matrix is allocated once and never
    copied. A "q" field takes an int, a bool or anything with __index__
    (numpy integer scalars among them); pack_into raises struct.error on a
    float, str, None or Fraction, on an int past int64 and on a row of
    another length. On that error or one that an entry's own __index__
    raises, an empty first row, or a row that is not a list, this returns
    None and _as_array reads the rows the general way, which decides what
    is accepted and raises its own errors.
    """
    if not rows or not isinstance(rows[0], list) or not rows[0]:
        return None
    width = len(rows[0])
    out = np.empty((len(rows), width), dtype=np.int64)
    pack = struct.Struct(f"{width}q").pack_into
    try:
        for i, row in enumerate(rows):
            if not isinstance(row, list):
                return None
            pack(out, 8 * width * i, *row)
    except (struct.error, TypeError, ValueError, OverflowError):
        return None
    return out


def _integer(v) -> int:
    try:
        i = int(v)
    except TypeError as exc:  # None, a list: no int() at all
        raise ValueError(f"entry {v!r} is not an integer") from exc
    if i != v:
        raise ValueError(f"entry {v!r} is not an integer")
    return i


def _max_abs(arr: np.ndarray) -> int:
    if arr.size == 0:
        return 0
    # max and min, not abs: abs of the most negative int64 wraps
    return max(int(arr.max()), -int(arr.min()))


def _bound(*factors: np.ndarray | int) -> int:
    """Product of the factors' magnitudes (max|x| for an array).

    A zero factor counts as 1, so a huge factor next to a zero one still
    gives a huge bound and raises in _check_bound.
    """
    out = 1
    for f in factors:
        out *= max(_max_abs(f) if isinstance(f, np.ndarray) else abs(f), 1)
    return out


def _check_bound(bound: int) -> None:
    """Raise OverflowError unless bound, which must cover every entry and
    intermediate of an operation, is below 2**62, where int64 is exact."""
    if bound >= _INT64_SAFE:
        raise OverflowError(f"integer bound {bound} reaches 2**62, past exact int64 arithmetic")


def exact_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Exact product of two 2-D integer arrays (or stacks of them).

    Computed and returned in float32 when bound = max|A| * max|B| * inner
    is below 2**24, in float64 when it is below 2**53, and in int64 when it
    is below 2**62; a larger bound raises OverflowError. Every entry is an
    integer of absolute value at most bound, held exactly in the returned
    dtype (see the module docstring). Comparing or counting entries is
    exact in any of the three; a caller that keeps the product or does
    arithmetic on it widens it with astype(np.int64) first.
    """
    if a.shape[-1] != b.shape[-2]:
        raise ValueError("inner dimension mismatch")
    bound = _bound(a, b, a.shape[-1])
    if bound < _FLOAT64_EXACT:
        real = np.float32 if bound < _FLOAT32_EXACT else np.float64
        return a.astype(real) @ b.astype(real)
    _check_bound(bound)
    return a.astype(np.int64, copy=False) @ b.astype(np.int64, copy=False)


class IntMatrix:
    """Immutable exact integer matrix; a non-integer entry raises ValueError."""

    __slots__ = ("_a",)

    def __init__(self, rows: Iterable[Iterable[int]] | np.ndarray | IntMatrix):
        self._a = _as_array(rows)

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "IntMatrix":
        m = object.__new__(IntMatrix)
        arr.setflags(write=False)
        m._a = arr
        return m

    @classmethod
    def zeros(cls, nrows: int, ncols: int | None = None) -> "IntMatrix":
        ncols = nrows if ncols is None else ncols
        return cls._wrap(np.zeros((nrows, ncols), dtype=np.int64))

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls._wrap(np.eye(n, dtype=np.int64))

    @classmethod
    def ones(cls, nrows: int, ncols: int | None = None) -> "IntMatrix":
        ncols = nrows if ncols is None else ncols
        return cls._wrap(np.ones((nrows, ncols), dtype=np.int64))

    @property
    def array(self) -> np.ndarray:
        """The entries as a read-only int64 array, each below 2**62 in magnitude."""
        return self._a

    @property
    def shape(self) -> tuple[int, int]:
        return self._a.shape  # type: ignore[return-value]

    @property
    def nrows(self) -> int:
        return self._a.shape[0]

    @property
    def ncols(self) -> int:
        return self._a.shape[1]

    @property
    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, ij: tuple[int, int]) -> int:
        return int(self._a[ij])

    def row(self, i: int) -> tuple[int, ...]:
        return tuple(self._a[i].tolist())

    def tolist(self) -> list[list[int]]:
        return self._a.tolist()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntMatrix):
            return NotImplemented
        if self.shape != other.shape:
            return False
        return bool(np.array_equal(self._a, other._a))

    def __hash__(self) -> int:
        return hash((self.shape, tuple(int(v) for v in self._a.flat)))

    def __repr__(self) -> str:
        return f"IntMatrix({self.nrows}x{self.ncols})"

    def _binary(self, other: "IntMatrix", op) -> "IntMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        _check_bound(_max_abs(self._a) + _max_abs(other._a))
        return IntMatrix._wrap(op(self._a, other._a))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return self._binary(other, lambda a, b: a + b)

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return self._binary(other, lambda a, b: a - b)

    def __neg__(self) -> "IntMatrix":
        return IntMatrix._wrap(-self._a)

    def __rmul__(self, k: int) -> "IntMatrix":
        if not isinstance(k, int):
            return NotImplemented
        _check_bound(_bound(k, self._a))
        return IntMatrix._wrap(k * self._a)

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix._wrap(exact_matmul(self._a, other._a).astype(np.int64, copy=False))

    @property
    def T(self) -> "IntMatrix":
        return IntMatrix._wrap(self._a.T.copy())

    def is_symmetric(self) -> bool:
        return self.is_square and bool(np.array_equal(self._a, self._a.T))

    def row_sums(self) -> tuple[int, ...]:
        _check_bound(_bound(self._a, self.ncols))
        return tuple(int(v) for v in self._a.sum(axis=1))

    def col_sums(self) -> tuple[int, ...]:
        _check_bound(_bound(self._a, self.nrows))
        return tuple(int(v) for v in self._a.sum(axis=0))


def kronecker(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """Kronecker product, exact: a[i, j] * b[k, l] is written to [i, k, j, l]
    of one array, whose reshape puts it at row i*r + k, column j*t + l."""
    _check_bound(_bound(a._a, b._a))
    (p, q), (r, t) = a.shape, b.shape
    out = np.empty((p, r, q, t), dtype=np.int64)
    np.multiply(a._a[:, None, :, None], b._a[None, :, None, :], out=out)
    return IntMatrix._wrap(out.reshape(p * r, q * t))


class HadamardMatrix(IntMatrix):
    """Square +-1 matrix H with H Ht = nI."""

    __slots__ = ()

    def __init__(self, rows: Iterable[Iterable[int]] | np.ndarray | IntMatrix):
        super().__init__(rows)
        _check_hadamard(self)

    @classmethod
    def from_matrix(cls, m: IntMatrix) -> "HadamardMatrix":
        return cls(m)

    @property
    def order(self) -> int:
        return self.nrows


def _check_hadamard(m: IntMatrix) -> None:
    if not m.is_square:
        raise ValueError("Hadamard matrix must be square")
    a = m._a
    # every entry in [-1, 1] and none of them 0, with no temporary array
    if a.min() < -1 or a.max() > 1 or np.count_nonzero(a) != a.size:
        raise ValueError("entries must be +-1")
    n = m.nrows
    g = exact_matmul(a, a.T)
    # n nonzero entries, all of them n on the diagonal, is g = nI
    if not (np.all(np.diagonal(g) == n) and np.count_nonzero(g) == n):
        raise ValueError("rows are not orthogonal")


def _proved_hadamard(arr: np.ndarray) -> HadamardMatrix:
    """Wrap arr as a HadamardMatrix without re-proving HHt = nI.

    Only for a +-1 int64 array whose orthogonality an identity already
    proves; each caller states that identity in its docstring.
    """
    arr.setflags(write=False)
    out = object.__new__(HadamardMatrix)
    out._a = arr
    return out


def sylvester(m_exponent: int) -> HadamardMatrix:
    """Sylvester matrix of order n = 2**m_exponent, filled in place by
    doubling: the k x k block H in the top-left corner is copied to the
    right of it and below it, and its negation is written diagonally,
    giving [[H, H], [H, -H]] = B kron H = H kron B, B = [[1, 1], [1, -1]].

    Not re-proved: BBt = 2I, and (B kron H)(B kron H)t = BBt kron HHt, so
    each doubling doubles the Gram, and the n x n matrix has Gram nI.
    """
    if m_exponent < 0:
        raise ValueError("exponent must be nonnegative")
    n = 1 << m_exponent
    h = np.empty((n, n), dtype=np.int64)
    h[0, 0] = 1
    k = 1
    while k < n:
        top = h[:k, :k]
        h[:k, k : 2 * k] = top
        h[k : 2 * k, :k] = top
        np.negative(top, out=h[k : 2 * k, k : 2 * k])
        k *= 2
    return _proved_hadamard(h)


def _resigned(h: HadamardMatrix, rows: np.ndarray, cols: np.ndarray) -> HadamardMatrix:
    """D1 H D2 for the +-1 diagonals D1 = diag(rows), D2 = diag(cols).

    Not re-proved: (D1 H D2)(D1 H D2)t = D1 H Ht D1 = n D1 D1 = nI.
    """
    return _proved_hadamard(rows[:, None] * h._a * cols[None, :])


def normalize(h: HadamardMatrix) -> HadamardMatrix:
    """Flip row and column signs so the first row and column are all-ones."""
    a = h._a
    return _resigned(h, a[:, 0] * a[0, 0], a[0])


class SkewCore:
    """Core matrix Q of order q with QQt = qI - J, QJ = JQ = O, Qt = -Q,
    zero on the diagonal and +-1 off it.

    QQt is the one product; QJ and JQ are the row and column sums.
    """

    __slots__ = ("q", "matrix")

    def __init__(self, matrix: IntMatrix):
        q = matrix.nrows
        if not matrix.is_square:
            raise ValueError("core must be square")
        if not np.array_equal(np.abs(matrix._a), 1 - np.eye(q, dtype=np.int64)):
            raise ValueError("core entries must be 0 on the diagonal and +-1 off it")
        if matrix @ matrix.T != q * IntMatrix.identity(q) - IntMatrix.ones(q):
            raise ValueError("core Gram condition failed")
        if any(matrix.row_sums()) or any(matrix.col_sums()):
            raise ValueError("core row and column sums must vanish")
        if matrix.T != -matrix:
            raise ValueError("core must be skew symmetric")
        self.q = q
        self.matrix = matrix

    def __repr__(self) -> str:
        return f"SkewCore(q={self.q})"


def paley_skew_core(q: int) -> SkewCore:
    """Quadratic residue core over GF(q), q = 3 mod 4 a prime power."""
    from .gf import GF

    if q % 4 != 3:
        raise ValueError("q must be 3 mod 4")
    field = GF(q)
    elems = field.elements()
    rows = []
    for x in elems:
        minus_x = field.neg(x)
        rows.append([field.chi(field.add(y, minus_x)) for y in elems])
    return SkewCore(IntMatrix(rows))


def conference_from_core(core: SkewCore) -> IntMatrix:
    """Skew conference matrix C = [[0, jt], [-j, Q]] of order q+1.

    SkewCore proved QQt = qI - J, QJ = 0 and Qt = -Q, so blockwise CCt = qI
    and Ct = -C; neither is re-checked.
    """
    q = core.q
    c = np.zeros((q + 1, q + 1), dtype=np.int64)
    c[0, 1:] = 1
    c[1:, 0] = -1
    c[1:, 1:] = core.matrix.array
    return IntMatrix._wrap(c)


# Entries parsed per block in parse_matrix: 128 rows at n = 256.
_PARSE_TOKENS = 2**15
# Byte classes for parse_matrix: what str.split() splits on, digits, signs,
# and the rest (every non-ASCII byte among them).
_BLANK, _DIGIT, _SIGN, _OTHER = range(4)
_CLASS = bytes(
    _BLANK if chr(c).isspace() else _DIGIT if chr(c).isdigit() else _SIGN if c in b"+-" else _OTHER
    for c in range(128)
) + bytes([_OTHER] * 128)
# every whitespace character but the newline, for text that is not ASCII
_NON_NEWLINE_SPACE = re.compile(r"[^\S\n]")
# the line breaks str.splitlines honours besides the newline, each mapped
# to a newline ("\r\n" becomes a blank line, which is skipped)
_OTHER_BREAKS = "\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"
_TO_NEWLINE = str.maketrans(dict.fromkeys(_OTHER_BREAKS, "\n"))
# the byte path reads at most 18 digits: 10**18 - 1 < 2**62
_MAX_DIGITS = 18
_POW10 = 10 ** np.arange(_MAX_DIGITS, dtype=np.int64)


def parse_matrix(text: str) -> IntMatrix:
    """Parse the plain text matrix format.

    First non-comment line holds "nrows ncols"; each following line holds one
    row, entries separated by whitespace. For sign matrices the tokens "+"
    and "-" are accepted as 1 and -1. Lines starting with "#" are ignored.

    Entries are read as bytes with numpy, a block of rows at a time. Tokens
    [+-]?[0-9]{1,18} and lone signs are converted from their digit places;
    every other token is passed to int(), which accepts or rejects it as a
    per-token int() would. Of several faults the first line's is reported,
    and on that line a wrong entry count before the leftmost bad entry.
    """
    if any(c in text for c in _OTHER_BREAKS):
        text = text.translate(_TO_NEWLINE)
    lines = [ln for ln in text.split("\n") if (s := ln.lstrip()) and s[0] != "#"]
    if not lines:
        raise ParseError("empty input")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"header must be 'nrows ncols', got {lines[0]!r}")
    try:
        nrows, ncols = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ParseError(f"bad header: {lines[0]!r}") from exc
    if nrows <= 0 or ncols <= 0:
        raise ParseError("dimensions must be positive")
    if len(lines) - 1 != nrows:
        raise ParseError(f"expected {nrows} rows, got {len(lines) - 1}")
    # every entry takes a character of text, so past len(text) entries some
    # row holds a wrong count, which the scan reports before storing anything
    room = nrows * ncols <= len(text)
    out = np.empty((nrows, ncols if room else 0), dtype=np.int64)
    step = max(1, _PARSE_TOKENS // ncols)
    # entries of 2**62 and above are reported only once every line has parsed
    largest = max(
        _parse_rows(lines[1 + start : 1 + start + step], ncols, out[start : start + step])
        for start in range(0, nrows, step)
    )
    _check_bound(largest)
    return IntMatrix._wrap(out)


def _parse_rows(lines: list[str], ncols: int, out: np.ndarray) -> int:
    """Fill out with the entries of lines, one row of ncols each; return the
    largest magnitude that int() produced (0 if none), or raise ParseError.

    Every step is one numpy pass over the block's bytes or tokens. The
    edges of the non-blank bytes bound the tokens. A token of up to 18
    digits is built over its digit places, least significant first: each
    place is one np.take of the block's digit bytes, times its power of ten,
    added in place into int64. A token with fewer digits reads the blank
    byte before it there, whose digit is 0. When every row of the block is
    plain, the values are built in out itself. Every other token but a
    packed sign string goes through int() in reading order. On 300 x 300
    all-distinct 19-digit entries, all of which do, a whole parse took
    87-91 ms, against 1.2-1.9 ms for a 256 x 256 sign matrix (numpy 2.4,
    one core of a shared 2-vCPU Xeon VM).
    """
    text = "\n" + "\n".join(lines) + "\n"
    if not text.isascii():
        # re's \s is str.isspace, the set str.split() splits on
        text = _NON_NEWLINE_SPACE.sub(" ", text)
    raw = text.encode("utf-8", "surrogatepass")
    buf = np.frombuffer(raw, dtype=np.uint8)
    kind = np.frombuffer(raw.translate(_CLASS), dtype=np.uint8)
    word = kind != _BLANK
    # text starts and ends with a newline, so the edges between blank and
    # token bytes pair up: (the blank byte before a token, its last byte)
    before, last = np.flatnonzero(word[1:] != word[:-1]).reshape(-1, 2).T.copy()
    # first[i] is the index of line i's first token; first[-1] counts them all
    first = np.searchsorted(before, np.flatnonzero(buf == ord("\n")))
    count = np.diff(first)
    lead = np.take(buf[1:], before)
    minus = lead == ord("-")
    ndig = last - before
    ndig -= minus | (lead == ord("+"))

    # tokens holding a byte other than a digit or one leading sign
    odd = np.flatnonzero((kind[1:] == _OTHER) | ((kind[1:] == _SIGN) & word[:-1]))
    width = int(ndig.max())
    regular = None
    if odd.size or width > _MAX_DIGITS:
        regular = ndig <= _MAX_DIGITS
        regular[np.searchsorted(before, odd, side="right") - 1] = False
        width = int(ndig.max(initial=0, where=regular))

    # a row given as one token of ncols > 1 signs, like "+--+"
    packed = (count == 1) & (ncols > 1)
    if packed.any():
        signs = np.cumsum(kind == _SIGN)
        tok = first[:-1][packed]
        packed[packed] = signs[last[tok]] - signs[before[tok]] == last[tok] - before[tok]
    packed_tokens = first[:-1][packed]
    entries = count.copy()
    entries[packed] = last[packed_tokens] - before[packed_tokens]
    wrong = np.flatnonzero(entries != ncols)
    faulty = int(wrong[0]) if wrong.size else len(lines)

    values = out.reshape(-1) if len(last) == out.size else np.empty(len(last), dtype=np.int64)
    digit = (buf - ord("0")) * (kind == _DIGIT)
    values[...] = np.take(digit, last)
    fewest = int(ndig.min())
    for shift in range(1, width):
        place = last - shift
        if shift >= fewest:
            # a token of fewer digits reads the byte before it, whose digit is 0
            np.maximum(place, before, out=place)
        values += np.take(digit, place) * _POW10[shift]
    # a lone sign has no digits and stands for 1
    values += ndig == 0
    values *= 1 - 2 * minus.view(np.int8)

    largest = 0
    if regular is not None:
        regular[packed_tokens] = True
        # int() on the other tokens in reading order, up to the first wrong count
        others = np.flatnonzero(~regular[: first[faulty]])
        ints = []
        for a, b in zip(before[others].tolist(), last[others].tolist()):
            token = raw[a + 1 : b + 1].decode("utf-8", "surrogatepass")
            try:
                ints.append(int(token))
            except ValueError as exc:
                raise ParseError(f"bad entry {token!r}") from exc
        largest = max(map(abs, ints), default=0)
        if largest < _INT64_SAFE:
            values[others] = ints
    if wrong.size:
        raise ParseError(f"expected {ncols} entries, got {entries[faulty]}: {lines[faulty]!r}")
    if packed_tokens.size:
        out[~packed] = np.delete(values, packed_tokens).reshape(-1, ncols)
        signs = buf[before[packed_tokens, None] + np.arange(1, ncols + 1)]
        out[packed] = np.where(signs == ord("+"), 1, -1)
    return largest


# serialize_matrix deletes the padding and maps the separator to a space
_SEPARATOR = bytes.maketrans(b"\t", b" ")


def serialize_matrix(m: IntMatrix) -> str:
    """Inverse of parse_matrix; always emits decimal entries.

    One bytes % formats every distinct value once into a table, a row per
    value: the value right-aligned in spaces and a tab, in a power-of-two
    number of bytes. np.take copies each entry's row out of the table by the
    index of its value among the sorted distinct values (searchsorted), the
    last tab of each matrix row becomes a newline, and one bytes.translate
    deletes the padding and turns the tabs into spaces. On 300 x 300
    all-distinct entries near +-2**62 a call took 41-48 ms, mostly the
    formatting and searchsorted, against 0.7-1.0 ms for a 256 x 256 sign
    matrix (numpy 2.4, one core of a shared 2-vCPU Xeon VM).
    """
    a = m.array
    ordered = np.sort(a, axis=None)
    values = ordered[np.concatenate(([True], ordered[1:] != ordered[:-1]))]
    # the longest word is the smallest or the largest value's
    width = max(len(str(values[0])), len(str(values[-1])))
    row = 1 << width.bit_length()
    words = (b"%%%dd\t" % (row - 1)) * len(values) % tuple(values.tolist())
    table = np.frombuffer(words, dtype=f"V{row}")
    cells = np.take(table, np.searchsorted(values, a)).view(np.uint8)
    cells = cells.reshape(m.nrows, m.ncols, row)
    cells[:, -1, -1] = ord("\n")
    return f"{m.nrows} {m.ncols}\n" + cells.tobytes().translate(_SEPARATOR, b" ").decode("ascii")


def isqrt_exact(n: int) -> int | None:
    """Integer square root if n is a perfect square, else None."""
    if n < 0:
        return None
    r = math.isqrt(n)
    return r if r * r == n else None
