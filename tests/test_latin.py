import tracemalloc
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hadsplit.core import ParseError
from hadsplit.gf import GF, NotPrimePower
from hadsplit.latin import (
    LatinSquare,
    NotUfs,
    OddOrder,
    _affine_squares,
    affine_ufs_family,
    circle_symmetric,
    compose_ufs,
    force_constant_diagonal,
    is_ufs,
    parse_latin,
    serialize_latin,
    with_min_symbol,
)


@pytest.mark.parametrize("v", [2, 4, 6, 8, 10, 12])
def test_circle_symmetric_properties(v):
    sq = circle_symmetric(v)
    assert sq.order == v
    assert sq.min_symbol == 0
    assert sq.is_latin()
    assert sq.is_symmetric()
    assert sq.has_constant_diagonal(0)
    # distinct rows never agree in any column
    for i in range(v):
        for j in range(i + 1, v):
            assert all(sq.cells[i][c] != sq.cells[j][c] for c in range(v))


def test_circle_rejects_odd_order():
    with pytest.raises(OddOrder):
        circle_symmetric(5)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_affine_family_is_pairwise_ufs(q):
    fam = affine_ufs_family(q)
    assert len(fam) == q - 1
    for sq in fam:
        assert sq.order == q
        assert sq.min_symbol == 0
        assert sq.is_latin()
        assert sq.is_symmetric()
    assert all(is_ufs(x, y) for x, y in combinations(fam, 2))


def test_affine_family_needs_prime_power():
    with pytest.raises(NotPrimePower):
        affine_ufs_family(6)


def test_within_square_rows_never_agree():
    for sq in affine_ufs_family(7):
        for i in range(7):
            for j in range(i + 1, 7):
                assert all(sq.cells[i][c] != sq.cells[j][c] for c in range(7))


def test_compose_ufs_is_latin():
    a, b = affine_ufs_family(7)[:2]
    comp = compose_ufs(a, b)
    assert comp.is_latin()
    assert comp.min_symbol == 0


def test_compose_triple_chain():
    fam = affine_ufs_family(7)
    first = compose_ufs(fam[0], fam[1])
    assert first.is_latin()
    assert not first.is_symmetric()
    assert is_ufs(first, fam[0])
    second = compose_ufs(first, fam[0])
    assert second.is_latin()
    # composition order matters
    assert compose_ufs(fam[1], fam[0]).cells != first.cells


def test_compose_rejects_non_ufs_pair():
    sq = affine_ufs_family(5)[0]
    # a square always agrees with itself a full row at a time
    with pytest.raises(NotUfs):
        compose_ufs(sq, sq)


def test_compose_rejects_mismatched_symbols():
    a = affine_ufs_family(5)[0]
    b = with_min_symbol(affine_ufs_family(5)[1], 1)
    with pytest.raises(NotUfs):
        compose_ufs(a, b)


def _ufs_by_loops(l1, l2):
    """The cell-by-cell test that `is_ufs` replaced, kept as its reference."""
    if l1.order != l2.order or l1.min_symbol != l2.min_symbol:
        return False
    m = l1.order
    for i in range(m):
        for j in range(m):
            hits = sum(l1.cells[i][c] == l2.cells[j][c] for c in range(m))
            if hits != 1:
                return False
    return True


def _compose_by_loops(l1, l2):
    """The cell-by-cell composition that `compose_ufs` replaced."""
    if l1.order != l2.order or l1.min_symbol != l2.min_symbol:
        raise NotUfs("orders or symbol ranges differ")
    m = l1.order
    out = []
    for i in range(m):
        row = []
        for j in range(m):
            hits = [c for c in range(m) if l1.cells[i][c] == l2.cells[j][c]]
            if len(hits) != 1:
                raise NotUfs(f"rows {i}, {j} agree {len(hits)} times")
            row.append(l1.cells[i][hits[0]])
        out.append(tuple(row))
    return LatinSquare(order=m, min_symbol=l1.min_symbol, cells=tuple(out))


def _diagfix_by_loops(square, symbol):
    """The column-by-column scan that `force_constant_diagonal` replaced."""
    m = square.order
    perm = []
    for i in range(m):
        matches = [r for r in range(m) if square.cells[r][i] == symbol]
        if len(matches) != 1:
            raise ValueError("square is not Latin in some column")
        perm.append(matches[0])
    cells = tuple(square.cells[perm[i]] for i in range(m))
    return LatinSquare(order=m, min_symbol=square.min_symbol, cells=cells)


@st.composite
def grid_pairs(draw):
    """Two grids over k = 2..4 symbols: free cells of order 1..6, or members
    of GF(k)'s affine family with their rows permuted, which are Latin and
    UFS unless they are the same member."""
    k = draw(st.integers(2, 4))
    lo = draw(st.sampled_from([0, 1, 2**63 - 2]))  # the last spans int64's end
    if draw(st.booleans()):
        m, fam = k, [with_min_symbol(sq, lo).cells for sq in affine_ufs_family(k)]

        def grid():
            cells = draw(st.sampled_from(fam))
            return tuple(cells[r] for r in draw(st.permutations(range(m))))

    else:
        m = draw(st.integers(1, 6))
        row = st.tuples(*[st.integers(lo, lo + k - 1)] * m)

        def grid():
            return draw(st.tuples(*[row] * m))

    shift = draw(st.sampled_from([0, 0, 0, 1]))
    return LatinSquare(m, lo, grid()), LatinSquare(m, lo + shift, grid())


@settings(max_examples=300, deadline=None)
@given(pair=grid_pairs())
def test_agreement_table_and_diagonal_repair_match_the_loops(pair):
    a, b = pair
    assert is_ufs(a, b) == _ufs_by_loops(a, b)
    try:
        fixed = _diagfix_by_loops(a, a.min_symbol)
    except ValueError:
        with pytest.raises(ValueError, match="not Latin in some column"):
            force_constant_diagonal(a, a.min_symbol)
    else:
        assert force_constant_diagonal(a, a.min_symbol) == fixed
    try:
        want = _compose_by_loops(a, b)
    except NotUfs as exc:
        with pytest.raises(NotUfs) as got:
            compose_ufs(a, b)
        assert str(got.value) == str(exc)
        return
    got = compose_ufs(a, b)
    assert got == want
    assert all(type(c) is int for row in got.cells for c in row)


@pytest.mark.parametrize("fixed", [False, True])
@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_swapped_composition_is_the_transpose(q, fixed):
    fam = affine_ufs_family(q)
    if fixed:
        fam = [force_constant_diagonal(sq, 0) for sq in fam]
    for a, b in combinations(fam, 2):
        ab = compose_ufs(a, b).cells
        assert compose_ufs(b, a).cells == tuple(zip(*ab))
        assert all(type(c) is int for row in ab for c in row)


def test_compose_ufs_compares_a_row_at_a_time():
    # order 256: int64 copies of both squares and the two m x m tables take
    # 2 MiB, one row's comparison 64 KiB; an m x m x m comparison would
    # take 16 MiB
    a, b = _affine_squares(GF(256), [1, 2])
    compose_ufs(a, b)
    tracemalloc.start()
    try:
        c = compose_ufs(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert c.order == 256 and c.is_latin()
    assert peak < 4 * 2**20


def test_force_constant_diagonal_preserves_structure():
    fam = affine_ufs_family(9)
    fixed = [force_constant_diagonal(sq, 0) for sq in fam]
    for sq in fixed:
        assert sq.is_latin()
        assert sq.has_constant_diagonal(0)
    assert all(is_ufs(x, y) for x, y in combinations(fixed, 2))


def test_force_constant_diagonal_validates_symbol():
    sq = affine_ufs_family(5)[0]
    with pytest.raises(ValueError):
        force_constant_diagonal(sq, 7)


def test_with_min_symbol_shifts():
    sq = affine_ufs_family(5)[0]
    shifted = with_min_symbol(sq, 1)
    assert shifted.min_symbol == 1
    assert shifted.is_latin()
    assert set(shifted.symbols) == set(range(1, 6))
    assert with_min_symbol(shifted, 0).cells == sq.cells
    assert with_min_symbol(sq, 0) is sq


def test_latin_square_validation():
    with pytest.raises(ValueError):
        LatinSquare(order=2, min_symbol=0, cells=((0,),))
    with pytest.raises(ValueError):
        LatinSquare(order=0, min_symbol=0, cells=())
    sq = LatinSquare(order=2, min_symbol=0, cells=((0, 0), (0, 0)))
    assert not sq.is_latin()
    # every row is a permutation, column 0 repeats 0
    sq = LatinSquare(order=3, min_symbol=0, cells=((0, 1, 2), (0, 2, 1), (1, 2, 0)))
    assert not sq.is_latin()


def test_getitem_and_symbols():
    sq = circle_symmetric(4)
    assert sq[0, 0] == 0
    assert list(sq.symbols) == [0, 1, 2, 3]


def test_parse_serialize_round_trip():
    for sq in (circle_symmetric(6), affine_ufs_family(7)[3]):
        text = serialize_latin(sq)
        again = parse_latin(text)
        assert again == sq
        assert serialize_latin(again) == text


def test_parse_accepts_comments():
    sq = parse_latin("# header\n2 5\n5 6\n6 5\n")
    assert sq.order == 2
    assert sq.min_symbol == 5
    assert sq.is_latin()


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_latin("")
    with pytest.raises(ParseError):
        parse_latin("3\n0 1 2\n")
    with pytest.raises(ParseError):
        parse_latin("2 0\n0 1\n")
    with pytest.raises(ParseError):
        parse_latin("2 0\n0 x\n1 0\n")
