import hashlib
import json
import random
from time import perf_counter

import numpy as np
import pytest

from hadsplit.gf import GF, NotPrimePower, factor_prime_power, is_prime_power


@pytest.mark.parametrize(
    "q,p,e",
    [(2, 2, 1), (3, 3, 1), (4, 2, 2), (8, 2, 3), (9, 3, 2), (25, 5, 2), (27, 3, 3), (49, 7, 2)],
)
def test_factor_prime_power(q, p, e):
    assert factor_prime_power(q) == (p, e)
    assert is_prime_power(q)


@pytest.mark.parametrize("q", [1, 6, 10, 12, 15, 100])
def test_not_prime_power(q):
    assert not is_prime_power(q)
    with pytest.raises(NotPrimePower):
        factor_prime_power(q)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_field_axioms(q):
    f = GF(q)
    els = f.elements()
    assert len(els) == q
    for x in els:
        assert f.add(x, 0) == x
        assert f.mul(x, 1) == x
        assert f.mul(x, 0) == 0
        assert f.add(x, f.neg(x)) == 0
        if x:
            assert f.mul(x, f.inv(x)) == 1
    # commutativity and distributivity on the full table
    for x in els:
        for y in els:
            assert f.add(x, y) == f.add(y, x)
            assert f.mul(x, y) == f.mul(y, x)
            for z in els:
                assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))


def test_inverse_of_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        GF(7).inv(0)


@pytest.mark.parametrize("q", [3, 7, 9, 11, 25, 27, 49])
def test_quadratic_character(q):
    f = GF(q)
    assert f.chi(0) == 0
    values = [f.chi(x) for x in range(1, q)]
    assert set(values) <= {1, -1}
    # exactly half the nonzero elements are squares
    assert values.count(1) == (q - 1) // 2
    for x in range(1, q):
        assert f.chi(f.mul(x, x)) == 1
    # multiplicativity
    for x in range(1, q):
        for y in range(1, q):
            assert f.chi(f.mul(x, y)) == f.chi(x) * f.chi(y)


def test_gf9_has_characteristic_three():
    f = GF(9)
    assert f.add(f.add(1, 1), 1) == 0
    assert f.add(1, 1) != 0


@pytest.mark.parametrize("q", [2, 4, 8])
def test_every_element_of_an_even_order_field_is_a_square(q):
    f = GF(q)
    assert [f.chi(x) for x in f.elements()] == [0] + [1] * (q - 1)


# Schoolbook reference arithmetic: polynomials are coefficient lists, constant
# term first, reduced by long division by a monic modulus.
def _polymod(c, modulus, p):
    e = len(modulus) - 1
    c = [v % p for v in c]
    for k in range(len(c) - 1, e - 1, -1):
        top = c[k]
        for i, m in enumerate(modulus):
            c[k - e + i] = (c[k - e + i] - top * m) % p
    return (c + [0] * e)[:e]


def _polymulmod(a, b, modulus, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            prod[i + j] += u * v
    return _polymod(prod, modulus, p)


def _x_power(k, modulus, p):
    """x^k mod the modulus by repeated squaring."""
    result, base = _polymod([1], modulus, p), _polymod([0, 1], modulus, p)
    while k:
        if k & 1:
            result = _polymulmod(result, base, modulus, p)
        base = _polymulmod(base, base, modulus, p)
        k >>= 1
    return result


def _prime_factors(n):
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    return out | ({n} if n > 1 else set())


def _first_primitive_modulus(p, e):
    """x^e plus the polynomial whose base-p label n is the smallest such that
    x has order p^e - 1: x^(q-1) = 1 and x^((q-1)/r) != 1 for each prime r."""
    q = p**e
    one = _polymod([1], [0] * e + [1], p)
    for n in range(q):
        modulus = [n // p**i % p for i in range(e)] + [1]
        if _x_power(q - 1, modulus, p) == one and all(
            _x_power((q - 1) // r, modulus, p) != one for r in _prime_factors(q - 1)
        ):
            return modulus
    raise AssertionError("no primitive modulus")


def _label(digits, p):
    return sum(c * p**i for i, c in enumerate(digits))


PRIME_POWERS_TO_1024 = [q for q in range(2, 1025) if is_prime_power(q)]


def test_every_field_to_1024_is_built_on_its_first_primitive_modulus():
    assert len(PRIME_POWERS_TO_1024) == 198
    start = perf_counter()
    fields = [GF(q) for q in PRIME_POWERS_TO_1024]
    assert perf_counter() - start < 1.0
    for f in fields:
        assert f.modulus == _first_primitive_modulus(f.p, f.e), f.q
        x = _label(_polymod([0, 1], f.modulus, f.p), f.p)
        assert _order(f, x) == f.q - 1, f.q


def _reference_tables(q, modulus):
    """The add, mul, neg, inv and chi tables of the base-p labels over the
    modulus, from digit-wise sums and schoolbook products."""
    p, e = factor_prime_power(q)
    digits = np.array([[x // p**i % p for i in range(e)] for x in range(q)])
    weights = p ** np.arange(e)
    add = (digits[:, None, :] + digits[None, :, :]) % p @ weights
    # coefficient k of a product sums a_i b_(k-i); x^k is then replaced by
    # its remainder
    conv = np.zeros((q, q, 2 * e - 1), dtype=np.int64)
    for i in range(e):
        for j in range(e):
            conv[:, :, i + j] += np.outer(digits[:, i], digits[:, j])
    rem = np.array([_polymod([0] * k + [1], modulus, p) for k in range(2 * e - 1)])
    mul = (conv @ rem) % p @ weights
    squares = set(mul.diagonal()[1:].tolist())
    return (
        add.tolist(),
        mul.tolist(),
        ((-digits) % p @ weights).tolist(),
        [row.index(1) for row in mul.tolist()[1:]],
        [0] + [1 if x in squares else -1 for x in range(1, q)],
    )


def _tables(f):
    els = f.elements()
    return (
        [[f.add(x, y) for y in els] for x in els],
        [[f.mul(x, y) for y in els] for x in els],
        [f.neg(x) for x in els],
        [f.inv(x) for x in els[1:]],
        [f.chi(x) for x in els],
    )


# sha256 prefixes of the add and mul tables and of the neg, inv (on nonzero
# elements) and chi lists, each as compact JSON. They pin the element labels:
# base-p digits over the first monic primitive modulus in the scan from the
# x^(e-1) coefficient down to a nonzero constant term, so that x generates
# the field. 9, 25, 49, 121, 125 and 256 were recorded, from tables equal to
# _reference_tables', when the modulus became primitive; the others' first
# irreducible modulus was already primitive, or q is prime.
LABEL_DIGESTS = {
    2: ("c1b92cfd1182", "a6cea289ce74", "923682bea6d5", "080a9ed42855", "923682bea6d5"),
    3: ("17d0eee91e63", "5cf75a6f8403", "248704cd0272", "3a316d6d3226", "71d179e82d47"),
    4: ("90b5779b7e26", "7f2869014836", "02b6deebe10f", "01e7faad9981", "c580333a48d3"),
    8: ("22c176af2b27", "a149f2bae34d", "809d533fc370", "2695c21ad090", "15d3f0da777a"),
    9: ("5866c28f92e8", "3b8d6aaa4b54", "0469693e4e6d", "ced1cc29f64d", "90a3f8cb9d01"),
    16: ("e5ac4e3c2de2", "9b30e5b8007a", "be2af200787b", "34318d620273", "a093cd5e9acd"),
    25: ("a4f5c18965d2", "ed6b22a80f87", "6d313d10c08c", "3b1999d74891", "44b8995c0e82"),
    27: ("9424705dbf79", "fb2c85302c80", "9e38a7e5cf83", "6aca20a892e2", "0df34b4032fa"),
    49: ("43c5875e2973", "e278908a2fcb", "fbd54c1e7ae6", "e121f51d231f", "1093d65955fa"),
    64: ("5c5948011025", "fab8e61c6f23", "ccf91e2b960f", "139906c0be69", "b184469fdf7d"),
    81: ("241d49ee294d", "ca67b09bc1c4", "aa7210e3b330", "fa197341a842", "e8a77306c891"),
    121: ("d67229c9a51a", "53e5db88c6c0", "f313cfe1315e", "ea645ac1cdf4", "c749dd63a19b"),
    125: ("6e8fee6edbad", "8431f612aa54", "621644af8274", "575c3a072b11", "1bf24ad38d0a"),
    128: ("761a6bd9dec8", "96c21a57825b", "3ce0ca491e41", "ebabc2e62b7b", "fa833099a00b"),
    243: ("e3277c29db41", "0a22f45ef35e", "70dff729f194", "54f90d2d1e9f", "564194fc1468"),
    256: ("e8e63cbaacc2", "edff874c506d", "ce694d5c7d7c", "a92ab52e00a1", "e7c30d40fa7a"),
}


@pytest.mark.parametrize("q", sorted(LABEL_DIGESTS))
def test_table_digests_pin_the_labels(q):
    tables = _tables(GF(q))
    digests = tuple(hashlib.sha256(json.dumps(t).encode()).hexdigest()[:12] for t in tables)
    assert digests == LABEL_DIGESTS[q]


@pytest.mark.parametrize("q", sorted(LABEL_DIGESTS))
def test_tables_equal_schoolbook_arithmetic_over_the_modulus(q):
    f = GF(q)
    assert _tables(f) == _reference_tables(q, f.modulus)


def _order(f, x):
    k, y = 1, x
    while y != 1:
        k, y = k + 1, f.mul(y, x)
    return k


def test_gf1024_builds_within_budget_and_has_a_generator():
    start = perf_counter()
    f = GF(1024)
    assert perf_counter() - start < 1.0
    assert (f.p, f.e) == (2, 10)
    assert any(_order(f, x) == 1023 for x in range(2, 1024))


@pytest.mark.parametrize("q", [125, 256, 729, 1024])
def test_random_triples_associate_and_distribute(q):
    f = GF(q)
    rng = random.Random(q)
    for _ in range(300):
        x, y, z = (rng.randrange(q) for _ in range(3))
        assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
        assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
        assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
        assert f.sub(f.add(x, y), y) == x
