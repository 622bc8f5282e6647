import hashlib
import json
import random
from time import perf_counter

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


# sha256 prefixes of the add and mul tables and of the neg, inv (on nonzero
# elements) and chi lists, each as compact JSON. They pin the element labels:
# base-p digits over the lexicographically first monic irreducible modulus.
LABEL_DIGESTS = {
    2: ("c1b92cfd1182", "a6cea289ce74", "923682bea6d5", "080a9ed42855", "923682bea6d5"),
    3: ("17d0eee91e63", "5cf75a6f8403", "248704cd0272", "3a316d6d3226", "71d179e82d47"),
    4: ("90b5779b7e26", "7f2869014836", "02b6deebe10f", "01e7faad9981", "c580333a48d3"),
    8: ("22c176af2b27", "a149f2bae34d", "809d533fc370", "2695c21ad090", "15d3f0da777a"),
    9: ("5866c28f92e8", "0c0d1f03baa0", "0469693e4e6d", "0ff30611a517", "b92a93b0f2b3"),
    16: ("e5ac4e3c2de2", "9b30e5b8007a", "be2af200787b", "34318d620273", "a093cd5e9acd"),
    25: ("a4f5c18965d2", "e5977200967e", "6d313d10c08c", "546cf26a0b0e", "f62b22b6a29d"),
    27: ("9424705dbf79", "fb2c85302c80", "9e38a7e5cf83", "6aca20a892e2", "0df34b4032fa"),
    49: ("43c5875e2973", "8513d028259d", "fbd54c1e7ae6", "fe67c18b1759", "6ae8b1cb0e57"),
    64: ("5c5948011025", "fab8e61c6f23", "ccf91e2b960f", "139906c0be69", "b184469fdf7d"),
    81: ("241d49ee294d", "ca67b09bc1c4", "aa7210e3b330", "fa197341a842", "e8a77306c891"),
    121: ("d67229c9a51a", "0e4481d7ba0d", "f313cfe1315e", "874bf143fe4f", "f6265adeb54a"),
    125: ("6e8fee6edbad", "3ecdb4497225", "621644af8274", "8d32728586b8", "3aa4eef01bc9"),
    128: ("761a6bd9dec8", "96c21a57825b", "3ce0ca491e41", "ebabc2e62b7b", "fa833099a00b"),
    243: ("e3277c29db41", "0a22f45ef35e", "70dff729f194", "54f90d2d1e9f", "564194fc1468"),
    256: ("e8e63cbaacc2", "e1704ef87b0b", "ce694d5c7d7c", "ebf33c5f1965", "e7c30d40fa7a"),
}


@pytest.mark.parametrize("q", sorted(LABEL_DIGESTS))
def test_table_digests_pin_the_labels(q):
    f = GF(q)
    els = f.elements()
    tables = (
        [[f.add(x, y) for y in els] for x in els],
        [[f.mul(x, y) for y in els] for x in els],
        [f.neg(x) for x in els],
        [f.inv(x) for x in els[1:]],
        [f.chi(x) for x in els],
    )
    digests = tuple(hashlib.sha256(json.dumps(t).encode()).hexdigest()[:12] for t in tables)
    assert digests == LABEL_DIGESTS[q]


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
