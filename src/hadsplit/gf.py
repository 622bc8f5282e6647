"""Small finite fields GF(p^e) with exp/log arithmetic.

Elements are integers 0..q-1 encoding coefficient vectors base p
(index = c0 + c1*p + ... ). The reduction modulus is the lexicographically
smallest monic irreducible of degree e, scanning coefficient tuples from
the x^(e-1) coefficient down to the constant term; for prime q it is x + 1,
and the labels are the residues mod p.
"""

from __future__ import annotations

from itertools import product
from operator import mul

from .core import HadsplitError

__all__ = ["NotPrimePower", "GF", "factor_prime_power", "is_prime_power"]


class NotPrimePower(HadsplitError):
    """Order is not a prime power."""


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, e) with q = p**e, or raise NotPrimePower."""
    if q < 2:
        raise NotPrimePower(f"{q} is not a prime power")
    for p in range(2, q + 1):
        if p * p > q:
            return q, 1
        if q % p == 0:
            e, m = 0, q
            while m % p == 0:
                m //= p
                e += 1
            if m != 1:
                raise NotPrimePower(f"{q} is not a prime power")
            return p, e
    return q, 1


def is_prime_power(q: int) -> bool:
    try:
        factor_prime_power(q)
    except NotPrimePower:
        return False
    return True


def _is_irreducible(modulus: list[int], p: int) -> bool:
    """Brute force irreducibility for small degree: no monic factor of degree <= e//2."""
    e = len(modulus) - 1
    for d in range(1, e // 2 + 1):
        for coeffs in product(range(p), repeat=d):
            divisor = list(coeffs) + [1]
            if _poly_divides(divisor, modulus, p):
                return False
    return True


def _poly_divides(d: list[int], f: list[int], p: int) -> bool:
    rem = list(f)
    dd = len(d) - 1
    inv_lead = pow(d[-1], p - 2, p)
    while len(rem) - 1 >= dd:
        if rem[-1] == 0:
            rem.pop()
            continue
        coef = rem[-1] * inv_lead % p
        shift = len(rem) - 1 - dd
        for i in range(dd + 1):
            rem[shift + i] = (rem[shift + i] - coef * d[i]) % p
        rem.pop()
    return all(v == 0 for v in rem)


def _find_modulus(p: int, e: int) -> list[int]:
    # scan (a_{e-1}, ..., a_0) in lexicographic order
    for high in product(range(p), repeat=e):
        modulus = [high[e - 1 - i] for i in range(e)] + [1]
        if modulus[0] == 0:
            continue  # constant term 0 means x divides it
        if _is_irreducible(modulus, p):
            return modulus
    raise AssertionError("no irreducible polynomial found")  # pragma: no cover


def _powers(g: int, modulus: list[int], p: int) -> list[int]:
    """Labels of 1, g, ..., g^(k-1), where k is the multiplicative order of g."""
    e = len(modulus) - 1
    weights = [p**k for k in range(e)]
    # rows[i] holds the digits of x^i g: times x shifts the digits up and
    # folds the top one back in, as x^e = -(m_0 + m_1 x + ... + m_(e-1) x^(e-1))
    rows = [[g // w % p for w in weights]]
    for _ in range(e - 1):
        top = rows[-1][-1]
        rows.append([(c - top * m) % p for c, m in zip([0] + rows[-1][:-1], modulus)])
    cols = list(zip(*rows))
    out, digits = [1], [1] + [0] * (e - 1)
    while True:
        digits = [sum(map(mul, digits, col)) % p for col in cols]
        label = sum(map(mul, digits, weights))
        if label == 1:
            return out
        out.append(label)


class GF:
    """GF(q) on the exp and log tables of a generator g, built in O(q) steps.

    A product adds logarithms mod q - 1. A sum uses Zech logarithms,
    zech[k] = log(1 + g^k), as x + y = x (1 + y / x) (Lidl and Niederreiter,
    Finite Fields, ch. 10). x is a square iff log x is even, for odd q; every
    element of an even-order field is a square.
    """

    def __init__(self, q: int):
        p, e = factor_prime_power(q)
        self.q = q
        self.p = p
        self.e = e
        self.modulus = _find_modulus(p, e)
        # the modulus need not be primitive, so g is searched for
        for g in range(1, q):
            exp = _powers(g, self.modulus, p)
            if len(exp) == q - 1:
                break
        # doubled, so sums of two logarithms and negative indices need no reduction
        self._exp = exp + exp
        self._log = [None] * q
        for k, x in enumerate(exp):
            self._log[x] = k
        # 1 + z adds 1 to the constant digit of z; None marks 1 + g^k = 0
        self._zech = [self._log[z + 1 if z % p < p - 1 else z + 1 - p] for z in exp]
        # the label p - 1 is the constant -1
        self._log_minus_one = self._log[p - 1]
        self._nonsquare_bit = p % 2

    def elements(self) -> list[int]:
        return list(range(self.q))

    def add(self, x: int, y: int) -> int:
        if not x:
            return y
        if not y:
            return x
        lx = self._log[x]
        # zech has period q - 1, so a negative difference indexes from the end
        k = self._zech[self._log[y] - lx]
        return 0 if k is None else self._exp[lx + k]

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if not (x and y):
            return 0
        return self._exp[self._log[x] + self._log[y]]

    def neg(self, x: int) -> int:
        if not x:
            return 0
        return self._exp[self._log[x] + self._log_minus_one]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("no inverse of 0")
        return self._exp[-self._log[x]]

    def chi(self, x: int) -> int:
        """Quadratic character: 0 at 0, +1 on squares, -1 otherwise."""
        if x == 0:
            return 0
        return -1 if self._log[x] & self._nonsquare_bit else 1
