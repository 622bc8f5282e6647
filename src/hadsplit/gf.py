"""Small finite fields GF(p^e) with exp/log arithmetic.

Elements are integers 0..q-1 encoding coefficient vectors base p
(index = c0 + c1*p + ... ). The reduction modulus is the first monic
primitive polynomial of degree e, scanning coefficient tuples from the
x^(e-1) coefficient down to a nonzero constant term, so x (label p for
e > 1) generates the nonzero elements. For prime q the modulus is x + m0,
where -m0 is the first generator in the order p - 1, p - 2, ..., 1, and the
labels are the residues mod p.
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
    # the loop has returned by p = q at the latest, since q * q > q


def is_prime_power(q: int) -> bool:
    try:
        factor_prime_power(q)
    except NotPrimePower:
        return False
    return True


def _primitive(p: int, e: int) -> tuple[list[int], list[int]]:
    """The first modulus in the scan that is primitive, as its powers of x
    take p**e - 1 steps to return to 1, and the labels of those powers."""
    weights = [p**k for k in range(e)]
    for high in product(range(p), repeat=e):
        modulus = [*reversed(high), 1]
        if not modulus[0]:
            continue  # x divides it
        exp, digits, label = [1], [1] + [0] * (e - 1), 1
        while True:
            # times x shifts the digits up and folds the top one back in,
            # as x^e = -(m_0 + m_1 x + ... + m_(e-1) x^(e-1))
            top = digits.pop()
            digits.insert(0, 0)
            if top:
                digits = [(c - top * m) % p for c, m in zip(digits, modulus)]
                label = sum(map(mul, digits, weights))
            else:
                label *= p  # nothing to fold in: the shift alone
            if label == 1:
                break
            exp.append(label)
        if len(exp) == p**e - 1:
            return modulus, exp
    raise AssertionError("no primitive polynomial found")  # pragma: no cover


class GF:
    """GF(q) on the exp and log tables of x over the first primitive modulus.

    The labels are base-p digits over that modulus, and g = x generates the
    nonzero elements, so the one search that finds the modulus also yields
    the exp table, in O(q) steps per candidate (Lidl and Niederreiter,
    Finite Fields, section 3.1). A product adds logarithms mod q - 1. A sum
    uses Zech logarithms, zech[k] = log(1 + g^k), as x + y = x (1 + y / x)
    (ch. 10). An element is a square iff its logarithm is even, for odd q;
    every element of an even-order field is a square.
    """

    def __init__(self, q: int):
        p, e = factor_prime_power(q)
        self.q = q
        self.p = p
        self.e = e
        self.modulus, exp = _primitive(p, e)
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
