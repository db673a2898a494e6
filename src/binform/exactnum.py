"""Exact integers and rationals under the extended factorial convention.

Every combinatorial sum in this package extends factorials to all of Z:
n! is the ordinary factorial for n >= 0 and 0 for n < 0, and 1/n! is
likewise 0 for n < 0.  Under this convention n!/n! equals 1 only when
n >= 0, binomial coefficients vanish outside 0 <= k <= n, and every sum
over Z acquires finite support, so all functions here are total.

Integers are plain Python ints (arbitrary precision), rationals are
`fractions.Fraction` (always reduced, denominator positive).  Factorials
and binomials come from `math.factorial` and `math.comb`; nothing here
keeps a table.
"""

from __future__ import annotations

import math
from fractions import Fraction


def alt_sign(k: int) -> int:
    """(-1)**k as an exact int for any integer k.

    Python's ``(-1) ** k`` returns a float when k < 0, which would poison
    exact arithmetic; alternating sums here run over negative indices.
    """
    return -1 if k & 1 else 1


def fact_ext(n: int) -> int:
    """n! for n >= 0, and 0 for n < 0."""
    return math.factorial(n) if n >= 0 else 0


def inv_fact_ext(n: int) -> Fraction:
    """1/n! for n >= 0, and 0 for n < 0.

    Consequently fact_ext(n) * inv_fact_ext(n) equals 1 exactly when n >= 0.
    """
    if n < 0:
        return Fraction(0)
    return Fraction(1, fact_ext(n))


def binom_ext(n: int, k: int) -> int:
    """Binomial coefficient n!/(k!(n-k)!) under the extended convention.

    Zero unless 0 <= k <= n.
    """
    if 0 <= k <= n:
        return math.comb(n, k)
    return 0


def fact_product(nums: list[int] | tuple[int, ...], dens: list[int] | tuple[int, ...]) -> Fraction:
    """Product of extended factorials over extended inverse factorials.

    Equals prod(fact_ext(a)) * prod(inv_fact_ext(b)); in particular it is 0
    as soon as any entry on either side is negative, so
    fact_product([n], [n]) is the indicator of n >= 0.
    """
    if any(a < 0 for a in nums) or any(b < 0 for b in dens):
        return Fraction(0)
    num = 1
    for a in nums:
        num *= fact_ext(a)
    den = 1
    for b in dens:
        den *= fact_ext(b)
    return Fraction(num, den)
