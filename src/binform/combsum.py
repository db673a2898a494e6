"""Alternating binomial product sums, their closed forms, and the N(k, r)
family whose nonvanishing drives the independence certificate.

ups_m(a_1, ..., a_m) = sum_k (-1)^k prod_i C(2 a_i, a_i + k), summed over Z.

Support bounds are computed from binomial vanishing, never scanned over a
guessed window: C(2a, a+k) is nonzero only for |k| <= a, so the sum runs
over |k| <= min(a_i) and is empty (value 0) as soon as any a_i < 0.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .exactnum import alt_sign, binom_ext, fact_ext, fact_product

# memo for the recursive route, keyed by sorted argument tuple (ups is a
# symmetric function of its arguments, manifestly from the definition)
_ups_memo: dict[tuple[int, ...], int] = {}


def ups_direct(args) -> int:
    """The defining alternating sum, evaluated term by term."""
    args = tuple(args)
    if not args:
        raise ValueError("ups needs at least one argument")
    lim = min(args)
    if lim < 0:
        return 0
    total = 0
    for k in range(-lim, lim + 1):
        prod = alt_sign(k)
        for a in args:
            prod *= binom_ext(2 * a, a + k)
            if not prod:
                break
        total += prod
    return total


def ups_recursive(args) -> int:
    """Evaluation through the two-argument contraction

        ups_m(a) = sum_{l=0..min(a1,a2)}
                   (2a1)! (2a2)! / ((a1+a2)! (2l)! (a1-l)! (a2-l)!)
                   * ups_{m-1}(l, a3, ..., am)

    with base case ups_1(a) = 1{a = 0}.  Memoized on the sorted argument
    tuple.
    """
    key = tuple(sorted(args))
    if not key:
        raise ValueError("ups needs at least one argument")
    cached = _ups_memo.get(key)
    if cached is not None:
        return cached
    if len(key) == 1:
        val = 1 if key[0] == 0 else 0
    else:
        a1, a2 = key[0], key[1]
        rest = key[2:]
        total = Fraction(0)
        for l in range(0, min(a1, a2) + 1):
            coeff = fact_product([2 * a1, 2 * a2], [a1 + a2, 2 * l, a1 - l, a2 - l])
            if coeff:
                total += coeff * ups_recursive((l,) + rest)
        if total.denominator != 1:
            raise ArithmeticError(f"non-integer ups value for {key}: {total}")
        val = int(total)
    _ups_memo[key] = val
    return val


def von_szily(a1: int, a2: int) -> int:
    """Closed form of ups_2: the super-Catalan number (2a1)!(2a2)!/((a1+a2)!a1!a2!)."""
    v = fact_product([2 * a1, 2 * a2], [a1 + a2, a1, a2])
    return int(v)


def dixon(a1: int, a2: int, a3: int) -> int:
    """Closed form of ups_3 (terminating well-poised 3F2 summation)."""
    v = fact_product(
        [2 * a1, 2 * a2, 2 * a3, a1 + a2 + a3],
        [a1 + a2, a1 + a3, a2 + a3, a1, a2, a3],
    )
    return int(v)


def ups_closed(args) -> tuple[int, str]:
    """Closed-form value and the name of the formula used (m <= 3 only)."""
    args = tuple(args)
    if len(args) == 1:
        return (1 if args[0] == 0 else 0), "indicator"
    if len(args) == 2:
        return von_szily(*args), "von_szily"
    if len(args) == 3:
        return dixon(*args), "dixon"
    raise ValueError(f"no closed form for {len(args)} arguments")


def nkr(k: int, r: int) -> int:
    """The alternating sum of sliding products of binomials

        N(k, r) = sum_{j=0..k-r+1} (-1)^(r j) C(k, j) C(k, j+1) ... C(k, j+r-1).

    One sliding product: each window's is the last one's times the binomial
    that enters, exactly divided by the one that leaves, so N(k, r) costs
    O(k) big-int steps and not O(k r).
    """
    if k < 2 or not 2 <= r <= k + 1:
        raise ValueError(f"need k >= 2 and 2 <= r <= k+1, got (k, r) = ({k}, {r})")
    row = [math.comb(k, t) for t in range(k + 1)]
    total = prod = math.prod(row[:r])
    for j in range(1, k - r + 2):
        prod = prod * row[j + r - 1] // row[j - 1]
        total += -prod if r * j & 1 else prod
    return total


def nkr_via_ups(p: int, q: int) -> Fraction:
    """N(2p, 2q+1) expressed through ups:

        (-1)^(p+q) (2p)!^(2q+1) / prod_{v=0..2q} (2(p-q+v))!
        * ups_{2q+1}(p-q, p-q+1, ..., p+q)

    for 1 <= q <= p.  Equality with nkr(2p, 2q+1) is a standing test.
    """
    if not 1 <= q <= p:
        raise ValueError(f"need 1 <= q <= p, got (p, q) = ({p}, {q})")
    num = alt_sign(p + q) * fact_ext(2 * p) ** (2 * q + 1)
    den = 1
    for v in range(2 * q + 1):
        den *= fact_ext(2 * (p - q + v))
    return Fraction(num, den) * ups_recursive(tuple(p - q + t for t in range(2 * q + 1)))
