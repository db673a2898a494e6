"""The transvectant bilinear operation and its monomial coefficients.

For F of degree m and G of degree n and 0 <= k <= min(m, n):

    (F, G)_k = (m-k)! (n-k)! / (m! n!) *
               sum_{l=0..k} (-1)^l C(k, l) *
               d^k F / dx1^(k-l) dx2^l  *  d^k G / dx1^l dx2^(k-l)

computed formally on coefficient vectors, never numerically.  The result
has order m + n - 2k.  Coefficients may be Fractions or MultiPolys; the
same code path serves numeric checks and symbolic invariants.  A
coefficient that vanishes is the zero of the forms' ring: Fraction(0)
when both are numeric, the zero MultiPoly otherwise.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .exactnum import alt_sign, binom_ext, fact_ext
from .forms import BinaryForm, convolve
from .polyring import MultiPoly


def _deriv(coeffs, a: int, b: int):
    """Coefficient vector of d^(a+b) / dx1^a dx2^b applied to the form."""
    m = len(coeffs) - 1
    order = m - a - b
    out = []
    for t in range(order + 1):
        i = t + b
        out.append(coeffs[i] * (math.perm(m - i, a) * math.perm(i, b)))
    return out


def transvectant(f: BinaryForm, g: BinaryForm, k: int) -> BinaryForm:
    m, n = f.degree, g.degree
    if not 0 <= k <= min(m, n):
        raise ValueError(f"transvectant index {k} out of range for orders ({m}, {n})")
    pre = Fraction(fact_ext(m - k) * fact_ext(n - k), fact_ext(m) * fact_ext(n))
    zero = next((MultiPoly.zero(c.vars) for c in f.coeffs + g.coeffs if isinstance(c, MultiPoly)), Fraction(0))
    total = [0] * (m + n - 2 * k + 1)
    for l in range(k + 1):
        c = alt_sign(l) * binom_ext(k, l)
        term = convolve(_deriv(f.coeffs, k - l, l), _deriv(g.coeffs, l, k - l))
        for idx, v in enumerate(term):
            if v:
                total[idx] = total[idx] + c * v
    return BinaryForm([pre * v if v else zero for v in total])


@functools.lru_cache(maxsize=None)
def t_coeff(i: int, j: int, m: int, n: int, k: int) -> Fraction:
    """Coefficient T with (x1^(m-i) x2^i, x1^(n-j) x2^j)_k = T x1^(m+n-k-i-j) x2^(i+j-k).

    The transvectant formula applied to two monomials, as one integer sum

        T = (m-k)! (n-k)! / (m! n!) * sum_l (-1)^l C(k, l)
            * perm(m-i, k-l) perm(i, l) * perm(n-j, l) perm(j, k-l)

    (the falling factorials are the derivatives of the monomials) and one
    Fraction.  The sum runs over max(0, k-j, k-m+i) <= l <= min(i, n-j, k),
    exactly the l for which no falling factorial vanishes.
    """
    if not (0 <= i <= m and 0 <= j <= n):
        raise ValueError(f"monomial indices ({i}, {j}) out of range for orders ({m}, {n})")
    if not 0 <= k <= min(m, n):
        raise ValueError(f"transvectant index {k} out of range for orders ({m}, {n})")
    total = sum(alt_sign(l) * math.comb(k, l) * math.perm(m - i, k - l) * math.perm(i, l)
                * math.perm(n - j, l) * math.perm(j, k - l)
                for l in range(max(0, k - j, k - m + i), min(i, n - j, k) + 1))
    return Fraction(total * math.factorial(m - k) * math.factorial(n - k), math.factorial(m) * math.factorial(n))
