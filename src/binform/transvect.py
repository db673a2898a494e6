"""The transvectant bilinear operation and its monomial coefficients.

For F of degree m and G of degree n and 0 <= k <= min(m, n), the
transvectant of order m + n - 2k is defined by

    (F, G)_k = (m-k)! (n-k)! / (m! n!) *
               sum_{l=0..k} (-1)^l C(k, l) *
               d^k F / dx1^(k-l) dx2^l  *  d^k G / dx1^l dx2^(k-l).

It is bilinear, and ``t_coeff`` is the formula applied to two monomials,
so coefficient t of (F, G)_k is sum_{i+j=t+k} f_i g_j t_coeff(i, j, m, n, k):
one fused sum (``polyring._dot``) over the forms' ring.
Coefficients may be Fractions or MultiPolys; the ring is the variable
list of the first MultiPoly coefficient, or Q when both forms are
numeric.  A coefficient that vanishes is the zero of that ring.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

from .exactnum import alt_sign
from .forms import BinaryForm
from .polyring import _dot


def transvectant(f: BinaryForm, g: BinaryForm, k: int) -> BinaryForm:
    m, n = f.degree, g.degree
    if not 0 <= k <= min(m, n):
        raise ValueError(f"transvectant index {k} out of range for orders ({m}, {n})")
    fc, gc = f.coeffs, g.coeffs
    ring = f.ring if f.ring is not None else g.ring
    # coefficient t pairs f_i with g_j over i + j = s = t + k
    return BinaryForm([_dot(ring, [(t_coeff(i, s - i, m, n, k) * fc[i], gc[s - i])
                                   for i in range(max(0, s - n), min(m, s) + 1)])
                       for s in range(k, m + n - k + 1)])


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
