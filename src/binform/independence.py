"""Exact Jacobian-rank certificate for the algebraic independence of the
trace invariants tr(M^2), ..., tr(M^(k+1)) of a degree-2k form.

The gradient of tr(M^r) with respect to f_s follows from the chain rule
and cyclicity of the trace:

    d tr(M^r) / d f_s = r * sum_{i,j} [M^(r-1)]_{ij} * d M_{ji} / d f_s

where d M_{ji} / d f_s is the constant t_coeff(j-i+k, i, 2k, k, k) when
s = j - i + k and zero otherwise.  Specializing at the nullcone form
x1^(k-1) x2^(k+1) collapses each row to a single entry with an explicit
closed form in N(k, r); the k x k minor on columns 0..k-1 is then an
antidiagonal determinant, nonzero exactly when every N(k, r) is nonzero.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .combsum import nkr
from .exactnum import alt_sign, binom_ext
from .forms import BinaryForm, random_form, unstable_form
from .invariants import transvection_matrix
from .polyring import RingMatrix, det_exact, rank_exact
from .transvect import t_coeff


def _gradient_row(power: RingMatrix, k: int, r: int) -> tuple[Fraction, ...]:
    """Gradient of tr(M^r) from ``power`` = M^(r-1)."""
    d = 2 * k
    row = [Fraction(0)] * (d + 1)
    for i in range(k + 1):
        for j in range(k + 1):
            v = power[i, j]
            if v:
                s = j - i + k
                row[s] += r * v * t_coeff(s, i, d, k, k)
    return tuple(row)


def jacobian_matrix(form: BinaryForm) -> RingMatrix:
    """Rows r = 2..k+1 hold the gradient of tr(M^r) at the given numeric
    form of degree 2k; shape k x (2k+1).  One running power of M serves
    every row, so the whole matrix costs k - 1 matrix products."""
    if not form.is_numeric():
        raise ValueError("the Jacobian is evaluated at numeric forms")
    k = form.degree // 2
    m = transvection_matrix(form, k)
    return RingMatrix([_gradient_row(power, k, r) for r, power in enumerate(m.powers(k), 2)])


def jacobian_unstable_closed(k: int) -> RingMatrix:
    """The Jacobian at the nullcone form x1^(k-1) x2^(k+1), in closed form:

        row r has its single nonzero entry at column s = k - r + 1,

        value r * (-1)^C(r,2) * N(k, r) / (C(2k, k+r-1) * C(2k, k+1)^(r-1)).
    """
    if k < 2 or k % 2:
        raise ValueError("k must be an even integer >= 2")
    rows = []
    for r in range(2, k + 2):
        row = [Fraction(0)] * (2 * k + 1)
        num = r * alt_sign(r * (r - 1) // 2) * nkr(k, r)
        den = binom_ext(2 * k, k + r - 1) * binom_ext(2 * k, k + 1) ** (r - 1)
        row[k - r + 1] = Fraction(num, den)
        rows.append(row)
    return RingMatrix(rows)


def unstable_minor(k: int) -> Fraction:
    """Determinant of columns 0..k-1 of the closed-form Jacobian."""
    full = jacobian_unstable_closed(k)
    return det_exact(RingMatrix([row[:k] for row in full.rows]))


def independence_certificate(k: int, include_random_point: bool = False, seed: int = 0) -> dict:
    """Rank certificate at the nullcone witness (and optionally at a seeded
    random integer form); the invariants are independent iff rank = k."""
    witness = unstable_form(k)
    rank = rank_exact(jacobian_matrix(witness))
    minor = unstable_minor(k)
    report = {
        "k": k,
        "degree": 2 * k,
        "witness": {"d": 2 * k, "coeffs": [str(c) for c in witness.coeffs]},
        "rank": rank,
        "expected": k,
        "minor": str(minor),
        "N": {str(r): str(nkr(k, r)) for r in range(2, k + 2)},
        "pass": rank == k,
    }
    if include_random_point:
        rng = random.Random(seed)
        point = random_form(2 * k, rng)
        report["random_point"] = {
            "coeffs": [str(c) for c in point.coeffs],
            "rank": rank_exact(jacobian_matrix(point)),
        }
    return report
