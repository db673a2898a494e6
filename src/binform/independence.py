"""Exact Jacobian-rank certificate for the algebraic independence of the
trace invariants tr(M^2), ..., tr(M^(k+1)) of a degree-2k form.

The gradient of tr(M^r) with respect to f_s follows from the chain rule
and cyclicity of the trace:

    d tr(M^r) / d f_s = r * sum_{i,j} [M^(r-1)]_{ij} * d M_{ji} / d f_s

where d M_{ji} / d f_s is the constant t_coeff(j-i+k, i, 2k, k, k) when
s = j - i + k and zero otherwise.  Both M = A / D and the weights
t_coeff(j-i+k, i, 2k, k, k) = W_ij / E are cleared once to integers, so
row r of the Jacobian is a nonzero rational multiple of the integer row

    N_r[s] = sum_{j-i+k=s} (A^(r-1))_ij W_ij,

and one running integer power of A serves every row.  W_ij factors as
(-1)^(k-i) C(k, j) E / C(2k, s), so it is held as two vectors and never
as a table (``_weights``).  The rank runs the loop mod a 26-bit prime
(see ``jacobian_rank``) in the packed GF(p) layer of ``polyring``, from
the running power (``_times_folded``) to the elimination (``_gf_rank``);
exact powers and the witness's take sparse rows (``_times``).  Should
the rank mod p fall short, the route eliminates the integer rows N_r
themselves; only the public oracle ``jacobian_matrix`` builds Fractions.

Specializing at the nullcone form x1^(k-1) x2^(k+1) collapses each row
to a single entry with an explicit closed form in N(k, r); the k x k minor
on columns 0..k-1 is then an antidiagonal determinant, nonzero exactly
when every N(k, r) is nonzero.  There A has one nonzero entry per row,
and so has every power, so each product of the running power costs O(k)
and the whole witness O(k^2); the certificate's minor is the integer
antidiagonal product over one denominator, from the N(k, r) it reports.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from .combsum import nkr
from .exactnum import alt_sign, binom_ext
from .forms import BinaryForm, random_form, unstable_form
from .invariants import _check_fk
from .polyring import (SLOT_BITS, RingMatrix, _bareiss, _dense, _FOLD_PRIME, _gf_rank, _slots, _times,
                       _times_folded, _unslots)

# The prime of the modular rank proof, that of the packed layer of ``polyring``:
# any prime gives a proof, and a large one makes the exact fallback rare.
RANK_PRIME = _FOLD_PRIME


def _weights(k: int) -> tuple[list[int], list[int], int]:
    """(C, Q, E) with t_coeff(j-i+k, i, 2k, k, k) == (-1)^(k-i) C[j] Q[j-i+k] / E.

    The order of G equals the transvectant index k, so the sum in t_coeff
    has the single term l = k - i, and the weight is
    (-1)^(k-i) C(k, j) / C(2k, j-i+k); E is the lcm of the C(2k, s), and
    Q[s] = E / C(2k, s).  The weight table W[i][j] = (-1)^(k-i) C[j] Q[j-i+k]
    is never formed: two vectors of k+1 and 2k+1 ints stand for it.
    """
    binoms = [math.comb(2 * k, s) for s in range(2 * k + 1)]
    e = math.lcm(*binoms)
    return [math.comb(k, j) for j in range(k + 1)], [e // b for b in binoms], e


def _gradient_rows(form: BinaryForm, modulus: int | None = None):
    """Yield (scale, row) for r = 2..k+1: the gradient of tr(M^r) at the
    numeric form is scale * row, for the integer row N_r of the module
    docstring.

    Clearing the form to F / D_f (``RingMatrix._integral``) gives M = A / D
    with A_ij = F_(i-j+k) W_ji and D = D_f E (``_weights``).  The running
    power is P = A^(r-1) diag(C), stepped by P <- A P, so that

        row[s] = Q[s] * sum_{j-i+k=s} (-1)^(k-i) P_ij,

    over the rows i of each sign apart, and the scale is r / (D^(r-1) E).
    With a modulus every value is reduced mod it, and scale is None.  Mod
    ``polyring._FOLD_PRIME``, when a row of A has two nonzero entries, P is
    packed (``polyring._times_folded``), and row i shifted by k - i slots
    puts P_ij in slot s, so one sum of shifted rows per sign holds the inner
    sums.  Otherwise P is sparse rows (``polyring._times``), as for every
    exact power and at the witness, where a product costs O(k).
    """
    if not form.is_numeric():
        raise ValueError("the Jacobian is evaluated at numeric forms")
    k = _check_fk(form, form.degree // 2)
    n = k + 1
    combs, quotients, e = _weights(k)
    (f,), fden = RingMatrix([form.coeffs])._integral()
    a = [{j: alt_sign(k - j) * c * quotients[s] * x for s, x in f.items() if 0 <= (j := i - s + k) <= k}
         for i, c in enumerate(combs)]
    d = fden * e  # M = A / d
    power = [{j: x * combs[j] for j, x in row.items()} for row in a]
    if modulus is not None:
        a, power = ([{j: v for j, x in row.items() if (v := x % modulus)} for row in m] for m in (a, power))
        quotients = [x % modulus for x in quotients]
    packed = modulus == _FOLD_PRIME and n <= 4096 and max(map(len, a)) > 1
    if packed:
        a, power = [_dense(row, n) for row in a], [_slots(_dense(row, n)) for row in power]
    for r in range(2, k + 2):
        if r > 2:
            power = _times_folded(a, power, n) if packed else _times(a, power, modulus)
        if packed:
            plus, minus = (_unslots(sum(x << SLOT_BITS * (k - i) for i, x in enumerate(power) if i % 2 == odd),
                                    2 * k + 1) for odd in (0, 1))  # rows i with (-1)^(k-i) = +1, -1
        else:
            plus, minus = sums = [0] * (2 * k + 1), [0] * (2 * k + 1)
            for shift, prow in zip(range(k, -1, -1), power):  # s = j - i + k
                part = sums[shift & 1]
                for j, x in prow.items():
                    part[j + shift] += x
        if modulus is None:
            yield Fraction(r, d ** (r - 1) * e), [q * (x - y) for q, x, y in zip(quotients, plus, minus)]
        else:
            yield None, [q * (x - y) % modulus for q, x, y in zip(quotients, plus, minus)]


def jacobian_matrix(form: BinaryForm) -> RingMatrix:
    """Rows r = 2..k+1 hold the gradient of tr(M^r) at the given numeric
    form of degree 2k; shape k x (2k+1).  One running integer power of the
    cleared M serves every row: k - 1 integer matrix products, and one
    Fraction per entry of the result.  This is the public oracle for the
    Jacobian; ``jacobian_rank`` never builds it."""
    zero = Fraction(0)
    rows = []
    for scale, row in _gradient_rows(form):
        num, den = scale.numerator, scale.denominator
        rows.append([Fraction(num * v, den) if v else zero for v in row])
    return RingMatrix(rows)


def jacobian_rank(form: BinaryForm) -> int:
    """Rank over Q of ``jacobian_matrix(form)``, proved modulo RANK_PRIME.

    Why a rank of k mod p is a proof: row r of the Jacobian J is the
    integer row N_r (module docstring) times r / (D^(r-1) E), a nonzero
    rational, so rank_Q(J) = rank_Q(N).  Every minor of N is an integer,
    and one that is nonzero mod p is nonzero, so rank_Q(N) >= rank_p(N).
    N has exactly k rows, so rank_p(N) = k proves rank k over Q.  N is
    integral whatever the denominators of the form, so no prime needs to be
    avoided; the prime only sets how often the rank mod p falls short.
    When it does, the rank mod p proves nothing, and the exact Bareiss
    rank of the integer rows N_r decides: the same rank as J, since the
    row scales are nonzero, with no Fraction matrix built.
    """
    p = RANK_PRIME
    rows = [row for _, row in _gradient_rows(form, p)]
    if _gf_rank(rows, p) == len(rows):
        return len(rows)
    return _bareiss([row for _, row in _gradient_rows(form)])[0]


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


def _antidiagonal_minor(k: int, nkrs: list[int]) -> Fraction:
    """``unstable_minor(k)`` from N(k, 2), ..., N(k, k+1), in integers and
    one Fraction: the entries of ``jacobian_unstable_closed`` multiplied
    out, their denominators C(2k, k+r-1) C(2k, k+1)^(r-1) together."""
    num = alt_sign(k * (k - 1) // 2)
    den = math.comb(2 * k, k + 1) ** (k * (k + 1) // 2)
    for r, v in enumerate(nkrs, 2):
        num *= r * alt_sign(r * (r - 1) // 2) * v
        den *= math.comb(2 * k, k + r - 1)
    return Fraction(num, den)


def unstable_minor(k: int) -> Fraction:
    """Determinant of columns 0..k-1 of the closed-form Jacobian.

    Row r has its one nonzero entry in column k - r + 1, so the minor is
    the antidiagonal product, signed by the order-reversing permutation
    of k columns: (-1)^C(k,2).
    """
    if k < 2 or k % 2:
        raise ValueError("k must be an even integer >= 2")
    return _antidiagonal_minor(k, [nkr(k, r) for r in range(2, k + 2)])


def independence_certificate(k: int, include_random_point: bool = False, seed: int = 0) -> dict:
    """Rank certificate at the nullcone witness (and optionally at a seeded
    random integer form); the invariants are independent iff rank = k.
    Both ranks come from ``jacobian_rank``."""
    witness = unstable_form(k)
    rank = jacobian_rank(witness)
    nkrs = [nkr(k, r) for r in range(2, k + 2)]
    report = {
        "k": k,
        "degree": 2 * k,
        "witness": {"d": 2 * k, "coeffs": [str(c) for c in witness.coeffs]},
        "rank": rank,
        "expected": k,
        "minor": str(_antidiagonal_minor(k, nkrs)),
        "N": {str(r): str(v) for r, v in enumerate(nkrs, 2)},
        "pass": rank == k,
    }
    if include_random_point:
        rng = random.Random(seed)
        point = random_form(2 * k, rng)
        report["random_point"] = {
            "coeffs": [str(c) for c in point.coeffs],
            "rank": jacobian_rank(point),
        }
    return report
