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
other exact powers take sparse rows (``_times``).  Should the rank mod p
fall short, the route eliminates the integer rows N_r themselves; only
the public oracle ``jacobian_matrix`` builds Fractions.

Specializing at the nullcone form x1^(k-1) x2^(k+1) collapses each row
to a single entry with an explicit closed form in N(k, r); the k x k minor
on columns 0..k-1 is then an antidiagonal determinant, nonzero exactly
when every N(k, r) is nonzero.  There A has one nonzero entry per row,
and so has every power, so the running power is a column and a value per
row (``_times_monomial``), each product costs O(k) and the whole witness
O(k^2), exact or mod p; the certificate's minor is the integer
antidiagonal product over one denominator, from the N(k, r) it reports.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from operator import mul

from .combsum import nkr
from .exactnum import alt_sign, binom_ext
from .forms import BinaryForm, random_form, unstable_form
from .invariants import _check_fk
from .polyring import SLOT_BITS, RingMatrix, _bareiss, _FOLD_PRIME, _gf_rank, _slots, _times, _times_folded, _unslots

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


def _times_monomial(a: tuple[list[int], list[int]], b: tuple[list[int], list[int]],
                    modulus: int | None = None) -> tuple[list[int], list[int]]:
    """The product a @ b of two matrices that hold at most one nonzero entry
    per row, each given as (columns, values), value 0 for an empty row, and
    reduced mod ``modulus`` if one is given: row i of a @ b is a_i times row
    col_i of b, so it is again one entry."""
    (col, val), (bcol, bval) = a, b
    if modulus:
        return [bcol[j] for j in col], [x * bval[j] % modulus for j, x in zip(col, val)]
    return [bcol[j] for j in col], [x * bval[j] for j, x in zip(col, val)]


def _gradient_rows(form: BinaryForm, modulus: int | None = None):
    """Yield (scale, row) for r = 2..k+1: the gradient of tr(M^r) at the
    numeric form is scale * row, for the integer row N_r of the module
    docstring.

    Clearing the form to F / D_f gives M = A / D with D = D_f E
    (``_weights``) and A_ij = (-1)^i C(k, i) g[i-j+k], for the signed
    coefficients g[s] = (-1)^s Q[s] F_s: row i of A is a reversed window
    of g.  The running power is P = A^(r-1) diag(C), stepped by P <- A P,
    so that

        row[s] = Q[s] * sum_{j-i+k=s} (-1)^(k-i) P_ij,

    over the rows i of each sign apart, and the scale is r / (D^(r-1) E).
    With a modulus every value is reduced mod it, and scale is None.

    The route follows the form.  When no k+1 consecutive coefficients hold
    two nonzeros, each row of A has at most one nonzero entry, and so has
    each power: A and P are a column and a value per row (value 0 for an
    empty row), and a product is two list comprehensions, O(k), exact or
    mod any prime.  The witness and every monomial form take this route.
    Otherwise, mod ``polyring._FOLD_PRIME``, P is packed
    (``polyring._times_folded``), and row i shifted by k - i slots puts
    P_ij in slot s, so one sum of shifted rows per sign holds the inner
    sums; exactly or mod another prime, P is sparse rows
    (``polyring._times``).
    """
    if not form.is_numeric():
        raise ValueError("the Jacobian is evaluated at numeric forms")
    k = _check_fk(form, form.degree // 2)
    n, m = k + 1, modulus
    combs, quotients, e = _weights(k)
    fden = math.lcm(*[c.denominator for c in form.coeffs])
    g = [(-q if s & 1 else q) * (c.numerator * (fden // c.denominator))
         for s, (q, c) in enumerate(zip(quotients, form.coeffs))]
    d = fden * e  # M = A / d
    signs = [-c if i & 1 else c for i, c in enumerate(combs)]  # (-1)^i C(k, i)
    support = [s for s, x in enumerate(g) if x]
    if m:
        g, signs, quotients = ([x % m for x in v] for v in (g, signs, quotients))
    if all(t - s > k for s, t in zip(support, support[1:])):
        route = "monomial"
        col, val = [0] * n, [0] * n
        for s in support:  # g[s] lies in rows i = s-k..s of A, at column i - s + k
            for i in range(max(s - k, 0), min(s, k) + 1):
                col[i], val[i] = i - s + k, signs[i] * g[s]
        power = [x * combs[j] for j, x in zip(col, val)]
        if m:
            val, power = [x % m for x in val], [x % m for x in power]
        a, power = (col, val), (col, power)
    else:
        route = "packed" if m == _FOLD_PRIME and n <= 4096 else "sparse"
        rev = g[::-1]
        a = [[c * x for x in rev[k - i:2 * k + 1 - i]] for i, c in enumerate(signs)]
        power = [list(map(mul, row, combs)) for row in a]
        if m:
            a, power = ([[x % m for x in row] for row in v] for v in (a, power))
        if route == "packed":
            power = list(map(_slots, power))
        else:
            a, power = ([{j: x for j, x in enumerate(row) if x} for row in v] for v in (a, power))
    for r in range(2, k + 2):
        if r > 2:
            if route == "packed":
                power = _times_folded(a, power, n)
            else:
                power = (_times_monomial if route == "monomial" else _times)(a, power, m)
        if route == "packed":
            plus, minus = (_unslots(sum(x << SLOT_BITS * (k - i) for i, x in enumerate(power) if i % 2 == odd),
                                    2 * k + 1) for odd in (0, 1))  # rows i with (-1)^(k-i) = +1, -1
        else:
            plus, minus = sums = [0] * (2 * k + 1), [0] * (2 * k + 1)
            if route == "monomial":
                for i, j, x in zip(range(n), *power):  # s = j - i + k
                    sums[i & 1][j - i + k] += x
            else:
                for shift, prow in zip(range(k, -1, -1), power):
                    part = sums[shift & 1]
                    for j, x in prow.items():
                        part[j + shift] += x
        if m is None:
            yield Fraction(r, d ** (r - 1) * e), [q * (x - y) for q, x, y in zip(quotients, plus, minus)]
        else:
            yield None, [q * (x - y) % m for q, x, y in zip(quotients, plus, minus)]


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
