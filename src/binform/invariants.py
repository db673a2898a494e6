"""Trace and characteristic-polynomial invariants of binary forms.

For F of degree d = 2k (k even) and n >= k, the transvection operator maps
G in the order-n space to (F, G)_k.  Its matrix in the monomial basis
x1^(n-i) x2^i, i = 0..n, has the single-term entries

    M[i][j] = f_{i-j+k} * t_coeff(i-j+k, j, 2k, n, k)

(the transvectant of F with a monomial leaves exactly one term).  Traces
of powers of M and coefficients of its characteristic polynomial are SL2
invariants of F; the matrix is built symbolically or numerically through
one code path.

M is self-adjoint for the apolar form Omega[i][j] = delta_{i+j,n}
(-1)^i / C(n, i), that is M^T Omega = Omega M (proved at
``_apolar_trace_product``), and so is every power of M.  A trace
tr(M^a M^b) therefore reads only the entries on and above the
antidiagonal of the two powers: about half the products of the plain
pairing sum_ij (M^a)_ij (M^b)_ji.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

from .exactnum import alt_sign, fact_product
from .forms import BinaryForm, generic_form
from .polyring import MultiPoly, RingMatrix, _dot, charpoly
from .sixj import sixj_sum
from .transvect import t_coeff, transvectant
from .umbral import octavic_a_bracket, octavic_b_bracket, umbral_eval


def _check_fk(form: BinaryForm, n: int) -> int:
    d = form.degree
    if d % 2:
        raise ValueError(f"form degree {d} is odd; need d = 2k")
    k = d // 2
    if k % 2 or k < 2:
        raise ValueError(f"need k = d/2 even and >= 2, got k = {k}")
    if n < k:
        raise ValueError(f"need n >= k, got n = {n} < k = {k}")
    return k


def transvection_matrix(form: BinaryForm, n: int) -> RingMatrix:
    """Matrix of G |-> (F, G)_k on the order-n space, in the monomial basis.

    Entry (i, j) multiplies basis element i in the image of basis element j.
    An entry that vanishes is the zero of the form's ring: Fraction(0) for
    a numeric form, the zero MultiPoly for a symbolic one.
    """
    k = _check_fk(form, n)
    d = form.degree
    zero = next((MultiPoly.zero(c.vars) for c in form.coeffs if isinstance(c, MultiPoly)), Fraction(0))
    rows = []
    for i in range(n + 1):
        row = []
        for j in range(n + 1):
            s = i - j + k
            if 0 <= s <= d and form.coeffs[s]:
                row.append(form.coeffs[s] * t_coeff(s, j, d, n, k))
            else:
                row.append(zero)
        rows.append(row)
    return RingMatrix(rows)


def _apolar_trace_product(a: RingMatrix, b: RingMatrix):
    """tr(a @ b) for two powers a, b of one transvection matrix M, from the
    entries on and above the antidiagonal alone:

        tr(ab) = 2 * sum_{i+j<n} a_ij b_ji + sum_{i+j=n} a_ij b_ji.

    Proof.  The apolar form <G, H> = (G, H)_n on the order-n space has the
    matrix Omega[i][j] = t_coeff(i, j, n, n, n) = delta_{i+j,n} (-1)^i / C(n, i)
    in the monomial basis (only l = i survives in its sum).  Take F, G, H
    powers of linear forms a_x^(2k), b_x^n, c_x^n.  In this normalization
    (F, G)_k = (ab)^k a_x^k b_x^(n-k), and (X, c_x^n)_n = X(c2, -c1) for
    any X of order n, so <(F, G)_k, H> = (ab)^k (ac)^k (bc)^(n-k); in the
    same way <G, (F, H)_k> = (-1)^k (ab)^k (ac)^k (bc)^(n-k), and k is
    even.  Powers of linear forms span each space, so <MG, H> = <G, MH>
    for all G, H by trilinearity: M^T Omega = Omega M.  Entrywise,

        M_(n-j, n-i) = (-1)^(i+j) C(n, j) / C(n, i) * M_ij,

    and the relation passes to every power, (M^p)^T Omega = Omega M^p.
    The involution (i, j) -> (n-j, n-i) fixes the antidiagonal and swaps
    i + j < n with i + j > n, and it leaves a_ij b_ji unchanged: the two
    scale factors, C(n, j)/C(n, i) for a_ij and C(n, i)/C(n, j) for b_ji,
    cancel.  So the terms below the antidiagonal repeat those above it.
    (For odd n the antidiagonal of every power is zero: there the relation
    reads M_(i, n-i) = -M_(i, n-i).)

    Over Q the value is one integer pairing of a's rows (``_integral``)
    with b's columns, restricted to j <= n - i in row i; over Q[f] it is
    one fused sum above the antidiagonal, and one more that adds twice
    that sum to the products on the antidiagonal.  The value keeps the
    ring, as ``trace_product`` does.
    """
    n = a.nrows - 1
    variables = a._ring(b)
    if variables is None:
        (rows, d), (_, e) = a._integral(), b._integral()
        total = 0
        for i, (row, col) in enumerate(zip(rows, b._columns())):
            total += 2 * sum(x * col[j] for j, x in row.items() if j < n - i) + row.get(n - i, 0) * col[n - i]
        return Fraction(total, d * e)
    rows, cols = a.rows, list(zip(*b.rows))
    above = _dot(variables, [pair for i in range(n) for pair in zip(rows[i][:n - i], cols[i][:n - i])])
    return _dot(variables, [(above, 2)] + [(rows[i][n - i], cols[i][n - i]) for i in range(n + 1)])


def trace_invariant(form: BinaryForm, n: int, p: int):
    """tr(M^p) for the transvection matrix M.

    Homogeneous of degree p in f0..fd, and it can vanish identically: at
    d = 4, n = 3, p = 3 it is 0, the (k, n) = (2, 3) zero.

    Computed as sum_ij (M^a)_ij (M^b)_ji with a = ceil(p/2), b = floor(p/2):
    one running power up to M^a, keeping M^b on the way, so ceil(p/2) - 1
    matrix products and one pairing instead of the p - 1 products of M^p.
    Since M^T Omega = Omega M for the apolar form Omega, the pairing
    (``_apolar_trace_product``) reads only the entries on and above the
    antidiagonal, which about halves its products.  The matrix and its
    powers keep the form's ring, so the value is a Fraction for a numeric
    form and a MultiPoly for a symbolic one, zero included.
    """
    if p < 1:
        raise ValueError("power must be >= 1")
    m = transvection_matrix(form, n)
    a, b = (p + 1) // 2, p // 2
    for e, power in enumerate(m.powers(a), 1):
        if e == b:
            half = power
    return _apolar_trace_product(power, half) if b else power.trace()


def charpoly_invariants(form: BinaryForm, n: int) -> list:
    """Coefficients of det(lambda*Id - M) from lambda^0 up (monic).

    The entry of coefficient degree p sits at index n + 1 - p (see
    charpoly_invariant).  The same Newton recurrence serves numeric and
    symbolic forms: the coefficients are Fractions for a numeric form and
    MultiPolys in f0..fd for a symbolic one, apart from the leading
    Fraction 1.  Every trace in the recurrence pairs two powers of the
    transvection matrix, so it takes the apolar pairing
    (``_apolar_trace_product``), as ``trace_invariant`` does.
    """
    return charpoly(transvection_matrix(form, n), _apolar_trace_product)


def charpoly_invariant(form: BinaryForm, n: int, p: int):
    """The degree-p invariant among the characteristic coefficients, i.e.
    the coefficient of lambda^(n+1-p).  Vanishes identically for p = 1
    (binary forms have no linear invariant); equals 1 for p = 0."""
    if not 0 <= p <= n + 1:
        raise ValueError(f"degree index {p} out of range 0..{n + 1}")
    return charpoly_invariants(form, n)[n + 1 - p]


def shioda_invariant(idx: int, form: BinaryForm):
    """The degree-idx generator of the octavic invariant ring, idx in 2..5:

        J2 = (F,F)_8                    J3 = (F,(F,F)_4)_8
        J4 = ((F,F)_6,(F,F)_6)_4        J5 = ((F,(F,F)_6)_4,(F,F)_6)_4
    """
    if form.degree != 8:
        raise ValueError(f"octavic invariants need degree 8, got {form.degree}")
    if idx == 2:
        return transvectant(form, form, 8).constant()
    if idx == 3:
        return transvectant(form, transvectant(form, form, 4), 8).constant()
    ff6 = transvectant(form, form, 6)
    if idx == 4:
        return transvectant(ff6, ff6, 4).constant()
    if idx == 5:
        return transvectant(transvectant(form, ff6, 4), ff6, 4).constant()
    raise ValueError(f"index must be 2, 3, 4 or 5, got {idx}")


def p2_closed_form(form: BinaryForm, n: int):
    """Closed form of the quadratic trace invariant:

        tr(M^2) = (n-k)! (n+k+1)! k!^2 / (n!^2 (2k+1)!) * (F, F)_{2k}

    For n = k the constant is 1 and the invariant is just (F, F)_{2k}.
    """
    k = _check_fk(form, n)
    const = fact_product([n - k, n + k + 1, k, k], [n, n, 2 * k + 1])
    return const * transvectant(form, form, 2 * k).constant()


def p3_closed_form(form: BinaryForm, n: int):
    """Closed form of the cubic trace invariant, through the 6j sum S(k, n):

        tr(M^3) = (-1)^(n-k) S(k, n) / C(n, k)^3 * (F, (F, F)_k)_{2k}

    It builds no matrix (one ``sixj_sum`` and two transvectants), so it is
    an independent oracle for ``trace_invariant`` at p = 3, the route that
    pairs M^2 with M.  It vanishes for every F where S(k, n) does, as at
    (k, n) = (2, 3).
    """
    k = _check_fk(form, n)
    const = Fraction(alt_sign(n - k) * sixj_sum(k, n), math.comb(n, k) ** 3)
    return const * transvectant(form, transvectant(form, form, k), 2 * k).constant()


def covariant_hash(x) -> str:
    """sha256 of the canonical serialization of a scalar or BinaryForm."""
    if isinstance(x, BinaryForm):
        return form_text_hash(x.degree, [str(c) for c in x.coeffs])
    return hashlib.sha256(str(x).encode("ascii")).hexdigest()


def form_text_hash(order: int, coeffs: list[str]) -> str:
    """``covariant_hash`` of a form of the given order from its coefficients
    already written as strings: sha256 of "order=d;c0;c1;...;cd"."""
    text = f"order={order};" + ";".join(coeffs)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def octavic_identity_report() -> list[dict]:
    """Certify the octavic trace-invariant and bracket identities over the
    polynomial ring in f0..f8.  Each entry records both sides' canonical
    hashes, so a pass is exactly hash equality."""
    f = generic_form(8)
    j2 = shioda_invariant(2, f)
    j3 = shioda_invariant(3, f)
    j4 = shioda_invariant(4, f)
    j5 = shioda_invariant(5, f)
    ff6 = transvectant(f, f, 6)
    assign = {"a": f, "b": f, "c": f}
    a4 = umbral_eval(octavic_a_bracket((4, 0, 0)), assign)
    a31 = umbral_eval(octavic_a_bracket((3, 1, 0)), assign)
    a22 = umbral_eval(octavic_a_bracket((2, 2, 0)), assign)
    a211 = umbral_eval(octavic_a_bracket((2, 1, 1)), assign)
    b44 = umbral_eval(octavic_b_bracket((4, 4, 0)), assign)
    b53 = umbral_eval(octavic_b_bracket((5, 3, 0)), assign)
    b62 = umbral_eval(octavic_b_bracket((6, 2, 0)), assign)
    b431 = umbral_eval(octavic_b_bracket((4, 3, 1)), assign)
    b332 = umbral_eval(octavic_b_bracket((3, 3, 2)), assign)
    zero4 = BinaryForm([MultiPoly.zero(("f" + str(i) for i in range(9)))] * 5)
    checks = [
        ("P(4,2) = J2", trace_invariant(f, 4, 2), j2),
        ("P(4,3) = J3", trace_invariant(f, 4, 3), j3),
        ("P(4,4) = 8/5 J4 + 7/30 J2^2", trace_invariant(f, 4, 4),
         Fraction(8, 5) * j4 + Fraction(7, 30) * j2 * j2),
        ("P(4,5) = 6/5 J5 + 13/30 J2 J3", trace_invariant(f, 4, 5),
         Fraction(6, 5) * j5 + Fraction(13, 30) * j2 * j3),
        ("A(2,1,1) = 0", a211, zero4),
        ("A(3,1) = 1/2 A(4)", a31, Fraction(1, 2) * a4),
        ("A(2,2) = 1/2 A(4)", a22, Fraction(1, 2) * a4),
        ("A(2,2) = 1/2 (F,(F,F)_6)_4", a22, Fraction(1, 2) * transvectant(f, ff6, 4)),
        ("B(3,3,2) = -2 B(4,3,1)", b332, Fraction(-2) * b431),
        ("B(4,4) = 6/5 B(5,3) - 1/5 B(6,2)", b44,
         Fraction(6, 5) * b53 - Fraction(1, 5) * b62),
    ]
    report = []
    for name, lhs, rhs in checks:
        same = bool(lhs == rhs)
        lhs_hash = covariant_hash(lhs)
        report.append({
            "identity": name,
            "pass": same,
            "lhs_sha256": lhs_hash,
            # storage is normalized, so equal values print, and hash, alike
            "rhs_sha256": lhs_hash if same else covariant_hash(rhs),
        })
    return report
