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
``_apolar_trace_product``), and so is every power of M.  A symbolic
trace tr(M^a M^b) therefore reads only the entries on and above the
antidiagonal of the two powers, and only those with i <= j as well when
a = b or at the generic form, whose reflection x1 <-> x2 is the variable
reversal sigma: f_s -> f_(d-s).  A symbolic running power is made in the
balanced basis S M S^-1 (``_balance``), where the apolar relation says
that an entry below the antidiagonal is its mirror above it or that
mirror's negation, so each product computes only the entries on and
above the antidiagonal (``_half_powers``).
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from functools import partial

from .exactnum import alt_sign, fact_product
from .forms import BinaryForm, generic_form
from .polyring import MultiPoly, RingMatrix, _dot, _fused, _poly, _reflected, charpoly, trace_product
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
    Every entry is in the form's ring, zero included: a Fraction for a
    numeric form, a MultiPoly for a symbolic one.
    """
    return _matrix(form, n, None)


def _matrix(form: BinaryForm, n: int, scale) -> RingMatrix:
    """The transvection matrix M, or T^-1 M T for the diagonal of ints T =
    ``scale`` (None for M): entry (i, j) is f_s * t_coeff(s, j, 2k, n, k)
    * T_j / T_i, s = i - j + k, with one rational factor per entry either
    way.  A symbolic form's rational coefficients are lifted to constants
    of its ring first, so every entry is a MultiPoly."""
    k = _check_fk(form, n)
    d = form.degree
    coeffs = form.coeffs
    ring = form.ring
    if ring is not None:  # every entry of a symbolic matrix is a MultiPoly
        coeffs = [c if isinstance(c, MultiPoly) else MultiPoly.const(ring, c) for c in coeffs]
    zero = Fraction(0) if ring is None else MultiPoly.zero(ring)
    rows = []
    for i in range(n + 1):
        row = []
        for j in range(n + 1):
            s = i - j + k
            if 0 <= s <= d and coeffs[s]:
                t = t_coeff(s, j, d, n, k)
                if scale and scale[i] != scale[j]:
                    t = Fraction(t.numerator * scale[j], t.denominator * scale[i])
                row.append(coeffs[s] * t)
            else:
                row.append(zero)
        rows.append(row)
    return RingMatrix(rows)


def _balance(n: int) -> list[int]:
    """The diagonal T of the balanced basis N = T^-1 M T: T_i = lam for
    i <= n/2 and T_i = C(n, i) above, lam = C(n, n/2) for even n and 1 for
    odd n.  So S = lam T^-1 has S_i = 1 for i <= n/2 and S_i = lam / C(n, i)
    above, and S_i S_(n-i) C(n, i) = lam for every i.

    In this basis N = S M S^-1 the apolar relation (``_apolar_trace_product``)
    loses its scalars: N_(n-j, n-i) = S_(n-j) / S_(n-i) * M_(n-j, n-i)
    = (-1)^(i+j) S_i C(n, i) / (S_j C(n, j)) * C(n, j) / C(n, i) * M_ij
    = (-1)^(i+j) N_ij, and the same holds for every power of N.
    """
    lam = math.comb(n, n // 2) if n % 2 == 0 else 1
    return [lam if 2 * i <= n else math.comb(n, i) for i in range(n + 1)]


def _half_powers(m: RingMatrix, p: int):
    """Yield N, N^2, ..., N^p for a balanced polynomial transvection matrix
    N (``_balance``): each product computes only the entries on and above
    the antidiagonal, i + j <= n, and takes every other entry from its
    mirror, N_ij = (-1)^(i+j) N_(n-j, n-i): the same MultiPoly or its
    negation.  That is (n + 1)(n + 2) / 2 sums of products per power
    instead of (n + 1)^2."""
    n = m.nrows - 1
    variables = m._vars
    cols = list(zip(*m.rows))
    power = m
    for e in range(p):
        if e:
            rows = power.rows
            top = [[_dot(variables, zip(rows[i], cols[j])) for j in range(n + 1 - i)] for i in range(n + 1)]
            power = RingMatrix([top[i] + [-top[n - j][n - i] if (i + j) % 2 else top[n - j][n - i]
                                          for j in range(n + 1 - i, n + 1)] for i in range(n + 1)])
        yield power


def _operator(form: BinaryForm, n: int, p: int):
    """The transvection operator of a form and the chain of its powers up
    to the p-th.

    A symbolic form whose chain makes a product (p >= 2) gets the balanced
    matrix and ``_half_powers``.  Otherwise it is M itself and
    ``RingMatrix.powers``: a chain of no product gains nothing from the
    balanced basis, and a numeric form's products are integer products
    over D, D^2, ... in the monomial basis, where the entries stay small.
    Both give the same traces."""
    if p >= 2 and form.ring is not None:
        return _matrix(form, n, _balance(n)), _half_powers
    return transvection_matrix(form, n), RingMatrix.powers


def _reflects(form: BinaryForm) -> bool:
    """Whether sigma(f_s) = f_(d-s) for every coefficient, sigma the
    variable reversal of the ring (``MultiPoly.reflect``; the identity on
    Q): true at the generic form, whose f_s is the s-th variable of
    f0..fd, and false once one coefficient is changed alone, f1 doubled
    say.  Then sigma(F) = F(x2, x1), which the quarter route of
    ``_apolar_trace_product`` needs."""
    c = form.coeffs
    return all((c[s].reflect() if isinstance(c[s], MultiPoly) else c[s]) == c[-1 - s] for s in range(len(c) // 2 + 1))


def _apolar_trace_product(a: RingMatrix, b: RingMatrix, reflect: bool = False):
    """tr(a @ b) = sum_ij P_ij, P_ij = a_ij b_ji, for two powers a, b of one
    transvection matrix M (or of one balanced matrix S M S^-1); over Q[f]
    from the entries on and above the antidiagonal alone, and from only
    those with i <= j when P_ji follows from P_ij: always when a is b,
    where P_ji = P_ij, and when ``reflect`` says the form is fixed by the
    reflection (``_reflects``), where P_ji = sigma(P_ij).

    Half of the index pairs.  The apolar form <G, H> = (G, H)_n on the
    order-n space has the matrix Omega[i][j] = t_coeff(i, j, n, n, n)
    = delta_{i+j,n} (-1)^i / C(n, i) in the monomial basis (only l = i
    survives in its sum).  Take F, G, H powers of linear forms a_x^(2k),
    b_x^n, c_x^n.  In this normalization (F, G)_k = (ab)^k a_x^k b_x^(n-k),
    and (X, c_x^n)_n = X(c2, -c1) for any X of order n, so
    <(F, G)_k, H> = (ab)^k (ac)^k (bc)^(n-k); in the same way
    <G, (F, H)_k> = (-1)^k (ab)^k (ac)^k (bc)^(n-k), and k is even.
    Powers of linear forms span each space, so <MG, H> = <G, MH> for all
    G, H by trilinearity: M^T Omega = Omega M.  Entrywise,

        M_(n-j, n-i) = (-1)^(i+j) C(n, j) / C(n, i) * M_ij,

    and the relation passes to every power, (M^p)^T Omega = Omega M^p.
    The involution (i, j) -> (n-j, n-i) fixes the antidiagonal and swaps
    i + j < n with i + j > n, and it leaves P_ij unchanged: the two
    scale factors, C(n, j)/C(n, i) for a_ij and C(n, i)/C(n, j) for b_ji,
    cancel.  So the terms below the antidiagonal repeat those above it:

        tr(ab) = 2 * sum_{i+j<n} P_ij + sum_{i+j=n} P_ij.

    (For odd n the antidiagonal of every power is zero: there the relation
    reads M_(i, n-i) = -M_(i, n-i).)  A diagonal change of basis
    a -> S a S^-1, b -> S b S^-1 leaves every P_ij as it is.

    A quarter of the index pairs.  Let R swap x1 and x2.  Then
    (RF, RG)_k = (-1)^k R(F, G)_k, and k is even, so M(RF) = Pi M(F) Pi
    for the basis reversal Pi: i -> n - i.  At a form with
    sigma(f_s) = f_(d-s), sigma(F) = RF, and sigma, a ring automorphism,
    passes through the products of a power: sigma(M^e_ij) = M^e_(n-i, n-j).
    With the apolar relation, sigma(P_ij) = a_(n-i, n-j) b_(n-j, n-i)
    = [(-1)^(i+j) C(n, i)/C(n, j) a_ji] [(-1)^(i+j) C(n, j)/C(n, i) b_ij]
    = P_ji.  So the group of the two involutions acts on the index pairs,
    and each orbit meets the domain i <= j, i + j <= n once:

        U   = sum over i < j, i + j < n    (orbit of 4: 2 P + 2 sigma(P))
        Dg  = sum over i = j, 2i < n       (orbit of 2: P + sigma(P))
        V   = sum over i + j = n, i < j    (orbit of 2: P + sigma(P))
        Mid = P at i = j = n/2, n even     (fixed: sigma(P) = P)

    so with W = 2U + Dg + V + Mid/2, tr(ab) = W + sigma(W); and when a is b,
    sigma can be taken as the identity, so tr(ab) = 2W for every form.

    Over Q the value is ``trace_product``, one integer pairing over every
    nonzero entry: there the integer running power, not the pairing, is
    the cost.  Over Q[f] it is one fused sum (``_fused``) over the half or
    the quarter domain, each product weighted by its orbit (``_orbit``),
    and, when ``reflect`` is set and a is not b, one merge of 2W with its
    image under sigma (``_reflected``) over twice its denominator.
    Every entry of a symbolic power is a MultiPoly (``_matrix`` lifts
    rational coefficients).  The value keeps the ring, as
    ``trace_product`` does.
    """
    variables = a._ring(b)
    if variables is None:
        return trace_product(a, b)
    n = a.nrows - 1
    quarter = a is b or reflect
    rows, cols = a.rows, list(zip(*b.rows))
    factors = []
    for i in range(n + 1):
        for j in range(i if quarter else 0, n - i + 1):
            x, y = rows[i][j], cols[i][j]
            if x and y:
                factors.append((x.nums, y.nums, _orbit(i, j, n, quarter), x.den * y.den))
    total = _fused(variables, factors)
    if a is b or not reflect:
        return total
    # tr = (2W + sigma(2W)) / 2, merged key by key
    nums = dict(total.nums)
    get = nums.get
    for key, v in _reflected(total.nums, len(variables)).items():
        nums[key] = get(key, 0) + v
    return _poly(variables, 2 * total.den, {key: v for key, v in nums.items() if v})


def _orbit(i: int, j: int, n: int, quarter: bool) -> int:
    """The weight of P_ij in the sum of ``_apolar_trace_product``: 2 off
    the antidiagonal and 1 on it, doubled for i < j on the quarter domain,
    so 4 on U, 2 on Dg and V and 1 at the centre of 2W."""
    w = 1 if i + j == n else 2
    return 2 * w if quarter and i < j else w


def trace_invariant(form: BinaryForm, n: int, p: int):
    """tr(M^p) for the transvection matrix M.

    Homogeneous of degree p in f0..fd, and it can vanish identically: at
    d = 4, n = 3, p = 3 it is 0, the (k, n) = (2, 3) zero.

    Computed as sum_ij (M^a)_ij (M^b)_ji with a = ceil(p/2), b = floor(p/2):
    one running power up to M^a, keeping M^b on the way, so ceil(p/2) - 1
    matrix products and one pairing instead of the p - 1 products of M^p.
    For a symbolic form the pairing (``_apolar_trace_product``) reads only
    the entries on and above the antidiagonal, a quarter of the index
    pairs for even p or at the generic form, and the running power
    (``_half_powers``), made in the balanced basis, computes only those
    entries.  The matrix and its powers keep the form's ring, so the value
    is a Fraction for a numeric form and a MultiPoly for a symbolic one,
    zero included.
    """
    if p < 1:
        raise ValueError("power must be >= 1")
    a, b = (p + 1) // 2, p // 2
    m, powers = _operator(form, n, a)
    for e, power in enumerate(powers(m, a), 1):
        if e == b:
            half = power
    if not b:
        return power.trace()
    # a = b needs no sigma, so skip _reflects, which reflects every coefficient
    return _apolar_trace_product(power, half, a != b and _reflects(form))


def charpoly_invariants(form: BinaryForm, n: int) -> list:
    """Coefficients of det(lambda*Id - M) from lambda^0 up (monic).

    The entry of coefficient degree p sits at index n + 1 - p (see
    charpoly_invariant).  The same Newton recurrence serves numeric and
    symbolic forms: the coefficients are Fractions for a numeric form and
    MultiPolys in f0..fd for a symbolic one, apart from the leading
    Fraction 1.  Every trace in the recurrence pairs two powers of the
    transvection matrix, so it takes the apolar pairing
    (``_apolar_trace_product``) and the power chain of ``_operator``, as
    ``trace_invariant`` does.
    """
    m, powers = _operator(form, n, (n + 1) // 2)
    return charpoly(m, partial(_apolar_trace_product, reflect=_reflects(form)), powers)


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
