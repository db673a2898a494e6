import math
import random
from fractions import Fraction

import pytest

from binform.exactnum import alt_sign, binom_ext
from binform.forms import (
    BinaryForm,
    generic_form,
    mobius_act,
    monomial,
    random_form,
    random_unimodular,
    unstable_form,
)
from binform.invariants import (
    _apolar_trace_product,
    _balance,
    _half_powers,
    _matrix,
    _operator,
    _reflects,
    charpoly_invariant,
    charpoly_invariants,
    octavic_identity_report,
    p2_closed_form,
    p3_closed_form,
    shioda_invariant,
    trace_invariant,
    transvection_matrix,
)
from binform.polyring import FIELD_BITS, MultiPoly, _reflected, charpoly, trace_product
from binform.transvect import t_coeff, transvectant

X14 = BinaryForm([1, 0, 0, 0, 1])  # x1^4 + x2^4
X18 = BinaryForm([1] + [0] * 7 + [1])  # x1^8 + x2^8


def test_matrix_single_coefficient_form():
    m = transvection_matrix(monomial(4, 4), 2)  # F = x2^4
    entries = {(i, j): m[i, j] for i in range(3) for j in range(3) if m[i, j]}
    assert entries == {(2, 0): Fraction(1)}


def test_matrix_at_unstable_form():
    m = transvection_matrix(unstable_form(2), 2)
    assert m[1, 0] == Fraction(1, 2)
    assert m[2, 1] == Fraction(-1, 4)
    nonzero = [(i, j) for i in range(3) for j in range(3) if m[i, j]]
    assert nonzero == [(1, 0), (2, 1)]


def test_matrix_subdiagonal_closed_form_at_unstable():
    for k in (2, 4):
        m = transvection_matrix(unstable_form(k), k)
        for i in range(k + 1):
            for j in range(k + 1):
                expect = Fraction(0)
                if i == j + 1:
                    expect = Fraction(alt_sign(j) * binom_ext(k, j + 1), binom_ext(2 * k, k + 1))
                assert m[i, j] == expect


def test_matrix_generic_entry():
    m = transvection_matrix(generic_form(4), 2)
    f2 = MultiPoly.variable(tuple(f"f{i}" for i in range(5)), 2)
    assert m[0, 0] == f2 * Fraction(1, 6)


def test_matrix_columns_equal_direct_transvectants():
    # dual route: the closed-form entries against (F, x1^(n-j) x2^j)_k
    rng = random.Random(0)
    for d, n in ((4, 2), (4, 3), (8, 4)):
        f = random_form(d, rng)
        m = transvection_matrix(f, n)
        for j in range(n + 1):
            col = transvectant(f, monomial(n, j), d // 2)
            for i in range(n + 1):
                assert m[i, j] == col.coeffs[i]


def test_matrix_preconditions():
    with pytest.raises(ValueError):
        transvection_matrix(random_form(6, random.Random(0)), 3)  # k = 3 odd
    with pytest.raises(ValueError):
        transvection_matrix(X14, 1)  # n < k


def test_trace_invariant_values():
    assert trace_invariant(X14, 2, 2) == 2
    assert trace_invariant(X14, 2, 3) == 0
    for k in (2, 4):
        f = unstable_form(k)
        for p in range(1, k + 2):
            assert trace_invariant(f, k, p) == 0


def test_trace_linear_invariant_vanishes_symbolically():
    for d, n in ((4, 2), (4, 3), (8, 4)):
        assert trace_invariant(generic_form(d), n, 1) == 0


# odd n (antisymmetric apolar form) at (4, 3), (4, 5), (8, 5), (8, 7), (12, 7)
ORACLE_SHAPES = ((4, 2), (4, 3), (4, 5), (8, 4), (8, 5), (8, 6), (8, 7), (12, 6), (12, 7))


@pytest.mark.parametrize("d,n", ORACLE_SHAPES)
def test_half_power_trace_equals_full_power_trace(d, n):
    # slow route: p - 1 full matrix products, then the trace; p = 1 pairs
    # M with nothing (b = 0) and p = 2 pairs M with itself (a = b = 1)
    rng = random.Random(d * 10 + n)
    forms = [(generic_form(d), MultiPoly), (random_form(d, rng), Fraction), (random_form(d, rng), Fraction)]
    for f, kind in forms:
        powers = transvection_matrix(f, n).powers(7)
        for p, power in enumerate(powers, 1):
            value = trace_invariant(f, n, p)
            assert type(value) is kind
            assert value == power.trace()


@pytest.mark.parametrize("n", (4, 5, 6))
def test_trace_off_the_reflection_equals_full_power_trace(n):
    # f1 doubled: sigma(f_1) != f_(d-1), so the pairing must not reflect
    f = _f1_doubled(8)
    for p, power in enumerate(transvection_matrix(f, n).powers(5), 1):
        assert trace_invariant(f, n, p) == power.trace(), p


@pytest.mark.parametrize("d,n", ORACLE_SHAPES)
def test_generic_trace_is_fixed_by_the_reflection(d, n):
    for p in range(1, 8):
        value = trace_invariant(generic_form(d), n, p)
        assert value.reflect() == value, p


def test_transvection_matrix_is_self_adjoint_for_the_apolar_form():
    # M^T Omega = Omega M entrywise, as a t_coeff identity with s = i - j + k:
    # C(n, i) t(s, n - i) = (-1)^(i+j) C(n, j) t(s, j), exact on a window
    for k in range(2, 13, 2):
        for n in range(k, 3 * k + 3):
            for i in range(n + 1):
                for j in range(max(0, i - k), min(n, i + k) + 1):
                    s = i - j + k
                    assert (math.comb(n, i) * t_coeff(s, n - i, 2 * k, n, k)
                            == alt_sign(i + j) * math.comb(n, j) * t_coeff(s, j, 2 * k, n, k)), (k, n, i, j)


@pytest.mark.parametrize("k,n", [(k, n) for k in (2, 4, 6) for n in range(k, k + 6)])
def test_apolar_pairing_equals_the_full_pairing(k, n):
    # every ordered pair of powers up to M^5 at two seeded forms; at the
    # generic form every pair for k = 2, and total degree <= 6 for k = 4, 6,
    # where the symbolic oracle would take seconds per shape
    rng = random.Random(k * 100 + n)
    ring = generic_form(2 * k).coeffs[0].vars
    zero = BinaryForm([MultiPoly.zero(ring)] * (2 * k + 1))
    cases = [(generic_form(2 * k), MultiPoly, 10 if k == 2 else 6), (zero, MultiPoly, 10),
             (random_form(2 * k, rng), Fraction, 10), (random_form(2 * k, rng), Fraction, 10)]
    for f, kind, top in cases:
        powers = list(transvection_matrix(f, n).powers(5))
        for a, pa in enumerate(powers, 1):
            for b, pb in enumerate(powers, 1):
                if a + b <= top:
                    # over Q the full product, which shares no code with the pairing
                    want = (pa @ pb).trace() if kind is Fraction else trace_product(pa, pb)
                    value = _apolar_trace_product(pa, pb)
                    assert type(value) is kind and value == want, (a, b)
                    if kind is MultiPoly:
                        assert value.vars == ring
                    if f is zero or (k, n, a + b) == (2, 3, 3):
                        assert not value


def _reflect_by_fields(nums, nvars):
    """sigma on packed keys field by field: unpack every exponent, reverse
    the tuple, pack it again."""
    mask = (1 << FIELD_BITS) - 1
    out = {}
    for key, v in nums.items():
        exp = [(key >> (FIELD_BITS * (nvars - 1 - i))) & mask for i in range(nvars)]
        packed = sum(exp)
        for e in reversed(exp):
            packed = (packed << FIELD_BITS) | e
        out[packed] = v
    return out


@pytest.mark.parametrize("nvars", (1, 2, 5, 9, 13))
def test_key_reflection_against_a_per_field_reference(nvars):
    # seeded keys below 256 (the byte route), one polynomial with an
    # exponent >= 256 (the field route), and one of degree >= 256 whose
    # exponents are all below 256 (the field route too)
    rng = random.Random(nvars)
    names = tuple(f"x{i}" for i in range(nvars))
    small = {tuple(rng.randint(0, 40 // nvars + 3) for _ in range(nvars)): rng.randint(-9, 9) or 1 for _ in range(30)}
    large = dict(small)
    large[tuple(rng.randint(0, 9) for _ in range(nvars - 1)) + (256 + rng.randint(0, 999),)] = 7
    wide = {tuple([255] * nvars): 3, tuple(rng.randint(0, 255) for _ in range(nvars)): -2}
    for terms in (small, large, wide, {}):
        p = MultiPoly(names, {exp: Fraction(c, 6) for exp, c in terms.items()})
        assert _reflected(p.nums, nvars) == _reflect_by_fields(p.nums, nvars)
        image = p.reflect()
        assert image.terms == {exp[::-1]: c for exp, c in p.terms.items()}
        assert image.reflect() == p and image.den == p.den


@pytest.mark.parametrize("k,n", [(k, n) for k in (2, 4, 6) for n in range(k, k + 6)])
def test_reflection_maps_power_entries_to_the_reversed_index(k, n):
    # sigma(M^e_ij) = M^e_(n-i, n-j) at the generic form, entry by entry,
    # over full matrix products in the monomial basis
    for e, power in enumerate(transvection_matrix(generic_form(2 * k), n).powers(3), 1):
        for i in range(n + 1):
            for j in range(n + 1):
                assert power[i, j].reflect() == power[n - i, n - j], (e, i, j)


def _f1_doubled(d):
    f = generic_form(d)
    return BinaryForm([2 * c if s == 1 else c for s, c in enumerate(f.coeffs)])


def _mixed(d):
    """The generic form with f1 = 3/2 and fd = 0: rational coefficients
    among the variables, and not fixed by sigma."""
    f = generic_form(d)
    return BinaryForm([Fraction(3, 2) if s == 1 else 0 if s == d else c for s, c in enumerate(f.coeffs)])


def test_reflects_only_at_reflection_fixed_forms():
    assert _reflects(generic_form(4)) and _reflects(generic_form(8))
    assert not _reflects(_f1_doubled(8)) and not _reflects(_mixed(8))
    assert _reflects(X18) and not _reflects(BinaryForm([1, 2, 0, 0, 1]))


@pytest.mark.parametrize("k,n", [(k, n) for k in (2, 4, 6) for n in range(k, k + 6)])
def test_half_powers_equal_full_products_in_the_balanced_basis(k, n):
    # the mirrored entries of the half chain against full products of the
    # balanced matrix, and the balanced matrix against T^-1 M T
    f = generic_form(2 * k)
    m, t = transvection_matrix(f, n), _balance(n)
    balanced = _matrix(f, n, t)
    assert all(balanced[i, j] == m[i, j] * Fraction(t[j], t[i]) for i in range(n + 1) for j in range(n + 1))
    top = 3 if k < 6 else 2
    for half, full in zip(_half_powers(balanced, top), balanced.powers(top)):
        assert half == full


@pytest.mark.parametrize("k,n", [(k, n) for k in (2, 4, 6) for n in range(k, k + 6)])
def test_quarter_pairing_equals_the_full_pairing(k, n):
    # the grid of test_apolar_pairing_equals_the_full_pairing, through the
    # pairing as trace_invariant calls it: reflect where the form allows it
    # (a is b for equal powers), on both power chains; the mixed form, which
    # sigma does not fix, takes the half domain for a is not b
    rng = random.Random(k * 1000 + n)
    palindrome = [Fraction(rng.randint(-9, 9)) for _ in range(k + 1)]
    cases = [(generic_form(2 * k), 10 if k == 2 else 6), (_f1_doubled(2 * k), 10 if k == 2 else 5),
             (_mixed(2 * k), 10 if k == 2 else 5),
             (random_form(2 * k, rng), 10), (BinaryForm(palindrome + palindrome[-2::-1]), 10)]
    for f, top in cases:
        reflect = _reflects(f)
        m, chain = _operator(f, n, 5)
        for powers in (list(transvection_matrix(f, n).powers(5)), list(chain(m, 5))):
            for a, pa in enumerate(powers, 1):
                for b, pb in enumerate(powers, 1):
                    if a + b <= top:
                        want = (pa @ pb).trace() if f.is_numeric() else trace_product(pa, pb)
                        assert _apolar_trace_product(pa, pb, reflect) == want, (a, b)
    if k == 2:  # the mixed form's characteristic coefficients, at odd and even n
        f = _mixed(2 * k)
        assert charpoly_invariants(f, n) == charpoly(transvection_matrix(f, n), trace_product)


@pytest.mark.parametrize("d,n", ((4, 2), (4, 3), (4, 5), (8, 4), (8, 5)))
def test_charpoly_invariants_equal_the_full_pairing_route(d, n):
    # charpoly_invariants pairs the powers apolarly; charpoly's default
    # pairing, trace_product, reads every entry and is the oracle
    rng = random.Random(d * 10 + n)
    for f in (generic_form(d), random_form(d, rng)):
        m = transvection_matrix(f, n)
        assert charpoly_invariants(f, n) == charpoly(m) == charpoly(m, trace_product)


def test_vanishing_trace_has_the_ring_type():
    numeric = trace_invariant(unstable_form(2), 2, 3)
    assert type(numeric) is Fraction and numeric == 0
    symbolic = trace_invariant(generic_form(4), 3, 3)  # the (k, n) = (2, 3) zero
    assert type(symbolic) is MultiPoly and not symbolic.terms
    assert symbolic.vars == generic_form(4).coeffs[0].vars


def test_zero_symbolic_form_keeps_its_ring():
    # every coefficient is the zero MultiPoly: the matrix, its powers and
    # every trace stay in the form's ring, though every value vanishes
    ring = generic_form(4).coeffs[0].vars
    f = BinaryForm([MultiPoly.zero(ring)] * 5)
    coeffs = charpoly_invariants(f, 2)
    assert coeffs[-1] == 1 and type(coeffs[-1]) is Fraction
    assert all(type(c) is MultiPoly and c.vars == ring and not c for c in coeffs[:-1])
    for p in (1, 2, 3):
        value = trace_invariant(f, 2, p)
        assert type(value) is MultiPoly and value.vars == ring and not value, p


def test_trace_invariant_is_homogeneous_of_degree_p():
    # (4, 3, 3) is left out: tr(M^3) vanishes there (test_cubic_trace_vanishes_for_quartics_at_n3)
    for d, n, p in ((4, 2, 2), (4, 4, 3), (8, 4, 4)):
        value = trace_invariant(generic_form(d), n, p)
        assert {sum(exp) for exp in value.terms} == {p}


def test_charpoly_invariants():
    assert charpoly_invariants(unstable_form(2), 2) == [0, 0, 0, 1]
    rng = random.Random(1)
    f = random_form(4, rng)
    coeffs = charpoly_invariants(f, 2)
    assert coeffs[-1] == 1  # monic
    assert charpoly_invariant(f, 2, 0) == 1
    assert charpoly_invariant(f, 2, 1) == 0  # no linear invariant
    # Newton link against the power traces
    e = [alt_sign(i) * coeffs[3 - i] for i in range(4)]
    traces = [trace_invariant(f, 2, p) for p in (1, 2, 3)]
    for i in (1, 2, 3):
        assert i * e[i] == sum(alt_sign(j - 1) * e[i - j] * traces[j - 1] for j in range(1, i + 1))


def test_generic_quartic_charpoly_is_classical_i_and_j():
    # F = a x^4 + b x^3 y + c x^2 y^2 + d x y^3 + e y^4 with the classical
    # I = 12ae - 3bd + c^2 and J = 72ace + 9bcd - 27ad^2 - 27eb^2 - 2c^3:
    # det(lambda - M) = lambda^3 - (I/12) lambda - J/216 at n = 2
    a, b, c, d, e = generic_form(4).coeffs
    i = 12 * a * e - 3 * b * d + c * c
    j = 72 * a * c * e + 9 * b * c * d - 27 * a * d * d - 27 * e * b * b - 2 * c * c * c
    assert charpoly_invariants(generic_form(4), 2) == [-j / 216, -i / 12, 0, 1]


@pytest.mark.parametrize("d,n", [(4, 2), (4, 3), (4, 4), (8, 4), (8, 5)])
def test_generic_charpoly_specialises_to_numeric(d, n):
    symbolic = charpoly_invariants(generic_form(d), n)
    rng = random.Random(100 * d + n)
    for _ in range(3):
        f = random_form(d, rng)
        at_f = [c.evaluate(f.coeffs) if isinstance(c, MultiPoly) else c for c in symbolic]
        assert at_f == charpoly_invariants(f, n)


def test_generic_octavic_charpoly_against_sympy():
    sympy = pytest.importorskip("sympy")
    f = generic_form(8)
    names = f.coeffs[0].vars
    syms = sympy.symbols(names)

    def to_sympy(x):
        if not isinstance(x, MultiPoly):
            return sympy.Rational(x.numerator, x.denominator)
        return sum((sympy.Rational(c.numerator, c.denominator) * sympy.Mul(*(s ** e for s, e in zip(syms, exp)))
                    for exp, c in x.terms.items()), sympy.Integer(0))

    m = transvection_matrix(f, 4)
    lam = sympy.Symbol("lam")
    oracle = sympy.Matrix([[to_sympy(x) for x in row] for row in m.rows]).charpoly(lam)
    want = [sympy.expand(c) for c in reversed(oracle.all_coeffs())]
    got = charpoly_invariants(f, 4)
    assert len(got) == len(want) == 6
    assert all(sympy.expand(to_sympy(g) - w) == 0 for g, w in zip(got, want))


def _fraction_traces(m, p):
    """tr(M), ..., tr(M^p) by a Fraction matrix power, entry by entry."""
    rows = [[Fraction(x) for x in row] for row in m.rows]
    size = range(len(rows))
    power, traces = rows, []
    for e in range(p):
        if e:
            power = [[sum((power[i][t] * rows[t][j] for t in size), Fraction(0)) for j in size] for i in size]
        traces.append(sum((power[i][i] for i in size), Fraction(0)))
    return traces


def _rational_forms(d, rng):
    """Two forms with Fraction coefficients, one of them with zeros, and the zero form."""
    dense = BinaryForm([Fraction(rng.randint(-9, 9), rng.randint(1, 30)) for _ in range(d + 1)])
    holes = BinaryForm([Fraction(rng.randint(-5, 5), rng.randint(1, 7)) if rng.random() < 0.5 else 0
                        for _ in range(d + 1)])
    return [dense, holes, BinaryForm([0] * (d + 1))]


RATIONAL_SHAPES = ((4, 2), (4, 5), (8, 4), (8, 8), (12, 6), (12, 12))


@pytest.mark.parametrize("d,n", RATIONAL_SHAPES)
def test_rational_traces_and_charpoly_against_fraction_powers(d, n):
    # the integer power chain over D, D^2, ... against Fraction powers; the
    # charpoly oracle is the Newton recurrence over those Fraction traces
    for f in _rational_forms(d, random.Random(d * 100 + n)):
        traces = _fraction_traces(transvection_matrix(f, n), n + 1)
        values = [trace_invariant(f, n, p) for p in range(1, n + 2)]
        assert values == traces and all(type(v) is Fraction for v in values)
        e = [Fraction(1)]
        for i in range(1, n + 2):
            e.append(sum((alt_sign(j - 1) * e[i - j] * traces[j - 1] for j in range(1, i + 1)), Fraction(0)) / i)
        coeffs = charpoly_invariants(f, n)
        assert coeffs == [alt_sign(n + 1 - p) * e[n + 1 - p] for p in range(n + 2)]
        assert all(type(c) is Fraction for c in coeffs)


def test_rational_charpoly_against_sympy():
    sympy = pytest.importorskip("sympy")
    lam = sympy.Symbol("lam")
    for d, n in RATIONAL_SHAPES:
        for f in _rational_forms(d, random.Random(d * 1000 + n)):
            m = transvection_matrix(f, n)
            oracle = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in row] for row in m.rows])
            want = [Fraction(int(c.p), int(c.q)) for c in reversed(oracle.charpoly(lam).all_coeffs())]
            assert charpoly_invariants(f, n) == want


def test_quartic_identities_symbolic():
    f = generic_form(4)
    assert trace_invariant(f, 2, 2) == transvectant(f, f, 4).constant()
    nested = transvectant(f, transvectant(f, f, 2), 4).constant()
    assert trace_invariant(f, 2, 3) == nested


def test_shioda_values():
    assert shioda_invariant(2, X18) == 2
    with pytest.raises(ValueError):
        shioda_invariant(2, X14)
    with pytest.raises(ValueError):
        shioda_invariant(6, X18)


def test_octavic_low_identities_symbolic():
    f = generic_form(8)
    assert trace_invariant(f, 4, 2) == shioda_invariant(2, f)
    assert trace_invariant(f, 4, 3) == shioda_invariant(3, f)


def test_octavic_report_all_pass():
    report = octavic_identity_report()
    assert len(report) == 10
    for entry in report:
        assert entry["pass"], entry["identity"]
        assert entry["lhs_sha256"] == entry["rhs_sha256"]


def test_p2_closed_form_constant_is_one_at_n_equals_k():
    rng = random.Random(2)
    for d in (4, 8):
        f = random_form(d, rng)
        k = d // 2
        assert p2_closed_form(f, k) == transvectant(f, f, d).constant()


def test_p2_closed_form_matches_trace_symbolically():
    f = generic_form(4)
    for n in (2, 3, 4):
        assert p2_closed_form(f, n) == trace_invariant(f, n, 2)


def test_p2_closed_form_vanishes_on_unstable():
    for n in (2, 3, 5):
        assert p2_closed_form(unstable_form(2), n) == 0


@pytest.mark.parametrize("k,n_max", [(2, 8), (4, 8), (6, 7)])
def test_p3_closed_form_matches_trace_symbolically(k, n_max):
    f = generic_form(2 * k)
    for n in range(k, n_max + 1):
        assert p3_closed_form(f, n) == trace_invariant(f, n, 3), n


def test_p3_closed_form_matches_trace_numerically():
    rng = random.Random(5)
    for k in (2, 4, 6):
        for f in (random_form(2 * k, rng), random_form(2 * k, rng)):
            for n in range(k, 3 * k + 3):
                value = p3_closed_form(f, n)
                assert type(value) is Fraction and value == trace_invariant(f, n, 3), (k, n)
    assert p3_closed_form(random_form(4, rng), 3) == 0  # S(2, 3) = 0


def test_cubic_trace_vanishes_for_quartics_at_n3():
    # the (k, n) = (2, 3) zero, symbolically over f0..f4
    assert trace_invariant(generic_form(4), 3, 3) == 0


def test_cubic_trace_proportionality():
    rng = random.Random(3)
    for k, n in ((2, 4), (2, 5), (4, 5), (4, 6)):
        for _ in range(5):
            f = random_form(2 * k, rng)
            g = random_form(2 * k, rng)
            det = trace_invariant(f, n, 3) * trace_invariant(g, k, 3) - trace_invariant(
                g, n, 3
            ) * trace_invariant(f, k, 3)
            assert det == 0


def test_invariance_under_group_action_spot():
    rng = random.Random(4)
    for d, n, p in ((4, 2, 2), (4, 2, 3), (8, 4, 2)):
        f = random_form(d, rng)
        for _ in range(3):
            g = random_unimodular(rng)
            assert trace_invariant(mobius_act(g, f), n, p) == trace_invariant(f, n, p)
    f8 = random_form(8, rng)
    base = {idx: shioda_invariant(idx, f8) for idx in (2, 3, 4, 5)}
    for _ in range(20):
        g = random_unimodular(rng)
        acted = mobius_act(g, f8)
        for idx in (2, 3, 4, 5):
            assert shioda_invariant(idx, acted) == base[idx]
