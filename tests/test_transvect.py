import random
from fractions import Fraction
from math import comb, factorial

import pytest

from binform.exactnum import fact_product
from binform.forms import BinaryForm, generic_form, mobius_act, monomial, random_form, random_unimodular
from binform.invariants import p2_closed_form
from binform.polyring import MultiPoly
from binform.transvect import t_coeff, transvectant
from binform.umbral import BracketMonomial, umbral_eval

X14 = BinaryForm([1, 0, 0, 0, 1])  # x1^4 + x2^4


# -- independent oracle: bivariate dict polynomials -------------------------

def _dmul(p, q):
    out = {}
    for (a, b), c in p.items():
        for (e, f), d in q.items():
            key = (a + e, b + f)
            out[key] = out.get(key, Fraction(0)) + c * d
    return {k: v for k, v in out.items() if v}


def _dd(p, var):
    out = {}
    for (a, b), c in p.items():
        if var == 0 and a:
            out[(a - 1, b)] = out.get((a - 1, b), Fraction(0)) + c * a
        if var == 1 and b:
            out[(a, b - 1)] = out.get((a, b - 1), Fraction(0)) + c * b
    return out


def _dively(p, n1, n2):
    for _ in range(n1):
        p = _dd(p, 0)
    for _ in range(n2):
        p = _dd(p, 1)
    return p


def _brute_transvectant(f: BinaryForm, g: BinaryForm, k: int) -> BinaryForm:
    m, n = f.degree, g.degree
    pf = {(m - i, i): c for i, c in enumerate(f.coeffs) if c}
    pg = {(n - j, j): c for j, c in enumerate(g.coeffs) if c}
    pre = Fraction(factorial(m - k) * factorial(n - k), factorial(m) * factorial(n))
    total = {}
    for l in range(k + 1):
        term = _dmul(_dively(dict(pf), k - l, l), _dively(dict(pg), l, k - l))
        for key, v in term.items():
            total[key] = total.get(key, Fraction(0)) + (-1) ** l * comb(k, l) * v
    order = m + n - 2 * k
    coeffs = [Fraction(0)] * (order + 1)
    for (_, b), v in total.items():
        coeffs[b] = pre * v
    return BinaryForm(coeffs)


def test_matches_brute_force_on_random_forms():
    rng = random.Random(0)
    for _ in range(20):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        k = rng.randint(0, min(m, n))
        f, g = random_form(m, rng), random_form(n, rng)
        assert transvectant(f, g, k) == _brute_transvectant(f, g, k)


@pytest.mark.parametrize("m,n,k", [(4, 3, 2), (5, 5, 5), (2, 6, 1)])
def test_pure_power_monomials(m, n, k):
    got = transvectant(monomial(m, 0), monomial(n, n), k)
    assert got == monomial(m + n - 2 * k, n - k)


def test_quartic_self_transvectants():
    assert transvectant(X14, X14, 4).constant() == 2
    expected = BinaryForm([0, 0, 2, 0, 0])
    assert transvectant(X14, X14, 2) == expected


def test_zeroth_transvectant_is_product():
    rng = random.Random(1)
    f, g = random_form(3, rng), random_form(2, rng)
    prod = transvectant(f, g, 0)
    assert prod.degree == 5
    assert t_coeff(0, 0, 7, 5, 0) == 1


def test_t_coeff_examples():
    assert t_coeff(2, 0, 4, 2, 2) == Fraction(1, 6)
    assert t_coeff(2, 2, 4, 2, 2) == Fraction(1, 6)
    # same value through the explicit factorial ratio
    assert t_coeff(2, 2, 4, 2, 2) == fact_product([2, 2, 2], [4, 2, 0])


def test_t_coeff_range_errors():
    with pytest.raises(ValueError):
        t_coeff(5, 0, 4, 2, 2)
    with pytest.raises(ValueError):
        t_coeff(0, 0, 4, 2, 3)
    with pytest.raises(ValueError):
        transvectant(X14, X14, 5)


def test_t_coeff_agrees_with_transvectant_on_monomials():
    for m in range(7):
        for n in range(7):
            for k in range(min(m, n) + 1):
                for i in range(m + 1):
                    for j in range(n + 1):
                        got = transvectant(monomial(m, i), monomial(n, j), k)
                        expect = [Fraction(0)] * (m + n - 2 * k + 1)
                        pos = i + j - k
                        if 0 <= pos <= m + n - 2 * k:
                            expect[pos] = t_coeff(i, j, m, n, k)
                        else:
                            assert t_coeff(i, j, m, n, k) == 0
                        assert got == BinaryForm(expect)


def _t_coeff_by_factorials(i, j, m, n, k):
    """t_coeff as a Fraction sum of extended inverse factorials, term by term."""
    pre = fact_product([m - k, n - k, k, i, m - i, j, n - j], [m, n])
    total = Fraction(0)
    for l in range(max(0, k - j, k - m + i), min(i, n - j, k) + 1):
        total += (-1) ** l * fact_product([], [l, k - l, i - l, n - j - l, j - k + l, m - i - k + l])
    return pre * total


def test_t_coeff_against_factorial_sum():
    # the integer falling-factorial sum against the Fraction route, every
    # argument with m, n <= 12; the uncached function, so no test shares it
    direct = t_coeff.__wrapped__
    zero = 0
    for m in range(13):
        for n in range(13):
            for k in range(min(m, n) + 1):
                for i in range(m + 1):
                    for j in range(n + 1):
                        got = direct(i, j, m, n, k)
                        assert type(got) is Fraction
                        assert got == _t_coeff_by_factorials(i, j, m, n, k), (i, j, m, n, k)
                        zero += not got
    assert zero  # vanishing coefficients are covered too


@pytest.mark.parametrize("k", [2, 4, 6])
def test_single_term_closed_form(k):
    # for the (2k, k, k) case the internal sum collapses to one term
    for i in range(k + 1):
        for j in range(k + 1):
            closed = (-1) ** j * fact_product([k, k - i + j, k + i - j], [2 * k, i, k - i])
            assert t_coeff(i - j + k, j, 2 * k, k, k) == closed


def test_symmetry_sign():
    rng = random.Random(2)
    for _ in range(15):
        m, n = rng.randint(1, 8), rng.randint(1, 8)
        k = rng.randint(0, min(m, n))
        f, g = random_form(m, rng), random_form(n, rng)
        assert transvectant(f, g, k) == (-1) ** k * transvectant(g, f, k)


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6, 7, 8])
def test_odd_self_transvectants_vanish_symbolically(d):
    f = generic_form(d)
    for k in range(1, d + 1, 2):
        assert transvectant(f, f, k).is_zero()


def test_vanishing_symbolic_coefficients_keep_the_ring():
    # (F, F)_1 of the generic quartic vanishes: every coefficient is the
    # zero MultiPoly, as its umbral oracle (a b) a_x^3 b_x^3 gives it
    f = generic_form(4)
    ring = f.coeffs[0].vars
    bracket = BracketMonomial(("a", "b"), {"a": 4, "b": 4}, {("a", "b"): 1}, {"a": 3, "b": 3})
    for form in (transvectant(f, f, 1), umbral_eval(bracket, {"a": f, "b": f})):
        assert form.degree == 6
        assert all(type(c) is MultiPoly and c.vars == ring and not c for c in form.coeffs)
    value = p2_closed_form(BinaryForm([MultiPoly.zero(ring)] * 5), 2)
    assert type(value) is MultiPoly and value.vars == ring and not value


def test_equivariance_under_the_group_action():
    rng = random.Random(3)
    f = random_form(5, rng)
    g_form = random_form(3, rng)
    for _ in range(10):
        u = random_unimodular(rng)
        for k in (0, 1, 2, 3):
            lhs = mobius_act(u, transvectant(f, g_form, k))
            rhs = transvectant(mobius_act(u, f), mobius_act(u, g_form), k)
            assert lhs == rhs


def test_symbolic_and_numeric_paths_agree():
    f = generic_form(4)
    sym = transvectant(f, f, 4).constant()
    assert isinstance(sym, MultiPoly)
    rng = random.Random(4)
    for _ in range(5):
        point = [Fraction(rng.randint(-5, 5)) for _ in range(5)]
        numeric = transvectant(BinaryForm(point), BinaryForm(point), 4).constant()
        assert sym.evaluate(point) == numeric


def test_numeric_with_symbolic_forms_at_seeded_points():
    # either order: the symbolic result, evaluated at a point, is the numeric
    # transvectant with the point as the symbolic form's coefficients
    rng = random.Random(5)
    for m in range(1, 7):
        for n in range(1, 7):
            f, g = random_form(m, rng), generic_form(n)
            ring = g.coeffs[0].vars
            points = [[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n + 1)] for _ in range(3)]
            for k in range(min(m, n) + 1):
                for numeric_first in (True, False):
                    got = transvectant(f, g, k) if numeric_first else transvectant(g, f, k)
                    assert all(type(c) is MultiPoly and c.vars == ring for c in got.coeffs)
                    for point in points:
                        at = BinaryForm(point)
                        want = transvectant(f, at, k) if numeric_first else transvectant(at, f, k)
                        assert [c.evaluate(point) for c in got.coeffs] == list(want.coeffs)


def test_sparse_fraction_forms_against_brute_force():
    rng = random.Random(6)

    def sparse(order):
        coeffs = [Fraction(0)] * (order + 1)
        for i in rng.sample(range(order + 1), rng.randint(1, min(3, order + 1))):
            coeffs[i] = Fraction(rng.randint(-30, 30), rng.choice([1, 2, 3, 7, 10, 12]))
        return BinaryForm(coeffs)

    for _ in range(60):
        m, n = rng.randint(1, 10), rng.randint(1, 10)
        f, g = sparse(m), sparse(n)
        k = rng.randint(0, min(m, n))
        got = transvectant(f, g, k)
        assert all(type(c) is Fraction for c in got.coeffs)
        assert got == _brute_transvectant(f, g, k)


def _generic_cases():
    """(names, f, g, g0): forms of degrees m <= n <= 6 with independent
    symbolic coefficients a0..am and b0..bn, then each generic_form(d),
    d <= 6, paired with itself; g's coefficients start at names[g0]."""
    for m in range(1, 7):
        for n in range(m, 7):
            names = tuple(f"a{i}" for i in range(m + 1)) + tuple(f"b{j}" for j in range(n + 1))
            f = BinaryForm([MultiPoly.variable(names, i) for i in range(m + 1)])
            g = BinaryForm([MultiPoly.variable(names, m + 1 + j) for j in range(n + 1)])
            yield names, f, g, m + 1
    for d in range(1, 7):
        f = generic_form(d)
        yield f.coeffs[0].vars, f, f, 0


def test_generic_transvectants_against_sympy_diff():
    # the explicit formula of the transvect.py docstring, differentiated by sympy
    sympy = pytest.importorskip("sympy")
    x1, x2 = sympy.symbols("x1 x2")
    cases = 0
    for names, f, g, g0 in _generic_cases():
        syms = sympy.symbols(names)
        m, n = f.degree, g.degree
        big_f = sum(syms[i] * x1 ** (m - i) * x2 ** i for i in range(m + 1))
        big_g = sum(syms[g0 + j] * x1 ** (n - j) * x2 ** j for j in range(n + 1))
        for k in range(min(m, n) + 1):
            pre = sympy.Rational(factorial(m - k) * factorial(n - k), factorial(m) * factorial(n))
            expr = pre * sum(
                (-1) ** l * comb(k, l)
                * sympy.diff(big_f, x1, k - l, x2, l) * sympy.diff(big_g, x1, l, x2, k - l)
                for l in range(k + 1)
            )
            order = m + n - 2 * k
            want = [{} for _ in range(order + 1)]
            poly = sympy.Poly(sympy.expand(expr), x1, x2, *syms)
            for (e1, e2, *exp), c in poly.terms() if poly else ():  # odd (f, f)_k is 0
                assert e1 + e2 == order
                want[e2][tuple(exp)] = Fraction(int(c.p), int(c.q))
            got = transvectant(f, g, k)
            assert got.degree == order
            assert got == BinaryForm([MultiPoly(names, w) for w in want])
            cases += 1
    assert cases == 77 + 27
