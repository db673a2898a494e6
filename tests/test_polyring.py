import math
import random
from fractions import Fraction

import pytest

from binform.exactnum import alt_sign
from binform.forms import generic_form, random_form, unstable_form
from binform.independence import RANK_PRIME
from binform.invariants import transvection_matrix
from binform.polyring import (
    FIELD_BITS,
    MultiPoly,
    RingMatrix,
    _dense,
    _dot,
    _gf_rank,
    _slots,
    _times,
    _times_folded,
    _unslots,
    charpoly,
    det_exact,
    rank_exact,
    trace_product,
)

V3 = ("f0", "f1", "f2")


def _var(i):
    return MultiPoly.variable(V3, i)


def test_add_cancels():
    f0, f1 = _var(0), _var(1)
    assert (f0 + f1) + -f1 == f0


def test_mul_square_and_zero():
    f0 = _var(0)
    assert f0 * f0 == MultiPoly(V3, {(2, 0, 0): 1})
    assert MultiPoly.zero(V3) * (f0 + 3) == MultiPoly.zero(V3)
    assert not (MultiPoly.zero(V3) * f0)


def test_scale():
    f1 = _var(1)
    assert f1 * Fraction(2, 3) == MultiPoly(V3, {(0, 1, 0): Fraction(2, 3)})


def test_arity_mismatch_rejected():
    p = MultiPoly.variable(("f0", "f1"), 0)
    with pytest.raises(ValueError):
        _ = p + _var(0)
    with pytest.raises(ValueError):
        MultiPoly(V3, {(1, 0): 1})


def test_partial():
    f1, f2 = _var(1), _var(2)
    assert (f2 ** 3).partial(2) == 3 * f2 ** 2
    assert (_var(0) * f1).partial(2) == MultiPoly.zero(V3)
    assert (Fraction(7, 2) * f1 ** 2 * f2).partial(1) == 7 * f1 * f2


def test_eval():
    one_var = ("f0",)
    p = MultiPoly.variable(one_var, 0) ** 2
    assert p.evaluate([Fraction(3)]) == 9
    q = MultiPoly.variable(("f0", "f1"), 0) + MultiPoly.variable(("f0", "f1"), 1)
    assert q.evaluate([Fraction(1, 2), Fraction(1, 2)]) == 1
    assert MultiPoly.zero(V3).evaluate([1, 2, 3]) == 0


def test_canonical_str_is_sorted():
    p = _var(2) + _var(0) * _var(1) + 5
    assert str(p) == "1*f0*f1 + 1*f2 + 5"


def _str_from_canonical_terms(p: MultiPoly) -> str:
    """The canonical text rebuilt from ``canonical_terms``, one Fraction per term."""
    parts = []
    for exp, c in p.canonical_terms():
        factors = [str(c)]
        for name, e in zip(p.vars, exp):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        parts.append("*".join(factors))
    return " + ".join(parts) or "0"


def test_str_against_canonical_terms():
    rng = random.Random(16)
    dens = [1, 1, 2, 3, 6, 10, 7 ** 30]
    for case in range(200):
        names = tuple(f"f{i}" for i in range(rng.randint(1, 13)))
        kind = case % 4
        if kind == 0:  # the zero polynomial
            terms = {}
        elif kind == 1:  # a constant
            terms = {(0,) * len(names): Fraction(rng.randint(-9, 9), rng.choice(dens))}
        else:  # negative, non-integer and integer coefficients over shared and coprime denominators
            terms = {}
            for _ in range(rng.randint(1, 8)):
                exp = tuple(rng.choice((0, 0, 1, 2, 3)) for _ in names)
                terms[exp] = Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.choice(dens))
        p = MultiPoly(names, terms)
        if kind == 3:
            p = p * Fraction(rng.randint(-5, 5) or 1, rng.choice(dens)) + 1
        assert str(p) == _str_from_canonical_terms(p), (case, terms)
    assert str(MultiPoly(V3, {(1, 0, 0): 1}) - _var(0)) == "0"


@pytest.mark.parametrize("exp", [(-1, 0), (1.5, 0), (True, 0), (0, False), (1, "2"), (Fraction(1), 0)])
def test_exponents_must_be_nonnegative_ints(exp):
    with pytest.raises(ValueError, match="nonnegative ints"):
        MultiPoly(("f0", "f1"), {exp: 2})


def test_packed_field_boundary():
    top = 2 ** FIELD_BITS - 1
    f0, f1 = _var(0), _var(1)
    high = f0 ** top
    assert high == MultiPoly(V3, {(top, 0, 0): 1})
    assert str(high) == f"1*f0^{top}"
    assert high.terms == {(top, 0, 0): 1}
    assert high.partial(0) == top * f0 ** (top - 1)
    assert (f0 ** (top - 1) * f1).canonical_terms() == [((top - 1, 1, 0), 1)]
    # a degree that reaches 2^W must raise, never carry into the next field
    with pytest.raises(OverflowError):
        f0 ** (top + 1)
    for other in (f0, f1, f0 + 1):
        with pytest.raises(OverflowError):
            high * other
    with pytest.raises(OverflowError):
        MultiPoly(V3, {(top + 1, 0, 0): 1})
    with pytest.raises(OverflowError):
        MultiPoly(V3, {(top, 1, 0): 1})


def test_sums_refuse_floats_and_other_variable_lists():
    p = _var(0) + Fraction(1, 2)
    other = MultiPoly.variable(("x", "y", "z"), 0)
    for op in (lambda a, b: a + b, lambda a, b: a - b, lambda a, b: b - a):
        with pytest.raises(TypeError):
            op(p, 0.5)
        with pytest.raises(ValueError, match="polynomials over different variable lists"):
            op(p, other)
    with pytest.raises(ValueError, match="polynomials over different variable lists"):
        p.__rsub__(other)  # other - p calls other.__sub__, never this


def _random_poly(rng, nterms=4, maxdeg=3):
    terms = {}
    for _ in range(nterms):
        exp = tuple(rng.randint(0, maxdeg) for _ in V3)
        terms[exp] = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    return MultiPoly(V3, terms)


def test_ring_axioms_randomized():
    rng = random.Random(0)
    for _ in range(25):
        p, q, r = (_random_poly(rng) for _ in range(3))
        assert (p + q) + r == p + (q + r)
        assert p + q == q + p
        assert (p * q) * r == p * (q * r)
        assert p * q == q * p
        assert p * (q + r) == p * q + p * r
        assert p - p == MultiPoly.zero(V3)


class _RefPoly:
    """Exponent tuple -> Fraction arithmetic: the slow route for MultiPoly."""

    def __init__(self, variables, terms):
        self.vars = variables
        self.terms = {e: Fraction(c) for e, c in terms.items() if c}

    def _lift(self, other):
        if isinstance(other, _RefPoly):
            return other
        return _RefPoly(self.vars, {(0,) * len(self.vars): other})

    def __add__(self, other):
        terms = dict(self.terms)
        for e, c in self._lift(other).terms.items():
            terms[e] = terms.get(e, Fraction(0)) + c
        return _RefPoly(self.vars, terms)

    __radd__ = __add__

    def __neg__(self):
        return _RefPoly(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + -self._lift(other)

    def __mul__(self, other):
        acc = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in self._lift(other).terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = acc.get(e, Fraction(0)) + c1 * c2
        return _RefPoly(self.vars, acc)

    __rmul__ = __mul__

    def __truediv__(self, c):
        return self * (Fraction(1) / c)

    def __pow__(self, p):
        out = _RefPoly(self.vars, {(0,) * len(self.vars): 1})
        for _ in range(p):
            out = out * self
        return out

    def partial(self, i):
        terms = {}
        for e, c in self.terms.items():
            if e[i]:
                d = e[:i] + (e[i] - 1,) + e[i + 1:]
                terms[d] = terms.get(d, Fraction(0)) + c * e[i]
        return _RefPoly(self.vars, terms)

    def evaluate(self, point):
        return sum((c * math.prod(Fraction(x) ** k for x, k in zip(point, e))
                    for e, c in self.terms.items()), Fraction(0))

    def canonical_terms(self):
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.canonical_terms():
            factors = [str(c)]
            for name, e in zip(self.vars, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)


def _same(packed, ref):
    assert type(packed) is MultiPoly
    assert packed == MultiPoly(ref.vars, ref.terms)
    assert str(packed) == str(ref)
    assert packed.terms == ref.terms
    assert all(type(c) is Fraction for c in packed.terms.values())
    assert packed.canonical_terms() == ref.canonical_terms()


def _reference_pair(rng, case):
    """Two seeded polynomials over 3-13 variables, packed and reference."""
    names = tuple(f"f{i}" for i in range(rng.randint(3, 13)))
    dens = [1] + [math.factorial(t) for t in range(2, 11)]
    kind = case % 5

    def coeff():
        if kind == 0:  # int-only coefficients
            return rng.randint(-9, 9)
        return Fraction(rng.randint(-10 ** 6, 10 ** 6), rng.choice(dens))

    def terms(maxdeg):
        out = {}
        for _ in range(rng.randint(1, 6)):
            exp = [0] * len(names)
            for _ in range(rng.randint(0, maxdeg)):
                exp[rng.randrange(len(names))] += 1
            out[tuple(exp)] = coeff()
        return out

    a = terms(rng.randint(0, 4))
    if kind == 2:  # a constant operand
        b = {(0,) * len(names): coeff()}
    elif kind == 3:  # cancels against a: a + b is 0
        b = {e: -c for e, c in a.items()}
    else:  # overlapping supports, degrees drawn apart
        b = terms(rng.randint(0, 6))
        b.update({e: coeff() for e in list(a)[:2]})
    return [(MultiPoly(names, t), _RefPoly(names, t)) for t in (a, b)]


def test_packed_core_against_reference_polynomials():
    rng = random.Random(13)
    seen = set()
    for case in range(60):
        (p, pr), (q, qr) = _reference_pair(rng, case)
        _same(p, pr)
        _same(q, qr)
        _same(p + q, pr + qr)
        _same(p - q, pr - qr)
        _same(q - p, qr - pr)
        _same(-p, -pr)
        _same(p * q, pr * qr)
        for c in (rng.randint(-50, 50), Fraction(rng.randint(-50, 50), rng.randint(1, 3628800)), 0):
            _same(p * c, pr * c)
            _same(c * q, c * qr)
            _same(p + c, pr + c)
            _same(c + q, c + qr)
            _same(p - c, pr - c)
            _same(c - q, qr * -1 + c)
            if c:
                _same(p / c, pr / c)
            else:
                with pytest.raises(ZeroDivisionError):
                    p / c
        for e in range(4):
            _same(q ** e, qr ** e)
        for i in range(len(p.vars)):
            _same(p.partial(i), pr.partial(i))
        point = [Fraction(rng.randint(-7, 7), rng.randint(1, 5)) for _ in p.vars]
        assert p.evaluate(point) == pr.evaluate(point)
        assert type(p.evaluate(point)) is Fraction
        assert (p == q) == (pr.terms == qr.terms)

        coeffs = list(pr.terms.values()) + list(qr.terms.values())
        if pr.terms and qr.terms and not (pr + qr).terms:
            seen.add("cancels to 0")
        if any(set(r.terms) == {(0,) * len(r.vars)} for r in (pr, qr)):
            seen.add("constant")
        if coeffs and all(c.denominator == 1 for c in coeffs):
            seen.add("int only")
        if any(c.denominator == math.factorial(10) for c in coeffs):
            seen.add("denominator 10!")
        if any(c < 0 for c in coeffs):
            seen.add("negative")
        if {sum(e) for e in pr.terms} != {sum(e) for e in qr.terms}:
            seen.add("different degrees")
        if len(p.vars) == 13:
            seen.add("13 variables")
    assert seen == {"cancels to 0", "constant", "int only", "denominator 10!", "negative",
                    "different degrees", "13 variables"}


def _fused_pairs(rng, case):
    """Seeded pairs for ``_dot`` over 1-6 variables; each factor is a scalar
    or a (MultiPoly, reference) pair, and either may come first.  ``case``
    picks how many pairs there are and which of them cancel."""
    names = tuple(f"f{i}" for i in range(rng.randint(1, 6)))
    dens = [1, 2, 3, 7, 12, math.factorial(10)]

    def coeff():
        return Fraction(rng.randint(-50, 50), rng.choice(dens))

    def poly(nterms, maxdeg=4):
        terms = {}
        for _ in range(nterms):
            exp = [0] * len(names)
            for _ in range(rng.randint(0, maxdeg)):
                exp[rng.randrange(len(names))] += 1
            terms[tuple(exp)] = coeff()
        return MultiPoly(names, terms), _RefPoly(names, terms)

    pairs = []
    for _ in range(0 if case % 9 == 0 else rng.randint(1, 6)):
        a = poly(rng.randint(0, 5))
        kind = rng.randrange(6)
        if kind == 0:
            b = rng.randint(-9, 9)
        elif kind == 1:
            b = coeff()
        elif kind == 5:  # two scalars: a constant of the ring
            a, b = coeff(), rng.choice([rng.randint(-9, 9), coeff()])
        else:  # a MultiPoly of one or several terms, possibly constant or zero
            b = poly(rng.randint(0, 1) if kind == 2 else rng.randint(2, 5), maxdeg=0 if kind == 3 else 4)
        pairs.append((b, a) if rng.randrange(2) else (a, b))
    if case % 4 == 1 and pairs:  # later pairs cancel one earlier pair, or all of them
        for a, b in pairs[:] if case % 8 == 1 else [rng.choice(pairs)]:
            pairs.append(((-a[0], -a[1]) if isinstance(a, tuple) else -a, b))
    return names, pairs


def test_fused_sum_against_reference_sums():
    rng = random.Random(21)
    seen = set()

    def split(x):  # (MultiPoly, reference), or a scalar that is both
        return x if isinstance(x, tuple) else (x, x)

    for case in range(60):
        names, pairs = _fused_pairs(rng, case)
        pairs = [(split(a), split(b)) for a, b in pairs]
        packed = [(a, b) for (a, _), (b, _) in pairs]
        ref = _RefPoly(names, {})
        for (_, ar), (_, br) in pairs:
            ref = ref + ar * br
        got = _dot(names, packed)
        _same(got, ref)
        # content normalized once: equal to the sum of one-pair products
        assert got == sum((a * b for a, b in packed), MultiPoly.zero(names))
        assert got.vars is names
        if not pairs:
            seen.add("empty")
        if pairs and not got:
            seen.add("cancels to 0")
        for a, b in packed:
            if not isinstance(a, MultiPoly):
                seen.add("scalar first" if isinstance(b, MultiPoly) else "two scalars")
                a, b = b, a
            if isinstance(b, MultiPoly):
                seen.add({0: "zero poly", 1: "one-term poly"}.get(len(b.nums), "many-term poly"))
            else:
                seen.add("zero scalar" if not b else "int" if type(b) is int else "Fraction")
        if len({x.den for pair in packed for x in pair if isinstance(x, MultiPoly)}) > 2:
            seen.add("mixed denominators")
    assert seen == {"empty", "cancels to 0", "zero poly", "one-term poly", "many-term poly",
                    "zero scalar", "int", "Fraction", "mixed denominators", "scalar first", "two scalars"}


def test_fused_sum_over_q_is_the_fraction_sum():
    # the ring None: ints and Fractions in any order, summed as Fractions
    rng = random.Random(22)
    for case in range(40):
        pairs = [tuple(rng.choice([rng.randint(-9, 9), Fraction(rng.randint(-50, 50), rng.randint(1, 12))])
                       for _ in range(2)) for _ in range(case % 7)]
        got = _dot(None, pairs)
        assert type(got) is Fraction
        assert got == sum((Fraction(a) * b for a, b in pairs), Fraction(0))
    assert _dot(None, []) == 0 and type(_dot(None, [])) is Fraction
    assert _dot(None, iter([(2, 3), (Fraction(1, 2), Fraction(-2, 3))])) == Fraction(17, 3)


def test_fused_sum_checks_degree_and_variables():
    top = 2 ** FIELD_BITS - 1
    f0, f1 = _var(0), _var(1)
    high = f0 ** top
    # one-term, many-term and cancelling products of total degree 2^W
    for pairs in ([(high, f1)], [(f1, high)], [(high, f0 + f1)], [(f0, f1), (high, f0), (-high, f0)]):
        with pytest.raises(OverflowError):
            _dot(V3, pairs)
    assert _dot(V3, [(high, 3), (f0, f1)]) == 3 * high + f0 * f1  # scalars keep the degree
    assert _dot(V3, [(3, high), (Fraction(1, 2), 4), (0, f1), (5, 0)]) == 3 * high + 2
    assert _dot(V3, [(2, Fraction(1, 3))]) == MultiPoly.const(V3, Fraction(2, 3))
    other = MultiPoly.variable(("x", "y", "z"), 0)
    for pairs in ([(other, f0)], [(f0, other)], [(other, 2)], [(2, other)], [(f0, f1), (f0, other)]):
        with pytest.raises(ValueError):
            _dot(V3, pairs)
    with pytest.raises(ValueError):
        RingMatrix([[f0]]).mul(RingMatrix([[other]]))


def _entrywise_product(a, b):
    # the sum of one-pair products per entry: the slow route for the fused one
    zero = Fraction(0)
    return [[sum((a[i, t] * b[t, j] for t in range(a.ncols) if a[i, t] and b[t, j]), zero)
             for j in range(b.ncols)] for i in range(a.nrows)]


def test_polynomial_product_and_pairing_against_entrywise_sums():
    rng = random.Random(22)
    for _ in range(12):
        n, inner = rng.randint(1, 5), rng.randint(1, 5)

        def entry():
            r = rng.random()
            if r < 0.3:
                return MultiPoly.zero(V3)
            if r < 0.45:
                return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
            return _random_poly(rng, nterms=rng.randint(1, 3))

        a = RingMatrix([[entry() for _ in range(inner)] for _ in range(n)])
        b = RingMatrix([[entry() for _ in range(n)] for _ in range(inner)])
        assert [list(r) for r in a.mul(b).rows] == _entrywise_product(a, b)
        want = sum((a[i, j] * b[j, i] for i in range(n) for j in range(inner)), MultiPoly.zero(V3))
        assert trace_product(a, b) == want
        assert type(trace_product(a, b)) is MultiPoly


def test_rational_pairing_against_fraction_oracle():
    rng = random.Random(23)
    for case in range(20):
        a, b = _oracle_operands(rng, case)
        if a.nrows != b.ncols:
            b = RingMatrix(list(zip(*a.rows)))
        value = trace_product(a, b)
        assert type(value) is Fraction
        assert value == sum((Fraction(a[i, j]) * Fraction(b[j, i]) for i in range(a.nrows)
                             for j in range(a.ncols)), Fraction(0))
    with pytest.raises(ValueError):
        trace_product(RingMatrix([[1, 2]]), RingMatrix([[1, 2]]))


def test_running_power_prepares_its_factor_once(monkeypatch):
    import binform.polyring as polyring

    cleared = []
    integral = polyring.RingMatrix._integral

    def counted(self):
        if self._ints is None:
            cleared.append(self)
        return integral(self)

    monkeypatch.setattr(polyring.RingMatrix, "_integral", counted)
    m = transvection_matrix(random_form(8, random.Random(5)), 4)
    powers = list(m.powers(6))
    # M is cleared to A / D once; every power stays integer rows over D^e
    assert len(cleared) == 1 and cleared[0] is m
    assert [power._integral()[1] for power in powers] == [m._integral()[1] ** e for e in range(1, 7)]
    assert [list(r) for r in powers[-1].rows] == _fraction_product(powers[-2], m)


def _times_mod_oracle(a, b, ncols, p):
    """a @ b mod p as dense rows: the exact sparse product, reduced after."""
    return [[v % p for v in _dense(row, ncols)] for row in _times(a, b)]


def _residue_rows(rng, nrows, ncols, p, density):
    """Sparse rows of residues mod p, each entry nonzero with ``density``."""
    return [{t: v for t in range(ncols) if rng.random() < density and (v := rng.randrange(p))}
            for _ in range(nrows)]


def _rank_mod(rows, p):
    """Rank of residue rows over GF(p), p prime, by plain Gaussian elimination."""
    rows = [list(row) for row in rows]
    rank = 0
    for col in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], -1, p)
        top = [x * inv % p for x in rows[rank]]
        for i in range(rank + 1, len(rows)):
            if f := rows[i][col]:
                rows[i] = [(x - f * y) % p for x, y in zip(rows[i], top)]
        rank += 1
    return rank


def _folded(a, b, ncols):
    """``_times_folded`` on sparse residue rows a and b, slots unpacked."""
    out = _times_folded([_dense(row, len(b)) for row in a], [_slots(_dense(row, ncols)) for row in b], ncols)
    return [list(_unslots(x, ncols)) for x in out]


@pytest.mark.parametrize("n,p", [(n, p) for n in (1, 2, 3, 16, 17, 61) for p in (RANK_PRIME, 2**30 - 35, 2, 7)]
                         + [(4, 2**31 - 1), (5, 2**31 - 1)])
def test_packed_product_against_exact_route(p, n):
    # the packed GF(p) layer against the exact sparse product reduced mod p:
    # the folded product at p = RANK_PRIME, its one modulus, and the packed
    # elimination of the product rows at every p; dense, sparse, mixed and
    # all-zero rows, square and rectangular factors.  Products of an inner
    # dimension n are rank-deficient once either side has more than n rows
    # or columns, and the elimination reduces its rows again every
    # (2^64 - p) // (p - 1)^2 pivots: every 4 at 2^31 - 1, every 16 at
    # 2^30 - 35
    rng = random.Random(1000 * n + p % 1000)
    for ncols in (n, n + 5, max(1, n // 2)):
        for density in (0.0, 0.2, 0.6, 1.0):
            a = _residue_rows(rng, n + 3, n, p, density) + [{}]
            b = _residue_rows(rng, n, ncols, p, 1.0 - density / 2)
            b[rng.randrange(n)] = {}
            want = _times_mod_oracle(a, b, ncols, p)
            if p == RANK_PRIME:
                got = _folded(a, b, ncols)
                assert all(x < 2**26 + 5 for row in got for x in row)
                assert [[x % p for x in row] for row in got] == want
            assert _gf_rank(want, p) == _rank_mod(want, p) <= min(n, ncols)


def test_packed_slots_do_not_carry_at_the_bound():
    p = RANK_PRIME
    top = 2**26 + 4  # the bound on a slot that three folds leave
    # n = 4096 rows of residues p - 1 against slots at that maximum: each
    # slot sums n (p - 1)(2^26 + 4) < 2^64, the largest a product may hold
    for n, ncols in ((4096, 3), (61, 61), (1, 1), (1, 7)):
        a = [[p - 1] * n for _ in range(2)]
        b = [_slots([top] * ncols) for _ in range(n)]
        assert n * (p - 1) * top < 2**64
        for x in _times_folded(a, b, ncols):
            assert all(y % p == n * (p - 1) * top % p and y <= top for y in _unslots(x, ncols))
    # n = 1, the folds alone: the largest slot, 2^64 - 1, and others; every
    # result is congruent and at most 2^26 + 4, and a reduced slot stays
    rng = random.Random(4)
    for x in (2**64 - 1, 2**63, 2**26 - 1, 2**26, top, p, 0) + tuple(rng.randrange(2**64) for _ in range(50)):
        (y,) = _unslots(_times_folded([[1]], [_slots([x])], 1)[0], 1)
        assert y % p == x % p and y <= top
        assert y == x or x >= 2**26
    mixed = [2**64 - 1, 5, 0, 2**26 - 1]
    assert [y % p for y in _unslots(_times_folded([[1]], [_slots(mixed)], 4)[0], 4)] == [x % p for x in mixed]


def test_packed_rank_against_rank_mod():
    rng = random.Random(9)
    for p in (RANK_PRIME, 2**31 - 1, 2**30 - 35, 65537, 7, 2):
        # rank-deficient products of random factors, and random matrices
        for rows, cols in ((1, 1), (3, 5), (6, 13), (12, 25), (25, 12), (40, 81)):
            for inner in sorted({1, rows // 2 + 1, rows}):
                left = [[rng.randrange(p) for _ in range(inner)] for _ in range(rows)]
                right = [[rng.randrange(p) for _ in range(cols)] for _ in range(inner)]
                prod = [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*right)] for row in left]
                assert _gf_rank(prod, p) == _rank_mod(prod, p) <= inner
            full = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
            assert _gf_rank(full, p) == _rank_mod(full, p)
        # a step leaves slot 1 of the second row at p, a nonzero multiple of
        # p that must count as zero
        assert _gf_rank([[1, 1], [1, 1]], p) == 1
        assert _gf_rank([[1, 1, 0], [1, 1, 1]], p) == 2
        assert _gf_rank([[0, 0], [0, 0]], p) == 0


def test_packed_rank_reduces_rows_at_the_step_bound():
    # at p = 2^31 - 1 a step adds up to (p - 1)^2 ~ 2^62 to a slot, so a row
    # may take only (2^64 - p) // (p - 1)^2 = 4 steps between reductions;
    # upper-triangular pivots with slots p - 1 give the later rows steps of
    # nearly that size at every pivot, past the bound many times over
    for p in (2**31 - 1, 2**30 - 35, RANK_PRIME):
        steps = (2**64 - p) // (p - 1) ** 2
        assert steps == {2**31 - 1: 4, 2**30 - 35: 16, RANK_PRIME: 4096}[p]
        for m in (steps - 1, steps, steps + 1, 2 * steps + 3):
            if m > 40:
                continue
            pivots = [[0] * i + [1] + [p - 1] * (m - i) for i in range(m)]
            rows = pivots + [[1] * (m + 1), [2] * (m + 1), [1] * m + [0]]
            assert _gf_rank(rows, p) == _rank_mod(rows, p)


def _power(m, p):
    """M^p as the last of ``m.powers(p)``, the identity at p = 0."""
    out = RingMatrix.identity(m.nrows)
    for out in m.powers(p):
        pass
    return out


def test_matrix_examples():
    assert RingMatrix.identity(3).trace() == 3
    nil = RingMatrix([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    zero = RingMatrix([[Fraction(0)] * 3 for _ in range(3)])
    assert _power(nil, 3) == zero
    diag = RingMatrix([[2, 0], [0, 3]])
    assert _power(diag, 2).trace() == 13
    assert _power(diag, 0) == RingMatrix.identity(2)


def test_zero_sums_have_the_ring_type():
    diag = RingMatrix([[2, 0], [0, 3]])
    assert type(diag.trace()) is Fraction
    assert all(type(c) is Fraction for row in diag.mul(diag).rows for c in row)
    cube = _power(transvection_matrix(unstable_form(2), 2), 3)
    assert all(type(c) is Fraction for row in cube.rows for c in row)
    assert type(cube.trace()) is Fraction and cube.trace() == 0
    # a symbolic nilpotent matrix: its square is all zero entries of its ring
    zero, f0 = Fraction(0), _var(0)
    square = _power(RingMatrix([[zero, f0], [zero, zero]]), 2)
    assert all(type(c) is MultiPoly and c == MultiPoly.zero(V3) for row in square.rows for c in row)
    assert type(square.trace()) is MultiPoly and type(trace_product(square, square)) is MultiPoly


def _fraction_product(a, b):
    # entrywise Fraction triple loop: the slow route for RingMatrix.mul
    return [
        [
            sum((Fraction(a[i, t]) * Fraction(b[t, j]) for t in range(a.ncols)), Fraction(0))
            for j in range(b.ncols)
        ]
        for i in range(a.nrows)
    ]


def _oracle_operands(rng, case):
    """Two seeded rational matrices of compatible shape; ``case`` picks the kind."""
    if case == 0:
        n = inner = m = 1
    else:
        n, inner, m = (rng.randint(1, 9) for _ in range(3))
    kind = case % 5
    if kind == 0:  # plain ints only

        def entry():
            return rng.randint(-9, 9)

    else:  # denominators up to 10!
        big = math.factorial(10)

        def entry():
            return Fraction(rng.randint(-big, big), rng.choice((1, rng.randint(1, big))))

    a = [[entry() for _ in range(inner)] for _ in range(n)]
    b = [[entry() for _ in range(m)] for _ in range(inner)]
    if kind == 2:  # a zero row of a, a zero column of b, and sparse entries
        a[rng.randrange(n)] = [0] * inner
        j = rng.randrange(m)
        for row in b:
            row[j] = Fraction(0)
        for row in a + b:
            for t in range(len(row)):
                if rng.random() < 0.5:
                    row[t] = 0
    elif kind == 3:  # an all-zero operand
        if rng.random() < 0.5:
            a = [[Fraction(0)] * inner for _ in range(n)]
        else:
            b = [[0] * m for _ in range(inner)]
    elif kind == 4 and inner >= 2:  # entry (0, 0) of the product cancels to 0
        a[0][0], a[0][1], b[0][0] = Fraction(3, 7), Fraction(-5, 11), Fraction(2, 13)
        b[1][0] = -a[0][0] * b[0][0] / a[0][1]
        for t in range(2, inner):
            b[t][0] = 0
    return RingMatrix(a), RingMatrix(b)


def test_rational_product_against_fraction_oracle():
    rng = random.Random(6)
    seen = set()
    for case in range(40):
        a, b = _oracle_operands(rng, case)
        prod = a.mul(b)
        assert (prod.nrows, prod.ncols) == (a.nrows, b.ncols)
        assert [list(r) for r in prod.rows] == _fraction_product(a, b)
        assert all(type(c) is Fraction for row in prod.rows for c in row)
        if a.nrows == a.ncols == b.ncols == 1:
            seen.add("1x1")
        if a.nrows != a.ncols or b.nrows != b.ncols:
            seen.add("rectangular")
        if all(type(c) is int for m in (a, b) for row in m.rows for c in row):
            seen.add("int only")
        if any(not any(row) for row in a.rows) and any(not any(col) for col in zip(*b.rows)):
            seen.add("zero row and column")
        if any(not any(c for row in m.rows for c in row) for m in (a, b)):
            seen.add("all zero")
        if any(c.denominator > 10 ** 5 for m in (a, b) for row in m.rows for c in row
               if isinstance(c, Fraction)):
            seen.add("large denominators")
        if any(not prod[i, j] and any(a[i, t] and b[t, j] for t in range(a.ncols))
               for i in range(prod.nrows) for j in range(prod.ncols)):
            seen.add("cancellation")
        # the integer product combines rows of b for a row of a with fewer
        # nonzero entries than half its length, and takes dot products otherwise
        for row in a.rows:
            seen.add("sparse row" if 2 * sum(1 for c in row if c) < len(row) else "dense row")
    assert seen == {"1x1", "rectangular", "int only", "zero row and column", "all zero",
                    "large denominators", "cancellation", "sparse row", "dense row"}


@pytest.mark.parametrize("k", [2, 4, 6, 8])
def test_rational_running_power_against_fraction_oracle(k):
    m = transvection_matrix(random_form(2 * k, random.Random(k)), k)
    fast = m
    slow = [list(r) for r in m.rows]
    for _ in range(2, 9):
        fast = fast.mul(m)
        slow = _fraction_product(RingMatrix(slow), m)
        assert [list(r) for r in fast.rows] == slow
        assert all(type(c) is Fraction for row in fast.rows for c in row)


def test_matrix_dimension_errors():
    with pytest.raises(ValueError):
        RingMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        RingMatrix([[1, 2]]).mul(RingMatrix([[1, 2]]))
    with pytest.raises(ValueError):
        RingMatrix([[1, 2]]).trace()


def test_charpoly_examples():
    assert charpoly(RingMatrix([[0]])) == [0, 1]
    assert charpoly(RingMatrix([[1, 0], [0, 2]])) == [2, -3, 1]
    rng = random.Random(1)
    low = [[Fraction(rng.randint(-3, 3)) if i > j else Fraction(0) for j in range(4)] for i in range(4)]
    assert charpoly(RingMatrix(low)) == [0, 0, 0, 0, 1]


def test_charpoly_of_a_multipoly_matrix():
    a, b, c, d = (MultiPoly.variable(("a", "b", "c", "d"), i) for i in range(4))
    assert charpoly(RingMatrix([[a, b], [c, d]])) == [a * d - b * c, -(a + d), 1]
    assert charpoly(RingMatrix([[a, 0], [Fraction(1, 2), a]])) == [a * a, -2 * a, 1]


def test_charpoly_refuses_float_entries():
    with pytest.raises(TypeError):
        charpoly(RingMatrix([[1.5, 0], [0, 1]]))
    with pytest.raises(TypeError):
        charpoly(RingMatrix([[_var(0), 0.5], [0, 1]]))


def _random_matrix(rng, n, m=None):
    m = n if m is None else m
    return RingMatrix(
        [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(m)] for _ in range(n)]
    )


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8])
def test_half_power_traces_against_full_powers(n):
    # charpoly pairs M^ceil(j/2) with M^floor(j/2); the slow route takes
    # tr(M^j) from all of M, ..., M^n and the same Newton recurrence
    rng = random.Random(n)
    if n <= 4:
        dense = RingMatrix([[_random_poly(rng, 2, 2) for _ in range(n)] for _ in range(n)])
    else:  # sparse single-term entries, as the invariants take them
        dense = transvection_matrix(generic_form(8), n - 1)
    for m in (_random_matrix(rng, n), dense):
        traces = [power.trace() for power in m.powers(n)]
        e = [Fraction(1)]
        for i in range(1, n + 1):
            e.append(sum((alt_sign(j - 1) * e[i - j] * traces[j - 1] for j in range(1, i + 1)), Fraction(0)) / i)
        assert charpoly(m) == [alt_sign(n - p) * e[n - p] for p in range(n + 1)]


def test_charpoly_against_interpolated_determinant():
    # independent oracle: evaluate det(x*I - M) by Bareiss at n+1 points and
    # Lagrange-interpolate the coefficients
    rng = random.Random(2)
    for _ in range(8):
        m = _random_matrix(rng, 4)
        coeffs = charpoly(m)
        xs = [Fraction(t) for t in range(5)]
        for x in xs:
            shifted = RingMatrix(
                [
                    [(x if i == j else Fraction(0)) - m[i, j] for j in range(4)]
                    for i in range(4)
                ]
            )
            expected = sum(coeffs[p] * x ** p for p in range(5))
            assert det_exact(shifted) == expected


def test_charpoly_against_sympy():
    sympy = pytest.importorskip("sympy")
    lam = sympy.Symbol("lam")
    rng = random.Random(14)
    dens = [math.factorial(t) for t in range(1, 11)]
    for case in range(30):
        n = 1 + case % 7
        rows = [[Fraction(rng.randint(-9, 9), rng.choice(dens)) if case % 3 else rng.randint(-9, 9)
                 for _ in range(n)] for _ in range(n)]
        oracle = sympy.Matrix([[sympy.Rational(Fraction(x).numerator, Fraction(x).denominator) for x in r]
                               for r in rows])
        want = [Fraction(int(c.p), int(c.q)) for c in reversed(oracle.charpoly(lam).all_coeffs())]
        assert charpoly(RingMatrix(rows)) == want


def test_newton_identities_link_charpoly_and_traces():
    rng = random.Random(3)
    for _ in range(6):
        m = _random_matrix(rng, 4)
        coeffs = charpoly(m)
        e = [(-1) ** i * coeffs[4 - i] for i in range(5)]  # elementary symmetric
        traces = [power.trace() for power in m.powers(4)]
        for i in range(1, 5):
            rhs = sum((-1) ** (j - 1) * e[i - j] * traces[j - 1] for j in range(1, i + 1))
            assert i * e[i] == rhs


def test_det_bareiss_vs_charpoly_constant():
    rng = random.Random(4)
    for n in (2, 3, 4):
        for _ in range(6):
            m = _random_matrix(rng, n)
            assert det_exact(m) == (-1) ** n * charpoly(m)[0]


def test_det_of_a_product_held_only_as_integers():
    # a product is made as A / D alone; det and rank eliminate its A without
    # its Fraction rows ever being read
    rng = random.Random(21)
    for n in (1, 2, 3, 4, 5):
        for _ in range(4):
            a, b = _random_matrix(rng, n), _random_matrix(rng, n)
            prod = a.mul(b)
            assert det_exact(prod) == det_exact(a) * det_exact(b)
            assert rank_exact(prod) <= min(rank_exact(a), rank_exact(b))
            assert prod._rows is None
            assert det_exact(prod) == det_exact(RingMatrix(prod.rows))


def test_det_and_rank_of_plain_int_entries():
    m = RingMatrix([[2, -1, 0], [-1, 2, -1], [0, -1, 2]])
    assert det_exact(m) == 4 and type(det_exact(m)) is Fraction
    assert rank_exact(m) == 3
    singular = RingMatrix([[1, 2, 3], [2, 4, 6], [0, 0, 5]])
    assert det_exact(singular) == 0 and rank_exact(singular) == 2
    assert rank_exact(RingMatrix([[0, 0], [0, 0], [3, 0]])) == 1
    assert det_exact(RingMatrix([[7]])) == 7
    assert det_exact(RingMatrix([[2, 4], [3, 9]])) == 6  # row contents 2 and 3


def test_det_example():
    m = RingMatrix([[0, Fraction(-1, 2)], [Fraction(-3, 8), 0]])
    assert det_exact(m) == Fraction(-3, 16)


def _gauss_rank(mat):
    # plain fraction Gaussian elimination, used as the rank oracle
    rows = [list(map(Fraction, r)) for r in mat.rows]
    nrows, ncols = len(rows), len(rows[0])
    rank = 0
    for c in range(ncols):
        piv = next((r for r in range(rank, nrows) if rows[r][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for r in range(rank + 1, nrows):
            if rows[r][c]:
                factor = rows[r][c] / rows[rank][c]
                for j in range(c, ncols):
                    rows[r][j] -= factor * rows[rank][j]
        rank += 1
    return rank


def test_exact_elimination_rejects_polynomial_entries():
    m = transvection_matrix(generic_form(4), 2)
    with pytest.raises(TypeError, match="not a rational coefficient"):
        rank_exact(m)
    with pytest.raises(TypeError, match="not a rational coefficient"):
        det_exact(m)


def test_rank_examples():
    assert rank_exact(RingMatrix([[Fraction(0)] * 4 for _ in range(3)])) == 0
    assert rank_exact(RingMatrix.identity(4)) == 4


def test_rank_against_gauss_oracle():
    rng = random.Random(5)
    for _ in range(20):
        n, m = rng.randint(1, 5), rng.randint(1, 6)
        full = _random_matrix(rng, n, m)
        assert rank_exact(full) == _gauss_rank(full)
        # rank-deficient product
        inner = rng.randint(1, min(n, m))
        a = _random_matrix(rng, n, inner)
        b = _random_matrix(rng, inner, m)
        prod = a.mul(b)
        assert rank_exact(prod) == _gauss_rank(prod)


def test_det_and_rank_against_sympy():
    # det and rank share one elimination; sympy is the independent oracle.
    # Each draw is classified after the fact, and every kind must occur.
    sympy = pytest.importorskip("sympy")
    rng = random.Random(12)
    dens = [math.factorial(t) for t in range(1, 11)]
    seen = set()
    for _ in range(120):
        n, m = rng.randint(1, 6), rng.randint(1, 6)
        rows = [
            [Fraction(rng.randint(-9, 9), rng.choice(dens)) for _ in range(m)]
            for _ in range(n)
        ]
        dependent = n >= 2 and rng.random() < 0.3
        if dependent:
            i = rng.randrange(n)
            j, k = (rng.choice([t for t in range(n) if t != i]) for _ in range(2))
            c = Fraction(rng.randint(-5, 5), rng.choice(dens))
            rows[i] = [c * x + y for x, y in zip(rows[j], rows[k])]
        if rng.random() < 0.2:
            rows[rng.randrange(n)] = [Fraction(0)] * m
        if rng.random() < 0.2:
            col = rng.randrange(m)
            for row in rows:
                row[col] = Fraction(0)
        mat = RingMatrix(rows)
        oracle = sympy.Matrix([[sympy.Rational(x.numerator, x.denominator) for x in r] for r in rows])
        rank = oracle.rank()
        assert rank_exact(mat) == rank
        if n == m:
            det = sympy.Rational(oracle.det())
            assert det_exact(mat) == Fraction(int(det.p), int(det.q))
            if det:
                seen.add("square nonsingular")
            elif dependent and all(any(r) for r in rows):
                seen.add("square singular by a dependent row")
        else:
            seen.add("wide" if m > n else "tall")
        if any(not any(r) for r in rows):
            seen.add("zero row")
        if any(not any(col) for col in zip(*rows)):
            seen.add("zero column")
        if any(x.denominator > dens[-2] for r in rows for x in r):
            seen.add("denominator above 9!")
    assert seen == {
        "square nonsingular",
        "square singular by a dependent row",
        "wide",
        "tall",
        "zero row",
        "zero column",
        "denominator above 9!",
    }
