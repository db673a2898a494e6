import random
from fractions import Fraction

import pytest

from binform.polyring import (
    MultiPoly,
    RingMatrix,
    charpoly,
    det_exact,
    rank_exact,
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


def test_matrix_examples():
    assert RingMatrix.identity(3).trace() == 3
    nil = RingMatrix([[0, 0, 0], [1, 0, 0], [0, 1, 0]])
    zero = RingMatrix([[Fraction(0)] * 3 for _ in range(3)])
    assert nil.pow(3) == zero
    diag = RingMatrix([[2, 0], [0, 3]])
    assert diag.pow(2).trace() == 13
    assert diag.pow(0) == RingMatrix.identity(2)


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


def _random_matrix(rng, n, m=None):
    m = n if m is None else m
    return RingMatrix(
        [[Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(m)] for _ in range(n)]
    )


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


def test_newton_identities_link_charpoly_and_traces():
    rng = random.Random(3)
    for _ in range(6):
        m = _random_matrix(rng, 4)
        coeffs = charpoly(m)
        e = [(-1) ** i * coeffs[4 - i] for i in range(5)]  # elementary symmetric
        traces = [m.pow(j).trace() for j in range(1, 5)]
        for i in range(1, 5):
            rhs = sum((-1) ** (j - 1) * e[i - j] * traces[j - 1] for j in range(1, i + 1))
            assert i * e[i] == rhs


def test_det_bareiss_vs_charpoly_constant():
    rng = random.Random(4)
    for n in (2, 3, 4):
        for _ in range(6):
            m = _random_matrix(rng, n)
            assert det_exact(m) == (-1) ** n * charpoly(m)[0]


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
