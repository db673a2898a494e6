import math
import random
from fractions import Fraction

import pytest

from binform import independence
from binform.combsum import nkr
from binform.exactnum import alt_sign
from binform.forms import BinaryForm, generic_form, random_form, unstable_form
from binform.independence import (
    RANK_PRIME,
    independence_certificate,
    jacobian_matrix,
    jacobian_rank,
    jacobian_unstable_closed,
    unstable_minor,
)
from binform.invariants import trace_invariant, transvection_matrix
from binform.polyring import RingMatrix, _gf_rank, det_exact, rank_exact
from binform.transvect import t_coeff


def _gradient_row(power: RingMatrix, k: int, r: int) -> tuple[Fraction, ...]:
    """Gradient of tr(M^r) from ``power`` = M^(r-1), summed in Fractions."""
    d = 2 * k
    row = [Fraction(0)] * (d + 1)
    for i in range(k + 1):
        for j in range(k + 1):
            v = power[i, j]
            if v:
                s = j - i + k
                row[s] += r * v * t_coeff(s, i, d, k, k)
    return tuple(row)


def _rational_form(d: int, rng: random.Random) -> BinaryForm:
    return BinaryForm([Fraction(rng.randint(-9, 9), rng.randint(1, 12)) for _ in range(d + 1)])


def _banded_form(k: int, rng: random.Random) -> BinaryForm:
    """Nonzero only at f_(k-1) and f_(k+1): M has two nonzero diagonals, so
    the rows of its early powers have few nonzero entries each."""
    coeffs = [Fraction(0)] * (2 * k + 1)
    coeffs[k - 1] = Fraction(rng.choice([-3, -1, 2, 5]), rng.randint(1, 4))
    coeffs[k + 1] = Fraction(rng.choice([-2, 1, 3, 7]), rng.randint(1, 4))
    return BinaryForm(coeffs)


def _rank_forms(k: int, rng: random.Random) -> list[BinaryForm]:
    """The witness, random forms at bounds 1 and 9, a rational form, a
    banded form and the zero form."""
    return [
        unstable_form(k),
        random_form(2 * k, rng, bound=1),
        random_form(2 * k, rng, bound=9),
        _rational_form(2 * k, rng),
        _banded_form(k, rng),
        BinaryForm([0] * (2 * k + 1)),
    ]


def test_jacobian_matches_symbolic_differentiation():
    # oracle: differentiate the symbolic invariant and evaluate at the point
    rng = random.Random(0)
    for k in (2, 4):
        sym = {r: trace_invariant(generic_form(2 * k), k, r) for r in range(2, k + 2)}
        for _ in range(10 if k == 2 else 3):
            f = random_form(2 * k, rng)
            point = list(f.coeffs)
            jac = jacobian_matrix(f)
            for r in range(2, k + 2):
                for s in range(2 * k + 1):
                    assert jac[r - 2, s] == sym[r].partial(s).evaluate(point), (k, r, s)


@pytest.mark.parametrize("k", [2, 4, 6, 8, 10, 12])
def test_chain_rule_equals_closed_form_at_unstable(k):
    assert jacobian_matrix(unstable_form(k)) == jacobian_unstable_closed(k)


def test_unstable_rows_have_single_support():
    for k in (2, 4):
        jac = jacobian_matrix(unstable_form(k))
        for r in range(2, k + 2):
            support = [s for s in range(2 * k + 1) if jac[r - 2, s]]
            assert support == [k - r + 1]


def test_unstable_columns_beyond_k_minus_1_vanish():
    for k in (2, 4, 6):
        jac = jacobian_unstable_closed(k)
        for r in range(k):
            for s in range(k, 2 * k + 1):
                assert jac[r, s] == 0


def test_k2_closed_entries():
    jac = jacobian_unstable_closed(2)
    assert jac[0, 1] == Fraction(-1, 2)
    assert jac[1, 0] == Fraction(-3, 8)
    assert unstable_minor(2) == Fraction(-3, 16)


def test_minor_is_signed_antidiagonal_product():
    # unstable_minor is the signed antidiagonal product; Bareiss on
    # columns 0..k-1 is the independent oracle
    for k in (2, 4, 6, 8, 10):
        jac = jacobian_unstable_closed(k)
        assert unstable_minor(k) == det_exact(RingMatrix([row[:k] for row in jac.rows]))


def test_minor_nonzero_iff_all_nkr_nonzero():
    for k in (2, 4, 6):
        assert unstable_minor(k) != 0
        assert all(nkr(k, r) != 0 for r in range(2, k + 2))


def test_certificate_small():
    cert = independence_certificate(2)
    assert cert["rank"] == 2
    assert cert["pass"] is True
    assert cert["minor"] == "-3/16"
    assert cert["N"] == {"2": "4", "3": "2"}
    assert cert["witness"]["coeffs"] == ["0", "0", "0", "1", "0"]


def test_certificate_k4():
    cert = independence_certificate(4)
    assert cert["rank"] == 4 == cert["expected"]
    assert cert["pass"] is True
    assert Fraction(cert["minor"]) != 0


def test_certificate_with_random_point():
    cert = independence_certificate(2, include_random_point=True, seed=7)
    assert cert["random_point"]["rank"] == 2
    again = independence_certificate(2, include_random_point=True, seed=7)
    assert cert == again


@pytest.mark.parametrize("k", [2, 4, 6, 8, 10, 12])
def test_jacobian_matches_fraction_gradient_rows(k):
    # oracle: the Fraction chain rule over RingMatrix.powers, entry by entry
    rng = random.Random(k)
    forms = (random_form(2 * k, rng), random_form(2 * k, rng, bound=1000), _rational_form(2 * k, rng),
             _banded_form(k, rng), unstable_form(k))
    for f in forms:
        m = transvection_matrix(f, k)
        expected = RingMatrix([_gradient_row(power, k, r) for r, power in enumerate(m.powers(k), 2)])
        assert jacobian_matrix(f) == expected


@pytest.mark.parametrize("k", [2, 4, 6, 8, 10, 12])
def test_modular_rank_equals_exact_rank(k):
    # among the monomial forms x1^(2k-s) x2^s are ranks strictly between 0 and k
    monomials = [BinaryForm([int(i == s) for i in range(2 * k + 1)]) for s in range(2 * k + 1)]
    for f in _rank_forms(k, random.Random(100 + k)) + monomials:
        assert jacobian_rank(f) == rank_exact(jacobian_matrix(f)), f.coeffs
    assert sorted({jacobian_rank(f) for f in monomials})[:2] == [1, 2]
    assert jacobian_rank(unstable_form(k)) == k
    assert jacobian_rank(BinaryForm([0] * (2 * k + 1))) == 0


def test_rank_mod_p_equals_exact_rank_on_low_rank_matrices():
    rng = random.Random(2)
    for rows, cols in ((3, 5), (6, 13), (12, 25)):
        for inner in range(1, rows + 1):
            left = [[rng.randint(-9, 9) for _ in range(inner)] for _ in range(rows)]
            right = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(inner)]
            prod = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left]
            exact = rank_exact(RingMatrix(prod))
            assert _gf_rank([[x % RANK_PRIME for x in row] for row in prod], RANK_PRIME) == exact


def test_rank_falls_back_to_bareiss_when_short_mod_p(monkeypatch):
    # the fallback eliminates the integer rows N_r, one Bareiss run per form
    exact_calls = []
    bareiss = independence._bareiss

    def counted(rows):
        exact_calls.append(len(rows))
        return bareiss(rows)

    monkeypatch.setattr(independence, "_bareiss", counted)
    rng = random.Random(1)
    zero = BinaryForm([0] * 9)
    assert jacobian_rank(zero) == 0 and exact_calls == [4]  # rank 0 is never proved mod p
    monkeypatch.setattr(independence, "RANK_PRIME", 2)
    for k in (2, 4, 6):
        for f in (unstable_form(k), random_form(2 * k, rng), _rational_form(2 * k, rng)):
            before = len(exact_calls)
            assert jacobian_rank(f) == rank_exact(jacobian_matrix(f)) == k
            assert len(exact_calls) == before + 1


def test_rank_prime_needs_no_exact_fallback_on_real_inputs(monkeypatch):
    # the witness for every even k <= 60 and the certificate workload's
    # random points: every rank is proved mod RANK_PRIME, none by Bareiss
    exact_calls = []
    bareiss = independence._bareiss

    def counted(rows):
        exact_calls.append(len(rows))
        return bareiss(rows)

    monkeypatch.setattr(independence, "_bareiss", counted)
    for k in range(2, 61, 2):
        assert jacobian_rank(unstable_form(k)) == k
    for k in range(8, 17, 2):
        for s in range(8):
            assert jacobian_rank(random_form(2 * k, random.Random(s))) == k
    assert exact_calls == []


def test_rank_at_random_octavic():
    rng = random.Random(5)
    jac = jacobian_matrix(random_form(8, rng))
    assert rank_exact(jac) == 4


def test_preconditions():
    with pytest.raises(ValueError, match="numeric forms"):
        jacobian_matrix(generic_form(4))
    with pytest.raises(ValueError, match="numeric forms"):
        jacobian_rank(generic_form(4))
    rng = random.Random(0)
    with pytest.raises(ValueError, match="form degree 5 is odd; need d = 2k"):
        jacobian_matrix(random_form(5, rng))
    for d, k in ((6, 3), (2, 1)):
        with pytest.raises(ValueError, match=f"need k = d/2 even and >= 2, got k = {k}"):
            jacobian_matrix(random_form(d, rng))
    with pytest.raises(ValueError):
        jacobian_unstable_closed(3)
    with pytest.raises(ValueError):
        independence_certificate(5)


def _dense_gradient_rows(form, modulus=None):
    """``independence._gradient_rows`` by a dense running power: every entry
    of every power is multiplied, reduced and summed, zeros included."""
    k = form.degree // 2
    binoms = [math.comb(2 * k, s) for s in range(2 * k + 1)]
    e = math.lcm(*binoms)
    w = [[alt_sign(k - i) * math.comb(k, j) * (e // binoms[j - i + k]) for j in range(k + 1)] for i in range(k + 1)]
    fden = math.lcm(*[c.denominator for c in form.coeffs])
    f = [c.numerator * (fden // c.denominator) for c in form.coeffs]
    a = [[f[i - j + k] * w[j][i] for j in range(k + 1)] for i in range(k + 1)]
    d = fden * e
    if modulus is not None:
        a = [[x % modulus for x in row] for row in a]
        w = [[x % modulus for x in row] for row in w]
    power, c = a, Fraction(1, d)
    out = []
    for r in range(2, k + 2):
        if r > 2:
            power = [[sum(x * y for x, y in zip(row, col)) for col in zip(*a)] for row in power]
            if modulus is not None:
                power = [[x % modulus for x in row] for row in power]
            c /= d
        row = [0] * (2 * k + 1)
        for i in range(k + 1):
            for j in range(k + 1):
                row[j - i + k] += power[i][j] * w[i][j]
        out.append((r * c / e, row) if modulus is None else (None, [x % modulus for x in row]))
    return out


def _sparse_form(k, rng, nonzero):
    """A form with ``nonzero`` rational coefficients at seeded positions."""
    coeffs = [Fraction(0)] * (2 * k + 1)
    for s in rng.sample(range(2 * k + 1), nonzero):
        coeffs[s] = Fraction(rng.choice([-7, -2, -1, 1, 3, 5]), rng.randint(1, 6))
    return BinaryForm(coeffs)


def _packs(form):
    """Whether some row of the cleared A has two nonzero entries: the
    per-form rule between the monomial route and the other two."""
    k, f = form.degree // 2, form.coeffs
    return any(sum(1 for j in range(k + 1) if f[i - j + k]) > 1 for i in range(k + 1))


def _monomials(k):
    """Every monomial form x1^(2k-s) x2^s, the zero form, and forms with
    two nonzero coefficients k + 1 apart (rows of one entry each) and k
    apart (a row of two): the edges of the monomial route's rule."""
    forms = [BinaryForm([Fraction(int(t == s)) for t in range(2 * k + 1)]) for s in range(2 * k + 1)]
    forms.append(BinaryForm([Fraction(0)] * (2 * k + 1)))
    for gap in (k + 1, k):
        forms.append(BinaryForm([Fraction((t == 0) - 3 * (t == gap), 1 + (t == gap)) for t in range(2 * k + 1)]))
    return forms


def test_sparse_gradient_rows_against_dense_loop(monkeypatch):
    # the three routes of the running power, mod p and exact, against the
    # dense loop: the witness for every even k <= 30, seeded random forms
    # for k <= 16, forms with 1-3 nonzero coefficients, and every monomial
    # form for even k <= 12, which give a diagonal A, a shifted one and
    # empty rows.  A form whose cleared A has at most one nonzero entry per
    # row takes the monomial route at every modulus and exactly; any other
    # form takes the packed route mod RANK_PRIME and the sparse route
    # exactly and mod another prime
    routes = []
    times, folded, monomial = independence._times, independence._times_folded, independence._times_monomial
    monkeypatch.setattr(independence, "_times", lambda a, b, modulus=None: routes.append("sparse") or times(a, b, modulus))
    monkeypatch.setattr(independence, "_times_folded", lambda a, b, n: routes.append("packed") or folded(a, b, n))
    monkeypatch.setattr(independence, "_times_monomial",
                        lambda a, b, modulus=None: routes.append("monomial") or monomial(a, b, modulus))
    rng = random.Random(30)
    sparse = [_sparse_form(k, rng, nz) for k in range(2, 13, 2) for nz in (1, 2, 3) for _ in range(3)]
    sparse += [f for k in range(2, 13, 2) for f in _monomials(k)]
    forms = [(unstable_form(k), k <= 12) for k in range(2, 31, 2)]
    forms += [(random_form(2 * k, rng, bound=b), k <= 10) for k in range(2, 17, 2) for b in (1, 9, 10 ** 6)]
    forms += [(_rational_form(2 * k, rng), k <= 10) for k in range(2, 17, 2)]
    sides = {p: set() for p in (RANK_PRIME, 2, 7, None)}
    for f, exact in forms + [(f, True) for f in sparse]:
        for p in (RANK_PRIME, 2, 7, None) if exact else (RANK_PRIME, 2, 7):
            routes.clear()
            assert list(independence._gradient_rows(f, p)) == _dense_gradient_rows(f, p), (f.coeffs, p)
            other = "packed" if p == RANK_PRIME else "sparse"
            assert set(routes) == {other if _packs(f) else "monomial"}, (f.coeffs, p)
            sides[p].add(routes[0])
    assert sides == {RANK_PRIME: {"monomial", "packed"}, 2: {"monomial", "sparse"}, 7: {"monomial", "sparse"},
                     None: {"monomial", "sparse"}}
    assert not any(_packs(unstable_form(k)) for k in range(2, 31, 2))
    assert {_packs(f) for f in sparse} == {False, True}
    assert [_packs(f) for f in _monomials(4)[-3:]] == [False, False, True]


def test_certificate_closed_form_against_nkr_and_minor():
    # the certificate takes N(k, r) once per r for both its "N" map and its
    # minor; oracles: nkr itself, and the signed antidiagonal product of the
    # closed-form Jacobian's Fraction entries
    for k in range(2, 41, 2):
        cert = independence_certificate(k)
        assert cert["N"] == {str(r): str(nkr(k, r)) for r in range(2, k + 2)}
        jac = jacobian_unstable_closed(k)
        antidiagonal = math.prod(jac[r - 2, k - r + 1] for r in range(2, k + 2))
        assert cert["minor"] == str(unstable_minor(k)) == str(alt_sign(k * (k - 1) // 2) * antidiagonal)
        assert cert["rank"] == k and cert["pass"] is True


def test_scaling_script_exits_1_on_a_short_random_point_rank(monkeypatch, capsys):
    import importlib.util
    from pathlib import Path

    path = Path(__file__).parents[1] / "scripts" / "independence_scaling.py"
    spec = importlib.util.spec_from_file_location("independence_scaling", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    monkeypatch.setattr("sys.argv", [str(path), "6"])
    assert script.main() == 0
    assert [line.split()[4] for line in capsys.readouterr().out.splitlines()[1:]] == ["2", "4", "6"]
    # a random-point rank one short at k = 4 stops the table there, even
    # though every witness certificate passes
    monkeypatch.setattr(script, "jacobian_rank", lambda form: form.degree // 2 - (form.degree == 8))
    assert script.main() == 1
    assert [line.split()[0] for line in capsys.readouterr().out.splitlines()[1:]] == ["2", "4"]
