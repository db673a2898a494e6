import random
from fractions import Fraction

import pytest

from binform.combsum import nkr
from binform.exactnum import alt_sign
from binform.forms import generic_form, random_form, unstable_form
from binform.independence import (
    independence_certificate,
    jacobian_matrix,
    jacobian_unstable_closed,
    unstable_minor,
)
from binform.invariants import trace_invariant
from binform.polyring import RingMatrix, rank_exact


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
    for k in (2, 4, 6):
        jac = jacobian_unstable_closed(k)
        prod = Fraction(1)
        for r in range(2, k + 2):
            prod *= jac[r - 2, k - r + 1]
        sign = alt_sign(k * (k - 1) // 2)  # the order-reversing permutation
        assert unstable_minor(k) == sign * prod


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


def test_rank_at_random_octavic():
    rng = random.Random(5)
    jac = jacobian_matrix(random_form(8, rng))
    assert rank_exact(jac) == 4


def test_preconditions():
    with pytest.raises(ValueError, match="numeric forms"):
        jacobian_matrix(generic_form(4))
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
