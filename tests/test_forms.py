import random
from fractions import Fraction

import pytest

from binform.forms import (
    BinaryForm,
    UniModular,
    form_from_json,
    form_to_json,
    generic_form,
    load_form,
    mobius_act,
    monomial,
    random_form,
    random_unimodular,
    save_form,
    unstable_form,
)
from binform.polyring import MultiPoly


def test_generic_form_coefficients_are_variables():
    f = generic_form(2)
    names = ("f0", "f1", "f2")
    assert f.degree == 2
    assert f.coeffs == tuple(MultiPoly.variable(names, i) for i in range(3))
    assert generic_form(4).degree == 4
    with pytest.raises(ValueError):
        generic_form(0)


def test_unstable_form():
    assert unstable_form(2).coeffs == (0, 0, 0, 1, 0)
    f = unstable_form(4)
    assert f.degree == 8
    assert [i for i, c in enumerate(f.coeffs) if c] == [5]
    with pytest.raises(ValueError):
        unstable_form(3)
    with pytest.raises(ValueError):
        unstable_form(0)


def test_mobius_identity():
    f = random_form(4, random.Random(0))
    assert mobius_act(UniModular.identity(), f) == f


def test_mobius_rotation_swaps_axes():
    g = UniModular(0, 1, -1, 0)
    x1_4 = monomial(4, 0)
    x2_4 = monomial(4, 4)
    assert mobius_act(g, x1_4) == x2_4


def test_mobius_diagonal_scaling():
    g = UniModular(2, 0, 0, Fraction(1, 2))
    f = monomial(4, 3)  # x1 x2^3
    assert mobius_act(g, f) == 4 * f


def test_unimodular_determinant_enforced():
    with pytest.raises(ValueError):
        UniModular(1, 0, 0, 2)


def test_left_action_law():
    rng = random.Random(1)
    f = random_form(4, rng)
    for _ in range(30):
        g = random_unimodular(rng)
        h = random_unimodular(rng)
        assert mobius_act(g, mobius_act(h, f)) == mobius_act(g * h, f)


def test_action_preserves_degree_and_linearity():
    rng = random.Random(2)
    for _ in range(10):
        g = random_unimodular(rng)
        f1 = random_form(6, rng)
        f2 = random_form(6, rng)
        acted = mobius_act(g, f1)
        assert acted.degree == 6
        assert mobius_act(g, f1 + f2) == acted + mobius_act(g, f2)
        assert mobius_act(g, 3 * f1) == 3 * acted


def test_form_arithmetic_degree_mismatch():
    with pytest.raises(ValueError):
        _ = monomial(2, 0) + monomial(3, 0)


def test_constant_accessor():
    assert BinaryForm([Fraction(5)]).constant() == 5
    with pytest.raises(ValueError):
        monomial(2, 1).constant()


def test_json_roundtrip(tmp_path):
    f = BinaryForm([Fraction(1, 3), Fraction(-2), Fraction(0), Fraction(7, 5)])
    assert form_from_json(form_to_json(f)) == f
    path = tmp_path / "form.json"
    save_form(f, path)
    assert load_form(path) == f


def test_json_roundtrip_past_the_int_str_digit_limit():
    big = Fraction(7 ** 6000 + 1, 3 ** 5000)  # 5071 / 2386 digits
    f = BinaryForm([big, Fraction(0), -big])
    text = form_to_json(f)
    assert len(str(big.numerator)) > 4300
    assert form_from_json(text) == f


def test_form_refuses_other_coefficients():
    # a float would pass through to the transvectant as an inexact value
    for bad in (0.5, "1", None, complex(1, 0)):
        with pytest.raises(TypeError):
            BinaryForm([1, bad, 2])
    f = BinaryForm([1, Fraction(1, 2), MultiPoly.variable(("f0",), 0)])
    assert [type(c) for c in f.coeffs] == [Fraction, Fraction, MultiPoly]


def test_json_validation():
    with pytest.raises(ValueError):
        form_from_json('{"d": 2, "coeffs": ["1", "2"]}')
    f = generic_form(2)
    with pytest.raises(ValueError):
        form_to_json(f)


def test_json_needs_an_object_with_both_keys():
    for text in ('{"coeffs": ["1"]}', '{"d": 0}', '["1", "2"]', '3', '"d"', 'null'):
        with pytest.raises(ValueError, match='keys "d" and "coeffs"'):
            form_from_json(text)


def test_json_rejects_float_and_bool_coefficients():
    # JSON integers are exact; floats and booleans would be read as binary
    # fractions and as 0/1
    assert form_from_json('{"d": 1, "coeffs": [3, "-1/2"]}') == BinaryForm([Fraction(3), Fraction(-1, 2)])
    for text in (
        '{"d": 4, "coeffs": [0.1, "0", "0", "0", "1"]}',
        '{"d": 4, "coeffs": ["1", true, "0", "0", "1"]}',
        '{"d": 1, "coeffs": [false, "1"]}',
        '{"d": 1, "coeffs": ["1", 2.0]}',
        '{"d": 1, "coeffs": [["1"], "1"]}',
        '{"d": 1.0, "coeffs": ["1", "1"]}',
        '{"d": true, "coeffs": ["1", "1"]}',
        '{"d": 1, "coeffs": "11"}',
    ):
        with pytest.raises(ValueError):
            form_from_json(text)


def test_json_rejects_coefficients_with_an_exponent():
    # Fraction would expand "1e10000000" into a 33-million-bit numerator
    for c in ("1e400", "1E400", "-2.5e-3", "3/1e2"):
        with pytest.raises(ValueError, match="exponent") as err:
            form_from_json('{"d": 1, "coeffs": ["1", "%s"]}' % c)
        assert repr(c) in str(err.value)
    assert form_from_json('{"d": 1, "coeffs": ["-2.5", "3/100"]}') == BinaryForm([Fraction(-5, 2), Fraction(3, 100)])
