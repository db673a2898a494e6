import itertools
import math
import random
from fractions import Fraction

import pytest

from binform.exactnum import alt_sign, binom_ext
from binform.forms import BinaryForm, generic_form, monomial, random_form
from binform.invariants import covariant_hash, shioda_invariant, trace_invariant
from binform.polyring import MultiPoly
from binform.transvect import transvectant
from binform.umbral import (
    BracketMonomial,
    _closing_order,
    cyclic_bracket,
    octavic_a_bracket,
    octavic_b_bracket,
    parse_bracket,
    umbral_eval,
)


def _pair_bracket(m, n, k):
    return BracketMonomial(
        letters=("a", "b"),
        degrees={"a": m, "b": n},
        edges={("a", "b"): k},
        x_powers={"a": m - k, "b": n - k},
    )


def test_dictionary_reproduces_transvectant_on_monomials():
    got = umbral_eval(_pair_bracket(5, 3, 2), {"a": monomial(5, 0), "b": monomial(3, 3)})
    assert got == monomial(4, 1)  # x1^(m-k) x2^(n-k)


def test_dictionary_reproduces_transvectant_randomly():
    rng = random.Random(0)
    for _ in range(12):
        m, n = rng.randint(1, 6), rng.randint(1, 6)
        k = rng.randint(0, min(m, n))
        f, g = random_form(m, rng), random_form(n, rng)
        assert umbral_eval(_pair_bracket(m, n, k), {"a": f, "b": g}) == transvectant(f, g, k)


def test_full_bracket_is_the_top_transvectant_symbolically():
    f = generic_form(8)
    mono = BracketMonomial(("a", "b"), {"a": 8, "b": 8}, {("a", "b"): 8}, {})
    assert umbral_eval(mono, {"a": f, "b": f}).constant() == shioda_invariant(2, f)


def test_a211_vanishes_identically():
    f = generic_form(8)
    got = umbral_eval(octavic_a_bracket((2, 1, 1)), {"a": f, "b": f, "c": f})
    assert got.is_zero()


def test_cyclic_bracket_structure():
    two = cyclic_bracket(2, 2)
    assert two.edges == {("a1", "a2"): 4}
    tri = cyclic_bracket(2, 3)
    assert tri.edges == {("a1", "a2"): 2, ("a2", "a3"): 2, ("a1", "a3"): 2}
    four = cyclic_bracket(4, 4)
    assert four.edges == {
        ("a1", "a2"): 4,
        ("a2", "a3"): 4,
        ("a3", "a4"): 4,
        ("a1", "a4"): 4,
    }
    assert four.coeff == 1  # reversed closing edge carries an even power
    with pytest.raises(ValueError):
        cyclic_bracket(3, 3)
    with pytest.raises(ValueError):
        cyclic_bracket(2, 1)


@pytest.mark.parametrize(
    "k,p",
    [(2, 2), (2, 3), (2, 4), (2, 5), (4, 2), (4, 3), (4, 4), (4, 5), (6, 3), (6, 4), (6, 6), (6, 7)],
)
def test_cyclic_bracket_equals_trace_invariant(k, p):
    f = generic_form(2 * k)
    mono = cyclic_bracket(k, p)
    got = umbral_eval(mono, {u: f for u in mono.letters}).constant()
    assert got == trace_invariant(f, k, p)


def test_letter_swap_antisymmetry():
    # swapping two letters while negating each shared bracket fixes the value;
    # the reversed raw pair below normalizes to (a b) with the (-1)^1 sign,
    # which is exactly that negation
    rng = random.Random(1)
    f = random_form(8, rng)
    base = octavic_b_bracket((4, 3, 1))
    swapped = BracketMonomial(
        letters=("a", "b", "c"),
        degrees={"a": 8, "b": 8, "c": 8},
        edges={("b", "a"): 1, ("b", "c"): 3, ("a", "c"): 4},  # a <-> b applied to base
        x_powers={"b": 4, "a": 3, "c": 1},
    )
    assert swapped.coeff == -1
    assign = {"a": f, "b": f, "c": f}
    assert umbral_eval(base, assign) == umbral_eval(swapped, assign)


def test_reversed_pair_normalization_sign():
    odd = BracketMonomial(("a", "b"), {"a": 3, "b": 3}, {("b", "a"): 3}, {})
    assert odd.coeff == -1
    assert odd.edges == {("a", "b"): 3}


def test_homogeneity_enforced():
    with pytest.raises(ValueError):
        BracketMonomial(("a", "b"), {"a": 4, "b": 4}, {("a", "b"): 3}, {"a": 1})
    with pytest.raises(ValueError):
        BracketMonomial(("a", "b"), {"a": 2, "b": 2}, {("a", "b"): -1}, {"a": 3, "b": 3})


def test_assignment_validation():
    mono = _pair_bracket(4, 4, 4)
    f4 = random_form(4, random.Random(2))
    with pytest.raises(ValueError):
        umbral_eval(mono, {"a": f4})
    with pytest.raises(ValueError):
        umbral_eval(mono, {"a": f4, "b": random_form(6, random.Random(3))})


def test_parse_roundtrip_cycle():
    mono = parse_bracket("(a b)^4 (b c)^4 (c d)^4 (d a)^4 ; deg=8")
    assert mono.letters == ("a", "b", "c", "d")
    assert mono.edges == {("a", "b"): 4, ("b", "c"): 4, ("c", "d"): 4, ("a", "d"): 4}
    assert mono.coeff == 1
    assert mono.degrees == {u: 8 for u in "abcd"}


def test_parse_whitespace_and_commas():
    a = parse_bracket("(a b)^2(b c)^2 (c a)^2;deg=4")
    b = parse_bracket("  ( a , b )^2   (b,c)^2 (c,a)^2  ; deg=4")
    assert a == b


def test_monomial_equality_repr_and_defaults():
    a = BracketMonomial(("a", "b"), {"a": 2, "b": 2}, {("b", "a"): 2})
    assert a == BracketMonomial(("a", "b"), {"a": 2, "b": 2}, {("a", "b"): 2}, {}, Fraction(1))
    assert a != BracketMonomial(("a", "b"), {"a": 2, "b": 2}, {("a", "b"): 2}, coeff=Fraction(2))
    assert a != BracketMonomial(("b", "a"), {"a": 2, "b": 2}, {("b", "a"): 2})
    assert a != (("a", "b"), {"a": 2, "b": 2}, {("a", "b"): 2}, {}, Fraction(1))
    assert repr(a) == (
        "BracketMonomial(letters=('a', 'b'), degrees={'a': 2, 'b': 2}, "
        "edges={('a', 'b'): 2}, x_powers={}, coeff=Fraction(1, 1))"
    )
    with pytest.raises(TypeError):
        hash(a)
    b = BracketMonomial(("a", "b"), {"a": 2, "b": 2}, {("a", "b"): 2})
    b.x_powers["a"] = 1  # defaults are fresh dicts, never shared between monomials
    assert a.x_powers == {}


def test_parse_x_powers_and_default_degree():
    mono = parse_bracket("(a b)^2 a_x^2 b_x^2", default_degree=4)
    assert mono.x_powers == {"a": 2, "b": 2}
    assert mono.order == 4
    f = random_form(4, random.Random(4))
    assert umbral_eval(mono, {"a": f, "b": f}) == transvectant(f, f, 2)


def test_parse_errors():
    with pytest.raises(ValueError):
        parse_bracket("(a b)^4")  # no degree anywhere
    with pytest.raises(ValueError):
        parse_bracket("(ab)^4 ; deg=8")  # single identifier inside parens
    with pytest.raises(ValueError):
        parse_bracket("(a b)^4 + (b a)^4 ; deg=8")  # stray token


@pytest.mark.parametrize("text", [
    "(a\u03b2 b)^2 ; deg=2",  # a non-ASCII letter
    "(\u00e9 b)^2 ; deg=2",
    "(a b)^\u0662 ; deg=2",  # an Arabic-Indic digit
    "(a b)^2 ; deg=\u0662",
    "(a b)^2\u00a0(b c)^2 ; deg=4",  # a no-break space between factors
    "(a b)^2\u3000; deg=2",  # an ideographic space before the clause
])
def test_parse_rejects_non_ascii(text):
    with pytest.raises(ValueError, match="ASCII"):
        parse_bracket(text)


def test_parsed_invariant_matches_library_value():
    mono = parse_bracket("(a b)^4 (a c)^4 (b c)^4 ; deg=8")
    f = generic_form(8)
    got = umbral_eval(mono, {u: f for u in mono.letters}).constant()
    assert got == shioda_invariant(3, f)


def _umbral_eval_per_term(mono, assignment):
    """Brute-force reference: substitute every term of the expansion on its own."""
    order = mono.order
    out = [0] * (order + 1)
    edge_factors = sorted(mono.edges.items())
    x_factors = sorted(mono.x_powers.items())
    ranges = [range(e + 1) for _, e in edge_factors] + [range(w + 1) for _, w in x_factors]
    for choice in itertools.product(*ranges):
        weight = 1
        low = dict.fromkeys(mono.letters, 0)  # accumulated exponent of u2
        x2 = 0
        pos = 0
        for (u, v), e in edge_factors:
            l = choice[pos]
            pos += 1
            # (u1 v2 - u2 v1)^e: term C(e,l) (u1 v2)^(e-l) (-u2 v1)^l
            weight *= alt_sign(l) * binom_ext(e, l)
            low[u] += l
            low[v] += e - l
        for u, w in x_factors:
            l = choice[pos]
            pos += 1
            # (u1 x1 + u2 x2)^w: term C(w,l) u1^(w-l) u2^l x1^(w-l) x2^l
            weight *= binom_ext(w, l)
            low[u] += l
            x2 += l
        term = mono.coeff * weight
        for u in mono.letters:
            i = low[u]
            d = mono.degrees[u]
            fi = assignment[u].coeffs[i]
            if not fi:
                term = 0
                break
            term = term * fi * Fraction(1, binom_ext(d, i))
        if term:
            out[x2] = out[x2] + term
    return BinaryForm(out)


RING = tuple(f"f{i}" for i in range(7))


def _random_monomial(rng):
    """2-5 letters of degree 3-6 each; pairs are drawn in either order, so a
    reversed pair brings its sign into the monomial's coeff.  A five-letter
    draw whose expansion has over 5000 terms is drawn again, which keeps the
    per-term oracle to a fraction of a second."""
    while True:
        letters = "abcde"[: rng.randint(2, 5)]
        degrees = {u: rng.randint(3, 6) for u in letters}
        free = dict(degrees)
        edges: dict[tuple[str, str], int] = {}
        while True:
            open_letters = [u for u in letters if free[u]]
            if len(open_letters) < 2 or rng.random() < 0.1:
                break
            u, v = rng.sample(open_letters, 2)
            edges[(u, v)] = edges.get((u, v), 0) + 1
            free[u] -= 1
            free[v] -= 1
        terms = math.prod(e + 1 for e in edges.values()) * math.prod(w + 1 for w in free.values())
        if len(letters) < 5 or terms <= 5000:
            return BracketMonomial(letters, degrees, edges, free)


def _symbolic_form(d, rng):
    return BinaryForm([
        MultiPoly.variable(RING, rng.randrange(len(RING))) * rng.randint(-2, 2) + rng.randint(-1, 1)
        for _ in range(d + 1)
    ])


def _random_assignment(mono, rng):
    """A different form on each letter, numeric or symbolic over RING; both
    kinds draw some coefficients zero."""
    forms = {}
    for u in mono.letters:
        d = mono.degrees[u]
        forms[u] = random_form(d, rng, bound=3) if rng.random() < 0.5 else _symbolic_form(d, rng)
    return forms


def _assert_same_as_per_term(mono, assignment):
    got = umbral_eval(mono, assignment)
    want = _umbral_eval_per_term(mono, assignment)
    assert got == want
    assert covariant_hash(got) == covariant_hash(want)


def test_collected_weights_equal_per_term_expansion():
    rng = random.Random(11)
    mixed = signed = zeros = five = False
    for _ in range(30):
        mono = _random_monomial(rng)
        assignment = _random_assignment(mono, rng)
        mixed |= {f.is_numeric() for f in assignment.values()} == {True, False}
        signed |= mono.coeff == -1
        zeros |= any(not all(f.coeffs) for f in assignment.values())
        five |= len(mono.letters) == 5
        _assert_same_as_per_term(mono, assignment)
    assert mixed and signed and zeros and five  # the seeded draw covers each feature


def test_collected_weights_on_reversed_odd_pair():
    rng = random.Random(12)
    mono = BracketMonomial(("a", "b"), {"a": 3, "b": 4}, {("b", "a"): 3}, {"b": 1})
    assert mono.coeff == -1
    f = BinaryForm([0, 2, 0, -1])  # zero coefficients on both ends
    _assert_same_as_per_term(mono, {"a": f, "b": random_form(4, rng)})
    _assert_same_as_per_term(mono, {"a": _symbolic_form(3, rng), "b": _symbolic_form(4, rng)})


def test_contraction_with_degree_zero_and_x_only_letters():
    # z has degree 0, so it brings no factor and only f_0(z); c has an x
    # power and no bracket, so it only widens the order
    rng = random.Random(13)
    mono = BracketMonomial(
        ("a", "z", "b", "c"), {"a": 3, "z": 0, "b": 4, "c": 2}, {("a", "b"): 2}, {"a": 1, "b": 2, "c": 2}
    )
    assert mono.order == 5
    numeric = {"a": random_form(3, rng), "z": BinaryForm([-3]), "b": random_form(4, rng), "c": random_form(2, rng)}
    _assert_same_as_per_term(mono, numeric)
    symbolic = {u: _symbolic_form(mono.degrees[u], rng) for u in mono.letters}
    symbolic["z"] = BinaryForm([MultiPoly.variable(RING, 0) + 2])
    _assert_same_as_per_term(mono, symbolic)
    assert not umbral_eval(mono, numeric).is_zero()
    assert umbral_eval(mono, dict(numeric, z=BinaryForm([0]))).is_zero()


def test_numeric_contraction_equals_the_symbolic_one_at_the_point():
    # every letter gets its own generic form over one shared ring; the
    # symbolic value evaluated at the numeric coefficients is the numeric value
    rng = random.Random(14)
    nonzero = 0
    for _ in range(15):
        mono = _random_monomial(rng)
        names = tuple(f"{u}{i}" for u in mono.letters for i in range(mono.degrees[u] + 1))
        symbolic, numeric, point = {}, {}, []
        for u in mono.letters:
            d = mono.degrees[u]
            symbolic[u] = BinaryForm([MultiPoly.variable(names, names.index(f"{u}{i}")) for i in range(d + 1)])
            numeric[u] = BinaryForm([Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d + 1)])
            point += numeric[u].coeffs
        got = umbral_eval(mono, numeric)
        general = umbral_eval(mono, symbolic)
        assert all(type(c) is Fraction for c in got.coeffs)
        assert all(type(c) is MultiPoly for c in general.coeffs)
        assert [c.evaluate(point) for c in general.coeffs] == list(got.coeffs)
        nonzero += not got.is_zero()
    assert nonzero >= 5


def test_closing_order_does_not_change_the_value():
    # a permutation of the letters changes the closing order and the edge
    # orientation; the rebuilt monomial renormalizes each reversed pair's
    # sign, so it is the same covariant as the original
    rng = random.Random(15)
    sizes = set()
    for _ in range(6):
        mono = _random_monomial(rng)
        while len(mono.letters) < 4:
            mono = _random_monomial(rng)
        sizes.add(len(mono.letters))
        for assignment in (
            {u: random_form(mono.degrees[u], rng, bound=3) for u in mono.letters},
            {u: _symbolic_form(mono.degrees[u], rng) for u in mono.letters},
        ):
            want = _umbral_eval_per_term(mono, assignment)
            for letters in itertools.permutations(mono.letters):
                moved = BracketMonomial(letters, mono.degrees, mono.edges, mono.x_powers, mono.coeff)
                assert umbral_eval(moved, assignment) == want, letters
    assert sizes == {4, 5}


def test_letters_close_around_a_cycle_in_any_text_order():
    mono = parse_bracket("(a c)^6 (b d)^6 (c e)^6 (d f)^6 (e g)^6 (g b)^6 (f a)^6 ; deg=12")
    assert mono.letters == ("a", "c", "b", "d", "e", "f", "g")
    # from a along the cycle both ways, never more than two letters open
    assert _closing_order(mono) == ["a", "c", "e", "f", "d", "b", "g"]
    assert _closing_order(cyclic_bracket(6, 7)) == [f"a{t}" for t in range(1, 8)]


def test_wide_index_fields_do_not_carry():
    # a letter's u2 exponent reaches 302, so each key field is 9 bits wide
    rng = random.Random(16)
    mono = parse_bracket("(a b)^300 a_x^2 b_x^2 ; deg=302")
    _assert_same_as_per_term(mono, {"a": random_form(302, rng), "b": random_form(302, rng)})


def test_contraction_rejects_mixed_variable_lists():
    mono = _pair_bracket(2, 2, 2)
    f, g = generic_form(2), BinaryForm([MultiPoly.variable(("x", "y", "z"), i) for i in range(3)])
    with pytest.raises(ValueError):
        umbral_eval(mono, {"a": f, "b": g})
