import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from binform.combsum import (
    dixon,
    nkr,
    nkr_via_ups,
    ups_closed,
    ups_direct,
    ups_recursive,
    von_szily,
)


def test_single_argument_is_indicator():
    assert ups_direct([0]) == 1
    assert ups_direct([3]) == 0
    assert ups_direct([-2]) == 0


def test_small_values():
    assert ups_direct([1, 1]) == 2
    assert ups_recursive([1, 1]) == 2
    assert ups_direct([1, 2, 3]) == 120
    assert ups_recursive([-1, 5]) == 0


def test_empty_rejected():
    with pytest.raises(ValueError):
        ups_direct([])
    with pytest.raises(ValueError):
        ups_recursive(())


def test_routes_agree_on_window():
    vals = range(-2, 6)
    for m in (1, 2, 3):
        for args in itertools.product(vals, repeat=m):
            assert ups_direct(args) == ups_recursive(args), args


@given(st.lists(st.integers(min_value=-3, max_value=8), min_size=4, max_size=5))
def test_routes_agree_property(args):
    assert ups_direct(args) == ups_recursive(args)


def test_permutation_symmetry_exhaustive():
    vals = range(-2, 4)
    for m in (2, 3, 4):
        for args in itertools.combinations_with_replacement(vals, m):
            base = ups_direct(args)
            for perm in set(itertools.permutations(args)):
                assert ups_direct(perm) == base


def test_von_szily_values():
    assert von_szily(2, 1) == 4
    assert von_szily(0, 0) == 1
    assert von_szily(-1, 3) == 0


def test_dixon_values():
    assert dixon(1, 1, 1) == 6
    assert dixon(1, 2, 3) == 120
    assert dixon(-1, 1, 1) == 0


def test_closed_forms_match_direct_sum():
    for a in range(-5, 16):
        for b in range(-5, 16):
            assert ups_direct([a, b]) == von_szily(a, b), (a, b)
    for a in range(-3, 9):
        for b in range(-3, 9):
            for c in range(-3, 9):
                assert ups_direct([a, b, c]) == dixon(a, b, c), (a, b, c)


def test_ups_closed_dispatch():
    assert ups_closed([0]) == (1, "indicator")
    assert ups_closed([1, 1]) == (2, "von_szily")
    assert ups_closed([1, 2, 3]) == (120, "dixon")
    with pytest.raises(ValueError):
        ups_closed([1, 1, 1, 1])


def test_positivity_on_window():
    for m in (2, 3, 4):
        for args in itertools.combinations_with_replacement(range(0, 7), m):
            assert ups_recursive(args) > 0, args


def test_nkr_values():
    assert nkr(2, 2) == 4
    assert nkr(2, 3) == 2
    assert nkr(4, 3) == -48


def _nkr_windows(k, r):
    """N(k, r) with every window's product of r binomials multiplied out."""
    row = [math.comb(k, t) for t in range(k + 1)]
    return sum((-1) ** (r * j) * math.prod(row[j:j + r]) for j in range(k - r + 2))


def test_nkr_sliding_product_against_window_products():
    # the sliding product against the per-window products for every k <= 40
    # and every r, and against the ups bridge at every (2p, 2q+1) among them
    for k in range(2, 41):
        for r in range(2, k + 2):
            assert nkr(k, r) == _nkr_windows(k, r), (k, r)
    for p in range(1, 21):
        for q in range(1, p + 1):
            assert nkr(2 * p, 2 * q + 1) == nkr_via_ups(p, q), (p, q)


def test_nkr_range_errors():
    with pytest.raises(ValueError):
        nkr(2, 4)
    with pytest.raises(ValueError):
        nkr(1, 2)
    with pytest.raises(ValueError):
        nkr_via_ups(1, 2)


def test_nkr_positive_for_even_r():
    for k in range(2, 13):
        for r in range(2, k + 2, 2):
            assert nkr(k, r) > 0, (k, r)


def test_bridge_examples():
    assert nkr_via_ups(2, 1) == Fraction(-48)
    assert nkr_via_ups(1, 1) == nkr(2, 3) == 2
    assert nkr_via_ups(3, 2) == nkr(6, 5)


def test_bridge_on_window():
    for p in range(1, 7):
        for q in range(1, p + 1):
            assert nkr_via_ups(p, q) == nkr(2 * p, 2 * q + 1), (p, q)


def test_nonvanishing_small():
    for k in range(2, 13, 2):
        for r in range(2, k + 2):
            assert nkr(k, r) != 0, (k, r)
