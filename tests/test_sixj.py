import os
import random
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from binform import sixj
from binform.exactnum import alt_sign
from binform.forms import generic_form
from binform.invariants import trace_invariant
from binform.sixj import (
    SignGrid,
    grid_to_csv,
    grid_to_ppm,
    scan_zeros,
    sign_grid,
    sixj_row,
    sixj_sum,
    zero_cells,
)


def test_values():
    assert sixj_sum(2, 3) == 0
    assert sixj_sum(2, 2) == 1
    assert sixj_sum(2, 4) == -27


def _defining_sum(k, n):
    # slow route: the definition, one math.comb per binomial, no term ratios
    return sum(
        alt_sign(j) * comb(j + 1, 3 * k + 1) * comb(k, j - k - n) ** 3
        for j in range(max(3 * k, k + n), 2 * k + n + 1)
    )


def test_term_ratio_sum_matches_definition_on_small_window():
    for k in range(2, 41):
        for n in range(k, 3 * k + 6):
            assert sixj_sum(k, n) == _defining_sum(k, n), (k, n)


def test_term_ratio_sum_matches_definition_on_seeded_pairs():
    rng = random.Random(0)
    for _ in range(50):
        k = rng.randint(2, 300)
        n = rng.randint(k, 4 * k)
        assert sixj_sum(k, n) == _defining_sum(k, n), (k, n)


def _sign(v):
    return (v > 0) - (v < 0)


def test_row_matches_definition_on_full_windows():
    for k in range(2, 41):
        assert sixj_row(k, 3 * k + 5) == [_defining_sum(k, n) for n in range(k, 3 * k + 6)], k


def test_row_matches_definition_on_partial_windows():
    for k in (2, 3, 5, 8, 13, 21, 34):
        windows = [
            (k + 1, 3 * k),  # n_min > k, crosses n = 2k
            (2 * k - 1, 2 * k + 1),  # straddles n = 2k
            (2 * k, 2 * k + 3),  # starts at n = 2k
            (2 * k + 1, 4 * k + 2),  # wholly past n = 2k
            (k + 2, 2 * k - 1),  # wholly before n = 2k (empty when k < 3)
        ] + [(n, n) for n in (k, k + 1, 2 * k - 1, 2 * k, 2 * k + 1, 5 * k)]
        for n_min, n_max in windows:
            expected = [_defining_sum(k, n) for n in range(n_min, n_max + 1)]
            assert sixj_row(k, n_max)[n_min - k :] == expected, (k, n_min, n_max)


def test_row_matches_dot_product_route_for_every_small_k():
    # sixj_row (the three-term recurrence in n) and sixj_sum (one dot
    # product of term-ratio sequences) share no arithmetic
    for k in range(2, 61):
        assert sixj_row(k, k + 150) == [sixj_sum(k, n) for n in range(k, k + 151)], k


def test_row_matches_dot_product_route_on_seeded_windows():
    rng = random.Random(3)
    ks = [rng.randint(2, 300) for _ in range(24)] + [299, 300, 161, 2, 3]
    assert any(k % 2 for k in ks) and any(k % 2 == 0 for k in ks)
    for k in ks:
        n_min = k + rng.randint(0, 700)
        n_max = n_min + rng.randint(0, 25)
        expected = [sixj_sum(k, n) for n in range(n_min, n_max + 1)]
        assert sixj_row(k, n_max)[n_min - k :] == expected, (k, n_min, n_max)


def _f(k, n, m):
    # summand of T(n) = (-1)^(k+n) S(k, n)
    return alt_sign(m) * comb(k, m) ** 3 * comb(m + k + n + 1, 3 * k + 1)


def _g(k, n, m):
    # the certificate; comb(k, k+1) == 0 covers m = k+1
    return -alt_sign(m) * m**3 * comb(k, m) ** 3 * comb(m + k + n + 1, 3 * k)


def _recurrence_lhs(k, n, m):
    return (
        (n + k + 2) ** 3 * _f(k, n, m)
        + (n + 2) * (3 * k * (k + 1) - 2 * (n + 2) ** 2) * _f(k, n + 1, m)
        + (n + 2 - k) ** 3 * _f(k, n + 2, m)
    )


def test_telescoping_certificate_on_a_finite_window():
    for k in range(2, 41):
        for n in range(k - 1, 3 * k + 6):
            assert _g(k, n, 0) == 0 and _g(k, n, k + 1) == 0, (k, n)
            for m in range(k + 1):
                assert _recurrence_lhs(k, n, m) == _g(k, n, m + 1) - _g(k, n, m), (k, n, m)


def test_telescoping_certificate_for_every_k():
    sympy = pytest.importorskip("sympy")
    k, n, m = sympy.symbols("k n m")
    big_n = m + k + n + 1
    # For big_n >= 3k, divide by (-1)^m C(k, m)^3 C(big_n, 3k), nonzero for
    # 0 <= m <= k; each binomial becomes a rational function of big_n and k.
    lhs = (
        (n + k + 2) ** 3 * (big_n - 3 * k) / (3 * k + 1)
        + (n + 2) * (3 * k * (k + 1) - 2 * (n + 2) ** 2) * (big_n + 1) / (3 * k + 1)
        + (n + 2 - k) ** 3 * (big_n + 1) * (big_n + 2) / ((3 * k + 1) * (big_n + 1 - 3 * k))
    )
    # G(n, m+1): C(k, m+1) / C(k, m) = (k-m)/(m+1); G(n, m) is -m^3
    rhs = (k - m) ** 3 * (big_n + 1) / (big_n + 1 - 3 * k) + m**3
    assert sympy.simplify(sympy.together(lhs - rhs)) == 0
    # At big_n = 3k-1 only F(n+2, m) and G(n, m+1) survive, with n = 2k-2-m:
    # both sides are (-1)^m (k-m)^3 C(k, m)^3.  Below that every term is 0.
    assert sympy.expand(((n + 2 - k) ** 3 - (k - m) ** 3).subs(n, 2 * k - 2 - m)) == 0


def test_recurrence_seeds():
    for k in range(2, 61):
        assert _defining_sum(k, k - 1) == 0, k
        assert _defining_sum(k, k) == alt_sign(k) == sixj_row(k, k)[0], k
        # the first stepped value; it vanishes only at k = 2, the (2, 3) zero
        s = alt_sign(k) * (k + 1) ** 2 * (k - 2)
        assert _defining_sum(k, k + 1) == s == sixj_row(k, k + 1)[-1], k


def test_grid_signs_match_definition():
    grid = sign_grid(rows=30, cols=30)
    for r in range(1, 31):
        assert grid.cells[r - 1] == tuple(_sign(_defining_sum(r + 1, r + c)) for c in range(1, 31)), r


def test_scan_matches_definition():
    expected = [(k, n) for k in range(2, 13) for n in range(k, 41) if _defining_sum(k, n) == 0]
    assert scan_zeros(12, 40) == expected == [(2, 3)]


def test_row_range_errors_and_empty_window():
    with pytest.raises(ValueError):
        sixj_row(1, 8)
    assert sixj_row(4, 3) == []
    assert sixj_row(4, 4) == [1]


def test_range_errors():
    with pytest.raises(ValueError):
        sixj_sum(1, 5)
    with pytest.raises(ValueError):
        sixj_sum(3, 2)


def test_scan_small():
    assert scan_zeros(2, 10) == [(2, 3)]
    assert scan_zeros(3, 3) == [(2, 3)]
    assert scan_zeros(3, 2) == []  # only the pair (2, 2) examined


def test_scan_validation():
    with pytest.raises(ValueError):
        scan_zeros(1, 5)


def test_grid_cells_match_direct_values():
    grid = sign_grid(rows=3, cols=4)
    assert grid.cell(1, 1) == 1  # sign S(2,2)
    assert grid.cell(1, 2) == 0  # the (2,3) zero
    assert grid.cell(1, 3) == -1  # sign S(2,4)
    for r in range(1, 4):
        for c in range(1, 5):
            v = sixj_sum(r + 1, r + c)
            assert grid.cell(r, c) == (v > 0) - (v < 0)
    with pytest.raises(IndexError):
        grid.cell(0, 1)


def test_zero_cells_small_window():
    grid = sign_grid(rows=30, cols=30)
    assert zero_cells(grid) == [(1, 2)]


def test_grid_is_deterministic():
    assert sign_grid(rows=4, cols=4) == sign_grid(rows=4, cols=4)


def test_grid_is_a_value():
    grid = sign_grid(rows=2, cols=3)
    same = SignGrid(rows=2, cols=3, cells=((1, 0, -1), (-1, -1, 1)))
    assert grid == same and hash(grid) == hash(same) and len({grid, same}) == 1
    assert grid != SignGrid(rows=2, cols=3, cells=((1, 0, -1), (-1, -1, -1)))
    assert grid != sign_grid(rows=3, cols=3) and grid != (2, 3, grid.cells)
    assert repr(grid) == "SignGrid(rows=2, cols=3, cells=((1, 0, -1), (-1, -1, 1)))"
    for change in (lambda: setattr(grid, "rows", 5), lambda: delattr(grid, "cells"),
                   lambda: setattr(grid, "extra", 1)):
        with pytest.raises(AttributeError):
            change()
    assert grid == same


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int->str digit limit to lift")
def test_importing_sixj_alone_lifts_the_digit_limit():
    env = dict(os.environ, PYTHONPATH=str(Path(sixj.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-S", "-c", "import sys, binform.sixj; print(sys.get_int_max_str_digits())"],
        capture_output=True, text=True, env=env, check=True,
    ).stdout
    assert out == "0\n"


GOLDEN_PPM = (
    "P3\n3 2\n255\n"
    "190 190 190\n255 255 255\n60 60 60\n"
    "60 60 60\n60 60 60\n190 190 190\n"
)

GOLDEN_CSV = (
    "r,c,k,n,sign\n"
    "1,1,2,2,1\n1,2,2,3,0\n1,3,2,4,-1\n"
    "2,1,3,3,-1\n2,2,3,4,-1\n2,3,3,5,1\n"
)


def test_ppm_bytes_exact():
    assert grid_to_ppm(sign_grid(rows=2, cols=3)) == GOLDEN_PPM


def test_csv_bytes_exact():
    assert grid_to_csv(sign_grid(rows=2, cols=3)) == GOLDEN_CSV


def test_grid_validation():
    with pytest.raises(ValueError):
        sign_grid(rows=0, cols=3)
    grid = SignGrid(rows=1, cols=1, cells=((1,),))
    with pytest.raises(IndexError):
        grid.cell(2, 1)


def test_zero_ties_to_the_cubic_trace_kernel():
    # the lone grid zero and the symbolic vanishing of the cubic invariant
    # at (k, n) = (2, 3) are the same fact seen from both ends
    assert sixj_sum(2, 3) == 0
    assert trace_invariant(generic_form(4), 3, 3) == 0
