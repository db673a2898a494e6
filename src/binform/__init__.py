"""Exact invariant theory of binary forms.

Everything here runs in exact rational arithmetic: transvectants and trace
invariants of binary forms, an exact Jacobian-rank independence
certificate, alternating binomial identity suites, umbral evaluation of
symbolic bracket monomials, and 6j sign grids.
"""

import sys as _sys

from .combsum import dixon, nkr, nkr_via_ups, ups_direct, ups_recursive, von_szily
from .exactnum import alt_sign, binom_ext, fact_ext, fact_product, inv_fact_ext
from .forms import (
    BinaryForm,
    UniModular,
    generic_form,
    load_form,
    mobius_act,
    monomial,
    random_form,
    random_unimodular,
    save_form,
    unstable_form,
)
from .independence import (
    independence_certificate,
    jacobian_matrix,
    jacobian_rank,
    jacobian_unstable_closed,
    unstable_minor,
)
from .invariants import (
    charpoly_invariant,
    charpoly_invariants,
    octavic_identity_report,
    p2_closed_form,
    p3_closed_form,
    shioda_invariant,
    trace_invariant,
    transvection_matrix,
)
from .polyring import MultiPoly, RingMatrix, charpoly, det_exact, rank_exact
from .sixj import SignGrid, grid_to_csv, grid_to_ppm, scan_zeros, sign_grid, sixj_sum, zero_cells
from .transvect import t_coeff, transvectant
from .umbral import BracketMonomial, cyclic_bracket, parse_bracket, umbral_eval

# Every exact value must serialize at any size: lift the 4300-digit int<->str
# limit (absent before Python 3.10.7, where there is nothing to lift).
if hasattr(_sys, "set_int_max_str_digits"):
    _sys.set_int_max_str_digits(0)

__all__ = [name for name in dir() if not name.startswith("_")]
