"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line.  Every assertion is exact (Fraction or int equality); the
only tolerances are wall-clock budgets, asserted where stated.
"""

import hashlib
import itertools
import json
import random
import time
from fractions import Fraction

from binform.cli import main as cli_main
from binform.combsum import dixon, nkr, nkr_via_ups, ups_direct, ups_recursive, von_szily
from binform.exactnum import binom_ext, fact_product, inv_fact_ext
from binform.forms import (
    BinaryForm,
    generic_form,
    mobius_act,
    random_form,
    random_unimodular,
)
from binform.invariants import (
    octavic_identity_report,
    p2_closed_form,
    trace_invariant,
)
from binform.sixj import grid_to_csv, grid_to_ppm, sign_grid, zero_cells
from binform.transvect import transvectant

X14 = BinaryForm([1, 0, 0, 0, 1])  # x1^4 + x2^4


def _report(tag, ok, extra=""):
    line = f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'}"
    if extra:
        line += f" ({extra})"
    print(line)
    assert ok, line


def test_criterion_1_independence_rank(capsys):
    ok = True
    times = []
    minor2 = None
    for k in (2, 4, 6):
        start = time.monotonic()
        code = cli_main(["independence", "--k", str(k)])
        out = capsys.readouterr().out
        elapsed = time.monotonic() - start
        times.append(elapsed)
        report = json.loads(out)
        ok = ok and code == 0 and report["rank"] == k and report["pass"]
        ok = ok and elapsed < 60.0
        if k == 2:
            minor2 = report["minor"]
    ok = ok and minor2 == "-3/16"
    _report("1 independence rank k=2,4,6", ok, f"times {[round(t, 2) for t in times]} s")


def test_criterion_2_nkr_nonvanishing():
    start = time.monotonic()
    ok = True
    for k in range(2, 41, 2):
        for r in range(2, k + 2):
            if nkr(k, r) == 0:
                ok = False
    for p in range(1, 11):
        for q in range(1, p + 1):
            if nkr_via_ups(p, q) != nkr(2 * p, 2 * q + 1):
                ok = False
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60.0
    _report("2 N(k,r) nonvanishing + bridge", ok, f"{elapsed:.2f} s")


def test_criterion_3_identity_suite():
    ok = True
    # Chu-Vandermonde on [-5,10]^3 (window covers the full summand support)
    for a, b, c in itertools.product(range(-5, 11), repeat=3):
        lhs = sum(binom_ext(a, k) * binom_ext(b, c - k) for k in range(-11, 22))
        rhs = (1 if (a >= 0 and b >= 0) else 0) * binom_ext(a + b, c)
        if lhs != rhs:
            ok = False
    # its corollary on [-5,10]^3, factorials through the extended convention
    for a, b, c in itertools.product(range(-5, 11), repeat=3):
        lhs = binom_ext(2 * a, a + c) * binom_ext(2 * b, b + c)
        inner = Fraction(0)
        for l in range(-11, 22):
            inner += (
                inv_fact_ext(a - l) * inv_fact_ext(b - l)
                * inv_fact_ext(l + c) * inv_fact_ext(l - c)
            )
        if lhs != fact_product([2 * a, 2 * b], [a + b]) * inner:
            ok = False
    # direct and recursive ups agree on [-3,8]^m for m <= 5
    vals = range(-3, 9)
    for m in (1, 2, 3, 4):
        for args in itertools.product(vals, repeat=m):
            if ups_direct(args) != ups_recursive(args):
                ok = False
    for args in itertools.product(vals, repeat=5):
        if ups_direct(args) != ups_recursive(args):
            ok = False
    # two- and three-argument closed forms on [-5,15] ranges
    for a, b in itertools.product(range(-5, 16), repeat=2):
        if ups_direct((a, b)) != von_szily(a, b):
            ok = False
    for a, b, c in itertools.product(range(-5, 16), repeat=3):
        if ups_direct((a, b, c)) != dixon(a, b, c):
            ok = False
    # positivity for m in 2..6, entries in 0..8
    for m in range(2, 7):
        for args in itertools.product(range(0, 9), repeat=m):
            if ups_recursive(args) <= 0:
                ok = False
    _report("3 combinatorial identity suite", ok)


def test_criterion_4_octavic_certificate():
    start = time.monotonic()
    report = {entry["identity"]: entry["pass"] for entry in octavic_identity_report()}
    required = [
        "P(4,2) = J2",
        "P(4,3) = J3",
        "P(4,4) = 8/5 J4 + 7/30 J2^2",
        "P(4,5) = 6/5 J5 + 13/30 J2 J3",
        "A(2,1,1) = 0",
        "A(2,2) = 1/2 A(4)",
        "A(2,2) = 1/2 (F,(F,F)_6)_4",
        "B(4,4) = 6/5 B(5,3) - 1/5 B(6,2)",
    ]
    elapsed = time.monotonic() - start
    ok = all(report.get(name, False) for name in required) and elapsed < 600.0
    _report("4 octavic certificate", ok, f"{elapsed:.2f} s")


def test_criterion_5_quartic():
    f = generic_form(4)
    ok = trace_invariant(f, 2, 2) == transvectant(f, f, 4).constant()
    nested = transvectant(f, transvectant(f, f, 2), 4).constant()
    ok = ok and trace_invariant(f, 2, 3) == nested
    ok = ok and trace_invariant(X14, 2, 3) == 0
    ok = ok and trace_invariant(X14, 2, 2) == 2
    _report("5 quartic identities", ok)


def test_criterion_6_quadratic_closed_form_and_star_triangle():
    ok = True
    for k in (2, 4):
        f = generic_form(2 * k)
        for n in range(k, k + 5):
            if p2_closed_form(f, n) != trace_invariant(f, n, 2):
                ok = False
    ok = ok and trace_invariant(generic_form(4), 3, 3) == 0
    rng = random.Random(0)
    for k, n in ((2, 4), (2, 5), (4, 5), (4, 6)):
        for _ in range(20):
            f = random_form(2 * k, rng)
            g = random_form(2 * k, rng)
            det = trace_invariant(f, n, 3) * trace_invariant(g, k, 3) - trace_invariant(
                g, n, 3
            ) * trace_invariant(f, k, 3)
            if det != 0:
                ok = False
    _report("6 quadratic closed form + cubic proportionality", ok)


GRID_201_PPM_SHA256 = "644c6b3c95c24078285d2cf101c98cd2a729716347494efb285115a6a2b1796a"
GRID_201_CSV_SHA256 = "b6b344148e796425aee815f62a0625c9297aa7bee3defc82a025c98bbba8f845"


def _sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_criterion_7_sixj_grid_and_scan(capsys):
    start = time.monotonic()
    grid = sign_grid(rows=201, cols=201)
    elapsed = time.monotonic() - start
    ok = zero_cells(grid) == [(1, 2)] and elapsed < 300.0
    # the zero cells alone would not see a flipped sign: pin every byte
    ok = ok and _sha256(grid_to_ppm(grid)) == GRID_201_PPM_SHA256
    ok = ok and _sha256(grid_to_csv(grid)) == GRID_201_CSV_SHA256
    code = cli_main(["sixj", "scan", "--kmax", "50", "--nmax", "150"])
    out = capsys.readouterr().out
    scan = json.loads(out)
    ok = ok and code == 0 and scan["zeros"] == [[2, 3]]
    _report("7 sixj grid zero pattern + scan", ok, f"grid {elapsed:.1f} s")


def test_criterion_8_invariance():
    rng = random.Random(1)
    ok = True
    for d, n, p in ((4, 2, 2), (4, 2, 3), (8, 4, 2), (8, 4, 5)):
        f = random_form(d, rng)
        base = trace_invariant(f, n, p)
        for _ in range(20):
            g = random_unimodular(rng)
            if trace_invariant(mobius_act(g, f), n, p) != base:
                ok = False
    _report("8 group invariance of trace invariants", ok)
