"""Outside-in span tracing of binform's layers.

``install`` wraps the public functions of each traced module, under every
name they are bound to in any ``binform`` module or class, so a call
reaches a wrapper whichever binding it goes through.  Spans are aggregated
in memory per (parent layer, layer) edge; ``Tracer.record`` returns them
for the child to write when its task ends.  A layer's self time is its
span time minus the time of its child spans.  Time spent in the tracer's
own probes (digit counts, term counts) is charged to no layer.

``exactnum`` and ``forms`` get no span: ``binom_ext`` alone is called
about 1.2 million times on the grid path, so wrapping it would cost more
than it measures.  Their time shows inside their callers.

Counts and maxima taken by the probes (digits are decimal digits from
``int.bit_length``, see ``int_digits``):

  polyring.poly_mul.term_pairs  sum of |a|*|b| over products, |scalar| = 1
  polyring.poly_terms.max       largest poly_mul or poly_add result, in terms
  polyring.rank.cells           rows * cols of each matrix given to rank_exact
  polyring.entry_digits.max     largest entry of a matrix given to rank or det
  umbral.eval.terms             prod(e + 1) over a monomial's exponents
  sixj.sum.terms                support length of S(k, n), from (k, n)
  sixj.value_digits.max         largest S(k, n)
  cli.value_digits.max          largest value returned by det, transvectant,
                                umbral.eval, nkr or sixj.sum, or given to
                                rank or det
"""

from __future__ import annotations

import math
import sys
import time
from fractions import Fraction

# (defining module, attribute or Class.method, layer)
LAYERS = (
    ("binform.polyring", "RingMatrix.mul", "polyring.matmul"),
    ("binform.polyring", "MultiPoly.__mul__", "polyring.poly_mul"),
    ("binform.polyring", "MultiPoly.__add__", "polyring.poly_add"),
    ("binform.polyring", "rank_exact", "polyring.rank"),
    ("binform.polyring", "det_exact", "polyring.det"),
    ("binform.transvect", "transvectant", "transvect.transvectant"),
    ("binform.umbral", "umbral_eval", "umbral.eval"),
    ("binform.invariants", "transvection_matrix", "invariants.transvection_matrix"),
    ("binform.independence", "jacobian_matrix", "independence.jacobian"),
    ("binform.combsum", "nkr", "combsum.nkr"),
    ("binform.sixj", "sixj_sum", "sixj.sum"),
    ("binform.sixj", "grid_to_ppm", "sixj.render"),
    ("binform.sixj", "grid_to_csv", "sixj.render"),
)
ROOT_LAYER = "cli.main"

# Which end-to-end metric, on which workload, each per-layer metric should
# move.  ``failed_frac`` is the run's failed / attempted task count.
LAYER_TARGETS = {
    "polyring.matmul.calls": [("wall_s", "certificate"), ("wall_s", "symbolic")],
    "polyring.matmul.self_s": [("wall_s", "certificate"), ("wall_s", "symbolic")],
    "polyring.poly_mul.calls": [("wall_s", "symbolic"), ("peak_rss_mb", "symbolic")],
    "polyring.poly_mul.term_pairs": [("wall_s", "symbolic"), ("peak_rss_mb", "symbolic")],
    "polyring.poly_mul.self_s": [("wall_s", "symbolic")],
    "polyring.poly_add.calls": [("wall_s", "symbolic")],
    "polyring.poly_add.self_s": [("wall_s", "symbolic")],
    "polyring.poly_terms.max": [("peak_rss_mb", "symbolic"), ("wall_s", "symbolic")],
    "polyring.rank.calls": [("wall_s", "certificate")],
    "polyring.rank.cells": [("wall_s", "certificate")],
    "polyring.rank.self_s": [("wall_s", "certificate")],
    "polyring.det.self_s": [("wall_s", "certificate")],
    "polyring.entry_digits.max": [("wall_s", "certificate")],
    "transvect.transvectant.calls": [("wall_s", "symbolic")],
    "transvect.transvectant.self_s": [("wall_s", "symbolic")],
    "transvect.t_coeff.hits": [("wall_s", "symbolic"), ("wall_s", "certificate")],
    "transvect.t_coeff.misses": [("wall_s", "symbolic"), ("wall_s", "certificate")],
    "umbral.eval.calls": [("wall_s", "symbolic")],
    "umbral.eval.terms": [("wall_s", "symbolic")],
    "umbral.eval.self_s": [("wall_s", "symbolic")],
    "invariants.transvection_matrix.calls": [("wall_s", "certificate")],
    "invariants.transvection_matrix.self_s": [("wall_s", "certificate")],
    "independence.jacobian.calls": [("wall_s", "certificate")],
    "independence.jacobian.self_s": [("wall_s", "certificate")],
    "combsum.nkr.calls": [("wall_s", "certificate")],
    "combsum.nkr.self_s": [("wall_s", "certificate")],
    "sixj.sum.calls": [("wall_s", "sixj")],
    "sixj.sum.terms": [("wall_s", "sixj")],
    "sixj.sum.self_s": [("wall_s", "sixj")],
    "sixj.sum.ns_per_term": [("wall_s", "sixj")],
    "sixj.render.self_s": [("wall_s", "sixj")],
    "sixj.value_digits.max": [("wall_s", "sixj")],
    "cli.main.self_s": [("wall_s", "certificate"), ("failed_frac", "certificate")],
    "cli.report_bytes": [("failed_frac", "certificate"), ("wall_s", "certificate")],
    "cli.value_digits.max": [("failed_frac", "certificate"), ("wall_s", "certificate")],
    "trace.overhead_s": [("wall_s", "symbolic"), ("wall_s", "certificate"), ("wall_s", "sixj")],
}

_LOG10_2 = math.log10(2)


def int_digits(n: int) -> int:
    """Decimal digits of |n|, from its bit length: never calls str(), so it
    works past the interpreter's int->str digit limit.  May read one high."""
    return int(abs(n).bit_length() * _LOG10_2) + 1


def value_digits(x) -> int:
    """Largest numerator or denominator, in digits, inside an exact value:
    an int, Fraction, MultiPoly, BinaryForm, RingMatrix or a sequence."""
    if isinstance(x, int):
        return int_digits(x)
    if isinstance(x, Fraction):
        return max(int_digits(x.numerator), int_digits(x.denominator))
    terms = getattr(x, "terms", None)  # MultiPoly
    if terms is not None:
        return max((value_digits(c) for c in terms.values()), default=1)
    for attr in ("coeffs", "rows"):  # BinaryForm, RingMatrix
        inner = getattr(x, attr, None)
        if inner is not None:
            return value_digits(inner)
    if isinstance(x, (list, tuple)):
        return max((value_digits(v) for v in x), default=1)
    return 0


class Tracer:
    """In-memory aggregated spans and counters for one task."""

    def __init__(self):
        self.edges: dict[tuple[str, str], list] = {}  # (parent, layer) -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self.maxima: dict[str, int] = {}
        self.bindings: dict[str, int] = {}  # calls per wrapped binding
        self.probe_s = 0.0
        self._stack = [["", 0.0]]  # frames: [layer, child seconds]

    def add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def peak(self, key: str, n: int) -> None:
        if n > self.maxima.get(key, 0):
            self.maxima[key] = n

    def wrap(self, layer: str, fn, binding: str, before=None, after=None):
        """Return ``fn`` wrapped in a span of ``layer``.  ``before(args)`` and
        ``after(args, result)`` are probes whose time no layer is charged."""
        stack, edges, bindings, clock = self._stack, self.edges, self.bindings, time.perf_counter
        bindings.setdefault(binding, 0)

        def wrapper(*args, **kwargs):
            bindings[binding] += 1
            parent = stack[-1]
            if before is not None:
                p0 = clock()
                before(args)
                probe = clock() - p0
                parent[1] += probe
                self.probe_s += probe
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                parent[1] += dur
                rec = edges.get((parent[0], layer))
                if rec is None:
                    rec = edges[(parent[0], layer)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[1]
            if after is not None:
                p0 = clock()
                after(args, result)
                probe = clock() - p0
                parent[1] += probe
                self.probe_s += probe
            return result

        return wrapper

    def record(self) -> dict:
        return {
            "edges": [[p, c, *v] for (p, c), v in sorted(self.edges.items())],
            "counts": self.counts,
            "maxima": self.maxima,
            "bindings": self.bindings,
            "probe_s": self.probe_s,
        }


def _probes(tracer: Tracer) -> dict:
    """before/after probes per layer: the counts the per-layer metrics need."""
    from binform.polyring import MultiPoly

    add, peak = tracer.add, tracer.peak

    def seen(value) -> int:
        digits = value_digits(value)
        peak("cli.value_digits", digits)
        return digits

    def mul_before(args):
        a, b = args
        add("polyring.poly_mul.term_pairs", len(a.terms) * (len(b.terms) if isinstance(b, MultiPoly) else 1))

    def poly_after(args, result):
        if isinstance(result, MultiPoly):
            peak("polyring.poly_terms", len(result.terms))

    def entries(args):  # the matrix handed to Bareiss elimination
        peak("polyring.entry_digits", seen(args[0]))

    def rank_before(args):
        add("polyring.rank.cells", args[0].nrows * args[0].ncols)
        entries(args)

    def umbral_before(args):
        mono = args[0]
        terms = math.prod(e + 1 for e in mono.edges.values())
        add("umbral.eval.terms", terms * math.prod(w + 1 for w in mono.x_powers.values()))

    def sixj_before(args):
        k, n = args
        add("sixj.sum.terms", max(0, 2 * k + n + 1 - max(3 * k, k + n)))

    def sixj_after(args, result):
        peak("sixj.value_digits", seen(result))

    def value_after(args, result):
        seen(result)

    return {
        "polyring.poly_mul": (mul_before, poly_after),
        "polyring.poly_add": (None, poly_after),
        "polyring.rank": (rank_before, None),
        "polyring.det": (entries, value_after),
        "transvect.transvectant": (None, value_after),
        "umbral.eval": (umbral_before, value_after),
        "combsum.nkr": (None, value_after),
        "sixj.sum": (sixj_before, sixj_after),
    }


def install(tracer: Tracer) -> None:
    """Wrap every binding of every function in ``LAYERS``."""
    modules = [m for name, m in sys.modules.items() if name == "binform" or name.startswith("binform.")]
    probes = _probes(tracer)
    for module_name, attr, layer in LAYERS:
        owner = sys.modules[module_name]
        if "." in attr:
            cls_name, method = attr.split(".")
            cls = getattr(owner, cls_name)
            namespaces = [(f"{module_name}.{cls_name}", cls)]
            original = vars(cls)[method]
        else:
            namespaces = [(m.__name__, m) for m in modules]
            original = getattr(owner, attr)
        before, after = probes.get(layer, (None, None))
        for label, space in namespaces:
            for name, value in list(vars(space).items()):
                if value is original:
                    setattr(space, name, tracer.wrap(layer, original, f"{label}.{name}", before, after))
