"""Binary forms, the x-graded carrier for covariants, and the SL2 action.

A BinaryForm of degree d holds coefficients (f_0, ..., f_d) and represents

    F(x1, x2) = sum_i f_i x1^(d-i) x2^i

with plain monomial coefficients, no binomial prefactors.  The same class
carries covariants of any order in x, including order 0 (constants), with
coefficients that are either Fractions or MultiPolys over one shared
variable list.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction

from .polyring import MultiPoly


def _lift(c):
    if isinstance(c, (Fraction, MultiPoly)):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"form coefficients must be rational or MultiPoly, got {c!r}")


class BinaryForm:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(_lift(c) for c in coeffs)
        if not coeffs:
            raise ValueError("a form needs at least one coefficient")
        self.coeffs = coeffs

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def ring(self):
        """The variables of the MultiPoly coefficients; None for a numeric form."""
        return next((c.vars for c in self.coeffs if isinstance(c, MultiPoly)), None)

    def is_numeric(self) -> bool:
        return all(isinstance(c, Fraction) for c in self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def constant(self):
        """The value of an order-0 form."""
        if self.degree != 0:
            raise ValueError(f"form has order {self.degree}, not 0")
        return self.coeffs[0]

    def evaluate(self, x1, x2):
        """F(x1, x2) in the form's ring, zero included: Fraction(0) for an
        all-zero numeric form, the zero MultiPoly for a symbolic one."""
        d, ring = self.degree, self.ring
        zero = Fraction(0) if ring is None else MultiPoly.zero(ring)
        return sum((c * x1 ** (d - i) * x2 ** i for i, c in enumerate(self.coeffs) if c), zero)

    # linear-space structure (forms of equal degree)

    def __add__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        if other.degree != self.degree:
            raise ValueError("cannot add forms of different degree")
        return BinaryForm([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        if other.degree != self.degree:
            raise ValueError("cannot subtract forms of different degree")
        return BinaryForm([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return BinaryForm([-c for c in self.coeffs])

    def __mul__(self, scalar):
        if not isinstance(scalar, (int, Fraction)):
            return NotImplemented
        return BinaryForm([c * scalar for c in self.coeffs])

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, BinaryForm):
            return NotImplemented
        return self.degree == other.degree and all(
            a == b for a, b in zip(self.coeffs, other.coeffs)
        )

    __hash__ = None

    def __repr__(self):
        return f"BinaryForm(d={self.degree}, {list(map(str, self.coeffs))})"


def convolve(p, q):
    """Coefficient vector of the product of two homogeneous forms."""
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] = out[i + j] + a * b
    return out


def monomial(order: int, i: int) -> BinaryForm:
    """The basis monomial x1^(order-i) x2^i."""
    if not 0 <= i <= order:
        raise ValueError(f"monomial index {i} out of range for order {order}")
    coeffs = [Fraction(0)] * (order + 1)
    coeffs[i] = Fraction(1)
    return BinaryForm(coeffs)


def generic_form(d: int) -> BinaryForm:
    """The form of degree d whose i-th coefficient is the ring variable f_i."""
    if d < 1:
        raise ValueError("generic form needs degree >= 1")
    names = tuple(f"f{i}" for i in range(d + 1))
    return BinaryForm([MultiPoly.variable(names, i) for i in range(d + 1)])


def unstable_form(k: int) -> BinaryForm:
    """The nullcone form x1^(k-1) x2^(k+1) of degree 2k, k even >= 2.

    Its only nonzero coefficient is f_{k+1} = 1.
    """
    if k < 2 or k % 2:
        raise ValueError("k must be an even integer >= 2")
    coeffs = [Fraction(0)] * (2 * k + 1)
    coeffs[k + 1] = Fraction(1)
    return BinaryForm(coeffs)


def random_form(d: int, rng, bound: int = 9) -> BinaryForm:
    """Random integer-coefficient form of degree d, entries in [-bound, bound]."""
    return BinaryForm([Fraction(rng.randint(-bound, bound)) for _ in range(d + 1)])


class UniModular:
    """A 2x2 rational matrix of determinant exactly 1."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a, b, c, d):
        self.a, self.b, self.c, self.d = (Fraction(v) for v in (a, b, c, d))
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("determinant must equal 1 exactly")

    @classmethod
    def identity(cls) -> "UniModular":
        return cls(1, 0, 0, 1)

    def inverse(self) -> "UniModular":
        return UniModular(self.d, -self.b, -self.c, self.a)

    def __mul__(self, other: "UniModular") -> "UniModular":
        if not isinstance(other, UniModular):
            return NotImplemented
        return UniModular(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __eq__(self, other):
        if not isinstance(other, UniModular):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    __hash__ = None

    def __repr__(self):
        return f"UniModular([[{self.a}, {self.b}], [{self.c}, {self.d}]])"


def random_unimodular(rng, bound: int = 9) -> UniModular:
    """Random element as a product of unit-lower and unit-upper triangular
    integer matrices, so the determinant is 1 without any square roots."""
    low = UniModular(1, 0, rng.randint(-bound, bound), 1)
    up = UniModular(1, rng.randint(-bound, bound), 0, 1)
    return low * up


def _linear_power(u, v, p: int):
    """Coefficients of (u*x1 + v*x2)^p."""
    return [Fraction(math.comb(p, t)) * u ** (p - t) * v ** t for t in range(p + 1)]


def mobius_act(g: UniModular, form: BinaryForm) -> BinaryForm:
    """(g . F)(x) = F(g^{-1} x), where g acts on x by the matrix product.

    A left action on numeric forms: acting by g then h composes to g*h.
    """
    if not form.is_numeric():
        raise ValueError("the group action is implemented for numeric forms")
    h = g.inverse()
    d = form.degree
    out = [Fraction(0)] * (d + 1)
    # substitute x1 -> h.a x1 + h.b x2 and x2 -> h.c x1 + h.d x2
    for i, fi in enumerate(form.coeffs):
        if not fi:
            continue
        term = convolve(_linear_power(h.a, h.b, d - i), _linear_power(h.c, h.d, i))
        for t, c in enumerate(term):
            out[t] += fi * c
    return BinaryForm(out)


# -- JSON form files -------------------------------------------------------

def form_to_json(form: BinaryForm) -> str:
    if not form.is_numeric():
        raise ValueError("only numeric forms are serializable")
    payload = {"d": form.degree, "coeffs": [str(c) for c in form.coeffs]}
    return json.dumps(payload, sort_keys=True)


def form_from_json(text: str) -> BinaryForm:
    """Read {"d": int, "coeffs": [...]}; each coefficient is a decimal or
    "p/q" string or a JSON integer.  JSON floats and booleans are rejected:
    Fraction would take them as binary floats and as 0/1.  So is a string
    with an exponent, which Fraction would expand into an unbounded int,
    and a file nested too deeply for the JSON decoder's recursion."""
    try:
        payload = json.loads(text)
    except RecursionError:
        raise ValueError("a form file nested too deeply to read as JSON") from None
    if type(payload) is not dict or not {"d", "coeffs"} <= payload.keys():
        raise ValueError('a form file must hold a JSON object with keys "d" and "coeffs"')
    d = payload["d"]
    if type(d) is not int:
        raise ValueError(f"degree must be an integer, got {d!r}")
    raw = payload["coeffs"]
    if type(raw) is not list:
        raise ValueError("coeffs must be a list")
    for c in raw:
        if type(c) not in (str, int):
            raise ValueError(f"coefficients must be strings or integers, got {c!r}")
        if type(c) is str and ("e" in c or "E" in c):
            raise ValueError(f"coefficient {c!r} has an exponent; write it as a decimal or p/q")
    coeffs = [Fraction(c) for c in raw]
    if len(coeffs) != d + 1:
        raise ValueError(f"expected {d + 1} coefficients, got {len(coeffs)}")
    return BinaryForm(coeffs)


def load_form(path) -> BinaryForm:
    with open(path, "r", encoding="ascii") as fh:
        return form_from_json(fh.read())


def save_form(form: BinaryForm, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(form_to_json(form) + "\n")
