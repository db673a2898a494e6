"""Symbolic bracket monomials evaluated as honest covariants.

A bracket monomial is a product of bracket powers (u v)^e and linear
powers u_x^w over symbol letters, each letter tagged with a form degree.
Evaluation multiplies the product out over letter variables (u1, u2), with

    (u v) = u1*v2 - u2*v1          u_x = u1*x1 + u2*x2

and substitutes, for each letter u of degree d, the monomial u1^(d-i) u2^i
by f_i(u) / C(d, i), where f_i(u) is the i-th coefficient of the form
assigned to u.  Letters are contracted one at a time, each substituted as
soon as all its factors are in, so the full expansion is never built.
The running values are int numerator dicts over packed exponent keys
(polyring's storage), over one denominator shared by all of them: a
numeric coefficient is the constant key 0, so numeric and symbolic forms
take one path, and spreading a bracket or substituting a letter is an
integer multiply-add (polyring's ``_mac``) with no MultiPoly per term.
Only the final coefficients become Fractions or MultiPolys.
Dividing by the binomial is the unique normalization under which

    (a b)^k a_x^(m-k) b_x^(n-k)  evaluates to  transvectant(F, G, k)

for forms F, G of degrees m, n assigned to a, b; that correspondence is
kept as a standing cross-module oracle in the test suite.

Bracket monomials can be parsed from a compact text grammar, e.g.

    (a b)^4 (b c)^4 (c d)^4 (d a)^4 ; deg=8

where letters are ASCII identifiers (two per bracket, whitespace- or
comma-separated), "u_x^w" factors carry the x powers, and the optional
"deg=" clause tags every letter with one degree.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

from .exactnum import alt_sign, binom_ext
from .forms import BinaryForm
from .polyring import FIELD_BITS, MultiPoly, _check_degree, _mac, _poly


class BracketMonomial:
    """Letters in a fixed order, bracket exponents on ordered pairs, x powers.

    Edge keys are normalized so the first letter precedes the second in the
    letter order; a reversed input pair (v u)^e contributes the sign (-1)^e.
    Homogeneity is enforced: for each letter, incident bracket exponents
    plus its x power must equal its degree tag.  Two monomials are equal
    when all five fields are; a monomial is mutable and so not hashable.
    """

    def __init__(
        self,
        letters: tuple[str, ...],
        degrees: dict[str, int],
        edges: dict[tuple[str, str], int] | None = None,
        x_powers: dict[str, int] | None = None,
        coeff: Fraction = Fraction(1),
    ):
        self.letters = tuple(letters)
        self.degrees = degrees
        if len(set(self.letters)) != len(self.letters):
            raise ValueError("duplicate letters")
        pos = {u: t for t, u in enumerate(self.letters)}
        for u in self.degrees:
            if u not in pos:
                raise ValueError(f"degree tag for unknown letter {u!r}")
        norm: dict[tuple[str, str], int] = {}
        coeff = Fraction(coeff)
        for (u, v), e in (edges or {}).items():
            if u not in pos or v not in pos or u == v:
                raise ValueError(f"bad bracket pair ({u!r}, {v!r})")
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"bracket exponent must be an int >= 0, got {e!r}")
            if e == 0:
                continue
            if pos[u] > pos[v]:
                u, v = v, u
                coeff *= alt_sign(e)
            norm[(u, v)] = norm.get((u, v), 0) + e
        self.edges = norm
        self.coeff = coeff
        xp = {}
        for u, w in (x_powers or {}).items():
            if u not in pos:
                raise ValueError(f"x power on unknown letter {u!r}")
            if not isinstance(w, int) or w < 0:
                raise ValueError(f"x exponent must be an int >= 0, got {w!r}")
            if w:
                xp[u] = w
        self.x_powers = xp
        for u in self.letters:
            if self.valence(u) != self.degrees.get(u):
                raise ValueError(
                    f"letter {u!r}: bracket exponents plus x power "
                    f"{self.valence(u)} != degree {self.degrees.get(u)}"
                )

    def _fields(self) -> tuple:
        return (self.letters, self.degrees, self.edges, self.x_powers, self.coeff)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    __hash__ = None

    def __repr__(self):
        return (
            f"BracketMonomial(letters={self.letters!r}, degrees={self.degrees!r}, "
            f"edges={self.edges!r}, x_powers={self.x_powers!r}, coeff={self.coeff!r})"
        )

    def valence(self, u: str) -> int:
        v = self.x_powers.get(u, 0)
        for (a, b), e in self.edges.items():
            if u == a or u == b:
                v += e
        return v

    @property
    def order(self) -> int:
        return sum(self.x_powers.values())


def umbral_eval(mono: BracketMonomial, assignment: dict[str, BinaryForm]) -> BinaryForm:
    """Contract the monomial letter by letter, substituting forms as it goes.

    assignment maps every letter to a BinaryForm whose degree matches the
    letter's tag; coefficients may be numeric or symbolic.  The result is a
    form of order sum of the x powers (order 0 for invariants).

    Running values are kept per index key, the u2 exponent of each letter
    and the power of x2, as int numerators over one shared denominator.
    Letter u multiplies in its brackets with later letters and its x
    power, then is closed: its exponent i becomes the factor
    f_i(u) / C(d, i) and its slot is reset.  So keys range over the open
    letters only: two for a cycle, whose contraction is the matrix power
    behind trace_invariant.  The coefficients are Fractions when every
    assigned coefficient is rational and MultiPolys otherwise; all
    MultiPoly coefficients must share one variable list.
    """
    for u in mono.letters:
        if u not in assignment:
            raise ValueError(f"no form assigned to letter {u!r}")
        if assignment[u].degree != mono.degrees[u]:
            raise ValueError(
                f"letter {u!r} tagged degree {mono.degrees[u]}, "
                f"assigned form of degree {assignment[u].degree}"
            )
    variables = None
    for u in mono.letters:
        for c in assignment[u].coeffs:
            if isinstance(c, MultiPoly):
                if variables is None:
                    variables = c.vars
                elif c.vars != variables:
                    raise ValueError("polynomials over different variable lists")
    top = 0 if variables is None else FIELD_BITS * len(variables)
    slot = {u: t for t, u in enumerate(mono.letters)}
    x2 = len(slot)  # a key is the u2 exponent of each letter, then the power of x2
    state = {(0,) * (x2 + 1): {0: mono.coeff.numerator}}
    den = mono.coeff.denominator  # every value in state is its int numerators over den
    degree = 0  # a bound on the total degree of the values in the ring
    for u, s in slot.items():
        # (u1 v2 - u2 v1)^e has the terms C(e,l) (u1 v2)^(e-l) (-u2 v1)^l;
        # (u1 x1 + u2 x2)^w has the terms C(w,l) u1^(w-l) u2^l x1^(w-l) x2^l.
        factors = [(e, slot[v], True) for (a, v), e in mono.edges.items() if a == u]
        factors += [(mono.x_powers[u], x2, False)] if u in mono.x_powers else []
        for e, t, bracket in factors:
            weights = [binom_ext(e, l) * (alt_sign(l) if bracket else 1) for l in range(e + 1)]
            spread = {}
            for key, value in state.items():
                for l, w in enumerate(weights):
                    nxt = list(key)
                    nxt[s] += l
                    nxt[t] += e - l if bracket else l
                    nxt = tuple(nxt)
                    acc = spread.get(nxt)
                    if acc is None:
                        acc = spread[nxt] = {}
                    _mac(acc, value, None, w)
            state = spread
        # close u: f_i(u) / C(d, i) as int numerators over one denominator
        d = mono.degrees[u]
        subst = []
        for i, c in enumerate(assignment[u].coeffs):
            if isinstance(c, MultiPoly):
                subst.append((c.nums, c.den * binom_ext(d, i)))
            else:
                subst.append(({0: c.numerator} if c else {}, c.denominator * binom_ext(d, i)))
        scale = math.lcm(*[q for nums, q in subst if nums])
        subst = [{k: v * (scale // q) for k, v in nums.items()} for nums, q in subst]
        den *= scale
        degree += max((k >> top for nums in subst for k in nums), default=0)
        _check_degree(degree)
        closed = {}
        for key, value in state.items():
            g = subst[key[s]]
            if g:
                nxt = key[:s] + (0,) + key[s + 1:]
                acc = closed.get(nxt)
                if acc is None:
                    acc = closed[nxt] = {}
                _mac(acc, value, g, 1)
        state = closed
    coeffs = []
    for j in range(mono.order + 1):
        nums = {k: v for k, v in state.get((0,) * x2 + (j,), {}).items() if v}
        coeffs.append(Fraction(nums.get(0, 0), den) if variables is None else _poly(variables, den, nums))
    return BinaryForm(coeffs)


def cyclic_bracket(k: int, p: int) -> BracketMonomial:
    """The cycle of p letters of degree 2k, consecutive pairs bracketed to
    the k-th power (for p = 2 the two parallel brackets merge into one edge
    of exponent 2k).  Evaluating it with every letter assigned the same
    form reproduces the trace invariant of that form."""
    if k < 2 or k % 2:
        raise ValueError("k must be an even integer >= 2")
    if p < 2:
        raise ValueError("cycle length must be >= 2")
    letters = tuple(f"a{t + 1}" for t in range(p))
    edges: dict[tuple[str, str], int] = {}
    for t in range(p):
        pair = (letters[t], letters[(t + 1) % p])
        edges[pair] = edges.get(pair, 0) + k
    return BracketMonomial(
        letters=letters,
        degrees={u: 2 * k for u in letters},
        edges=edges,
        x_powers={},
    )


# The grammar is ASCII: without re.ASCII, \w, \s and \d also match
# non-ASCII letters, spaces and digits, and the CLI echoes the expression
# into its ASCII reports.
_BRACKET_RE = re.compile(
    r"\(\s*([A-Za-z_]\w*)\s*[,\s]\s*([A-Za-z_]\w*)\s*\)\s*(?:\^\s*(\d+))?", re.ASCII
)
_XPOW_RE = re.compile(r"([A-Za-z_]\w*)_x\s*(?:\^\s*(\d+))?", re.ASCII)
_DEG_RE = re.compile(r";\s*deg\s*=\s*(\d+)\s*$", re.ASCII)


def parse_bracket(text: str, default_degree: int | None = None) -> BracketMonomial:
    """Parse the compact grammar described in the module docstring.

    The trailing "; deg=N" clause tags all letters with degree N; without
    it, default_degree must be supplied.
    """
    if not text.isascii():
        raise ValueError(f"bracket expressions are ASCII only: {text!a}")
    work = text.strip()
    degree = default_degree
    m = _DEG_RE.search(work)
    if m:
        degree = int(m.group(1))
        work = work[: m.start()].strip()
    if degree is None:
        raise ValueError("no degree: add '; deg=N' or pass default_degree")
    letters: list[str] = []
    edges: dict[tuple[str, str], int] = {}  # raw orientation; the monomial normalizes
    x_powers: dict[str, int] = {}

    def note(u: str):
        if u not in letters:
            letters.append(u)

    pos = 0
    while pos < len(work):
        if work[pos].isspace():
            pos += 1
            continue
        m = _BRACKET_RE.match(work, pos)
        if m:
            u, v, e = m.group(1), m.group(2), int(m.group(3) or 1)
            note(u)
            note(v)
            edges[(u, v)] = edges.get((u, v), 0) + e
            pos = m.end()
            continue
        m = _XPOW_RE.match(work, pos)
        if m:
            u, w = m.group(1), int(m.group(2) or 1)
            note(u)
            x_powers[u] = x_powers.get(u, 0) + w
            pos = m.end()
            continue
        raise ValueError(f"cannot parse bracket expression at: {work[pos:pos + 20]!r}")
    return BracketMonomial(
        letters=tuple(letters),
        degrees={u: degree for u in letters},
        edges=edges,
        x_powers=x_powers,
    )


# -- the degree-3 covariant families of the octavic ------------------------

def _octavic_bracket(lam: tuple[int, int, int], total: int, shift: int) -> BracketMonomial:
    """(a b)^(l3+shift) (a c)^(l2+shift) (b c)^(l1+shift) a_x^l1 b_x^l2 c_x^l3
    over three octavic letters, for lam a partition of ``total``."""
    l1, l2, l3 = lam
    if sorted(lam, reverse=True) != list(lam) or sum(lam) != total or min(lam) < 0:
        raise ValueError(f"{lam} is not a partition of {total}")
    return BracketMonomial(
        letters=("a", "b", "c"),
        degrees={"a": 8, "b": 8, "c": 8},
        edges={("a", "b"): l3 + shift, ("a", "c"): l2 + shift, ("b", "c"): l1 + shift},
        x_powers={"a": l1, "b": l2, "c": l3},
    )


def octavic_a_bracket(lam: tuple[int, int, int]) -> BracketMonomial:
    """Degree-3, order-4 covariant of the octavic indexed by a partition of 4:

        A_lam = (a b)^(l3+2) (a c)^(l2+2) (b c)^(l1+2) a_x^l1 b_x^l2 c_x^l3
    """
    return _octavic_bracket(lam, 4, 2)


def octavic_b_bracket(lam: tuple[int, int, int]) -> BracketMonomial:
    """Degree-3, order-8 covariant of the octavic indexed by a partition of 8:

        B_lam = (a b)^l3 (a c)^l2 (b c)^l1 a_x^l1 b_x^l2 c_x^l3
    """
    return _octavic_bracket(lam, 8, 0)
