"""Sparse multivariate polynomials over Q and exact matrix algebra.

A MultiPoly maps exponent tuples to nonzero Fraction coefficients.  With
variables ("f0", "f1", "f2"), the polynomial 3/2*f0*f2^2 - f1 is stored as

    {(1, 0, 2): Fraction(3, 2), (0, 1, 0): Fraction(-1)}

The zero polynomial stores no terms.  Terms are kept in a dict; whenever
they are iterated for display or hashing they are sorted graded
lexicographically (total degree first, then exponents, highest first), so
equal polynomials always serialize identically.

RingMatrix is a dense 2-D array whose entries are Fractions or MultiPolys
over one shared variable list.  The product of two rational matrices runs
over Z: the left operand's rows and the right operand's columns are
scaled by the lcm of their denominators, each entry is an integer dot
product over the nonzero entries of its row, and one Fraction per entry
undoes the scaling.  Matrices with MultiPoly entries are multiplied entry
by entry.  The characteristic polynomial is computed
over Q via the trace-power recurrence (divisions by integers are exact).
Determinant and rank share one fraction-free (Bareiss) elimination on the
integer matrix obtained by clearing row denominators, so intermediate
entries never grow fractions; the determinant is 0 when the rank falls
short of n, and otherwise the last pivot over the row multipliers.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .exactnum import alt_sign


def _as_coeff(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"not a rational coefficient: {c!r}")


class MultiPoly:
    """Sparse polynomial in a fixed tuple of named variables."""

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms=None):
        self.vars = tuple(variables)
        arity = len(self.vars)
        clean = {}
        if terms:
            for exp, c in terms.items():
                exp = tuple(exp)
                if len(exp) != arity:
                    raise ValueError(f"exponent arity {len(exp)} != {arity}")
                c = _as_coeff(c)
                if c:
                    clean[exp] = c
        self.terms = clean

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "MultiPoly":
        return cls(variables)

    @classmethod
    def const(cls, variables, c) -> "MultiPoly":
        variables = tuple(variables)
        return cls(variables, {(0,) * len(variables): _as_coeff(c)})

    @classmethod
    def variable(cls, variables, index: int) -> "MultiPoly":
        variables = tuple(variables)
        if not 0 <= index < len(variables):
            raise ValueError(f"variable index {index} out of range")
        exp = [0] * len(variables)
        exp[index] = 1
        return cls(variables, {tuple(exp): Fraction(1)})

    # -- ring structure ----------------------------------------------

    def _lift(self, other) -> "MultiPoly":
        if isinstance(other, MultiPoly):
            if other.vars != self.vars:
                raise ValueError("polynomials over different variable lists")
            return other
        return MultiPoly.const(self.vars, other)

    def __add__(self, other):
        if not isinstance(other, (MultiPoly, int, Fraction)):
            return NotImplemented
        other = self._lift(other)
        terms = dict(self.terms)
        get = terms.get
        for exp, c in other.terms.items():
            old = get(exp)
            s = c if old is None else old + c
            if s:
                terms[exp] = s
            else:
                del terms[exp]
        out = MultiPoly(self.vars)
        out.terms = terms
        return out

    __radd__ = __add__

    def __neg__(self):
        out = MultiPoly(self.vars)
        out.terms = {exp: -c for exp, c in self.terms.items()}
        return out

    def __sub__(self, other):
        if not isinstance(other, (MultiPoly, int, Fraction)):
            return NotImplemented
        return self + (-self._lift(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if not isinstance(other, (MultiPoly, int, Fraction)):
            return NotImplemented
        if isinstance(other, (int, Fraction)):
            c = _as_coeff(other)
            out = MultiPoly(self.vars)
            if c:
                out.terms = {exp: v * c for exp, v in self.terms.items()}
            return out
        other = self._lift(other)
        acc: dict[tuple[int, ...], Fraction] = {}
        get = acc.get
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                exp = tuple(map(operator.add, e1, e2))
                c = c1 * c2
                old = get(exp)
                acc[exp] = c if old is None else old + c
        out = MultiPoly(self.vars)
        out.terms = {exp: c for exp, c in acc.items() if c}
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / _as_coeff(other))
        return NotImplemented

    def __pow__(self, p: int):
        if not isinstance(p, int) or p < 0:
            raise ValueError("exponent must be a nonnegative int")
        out = MultiPoly.const(self.vars, 1)
        base = self
        while p:
            if p & 1:
                out = out * base
            p >>= 1
            if p:
                base = base * base
        return out

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, MultiPoly):
            return self.vars == other.vars and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            return self.terms == MultiPoly.const(self.vars, other).terms
        return NotImplemented

    __hash__ = None

    # -- calculus and evaluation ---------------------------------------

    def partial(self, var_index: int) -> "MultiPoly":
        """Formal partial derivative with respect to the indexed variable."""
        if not 0 <= var_index < len(self.vars):
            raise ValueError(f"variable index {var_index} out of range")
        terms = {}
        for exp, c in self.terms.items():
            e = exp[var_index]
            if e:
                nexp = exp[:var_index] + (e - 1,) + exp[var_index + 1:]
                terms[nexp] = terms.get(nexp, Fraction(0)) + c * e
        out = MultiPoly(self.vars)
        out.terms = {e: c for e, c in terms.items() if c}
        return out

    def evaluate(self, point) -> Fraction:
        point = [_as_coeff(v) for v in point]
        if len(point) != len(self.vars):
            raise ValueError(f"point arity {len(point)} != {len(self.vars)}")
        total = Fraction(0)
        for exp, c in self.terms.items():
            v = c
            for x, e in zip(point, exp):
                if e:
                    v *= x ** e
            total += v
        return total

    # -- canonical form ------------------------------------------------

    def canonical_terms(self):
        """Terms sorted graded-lex, highest first."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True)

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for exp, c in self.canonical_terms():
            factors = [str(c)]
            for name, e in zip(self.vars, exp):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"MultiPoly({self})"


class RingMatrix:
    """Dense matrix over Fraction or MultiPoly entries.

    Rectangular shapes are allowed; multiplication, powers, trace and the
    characteristic polynomial require the obvious squareness/compatibility.
    """

    __slots__ = ("rows",)

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        self.rows = rows

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0])

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    @classmethod
    def identity(cls, n: int) -> "RingMatrix":
        return cls([[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)])

    def __getitem__(self, ij):
        i, j = ij
        return self.rows[i][j]

    def __eq__(self, other):
        return isinstance(other, RingMatrix) and self.rows == other.rows

    __hash__ = None

    def mul(self, other: "RingMatrix") -> "RingMatrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in matrix product")
        if _rational_entries(self) and _rational_entries(other):
            return RingMatrix(_cleared_product(self.rows, other.rows))
        zero = Fraction(0)
        bt = list(zip(*other.rows))
        out = []
        for row in self.rows:
            out.append([sum((a * b for a, b in zip(row, col) if a and b), zero) for col in bt])
        return RingMatrix(out)

    __matmul__ = mul

    def pow(self, p: int) -> "RingMatrix":
        if not self.is_square():
            raise ValueError("power of a non-square matrix")
        if p < 0:
            raise ValueError("negative matrix power")
        if p == 0:
            return RingMatrix.identity(self.nrows)
        out = self
        for _ in range(p - 1):
            out = out.mul(self)
        return out

    def trace(self):
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        return sum((self.rows[i][i] for i in range(self.nrows)), Fraction(0))

    def __repr__(self):
        return f"RingMatrix({self.nrows}x{self.ncols})"


def charpoly(m: RingMatrix) -> list[Fraction]:
    """Coefficients of det(lambda*Id - M), listed from lambda^0 up, monic.

    Computed from the traces of matrix powers by the Newton recurrence
    i*e_i = sum_{j=1..i} (-1)^(j-1) e_{i-j} tr(M^j); requires rational
    entries (all divisions are by integers, hence exact over Q).
    """
    if not m.is_square():
        raise ValueError("characteristic polynomial of a non-square matrix")
    if not _rational_entries(m):
        raise TypeError("charpoly requires rational entries")
    n = m.nrows
    traces = []
    power = m
    for j in range(1, n + 1):
        traces.append(power.trace())
        if j < n:
            power = power.mul(m)
    e = [Fraction(1)]
    for i in range(1, n + 1):
        s = Fraction(0)
        for j in range(1, i + 1):
            s += alt_sign(j - 1) * e[i - j] * traces[j - 1]
        e.append(s / i)
    return [alt_sign(n - p) * e[n - p] for p in range(n + 1)]


def _rational_entries(m: RingMatrix) -> bool:
    """True when every entry of m is an int or a Fraction."""
    return all(isinstance(c, (int, Fraction)) for row in m.rows for c in row)


def _cleared_int_rows(rows):
    """Scale each row by the lcm of its denominators; return int rows and multipliers."""
    out = []
    mults = []
    for row in rows:
        row = list(map(_as_coeff, row))
        nonzero = [(j, c) for j, c in enumerate(row) if c]
        den = math.lcm(*[c.denominator for _, c in nonzero])
        ints = [0] * len(row)
        for j, c in nonzero:
            ints[j] = c.numerator * (den // c.denominator)
        out.append(ints)
        mults.append(den)
    return out, mults


def _cleared_product(a_rows, b_rows):
    """Entries of the rational product a @ b, computed over Z.

    Row i of a is scaled to integers by its denominator lcm d_i, column j
    of b likewise by e_j, so (a @ b)_ij = (integer dot product) / (d_i e_j).
    """
    a, row_dens = _cleared_int_rows(a_rows)
    bt, col_dens = _cleared_int_rows(zip(*b_rows))
    zero = Fraction(0)
    out = []
    for row, d in zip(a, row_dens):
        nonzero = [(j, c) for j, c in enumerate(row) if c]
        out_row = []
        for col, e in zip(bt, col_dens):
            s = sum(c * col[j] for j, c in nonzero)
            out_row.append(Fraction(s, d * e) if s else zero)
        out.append(out_row)
    return out


def _bareiss(a: list[list[int]]) -> tuple[int, int, int]:
    """Fraction-free (Bareiss) elimination of the integer rows a, in place.

    Columns without a pivot are skipped, so any shape is allowed.  Returns
    (rank, swap_sign, last_pivot): the sign is (-1)^(row swaps), and when
    a is square of full rank, swap_sign * last_pivot is its determinant.
    """
    nrows = len(a)
    ncols = len(a[0])
    piv_r = 0
    sign = 1
    prev = 1
    for c in range(ncols):
        if piv_r >= nrows:
            break
        piv = next((r for r in range(piv_r, nrows) if a[r][c]), None)
        if piv is None:
            continue
        if piv != piv_r:
            a[piv_r], a[piv] = a[piv], a[piv_r]
            sign = -sign
        for i in range(piv_r + 1, nrows):
            for j in range(c + 1, ncols):
                a[i][j] = (a[piv_r][c] * a[i][j] - a[i][c] * a[piv_r][j]) // prev
            a[i][c] = 0
        prev = a[piv_r][c]
        piv_r += 1
    return piv_r, sign, prev


def det_exact(m: RingMatrix) -> Fraction:
    """Exact determinant via Bareiss fraction-free elimination.

    Row denominators are cleared first, so the elimination runs entirely
    over Z; the final division undoes the clearing.
    """
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    a, mults = _cleared_int_rows(m.rows)
    rank, sign, last = _bareiss(a)
    if rank < len(a):
        return Fraction(0)
    return Fraction(sign * last, math.prod(mults))


def rank_exact(m: RingMatrix) -> int:
    """Exact rank via fraction-free elimination; rectangular input allowed."""
    a, _ = _cleared_int_rows(m.rows)
    return _bareiss(a)[0]
