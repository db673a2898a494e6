"""Sparse multivariate polynomials over Q and exact matrix algebra.

A MultiPoly over n variables is one positive content denominator ``den``
and a dict ``nums`` from packed exponent ints to nonzero int numerators;
the coefficient of a term is its numerator over ``den``.  An exponent
vector (e0, ..., e_{n-1}) of total degree D packs into one int of n + 1
fields, each W = 24 bits wide, with D in the top field:

    D << (n*W)  |  e0 << ((n-1)*W)  |  ...  |  e_{n-1}

so multiplying two monomials is one int addition, and descending int
order is graded lexicographic order (total degree first, then exponents,
highest first).  With variables ("f0", "f1", "f2"), the polynomial
3/2*f0*f2^2 - f1 is stored as

    den = 2,  nums = {3 << 72 | 1 << 48 | 2: 3,  1 << 72 | 1 << 24: -2}

The storage is kept content-normalized, gcd(den, *nums.values()) == 1,
so equal polynomials have equal ``den`` and ``nums``; the zero polynomial
is den = 1 and no terms.  Every exponent lies in [0, 2^W) because the
total degree does: a constructor term or a product whose total degree
would reach 2^W raises OverflowError instead of carrying into the next
field.  ``terms`` builds the exponent-tuple -> Fraction view on demand.

RingMatrix is a dense 2-D array whose entries are Fractions or MultiPolys
over one shared variable list.  The product of two rational matrices runs
over Z: the left operand's rows and the right operand's columns are
scaled by the lcm of their denominators, the integer product ``_times``
is taken, and one Fraction per entry undoes the scaling.  ``_times`` is
the one integer matrix product of the package (the Jacobian's running
power uses it too): a row with few nonzero entries combines the rows of
the right operand it selects, a denser row takes dot products with the
columns.  Matrices with MultiPoly entries are multiplied entry by entry.
The characteristic polynomial comes from the trace-power (Newton)
recurrence, whose divisions are by integers, so one loop serves
rational and MultiPoly entries alike.
Determinant and rank share one fraction-free (Bareiss) elimination on the
integer matrix obtained by clearing row denominators, so intermediate
entries never grow fractions; the determinant is 0 when the rank falls
short of n, and otherwise the last pivot over the row multipliers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat
from operator import add, mul

from .exactnum import alt_sign

FIELD_BITS = 24  # W: width of each packed exponent field
_FIELD_MASK = (1 << FIELD_BITS) - 1


def _as_coeff(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"not a rational coefficient: {c!r}")


def _check_degree(degree: int) -> None:
    if degree > _FIELD_MASK:
        raise OverflowError(f"total degree {degree} does not fit a {FIELD_BITS}-bit exponent field")


def _pack(exp) -> int:
    """The packed key of an exponent tuple whose total degree fits a field."""
    key = sum(exp)
    for e in exp:
        key = (key << FIELD_BITS) | e
    return key


def _poly(variables, den: int, nums: dict) -> "MultiPoly":
    """A MultiPoly over ``variables`` from nonzero numerators over ``den``,
    divided through by their common content with ``den``."""
    if den != 1:
        g = math.gcd(den, *nums.values())
        if g != 1:
            den //= g
            nums = {k: v // g for k, v in nums.items()}
    out = object.__new__(MultiPoly)
    out.vars = variables
    out.den = den
    out.nums = nums
    return out


class MultiPoly:
    """Sparse polynomial in a fixed tuple of named variables."""

    __slots__ = ("vars", "den", "nums")

    def __init__(self, variables, terms=None):
        self.vars = tuple(variables)
        arity = len(self.vars)
        coeffs = {}
        if terms:
            for exp, c in terms.items():
                exp = tuple(exp)
                if len(exp) != arity:
                    raise ValueError(f"exponent arity {len(exp)} != {arity}")
                if any(type(e) is not int or e < 0 for e in exp):
                    raise ValueError(f"exponents must be nonnegative ints, got {exp!r}")
                _check_degree(sum(exp))
                c = _as_coeff(c)
                if c:
                    coeffs[_pack(exp)] = c
        # over the lcm of the denominators the content is already 1
        self.den = math.lcm(*[c.denominator for c in coeffs.values()])
        self.nums = {k: c.numerator * (self.den // c.denominator) for k, c in coeffs.items()}

    # -- packed exponents ------------------------------------------------

    def _unpack(self, key: int) -> tuple[int, ...]:
        n = len(self.vars)
        return tuple((key >> (FIELD_BITS * (n - 1 - i))) & _FIELD_MASK for i in range(n))

    @property
    def terms(self) -> dict[tuple[int, ...], Fraction]:
        """Exponent tuple -> Fraction coefficient, built on each access."""
        return {self._unpack(k): Fraction(v, self.den) for k, v in self.nums.items()}

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, variables) -> "MultiPoly":
        return cls(variables)

    @classmethod
    def const(cls, variables, c) -> "MultiPoly":
        c = _as_coeff(c)  # a constant's packed exponent is 0
        return _poly(tuple(variables), c.denominator, {0: c.numerator} if c else {})

    @classmethod
    def variable(cls, variables, index: int) -> "MultiPoly":
        variables = tuple(variables)
        if not 0 <= index < len(variables):
            raise ValueError(f"variable index {index} out of range")
        exp = [0] * len(variables)
        exp[index] = 1
        return cls(variables, {tuple(exp): 1})

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
        g = math.gcd(self.den, other.den)
        sa, sb = other.den // g, self.den // g
        nums = dict(self.nums) if sa == 1 else {k: v * sa for k, v in self.nums.items()}
        get = nums.get
        for k, v in other.nums.items():
            s = get(k, 0) + v * sb
            if s:
                nums[k] = s
            else:
                del nums[k]
        return _poly(self.vars, self.den * sa, nums)

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.vars, self.den, {k: -v for k, v in self.nums.items()})

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
            p = other.numerator
            nums = {k: v * p for k, v in self.nums.items()} if p else {}
            return _poly(self.vars, self.den * other.denominator, nums)
        other = self._lift(other)
        if not (self.nums and other.nums):
            return _poly(self.vars, 1, {})
        top = FIELD_BITS * len(self.vars)
        _check_degree((max(self.nums) >> top) + (max(other.nums) >> top))
        acc: dict[int, int] = {}
        get = acc.get
        right = other.nums.items()
        for k1, v1 in self.nums.items():
            for k2, v2 in right:
                k = k1 + k2
                acc[k] = get(k, 0) + v1 * v2
        return _poly(self.vars, self.den * other.den, {k: v for k, v in acc.items() if v})

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
        return bool(self.nums)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = MultiPoly.const(self.vars, other)
        if isinstance(other, MultiPoly):
            return self.vars == other.vars and self.den == other.den and self.nums == other.nums
        return NotImplemented

    __hash__ = None

    # -- calculus and evaluation ---------------------------------------

    def partial(self, var_index: int) -> "MultiPoly":
        """Formal partial derivative with respect to the indexed variable."""
        n = len(self.vars)
        if not 0 <= var_index < n:
            raise ValueError(f"variable index {var_index} out of range")
        shift = FIELD_BITS * (n - 1 - var_index)
        step = (1 << shift) + (1 << (FIELD_BITS * n))  # one off e_i and off the degree
        nums = {}
        for k, v in self.nums.items():
            e = (k >> shift) & _FIELD_MASK
            if e:
                nums[k - step] = v * e
        return _poly(self.vars, self.den, nums)

    def evaluate(self, point) -> Fraction:
        point = [_as_coeff(v) for v in point]
        if len(point) != len(self.vars):
            raise ValueError(f"point arity {len(point)} != {len(self.vars)}")
        total = Fraction(0)
        for k, v in self.nums.items():
            for x, e in zip(point, self._unpack(k)):
                if e:
                    v *= x ** e
            total += v
        return total / self.den

    # -- canonical form ------------------------------------------------

    def canonical_terms(self):
        """Terms sorted graded-lex, highest first."""
        return [(self._unpack(k), Fraction(self.nums[k], self.den)) for k in sorted(self.nums, reverse=True)]

    def __str__(self):
        if not self.nums:
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

    def powers(self, p: int):
        """Yield M, M^2, ..., M^p; each step is one product, made when asked for."""
        power = self
        for e in range(p):
            if e:
                power = power.mul(self)
            yield power

    def trace(self):
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        return sum((self.rows[i][i] for i in range(self.nrows)), Fraction(0))

    def __repr__(self):
        return f"RingMatrix({self.nrows}x{self.ncols})"


def charpoly(m: RingMatrix) -> list:
    """Coefficients of det(lambda*Id - M), listed from lambda^0 up, monic.

    Computed from the traces of matrix powers by the Newton recurrence
    i*e_i = sum_{j=1..i} (-1)^(j-1) e_{i-j} tr(M^j).  Every division is by
    an integer, so the recurrence is exact over Q and over Q[f0..fd]:
    entries may be ints, Fractions or MultiPolys, and anything else (a
    float, say) raises TypeError.  The leading 1 is a Fraction.
    """
    if not m.is_square():
        raise ValueError("characteristic polynomial of a non-square matrix")
    if not all(isinstance(c, (int, Fraction, MultiPoly)) for row in m.rows for c in row):
        raise TypeError("charpoly requires rational or MultiPoly entries")
    n = m.nrows
    traces = [power.trace() for power in m.powers(n)]
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


def _times(a: list[list[int]], b: list[list[int]], b_cols) -> list[list[int]]:
    """The integer product a @ b, given b's columns too.  A row of a with
    few nonzero entries (the Jacobian witness's powers have one per row)
    combines the rows of b it selects; a denser row takes dot products
    with the columns."""
    out = []
    for row in a:
        picked = [(x, b[j]) for j, x in enumerate(row) if x]
        if 2 * len(picked) < len(row):
            acc = [0] * len(b_cols)
            for x, brow in picked:
                acc = list(map(add, acc, map(mul, brow, repeat(x))))
            out.append(acc)
        else:
            out.append([sum(map(mul, row, col)) for col in b_cols])
    return out


def _cleared_product(a_rows, b_rows):
    """Entries of the rational product a @ b, computed over Z.

    Row i of a is scaled to integers by its denominator lcm d_i, column j
    of b likewise by e_j, and (a @ b)_ij = (A @ B)_ij / (d_i e_j) for the
    cleared integer matrices A and B, whose product ``_times`` takes.
    """
    a, row_dens = _cleared_int_rows(a_rows)
    bt, col_dens = _cleared_int_rows(zip(*b_rows))
    zero = Fraction(0)
    return [[Fraction(s, d * e) if s else zero for s, e in zip(row, col_dens)]
            for row, d in zip(_times(a, list(zip(*bt)), bt), row_dens)]


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
