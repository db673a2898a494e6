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

Sums of products are fused (Monagan & Pearce, CASC 2007): ``_dot`` takes
sum a*b over many pairs into one dict of int numerators over the lcm of
the pairs' denominators and takes the content out once, at the end, so no
MultiPoly is built per product and no accumulator is copied per term.
Its multiply-add ``_mac`` takes a scalar or one-term factor in one loop
over the other factor and keeps the double loop for two many-term
factors.  MultiPoly * is the one-pair sum, and + and - are the two-pair
sums (self, +-1), (other, +-1), a scalar operand adding a constant of
the ring; a polynomial matrix product is one sum per entry, and so are a
trace, the trace pairing ``trace_product``, a step of the characteristic
recurrence and a transvectant coefficient.  Over Q ``_dot`` is the plain
Fraction sum.  Its accumulation, ``_fused``, takes ready numerator dicts
with an int weight each, for a sum that counts some products more than
once.  ``MultiPoly.reflect`` is the variable reversal x_i -> x_(n-1-i),
a permutation of the exponent fields of every packed key.

RingMatrix is a dense 2-D array whose entries are Fractions or
MultiPolys over one shared variable list.  A matrix with a MultiPoly
entry is polynomial, and so are its products: a product entry that
vanishes is the zero MultiPoly.  Its trace, its trace pairings and its
characteristic coefficients below the leading 1 are then MultiPolys,
zero included, and no caller passes a variable list around.  A rational
matrix is cleared once to M = A / D, A sparse integer rows (dicts from
column to nonzero int) and D one positive denominator, and stays so
through products: the product of A / D and B / E is (A @ B) / (D E), so
a running power is a chain of integer products over D, D^2, ..., and a
trace of a product (``trace_product``, which every numeric pairing of the
package takes) is one integer pairing and one Fraction.  Fraction
entries are built only when ``rows`` is read.  ``_times`` is the one
integer matrix product of the package (the Jacobian's running power uses
it too, mod a prime), with two routes.  The sparse route combines the
nonzero entries of the rows of the right operand that a row's nonzero
entries select; every exact product takes it.  Mod p, a row with at least
half its entries nonzero is one big-int sum instead: each row of the
right operand is packed once (``_right_factor``) into one int of 64-bit
slots (Kronecker substitution), so a product row is
sum_j x_j * packed(B_j), one multiply-add per nonzero entry, read back
slot by slot and reduced mod p.  No slot carries while n(p-1)^2 < 2^64
for the n rows of the right operand; past that bound nothing is packed,
and every row takes the sparse route.  A trace of a product over Q reads
B_ji from the sparse rows of B for each nonzero A_ij.  A polynomial
product or pairing hands its entries to ``_dot`` as they are, rationals
and zeros included.  The characteristic polynomial comes from the
trace-power (Newton) recurrence, whose divisions are by integers, so one
loop serves rational and MultiPoly entries alike; its traces pair M, ...,
M^ceil(n/2).
Determinant and rank share one fraction-free (Bareiss) elimination on
the once-cleared A (``RingMatrix._integral``, the package's one clearing
rule), so intermediate entries never grow fractions; the determinant is
0 when the rank falls short of n, and otherwise the signed last pivot
over D^n.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat, starmap
from operator import itemgetter, mul
from struct import pack, unpack

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


def _mac(acc: dict, a: dict, b, c: int) -> None:
    """acc += c * a * b on numerator dicts over packed keys, b None standing
    for 1.  A scalar or one-term factor takes one loop over the other
    factor; only two many-term factors take the double loop."""
    get = acc.get
    shift = 0
    if b is not None:
        if len(a) == 1:
            a, b = b, a
        if len(b) != 1:
            right = b.items()
            for k1, v1 in a.items():
                v1 *= c
                for k2, v2 in right:
                    k = k1 + k2
                    acc[k] = get(k, 0) + v1 * v2
            return
        (shift, v), = b.items()
        c *= v
    if shift:
        for k, v in a.items():
            k += shift
            acc[k] = get(k, 0) + v * c
    else:
        for k, v in a.items():
            acc[k] = get(k, 0) + v * c


def _dot(variables, pairs):
    """The sum of a * b over ``pairs``, as one MultiPoly over ``variables``;
    over Q (``variables`` None) the plain Fraction sum, Fraction(0) for none.

    Each factor is a MultiPoly over ``variables`` or an int or Fraction, in
    either order; a pair of two scalars adds a constant of the ring.
    Every product is accumulated into one dict of int numerators over the
    lcm of the pairs' denominators, and the content is taken out once, at
    the end (``_fused``).
    """
    if variables is None:
        return sum(starmap(mul, pairs), Fraction(0))
    factors = []
    for a, b in pairs:
        if not isinstance(a, MultiPoly):
            a, b = b, a
        if isinstance(b, MultiPoly):
            if a.vars != variables or b.vars != variables:
                raise ValueError("polynomials over different variable lists")
            if a.nums and b.nums:
                factors.append((a.nums, b.nums, 1, a.den * b.den))
        elif isinstance(a, MultiPoly):
            if a.vars != variables:
                raise ValueError("polynomials over different variable lists")
            if a.nums and b:
                factors.append((a.nums, None, b.numerator, a.den * b.denominator))
        elif a and b:  # two scalars: the constant term a * b
            factors.append(({0: a.numerator}, None, b.numerator, a.denominator * b.denominator))
    return _fused(variables, factors)


def _fused(variables, factors) -> "MultiPoly":
    """The sum of c * a * b / d over ``factors`` (a, b, c, d): numerator
    dicts a and b (b None for 1), an int c and a positive int d.  The
    products go into one dict over the lcm of the d, and the content is
    taken out once, at the end.  No field can carry unnoticed: a product
    of total degree D has a key whose top field is at least D, so the
    largest key bounds every product's degree.
    """
    den = math.lcm(*[f[3] for f in factors])
    acc: dict[int, int] = {}
    for a, b, c, d in factors:
        _mac(acc, a, b, c * (den // d))
    if acc:
        _check_degree(max(acc) >> (FIELD_BITS * len(variables)))
    return _poly(variables, den, {k: v for k, v in acc.items() if v})


def _reflected(nums: dict, n: int) -> dict:
    """The numerator dict ``nums`` over n variables under the variable
    reversal x_i -> x_(n-1-i): the exponent fields of every key in reverse
    order, the degree field kept.

    While the total degree is below 256, every exponent is, so each field
    is one low byte and then zero bytes: the exponent fields are written
    as little-endian bytes and read back reversed, the slice starting at
    the low byte of the top field so that every field realigns, and or-ed
    under the degree field.  Past that, field by field.
    """
    shift = FIELD_BITS * n
    low = (1 << shift) - 1
    if not nums or max(nums) >> shift < 256:
        width = FIELD_BITS // 8
        size = n * width
        return {k >> shift << shift | int.from_bytes((k & low).to_bytes(size, "little")[-width::-1], "little"): v
                for k, v in nums.items()}
    fields = [(FIELD_BITS * i, FIELD_BITS * (n - 1 - i)) for i in range(n)]
    return {k >> shift << shift | sum(((k >> a) & _FIELD_MASK) << b for a, b in fields): v
            for k, v in nums.items()}


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

    def __add__(self, other):
        if not isinstance(other, (MultiPoly, int, Fraction)):
            return NotImplemented
        return _dot(self.vars, ((self, 1), (other, 1)))

    __radd__ = __add__

    def __neg__(self):
        return _poly(self.vars, self.den, {k: -v for k, v in self.nums.items()})

    def __sub__(self, other):
        if not isinstance(other, (MultiPoly, int, Fraction)):
            return NotImplemented
        return _dot(self.vars, ((self, 1), (other, -1)))

    def __rsub__(self, other):
        if not isinstance(other, (MultiPoly, int, Fraction)):
            return NotImplemented
        return _dot(self.vars, ((self, -1), (other, 1)))

    def __mul__(self, other):
        if not isinstance(other, (MultiPoly, int, Fraction)):
            return NotImplemented
        return _dot(self.vars, ((self, other),))

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

    def reflect(self) -> "MultiPoly":
        """The image under the variable reversal x_i -> x_(n-1-i) of the n
        variables (``_reflected``)."""
        return _poly(self.vars, self.den, _reflected(self.nums, len(self.vars)))

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
        """The terms of ``canonical_terms`` as "c*x^e*y", joined by " + ",
        each coefficient written as `str` writes its Fraction."""
        if not self.nums:
            return "0"
        n = len(self.vars)
        fields = [(FIELD_BITS * (n - 1 - i), name) for i, name in enumerate(self.vars)]
        den = self.den
        parts = []
        for k in sorted(self.nums, reverse=True):
            v = self.nums[k]
            g = math.gcd(v, den)
            factors = [str(v // g) if g == den else f"{v // g}/{den // g}"]
            for shift, name in fields:
                e = (k >> shift) & _FIELD_MASK
                if e == 1:
                    factors.append(name)
                elif e:
                    factors.append(f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self):
        return f"MultiPoly({self})"


class RingMatrix:
    """Dense matrix over Fraction or MultiPoly entries.

    Rectangular shapes are allowed; multiplication, powers, trace and the
    characteristic polynomial require the obvious squareness/compatibility.
    A rational matrix is also held as A / D (``_integral``), and a product
    of two is made in that form alone.
    """

    __slots__ = ("nrows", "ncols", "_rows", "_vars", "_ints")

    def __init__(self, rows):
        rows = tuple(tuple(r) for r in rows)
        if not rows or not rows[0]:
            raise ValueError("matrix must have at least one row and column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise ValueError("ragged rows")
        self.nrows, self.ncols = len(rows), width
        self._rows = rows
        # the variable list of the MultiPoly entries, None when all are rational
        self._vars = None
        for row in rows:
            for c in row:
                if isinstance(c, MultiPoly):
                    if self._vars is None:
                        self._vars = c.vars
                elif not isinstance(c, (int, Fraction)):
                    raise TypeError(f"matrix entries must be rational or MultiPoly, got {c!r}")
        self._ints = None  # see _integral

    @classmethod
    def _cleared(cls, ints: list[dict], den: int, ncols: int) -> "RingMatrix":
        """The rational matrix ints / den, from sparse integer rows."""
        out = object.__new__(cls)
        out.nrows, out.ncols = len(ints), ncols
        out._rows = out._vars = None
        out._ints = ints, den
        return out

    @property
    def rows(self) -> tuple:
        """The entries, row by row; built on first access for a product."""
        if self._rows is None:
            ints, den = self._ints
            zero = Fraction(0)
            self._rows = tuple(tuple(Fraction(row[j], den) if j in row else zero for j in range(self.ncols))
                               for row in ints)
        return self._rows

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

    def _integral(self) -> tuple[list[dict], int]:
        """(A, D) with this rational matrix equal to A / D: D the lcm of the
        entries' denominators, and each row of A a dict from column to
        nonzero int.  Made once; a polynomial matrix has no such form."""
        if self._ints is None:
            if self._vars is not None:
                raise TypeError(f"not a rational coefficient: a matrix over {self._vars}")
            den = math.lcm(*[c.denominator for row in self._rows for c in row])
            self._ints = [{j: c.numerator * (den // c.denominator) for j, c in enumerate(row) if c}
                          for row in self._rows], den
        return self._ints

    def _ring(self, other: "RingMatrix"):
        """The variable list of a product or pairing of self and other."""
        return self._vars if other._vars is None else other._vars

    def mul(self, other: "RingMatrix") -> "RingMatrix":
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in matrix product")
        variables = self._ring(other)
        if variables is None:
            (a, d), (b, e) = self._integral(), other._integral()
            return RingMatrix._cleared(_times(a, b, None), d * e, other.ncols)
        cols = list(zip(*other.rows))
        return RingMatrix([[_dot(variables, zip(row, col)) for col in cols] for row in self.rows])

    __matmul__ = mul

    def powers(self, p: int):
        """Yield M, M^2, ..., M^p; each step is one product, made when asked for."""
        power = self
        for e in range(p):
            if e:
                power = power.mul(self)
            yield power

    def trace(self):
        """The sum of the diagonal: a Fraction, or a MultiPoly when the
        matrix has polynomial entries."""
        if not self.is_square():
            raise ValueError("trace of a non-square matrix")
        return _dot(self._vars, [(self.rows[i][i], 1) for i in range(self.nrows)])

    def __repr__(self):
        return f"RingMatrix({self.nrows}x{self.ncols})"


def trace_product(a: RingMatrix, b: RingMatrix):
    """tr(a @ b) = sum_ij a_ij b_ji, without forming the product.

    When every entry is rational, the value is one integer pairing
    sum_ij A_ij B_ji over the nonzero entries of A's sparse rows, B_ji read
    from B's, over the two denominators (a = A / D, b = B / E), and one
    Fraction.  When either matrix is polynomial, every nonzero product goes
    into one fused sum over its variable list, and the value is a
    MultiPoly, zero included.
    """
    if a.ncols != b.nrows or a.nrows != b.ncols:
        raise ValueError("dimension mismatch in trace of a product")
    variables = a._ring(b)
    if variables is None:
        (rows, d), (brows, e) = a._integral(), b._integral()
        return Fraction(sum(x * brows[j].get(i, 0) for i, row in enumerate(rows) for j, x in row.items()), d * e)
    return _dot(variables, [pair for row, col in zip(a.rows, zip(*b.rows)) for pair in zip(row, col)])


def charpoly(m: RingMatrix, pairing=trace_product, powers=RingMatrix.powers) -> list:
    """Coefficients of det(lambda*Id - M), listed from lambda^0 up, monic.

    Computed from the traces of matrix powers by the Newton recurrence
    i*e_i = sum_{j=1..i} (-1)^(j-1) e_{i-j} tr(M^j).  Every division is by
    an integer, so the recurrence is exact over Q and over Q[f0..fd]:
    entries may be ints, Fractions or MultiPolys (a RingMatrix refuses
    anything else, a float say, with TypeError).  The leading 1 is a
    Fraction.  The traces come from M, ..., M^ceil(n/2) alone, two powers
    held at a time: tr(M^j) is ``pairing`` of M^ceil(j/2) with
    M^floor(j/2).  The default ``trace_product`` pairs any two matrices;
    over Q it is one integer pairing of the integer powers over D, D^2,
    ... (``RingMatrix._integral``).  Another pairing is valid when it
    equals tr(a @ b) whenever both arguments are powers of M, as the
    apolar pairing of ``invariants`` does for a polynomial transvection
    matrix (over Q it is ``trace_product`` itself).
    ``powers(m, p)`` yields M, ..., M^p; another chain than
    ``RingMatrix.powers`` may make them, as ``invariants`` does.
    Each sum of the recurrence is one ``_dot`` over the matrix's ring.
    """
    if not m.is_square():
        raise ValueError("characteristic polynomial of a non-square matrix")
    n = m.nrows
    traces = []
    prev = None
    for a, power in enumerate(powers(m, (n + 1) // 2), 1):
        # tr(M^(2a-1)) pairs M^a with M^(a-1), tr(M^(2a)) pairs M^a with itself
        traces.append(m.trace() if prev is None else pairing(power, prev))
        if 2 * a <= n:
            traces.append(pairing(power, power))
        prev = power
    signed = [-t if j % 2 else t for j, t in enumerate(traces)]  # (-1)^(j-1) tr(M^j) at j - 1
    e = [Fraction(1)]
    for i in range(1, n + 1):
        # sum_{j=1..i} (-1)^(j-1) tr(M^j) e_(i-j): zip and map stop at e_0
        s = _dot(m._vars, zip(signed, reversed(e)))
        e.append(s / i)
    return [alt_sign(n - p) * e[n - p] for p in range(n + 1)]


def _dense(row: dict, n: int) -> list[int]:
    """A sparse integer row as a list of its n entries."""
    return list(map(row.get, range(n), repeat(0)))


def _right_factor(b: list[dict], ncols: int, modulus: int):
    """The packed rows of the sparse residue rows b that the packed route
    of ``_times`` reads, made once per right factor, since a running power
    multiplies by the same one at every step; None when they would not fit.

    Packed row j is sum_t b[j][t] * 2^(64*t), one 64-bit slot per entry,
    so b must hold residues, ints in [0, modulus).  A slot of a product row
    sums at most n = len(b) products of two residues, so it fits when
    n*(modulus-1)^2 < 2^64; otherwise this returns None, and ``_times``
    takes the sparse route for every row.  Each row is written as
    little-endian bytes, slot by slot, and read back as one int, whatever
    the host's byte order.
    """
    if len(b) * (modulus - 1) ** 2 >> 64:
        return None
    fmt = f"<{ncols}Q"
    return [int.from_bytes(pack(fmt, *_dense(row, ncols)), "little") for row in b], ncols


def _times(a: list[dict], b: list[dict], right, modulus: int | None = None) -> list[dict]:
    """The integer product a @ b of sparse rows (dicts from column to
    nonzero int), reduced mod ``modulus`` if one is given.  Entries that
    vanish are dropped.

    Two routes.  The sparse route combines, for each nonzero entry x_j of
    a row of a, x_j times the nonzero entries of row j of b; every row
    takes it when ``right`` is None, as in every exact product.  Mod
    ``modulus``, where a and b hold residues and ``right`` is b's packed
    rows from ``_right_factor``, a row with at least half its entries
    nonzero takes the packed route instead (the Jacobian witness's powers
    have at most one, and keep the sparse route): the one big-int sum
    S = sum_j x_j * packed(b_j) over its nonzero entries.  No slot of S
    carries into the next: slot t of S is sum_j x_j b_jt, at most n terms
    each at most (modulus-1)^2, so it is at most n*(modulus-1)^2 < 2^64
    (``_right_factor``), and S is the integer whose 64-bit digits are the
    exact entries of the product row.  S is written as little-endian
    bytes and read back by an explicitly little-endian struct format
    ("<"), so unpacking does not depend on the host byte order.  Each
    entry is then reduced mod ``modulus``.
    """
    n = len(b)
    if right is not None:
        packed, m = right
        fmt = f"<{m}Q"
    out = []
    for row in a:
        if right is None or 2 * len(row) < n:
            acc = {}
            get = acc.get
            for j, x in row.items():
                for t, y in b[j].items():
                    acc[t] = get(t, 0) + x * y
            sums = acc.items()
        else:
            sums = enumerate(unpack(fmt, sum(map(mul, row.values(), map(packed.__getitem__, row))).to_bytes(8 * m, "little")))
        out.append({t: r for t, v in sums if (r := v % modulus)} if modulus else dict(filter(itemgetter(1), sums)))
    return out


def _bareiss(a: list[list[int]]) -> tuple[int, int, int]:
    """Fraction-free (Bareiss) elimination of the integer rows a, in place.

    Columns without a pivot are skipped, so any shape is allowed.  Returns
    (rank, swap_sign, last_pivot): the sign is (-1)^(row swaps), and when
    a is square of full rank, swap_sign * last_pivot is its determinant.
    Each row is first divided by its content, the gcd of its entries: the
    rank stays, the contents multiply back into last_pivot, and rows
    cleared over one common denominator shrink to their primitive parts
    instead of all growing to the size of the row with the largest one.
    """
    content = 1
    for i, row in enumerate(a):
        if (g := math.gcd(*row)) > 1:
            a[i] = [x // g for x in row]
            content *= g
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
    return piv_r, sign, prev * content


def det_exact(m: RingMatrix) -> Fraction:
    """Exact determinant via Bareiss fraction-free elimination.

    The elimination runs on the once-cleared A of m = A / D
    (``RingMatrix._integral``), entirely over Z, so det(m) = det(A) / D^n.
    """
    if not m.is_square():
        raise ValueError("determinant of a non-square matrix")
    ints, den = m._integral()
    rank, sign, last = _bareiss([_dense(row, m.ncols) for row in ints])
    if rank < m.nrows:
        return Fraction(0)
    return Fraction(sign * last, den ** m.nrows)


def rank_exact(m: RingMatrix) -> int:
    """Exact rank via fraction-free elimination of the once-cleared A of
    m = A / D; rectangular input allowed."""
    return _bareiss([_dense(row, m.ncols) for row in m._integral()[0]])[0]
