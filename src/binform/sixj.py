"""The 6j nonvanishing sum S(k, n), zero scans, and sign-grid rendering.

S(k, n) = sum_j (-1)^j C(j+1, 3k+1) C(k, j-k-n)^3 over its finite support
j in [max(3k, k+n), 2k+n].  The symbol {k k k; n/2 n/2 n/2} vanishes
exactly when S(k, n) does, so zero scanning and the zero pattern of the
grid are exact; the recorded sign is the sign of S itself (the omitted
proportionality prefactor is sign-ambiguous), so comparisons of the sign
pattern against external renderings are qualitative only.

There are two routes, split by what is asked for, and each is the other's
oracle.  A row of values for one k (the sign grid and the zero scan take
one row per k) comes from `sixj_row`.  Chu-Vandermonde,
C(N+m, 3k+1) = sum_i C(m, i) C(N, 3k+1-i) with N = n+k+1, collapses the
whole row to C(N, 2k+1) G(n-k) up to a constant factor, where G is a
polynomial of degree at most k (2 floor(k/2) in fact; ROADMAP D2's Q_k).
Its Newton coefficients come from one Taylor shift by suffix sums, and
its values along the row from a difference table, additions only
(A = B, ch. 3 and 5; von zur Gathen & Gerhard, Modern Computer Algebra,
sec. 4.3).  A single value comes from `sixj_sum`, one O(k) dot product
of two term-ratio sequences: building G costs O(k^2) additions, which a
row spreads over its cells and one cell does not.  The 201x201 grid
takes about 0.6 s in process on a 2-vCPU Xeon VM, against about
1.0 s by one dot product per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, islice
from math import comb, factorial, gcd, perm
from operator import mul

from .exactnum import alt_sign

PPM_COLORS = {0: "255 255 255", 1: "190 190 190", -1: "60 60 60"}


def _check_pair(k: int, n: int) -> None:
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if n < k:
        raise ValueError(f"need n >= k, got (k, n) = ({k}, {n})")


def _newton_coeffs(k: int) -> tuple[list[int], int, int]:
    """Newton coefficients of the row polynomial, and the factor that scales
    it back: (c, p, q) with, for x = n - k >= 0,

        S(k, n) = (-1)^x C(x+2k+1, 2k+1) p G(x) / q,
        G(x) = sum_d c[d] C(x, d),

    c a list of coprime integers without trailing zeros and p/q in lowest
    terms.  G is Q_k of ROADMAP D2 in the variable x, up to a constant.

    With N = n+k+1 and B[m] = (-1)^m C(k, m)^3, Chu-Vandermonde
    C(N+m, 3k+1) = sum_i C(m, i) C(N, 3k+1-i) turns the defining sum into
    (-1)^x S = sum_{i<=k} W[i] C(N, 3k+1-i) with W[i] = sum_m B[m] C(m, i),
    the coefficients of B(1+y).  That Taylor shift is k+1 passes of suffix
    sums, additions only: `tail` holds B reversed, so its prefix sums are
    suffix sums of B; the last one of pass i is W[i], and the rest are the
    suffix sums from index i+1 on, which pass i+1 sums again.  Then
    C(N, 2k+1+d) = C(N, 2k+1) C(x, d) / C(2k+1+d, d) gives
    (-1)^x S = C(N, 2k+1) sum_d c_d C(x, d) / M with M = (3k+1)!/(2k+1)!
    and c_d = W[k-d] f_d, f_d = d! (3k+1)!/(2k+1+d)!.  Each f_d is an
    integer, d! times the k-d integers 2k+2+d, ..., 3k+1, so stepping down
    from f_k = k! by f_(d-1) = f_d (2k+1+d) / d divides exactly (stepping
    from 1 instead of k! would not).
    """
    tail, w = [alt_sign(m) * comb(k, m) ** 3 for m in range(k, -1, -1)], []
    for _ in range(k + 1):
        tail = list(accumulate(tail))
        w.append(tail.pop())
    c, f = [0] * (k + 1), factorial(k)
    for d in range(k, 0, -1):
        c[d] = w[k - d] * f
        f = f * (2 * k + 1 + d) // d
    c[0] = w[k] * f
    while not c[-1]:
        c.pop()
    g = gcd(*c)
    big_m = perm(3 * k + 1, k)
    h = gcd(g, big_m)
    return [cd // g for cd in c], g // h, big_m // h


def sixj_row(k: int, n_min: int, n_max: int) -> list[int]:
    """Exact values [S(k, n) for n_min <= n <= n_max], k >= 2, n_min >= k;
    empty when n_max < n_min.

    The row is read off the Newton form of `_newton_coeffs` at
    x = n - k = 0, 1, ..., n_max - k by the difference table: level deg
    is the constant top coefficient, and level d is the prefix sums of
    level d+1 started at c[d], so G(0..X) costs deg * (X+1) additions and
    no multiplication.  Each value is then C(x+2k+1, 2k+1) p G(x) // q,
    the binomial times p stepped by its ratio (x+2k+2)/(x+1).  Both
    divisions are exact: the stepped quantity is an integer and so is
    S(k, n), whose q-fold is the dividend.  Windows with n_min > k still
    start the table at x = 0 and drop the first n_min - k values.
    """
    _check_pair(k, n_min)
    if n_max < n_min:
        return []
    c, p, q = _newton_coeffs(k)
    cols = n_max - k + 1
    level = [c[-1]] * cols
    for cd in reversed(c[:-1]):
        level = list(islice(accumulate(level, initial=cd), cols))
    x0 = n_min - k
    scale, row = p * comb(x0 + 2 * k + 1, 2 * k + 1), []
    for x in range(x0, cols):
        row.append(alt_sign(x) * (scale * level[x] // q))
        scale = scale * (x + 2 * k + 2) // (x + 1)
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


def scan_zeros(k_max: int, n_max: int, k_min: int = 2) -> list[tuple[int, int]]:
    """All (k, n) with k_min <= k <= k_max and k <= n <= n_max where S vanishes."""
    if k_min < 2:
        raise ValueError(f"need k_min >= 2, got {k_min}")
    if k_max < k_min:
        raise ValueError(f"need k_max >= k_min, got {k_max} < {k_min}")
    rows = ((k, sixj_row(k, k, n_max)) for k in range(k_min, k_max + 1))
    return [(k, n) for k, row in rows for n, v in enumerate(row, start=k) if v == 0]


@dataclass(frozen=True)
class SignGrid:
    """Signs of S over a rectangle of (k, n) pairs.

    Cell (r, c), both 1-based with (1, 1) top left, holds the sign of
    S(r + 1, r + c): row r fixes k = r + 1, and column c sets n = r + c,
    so every cell satisfies n >= k and c = 1 starts at n = k.
    """

    rows: int
    cols: int
    cells: tuple[tuple[int, ...], ...]

    def cell(self, r: int, c: int) -> int:
        if not (1 <= r <= self.rows and 1 <= c <= self.cols):
            raise IndexError(f"cell ({r}, {c}) outside {self.rows}x{self.cols} grid")
        return self.cells[r - 1][c - 1]


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def sign_grid(rows: int = 201, cols: int = 201) -> SignGrid:
    """Compute the sign grid, row r holding k = r + 1, one `sixj_row` per row."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be >= 1")
    cells = tuple(tuple(map(_sign, sixj_row(r + 1, r + 1, r + cols))) for r in range(1, rows + 1))
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
    lines = [f"P3\n{grid.cols} {grid.rows}\n255\n"]
    for row in grid.cells:
        for v in row:
            lines.append(PPM_COLORS[v] + "\n")
    return "".join(lines)


def grid_to_csv(grid: SignGrid) -> str:
    lines = ["r,c,k,n,sign\n"]
    for r in range(1, grid.rows + 1):
        for c in range(1, grid.cols + 1):
            lines.append(f"{r},{c},{r + 1},{r + c},{grid.cells[r - 1][c - 1]}\n")
    return "".join(lines)
