"""The 6j nonvanishing sum S(k, n), zero scans, and sign-grid rendering.

S(k, n) = sum_j (-1)^j C(j+1, 3k+1) C(k, j-k-n)^3 over its finite support
j in [max(3k, k+n), 2k+n].  The symbol {k k k; n/2 n/2 n/2} vanishes
exactly when S(k, n) does, so zero scanning and the zero pattern of the
grid are exact; the recorded sign is the sign of S itself (the omitted
proportionality prefactor is sign-ambiguous), so comparisons of the sign
pattern against external renderings are qualitative only.

Every value comes from `sixj_row`, which fixes k and builds the two
sequences a row shares, A[t] = C(t, 3k+1) and B[m] = (-1)^m C(k, m)^3,
once; each cell S(k, n) is then one dot product of a slice of B with a
slice of A.  `sign_grid` and `scan_zeros` take one row per k, and
`sixj_sum` is a row of one cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import mul

from .exactnum import alt_sign, binom_ext

PPM_COLORS = {0: "255 255 255", 1: "190 190 190", -1: "60 60 60"}


def sixj_row(k: int, n_min: int, n_max: int) -> list[int]:
    """Exact values [S(k, n) for n_min <= n <= n_max], k >= 2, n_min >= k;
    empty when n_max < n_min.

    With m = j - k - n, a cell is a dot product over two sequences that
    only depend on k:

        S(k, n) = (-1)^(k+n) sum_{m0 <= m <= k} B[m] A[m+k+n+1],
        A[t] = C(t, 3k+1),  B[m] = (-1)^m C(k, m)^3.

    A[m+k+n+1] = C(j+1, 3k+1) vanishes for j < 3k, that is for m < 2k - n,
    so each cell starts at m0 = max(0, 2k - n) and reads A only from
    t0 = max(3k+1, k+n_min+1) on.  A is built from t0 to 2k + n_max + 1
    by the integer term ratio C(t+1, r) = C(t, r) (t+1)/(t+1-r)
    (A = B, ch. 3), and B by C(k, m+1) = C(k, m) (k-m)/(m+1); each step
    divides exactly.  The slots of A below t0 hold 0 and are never read.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if n_min < k:
        raise ValueError(f"need n >= k, got (k, n) = ({k}, {n_min})")
    r = 3 * k + 1
    t0 = max(r, k + n_min + 1)
    a, a_seq = binom_ext(t0, r), [0] * t0
    for t in range(t0, 2 * k + n_max + 2):
        a_seq.append(a)
        a = a * (t + 1) // (t + 1 - r)
    b, b_seq = 1, []
    for m in range(k + 1):
        b_seq.append(alt_sign(m) * b ** 3)
        b = b * (k - m) // (m + 1)
    row = []
    for n in range(n_min, n_max + 1):
        m0 = max(0, 2 * k - n)
        total = sum(map(mul, b_seq[m0:], a_seq[m0 + k + n + 1 : 2 * k + n + 2]))
        row.append(alt_sign(k + n) * total)
    return row


def sixj_sum(k: int, n: int) -> int:
    """Exact value of S(k, n) for n >= k >= 2: a one-cell row."""
    return sixj_row(k, n, n)[0]


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
