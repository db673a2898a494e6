"""The 6j nonvanishing sum S(k, n), zero scans, and sign-grid rendering.

S(k, n) = sum_j (-1)^j C(j+1, 3k+1) C(k, j-k-n)^3 over its finite support
j in [max(3k, k+n), 2k+n].  The symbol {k k k; n/2 n/2 n/2} vanishes
exactly when S(k, n) does, so zero scanning and the zero pattern of the
grid are exact; the recorded sign is the sign of S itself (the omitted
proportionality prefactor is sign-ambiguous), so comparisons of the sign
pattern against external renderings are qualitative only.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactnum import alt_sign, binom_ext

PPM_COLORS = {0: "255 255 255", 1: "190 190 190", -1: "60 60 60"}


def sixj_sum(k: int, n: int) -> int:
    """Exact value of S(k, n) for n >= k >= 2.

    Consecutive terms have an integer-stepped ratio (A = B, ch. 3): going
    from j to j + 1, a = C(j+1, 3k+1) gains (j+2)/(j+1-3k) and
    b = C(k, m), m = j-k-n, gains (k-m)/(m+1).  Each step divides exactly,
    and j >= 3k keeps every divisor >= 1.
    """
    if k < 2:
        raise ValueError(f"need k >= 2, got {k}")
    if n < k:
        raise ValueError(f"need n >= k, got (k, n) = ({k}, {n})")
    j = max(3 * k, k + n)
    m = j - k - n
    a = binom_ext(j + 1, 3 * k + 1)
    b = binom_ext(k, m)
    sign = alt_sign(j)
    total = 0
    while m <= k:
        total += sign * a * b ** 3
        a = a * (j + 2) // (j + 1 - 3 * k)
        b = b * (k - m) // (m + 1)
        sign = -sign
        j += 1
        m += 1
    return total


def scan_zeros(k_max: int, n_max: int, k_min: int = 2) -> list[tuple[int, int]]:
    """All (k, n) with k_min <= k <= k_max and k <= n <= n_max where S vanishes."""
    if k_min < 2:
        raise ValueError(f"need k_min >= 2, got {k_min}")
    if k_max < k_min:
        raise ValueError(f"need k_max >= k_min, got {k_max} < {k_min}")
    out = []
    for k in range(k_min, k_max + 1):
        for n in range(k, n_max + 1):
            if sixj_sum(k, n) == 0:
                out.append((k, n))
    return out


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
    """Compute the sign grid, row r holding k = r + 1."""
    if rows < 1 or cols < 1:
        raise ValueError("grid dimensions must be >= 1")
    cells = tuple(
        tuple(_sign(sixj_sum(r + 1, r + c)) for c in range(1, cols + 1)) for r in range(1, rows + 1)
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
