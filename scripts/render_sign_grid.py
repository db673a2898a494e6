#!/usr/bin/env python3
"""Render the default 201x201 sign grid to PPM and CSV next to this script.

Equivalent to:  binform sixj grid --out sign_grid.ppm  (and .csv)
"""

import pathlib
import sys
import time

from binform.sixj import grid_to_csv, grid_to_ppm, sign_grid, zero_cells


def main() -> int:
    out_dir = pathlib.Path(__file__).resolve().parent
    start = time.monotonic()
    grid = sign_grid(rows=201, cols=201)
    elapsed = time.monotonic() - start
    (out_dir / "sign_grid.ppm").write_text(grid_to_ppm(grid), encoding="ascii")
    (out_dir / "sign_grid.csv").write_text(grid_to_csv(grid), encoding="ascii")
    print(f"grid computed in {elapsed:.1f} s")
    print(f"zero cells: {zero_cells(grid)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
