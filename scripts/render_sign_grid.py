#!/usr/bin/env python3
"""Render the default 201x201 sign grid to sign_grid.ppm and sign_grid.csv.

Usage:  render_sign_grid.py [OUT_DIR]

The two files go to OUT_DIR, or to the current directory when it is
omitted.  Equivalent to:  binform sixj grid --out OUT_DIR/sign_grid.ppm
(and .csv).
"""

import pathlib
import sys
import time

from binform.sixj import grid_to_csv, grid_to_ppm, sign_grid, zero_cells


def main(argv: list[str]) -> int:
    out_dir = pathlib.Path(argv[1] if len(argv) > 1 else ".")
    start = time.monotonic()
    grid = sign_grid(rows=201, cols=201)
    elapsed = time.monotonic() - start
    (out_dir / "sign_grid.ppm").write_text(grid_to_ppm(grid), encoding="ascii")
    (out_dir / "sign_grid.csv").write_text(grid_to_csv(grid), encoding="ascii")
    print(f"grid computed in {elapsed * 1000:.0f} ms")
    print(f"zero cells: {zero_cells(grid)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
