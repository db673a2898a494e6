#!/usr/bin/env python3
"""Run the independence certificate for a range of even k and tabulate the
rank, the minor, and the wall time, then the Jacobian rank at a random
integer form (seed 0, the certificate's own random point) with its own
time.  Both ranks come from the modular proof of ``jacobian_rank``, which
runs one integer matrix power mod a prime, so this scales far beyond the
symbolic route.  Exits 1 at the first k whose witness certificate fails
or whose random-point rank is not k (at seed 0 it is k for every even
k <= 60).

usage: independence_scaling.py [K_MAX]    (default 10)
"""

import random
import sys
import time

from binform.forms import random_form
from binform.independence import independence_certificate, jacobian_rank


def main() -> int:
    k_max = int(sys.argv[1]) if len(sys.argv) > 1 else 10
    print(f"{'k':>4} {'rank':>5} {'pass':>5} {'seconds':>8} {'rand':>5} {'rand_s':>8}  minor")
    for k in range(2, k_max + 1, 2):
        start = time.monotonic()
        cert = independence_certificate(k)
        elapsed = time.monotonic() - start
        start = time.monotonic()
        rand_rank = jacobian_rank(random_form(2 * k, random.Random(0)))
        rand_elapsed = time.monotonic() - start
        minor = cert["minor"]
        if len(minor) > 48:
            minor = minor[:45] + "..."
        print(f"{k:>4} {cert['rank']:>5} {str(cert['pass']):>5} {elapsed:>8.3f} "
              f"{rand_rank:>5} {rand_elapsed:>8.3f}  {minor}")
        if not cert["pass"] or rand_rank != k:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
