"""The benchmark's workloads: seeded argv lists for the binform CLI.

A task is one CLI invocation, ``binform.cli.main(argv)``.  A workload is
the list of tasks of one pass.  The benchmark seed only chooses among
fixed candidate pools, one candidate per cost stratum, so that every task
a seed can produce has a report hash recorded in ``expected.json`` and
the work of a pass varies little from seed to seed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import shlex
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("symbolic", "certificate", "sixj")

EXPECTED_PATH = Path(__file__).with_name("expected.json")

# Side of the square sign grid written by the sixj workload.  The README's
# 201 x 201 grid takes about 14 s, so a run would time it only two or three
# times; 141 x 141 takes about 2.6 s on a 2-vCPU Xeon VM, so a pass of
# the workload fits more than ten times into a run.
GRID_SIDE = 141

# Candidate pools are generated from these fixed seeds, independent of the
# benchmark seed, so the set of possible tasks never changes.
_POOL_SEED = 20190327
_SEED_POOL = range(8)  # --seed values for tasks that sample a random form


@dataclass(frozen=True)
class Task:
    """One cold CLI invocation; ``out`` names the report file if not stdout."""

    argv: tuple[str, ...]
    out: str | None = None

    @property
    def key(self) -> str:
        return shlex.join(self.argv)


def _task(*argv, out=None) -> Task:
    return Task(tuple(str(a) for a in argv) + ("--jobs", "1"), out)


def _strata(tasks: list[Task], count: int) -> list[list[Task]]:
    """Split a cost-sorted candidate list into ``count`` equal slots."""
    size = len(tasks) // count
    return [tasks[s * size:(s + 1) * size] for s in range(count)]


def random_bracket(rng: random.Random) -> tuple[str, int]:
    """A homogeneous bracket monomial of degree 6-8 on 3-5 letters.

    Returns the expression and its expansion size prod(e + 1) over bracket
    and x exponents, which is the number of terms ``umbral_eval`` visits.
    """
    letters = "abcde"[: rng.randint(3, 5)]
    deg = rng.randint(6, 8)
    free = dict.fromkeys(letters, deg)
    edges: dict[tuple[str, str], int] = {}
    while True:
        open_letters = [u for u in letters if free[u]]
        if len(open_letters) < 2 or rng.random() < 0.04:
            break
        u, v = sorted(rng.sample(open_letters, 2))
        edges[(u, v)] = edges.get((u, v), 0) + 1
        free[u] -= 1
        free[v] -= 1
    parts = [f"({u} {v})^{e}" for (u, v), e in sorted(edges.items())]
    parts += [f"{u}_x^{w}" for u, w in sorted(free.items()) if w]
    terms = math.prod(e + 1 for e in edges.values()) * math.prod(w + 1 for w in free.values())
    return " ".join(parts) + f" ; deg={deg}", terms


def bracket_pool() -> list[str]:
    """32 expressions of expansion size 2000..6000, cheapest first, so that
    each bracket task costs a few tenths of a second."""
    rng = random.Random(_POOL_SEED)
    found: dict[str, int] = {}
    while len(found) < 32:
        expr, terms = random_bracket(rng)
        if 2000 <= terms <= 6000:
            found[expr] = terms
    return sorted(found, key=lambda e: (found[e], e))


def sixj_pool() -> list[tuple[int, int]]:
    """24 pairs (k, n) with 150 <= k <= 300 and k <= n <= 3k, by increasing k."""
    rng = random.Random(_POOL_SEED)
    pairs = set()
    while len(pairs) < 24:
        k = rng.randint(150, 300)
        pairs.add((k, rng.randint(k, 3 * k)))
    return sorted(pairs)


def _symbolic() -> list[list[Task]]:
    """Symbolic work over the generic form: nearly all of its time is
    MultiPoly multiply/add inside RingMatrix.mul and umbral_eval."""
    slots = [[_task("invariant", "P", "--d", 12, "--n", 6, "--p", 7, "--generic")]]
    slots += [[_task("invariant", "P", "--d", 8, "--n", 4, "--p", p, "--generic")] for p in range(2, 6)]
    slots += [[_task("invariant", "shioda", "--idx", i, "--d", 8, "--generic")] for i in range(2, 6)]
    slots.append([_task("octavic", "verify")])
    slots += _strata([_task("bracket", "eval", "--expr", e, "--generic") for e in bracket_pool()], 4)
    return slots


def _certificate() -> list[list[Task]]:
    """Numeric certificates: Fraction matrix products, Bareiss rank and
    det, nkr and t_coeff, and no MultiPoly at all."""
    slots = [
        [_task("independence", "--k", k, "--random-point", "--seed", s) for s in _SEED_POOL]
        for k in range(8, 17, 2)
    ]
    # K >= 26 exceeds the 4300-digit int->str limit where the hashes were
    # recorded; those tasks stay in and count as failures until it is fixed.
    slots += [[_task("independence", "--k", k)] for k in range(20, 31, 2)]
    for d in (8, 12):
        slots.append([_task("invariant", "H", "--d", d, "--n", d, "--random", "--seed", s) for s in _SEED_POOL])
        slots.append(
            [_task("invariant", "P", "--d", d, "--n", d, "--p", d, "--random", "--seed", s) for s in _SEED_POOL]
        )
    return slots


def _sixj() -> list[list[Task]]:
    """Big-int binomial sums and nothing of polyring: many small sums for
    the sign grid and scan, few large ones at full digits for the values."""
    side = str(GRID_SIDE)
    slots = [
        [_task("sixj", "grid", "--rows", side, "--cols", side, "--out", "grid.ppm", out="grid.ppm")],
        [_task("sixj", "scan", "--kmax", 50, "--nmax", 150)],
    ]
    slots += _strata([_task("sixj", "value", "--k", k, "--n", n) for k, n in sixj_pool()], 6)
    return slots


_SLOTS = {"symbolic": _symbolic, "certificate": _certificate, "sixj": _sixj}


def workload_tasks(name: str, seed: int) -> list[Task]:
    """The tasks of one pass of workload ``name`` for benchmark seed ``seed``:
    one candidate drawn from each slot."""
    if name not in _SLOTS:
        raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    return [rng.choice(slot) for slot in _SLOTS[name]()]


def every_task() -> list[Task]:
    """Every task any seed can produce, each once."""
    seen: dict[str, Task] = {}
    for name in WORKLOADS:
        for slot in _SLOTS[name]():
            for task in slot:
                seen.setdefault(task.key, task)
    return list(seen.values())


def load_expected() -> dict[str, str | None]:
    """Recorded report sha256 by task key; None marks a task that failed
    when the hashes were recorded and is checked by its properties instead."""
    return json.loads(EXPECTED_PATH.read_text(encoding="ascii"))["sha256"]


def check_report(task: Task, exit_code: int | None, report: bytes, expected: dict) -> str | None:
    """None if the report is right, else a one-line reason."""
    if exit_code != 0:
        return f"exit code {exit_code}"
    if task.key not in expected:
        return "no recorded hash for this task"
    want = expected[task.key]
    if want is not None:
        got = hashlib.sha256(report).hexdigest()
        return None if got == want else f"sha256 {got[:12]} != recorded {want[:12]}"
    # Recorded as failing: check the independence certificate's own claims.
    try:
        rep = json.loads(report)
    except ValueError:
        return "report is not JSON"
    k = int(task.argv[task.argv.index("--k") + 1])
    if rep.get("pass") is not True or rep.get("rank") != k or rep.get("expected") != k:
        return f"certificate claims pass={rep.get('pass')!r} rank={rep.get('rank')!r} for k={k}"
    return None
