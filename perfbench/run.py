"""Benchmark of the binform CLI: every task a cold process, every report checked.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A task is one README CLI command, ``binform.cli.main(argv)``, run one at
a time (a closed loop with one client) at ``--jobs 1``, each in a fresh
fork of a server process that has imported ``binform.cli`` and run
nothing (``child.py``).  So every task starts with the package's
in-process caches empty, as a user's ``binform ...`` invocation does,
and repeats are not free; the interpreter start and import that the
invocation also pays are timed apart, as ``setup_s``.  A pass runs every
task of the workload once; passes repeat while another fits into
``--seconds``, and a last partial pass runs the tasks that still fit.
Every report is compared with the sha256 recorded in ``expected.json``
(or, for tasks that failed when it was recorded, checked by its own
claims).

Before each task this process times ``reference_work``, a fixed stdlib
workload of the same kind (Fraction polynomial products, big-int binomial
sums).  The shared host this runs on drifts in speed by a
quarter and more over minutes, so the times below are scaled by
``REF_CALIB_S`` over the run's calibration time (``trimmed_mean`` of its
samples): seconds at the reference speed.  A change to binform moves them as it moves raw time;
the raw figures and the calibration time are in the record.

End-to-end metrics (``--trace 0``), from untraced passes:
  wall_s       seconds inside ``main(argv)``: each task's median over the
               passes, summed over the workload's tasks, scaled
  setup_s      new interpreter start until ``binform.cli`` is imported
               and ready, trimmed mean of starts timed every
               SETUP_EVERY_S seconds between tasks, scaled
  peak_rss_mb  largest child peak RSS: each task's median over the
               passes, maximum over the tasks
The task failure fraction is the result's ``failed`` / ``attempted``:
each task of the workload counts once and fails if any of its runs
exits nonzero, raises, or writes a report that fails its check.
``correct`` is false only when a task exits 0 with a wrong report.

``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of ``spans.py`` (medians over traced passes, raw
seconds) and the tracing overhead, traced minus untraced raw ``wall_s``.

The last stdout line is the JSON result; a fuller record, with the
environment and every task, goes to ``.perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from math import comb
from pathlib import Path

from spans import LAYERS, ROOT_LAYER
from workloads import WORKLOADS, check_report, load_expected, workload_tasks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
WORK = ROOT / ".perfbench"
HARD_LIMIT_S = 170.0  # the whole run must end within 180 s
SETUP_EVERY_S = 2.0  # an interpreter start is timed for setup_s this often
# Seconds of reference_work (trimmed mean) on the machine the bounds
# were set on (2-vCPU Xeon VM, Python 3.11).  Times are scaled by this over
# the run's own figure, so that a slower or faster phase of a shared host
# cancels out.
REF_CALIB_S = 0.040


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    return env


def reference_work() -> None:
    """A fixed stdlib workload of the package's kind: sparse polynomial
    products over Fraction coefficients and big-integer binomial sums."""
    poly = {}
    for i in range(6):
        for j in range(6 - i):
            for k in range(6 - i - j):
                poly[(i, j, k, 5 - i - j - k)] = Fraction(7 * i + 3 * j - k + 1, j + 2)
    product = {}
    for e1, c1 in poly.items():
        for e2, c2 in poly.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            s = product.get(e, Fraction(0)) + c1 * c2
            if s:
                product[e] = s
            else:
                product.pop(e, None)
    total = 0
    for n in range(300, 310):
        for j in range(0, n, 3):
            total += (-1) ** j * comb(n, j) * comb(2 * n - j, n)
    assert len(product) == 284 and total.bit_length() == 736


def calibrate() -> float:
    """Seconds this process takes for ``reference_work``."""
    t0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - t0


class Runner:
    """Runs tasks one at a time, each in a fresh fork of a server process
    that has imported ``binform.cli`` and run nothing (see ``child.py``).

    Use it as a context manager: leaving it stops the server and any task
    still running, and waits for both."""

    def __init__(self, expected: dict, deadline: float):
        self.expected = expected
        self.deadline = deadline
        self.env = child_env()
        self.dir = WORK / "task"
        self.server = None
        self.setups: list[float] = []
        self.last_setup = -math.inf

    def __enter__(self):
        WORK.mkdir(parents=True, exist_ok=True)
        self.server = subprocess.Popen(
            [sys.executable, str(CHILD), "serve"], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            cwd=WORK, env=self.env, start_new_session=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        """Stop the server, which kills and reaps a task still running, and
        wait for it."""
        server, self.server = self.server, None
        if server is None:
            return
        server.terminate()
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(server.pid, signal.SIGKILL)
            server.wait()
        for pipe in (server.stdin, server.stdout):
            try:
                pipe.close()
            except OSError:
                pass

    def _fresh_dir(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

    def measure_setup(self) -> float | None:
        """Seconds from starting a new interpreter until ``binform.cli`` is
        imported and ready, or None if it did not get there in time."""
        spawn = time.monotonic()
        try:
            proc = subprocess.run([sys.executable, str(CHILD), "setup"], capture_output=True, cwd=WORK,
                                  env=self.env, timeout=max(1.0, self.deadline - spawn))
        except subprocess.TimeoutExpired:
            return None
        if proc.returncode != 0:
            return None
        return float(proc.stdout) - spawn

    def _ask(self, request: dict) -> str | None:
        """Have the server run one task: None once it has ended, else why not."""
        timeout = max(0.0, self.deadline - time.monotonic())
        try:
            self.server.stdin.write(json.dumps({**request, "timeout": timeout}).encode("ascii") + b"\n")
            self.server.stdin.flush()
        except BrokenPipeError:
            self.close()
            return "task server died"
        # The server kills a task at its timeout; this only guards against a
        # server that stopped answering.
        ready, _, _ = select.select([self.server.stdout], [], [], timeout + 5)
        reply = self.server.stdout.readline() if ready else b""
        if not reply:
            self.close()
            return "task server died"
        reply = json.loads(reply)
        if reply["timed_out"]:
            return "timed out"
        return None if reply["status"] == 0 else f"task process ended with wait status {reply['status']}"

    def run_task(self, task, traced: bool) -> dict:
        self._fresh_dir()
        record_path = self.dir / "record.json"
        stdout_path = self.dir / "stdout"
        result = {"task": task.key, "traced": traced}
        if time.monotonic() >= self.deadline or self.server is None:
            result["failure"] = "not started: run time limit reached"
            return result
        failure = self._ask({"dir": str(self.dir), "traced": int(traced), "argv": list(task.argv)})
        if failure is not None:
            result["failure"] = failure
            return result
        if not record_path.exists():
            result["failure"] = "child died: " + (self.dir / "stderr").read_bytes()[-300:].decode("ascii", "replace")
            return result
        record = json.loads(record_path.read_text(encoding="ascii"))
        report_path = self.dir / task.out if task.out else stdout_path
        report = report_path.read_bytes() if report_path.exists() else b""
        result.update(
            wall_s=record["wall_s"],
            maxrss_kb=record["maxrss_kb"],
            exit_code=record["exit_code"],
            report_bytes=len(report),
            sha256=hashlib.sha256(report).hexdigest(),
        )
        if record["error"]:
            result["error"] = record["error"]
        if record["exit_code"] != 0:
            result["stderr"] = (self.dir / "stderr").read_bytes()[-300:].decode("ascii", "replace")
        if "trace" in record:
            result["trace"] = record["trace"]
            result["t_coeff"] = record["t_coeff"]
        reason = check_report(task, record["exit_code"], report, self.expected)
        if reason is not None:
            result["failure"] = reason
            # A report that exists and is wrong, as opposed to a failed task.
            result["wrong"] = record["exit_code"] == 0
        return result

    def run_pass(self, tasks, traced: bool, stop_at: float | None = None, estimates=None) -> dict:
        """Run ``tasks`` in order, each after a calibration.  With ``stop_at``,
        skip each task whose estimated seconds would run past it."""
        start = time.monotonic()
        results, calib = [], []
        for task in tasks:
            if stop_at is not None and time.monotonic() + estimates.get(task.key, math.inf) > stop_at:
                continue
            began = time.monotonic()
            if began - self.last_setup >= SETUP_EVERY_S:
                self.last_setup = began
                setup = self.measure_setup()
                if setup is not None:
                    self.setups.append(setup)
                began = time.monotonic()
            calib.append(calibrate())
            results.append(self.run_task(task, traced))
            results[-1]["elapsed_s"] = time.monotonic() - began
        return {"traced": traced, "duration_s": time.monotonic() - start, "tasks": results, "calib_s": calib}


def trimmed_mean(values: list[float], share: float = 0.2) -> float:
    """Mean of ``values`` without the lowest and the highest ``share`` of them.

    Not the median: the host switches between faster and slower states,
    and a task's time, like a mean, weighs each state by its share of the
    run, where the median of short samples jumps between the states.  Not
    the plain mean: a rare sample many times the others would move it."""
    values = sorted(values)
    k = int(len(values) * share)
    return statistics.mean(values[k:len(values) - k])


def end_to_end(passes: list[dict], setups: list[float]) -> dict:
    """Raw wall_s and peak_rss_mb from each task's median over ``passes``,
    and setup_s as the trimmed mean of ``setups``."""
    by_task: dict[str, list[dict]] = {}
    for p in passes:
        for t in p["tasks"]:
            if "wall_s" in t:
                by_task.setdefault(t["task"], []).append(t)
    wall = sum(statistics.median(t["wall_s"] for t in runs) for runs in by_task.values())
    rss = max((statistics.median(t["maxrss_kb"] for t in runs) / 1024 for runs in by_task.values()), default=0.0)
    return {"wall_s": wall, "setup_s": trimmed_mean(setups) if setups else 0.0, "peak_rss_mb": rss}


def pass_layers(p: dict) -> dict:
    """Per-layer metrics of one traced pass, summed (or maxed) over tasks."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    counts: dict[str, int] = {}
    maxima: dict[str, int] = {}
    hits = misses = report_bytes = 0
    for t in p["tasks"]:
        report_bytes += t.get("report_bytes", 0)
        tr = t.get("trace")
        if tr is None:
            continue
        for _parent, layer, n, _total, own in tr["edges"]:
            calls[layer] = calls.get(layer, 0) + n
            self_s[layer] = self_s.get(layer, 0.0) + own
        for k, v in tr["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for k, v in tr["maxima"].items():
            maxima[k] = max(maxima.get(k, 0), v)
        hits += t["t_coeff"]["hits"]
        misses += t["t_coeff"]["misses"]

    m = {}
    for layer in {layer for _, _, layer in LAYERS} | {ROOT_LAYER}:
        m[f"{layer}.calls"] = calls.get(layer, 0)
        m[f"{layer}.self_s"] = self_s.get(layer, 0.0)
    for key in ("polyring.poly_mul.term_pairs", "polyring.rank.cells", "umbral.eval.terms", "sixj.sum.terms"):
        m[key] = counts.get(key, 0)
    for key in ("polyring.poly_terms", "polyring.entry_digits", "sixj.value_digits", "cli.value_digits"):
        m[f"{key}.max"] = maxima.get(key, 0)
    terms = m["sixj.sum.terms"]
    m["sixj.sum.ns_per_term"] = m["sixj.sum.self_s"] * 1e9 / terms if terms else 0.0
    m["transvect.t_coeff.hits"] = hits
    m["transvect.t_coeff.misses"] = misses
    m["cli.report_bytes"] = report_bytes
    return m


def binding_calls(passes) -> dict:
    out: dict[str, int] = {}
    for p in passes:
        for t in p["tasks"]:
            for name, n in t.get("trace", {}).get("bindings", {}).items():
                out[name] = out.get(name, 0) + n
    return out


def _median_of(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    """Run passes for about ``seconds`` and return the full result record."""
    start = time.monotonic()
    tasks = workload_tasks(workload, seed)
    kinds = (False, True) if trace else (False,)
    passes = []
    with Runner(load_expected(), start + HARD_LIMIT_S) as runner:
        runner.measure_setup()  # unmeasured: leaves bytecode caches behind
        calibrate()
        while True:
            round_start = time.monotonic()
            for traced in kinds:
                passes.append(runner.run_pass(tasks, traced))
            now = time.monotonic()
            if now - start + (now - round_start) > seconds or now > runner.deadline:
                break
        # Fill the rest of the run with the untraced tasks that still fit.
        estimates = {t["task"]: t["elapsed_s"] for p in passes if not p["traced"] for t in p["tasks"]}
        passes.append(runner.run_pass(tasks, False, min(start + seconds, runner.deadline), estimates))
    setups = runner.setups
    samples = [c for p in passes for c in p["calib_s"]]
    calib = trimmed_mean(samples)
    speed = REF_CALIB_S / calib

    plain = [p for p in passes if not p["traced"]]
    all_tasks = [t for p in passes for t in p["tasks"]]
    # Each task counts once however many passes ran, so that a faster
    # program, which fits more passes, does not show more failures.
    failed = len({t["task"] for t in all_tasks if "failure" in t})
    raw = end_to_end(plain, setups)
    e2e = {"wall_s": raw["wall_s"] * speed, "setup_s": raw["setup_s"] * speed, "peak_rss_mb": raw["peak_rss_mb"]}
    metrics = e2e
    if trace:
        traced = [p for p in passes if p["traced"]]
        metrics = _median_of([pass_layers(p) for p in traced])
        metrics["trace.overhead_s"] = end_to_end(traced, setups)["wall_s"] - raw["wall_s"]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "attempted": len(tasks),
        "failed": failed,
        "failed_frac": failed / len(tasks),
        "correct": not any(t.get("wrong") for t in all_tasks),
        "end_to_end": e2e,
        "raw": raw,
        "calib_s": calib,
        "setup_runs_s": setups,
        "metrics": metrics,
        "bindings": binding_calls(passes) if trace else {},
        "passes": passes,
    }


def loadavg() -> str | None:
    path = Path("/proc/loadavg")
    return path.read_text().strip() if path.exists() else None


def environment() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
                              timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return {
        "python": sys.version,
        "cpu_count": os.cpu_count(),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "int_max_str_digits": sys.get_int_max_str_digits(),
        "loadavg": loadavg(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "binform" / "cli.py").is_file():
        print(f"run.py: no binform sources under {SRC}", file=sys.stderr)
        return 2

    # On SIGTERM, unwind through subprocess.run, which kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env_start = environment()
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    result["environment"] = env_start
    result["loadavg_end"] = loadavg()

    listed = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in listed}

    out_dir = WORK / "results"
    out_dir.mkdir(parents=True, exist_ok=True)
    out_path = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", encoding="ascii")

    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6f} {m['unit']}")
    print(f"{'failed_frac':40s} {result['failed_frac']:>16.6f} ratio  "
          f"({result['failed']} failed / {result['attempted']} attempted)")
    failures = {(t["task"], t["failure"]) for p in result["passes"] for t in p["tasks"] if "failure" in t}
    for task, failure in sorted(failures):
        print(f"failed: {task}: {failure}")
    raw = result["raw"]
    print(f"unscaled: wall_s {raw['wall_s']:.6f} s, setup_s {raw['setup_s']:.6f} s; "
          f"reference work {result['calib_s']:.6f} s (scale {REF_CALIB_S / result['calib_s']:.4f})")
    print(f"passes {len(result['passes'])}, record {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
