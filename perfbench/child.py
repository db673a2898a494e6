"""Run binform CLI tasks with cold caches and write their measurements as JSON.

usage: python3 child.py serve    fork server, one JSON request per stdin line
       python3 child.py setup    print the monotonic time at which binform.cli is ready

The server imports ``binform.cli`` once and runs no task itself.  For each
request ``{"dir": ..., "traced": 0|1, "argv": [...], "timeout": s}`` it
forks a process that runs ``main(argv)`` in ``dir``, with stdout and
stderr sent to files there, kills it if it runs past ``timeout`` seconds,
and replies with one line when it has ended.  On SIGTERM the server kills
and reaps the running fork and exits.  Every fork
starts with the package's caches empty, as a new ``binform`` invocation
does; the interpreter start and import that such an invocation also pays
are measured apart, by ``setup``.

A task writes ``record.json`` in its directory: the seconds spent in
``main(argv)``, its exit code, its peak RSS and, when traced, the spans.
"""

import json
import os
import resource
import signal
import sys
import time
import traceback


def run_task(req: dict) -> None:
    """Run one task in this (forked) process and write its record."""
    os.chdir(req["dir"])
    for fd, name in ((0, os.devnull), (1, "stdout"), (2, "stderr")):
        target = os.open(name, os.O_RDONLY if fd == 0 else os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        os.dup2(target, fd)
        os.close(target)

    import binform.cli

    main = binform.cli.main
    tracer = None
    if req["traced"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
        main = tracer.wrap(spans.ROOT_LAYER, main, "binform.cli.main")

    error = None
    t0 = time.perf_counter()
    try:
        code = main(req["argv"])
    except SystemExit as exc:  # argparse rejects the flags
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # the task failed; the benchmark keeps running
        code = None
        error = f"{type(exc).__name__}: {exc}"[:500]
    finally:
        sys.stdout.flush()
    wall = time.perf_counter() - t0

    record = {
        "wall_s": wall,
        "exit_code": code,
        "error": error,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        record["trace"] = tracer.record()
        info = getattr(binform.transvect.t_coeff, "cache_info", None)
        record["t_coeff"] = info()._asdict() if info else {"hits": 0, "misses": 0}
    with open("record.json", "w", encoding="ascii") as fh:
        json.dump(record, fh)


def serve() -> None:
    import binform.cli  # noqa: F401  (imported once, shared by every fork)
    import spans  # noqa: F401  (installed only inside a traced fork)

    running = {"pid": 0, "killed": False}

    def kill_task(*_):
        try:
            if running["pid"]:
                os.kill(running["pid"], signal.SIGKILL)
                running["killed"] = True
        except ProcessLookupError:  # it had just ended
            pass

    def stop(*_):
        """On SIGTERM: kill and reap the running task, if any, and exit."""
        kill_task()
        try:
            if running["pid"]:
                os.waitpid(running["pid"], 0)
        except ChildProcessError:  # already reaped
            pass
        os._exit(143)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGALRM, kill_task)
    handled = {signal.SIGTERM, signal.SIGALRM}
    for line in sys.stdin:
        req = json.loads(line)
        sys.stdout.flush()
        # Blocked across the fork, so that ``running`` names every fork the
        # handlers may have to kill.
        signal.pthread_sigmask(signal.SIG_BLOCK, handled)
        pid = os.fork()
        if pid == 0:
            code = 0
            try:
                for signum in handled:
                    signal.signal(signum, signal.SIG_DFL)
                signal.pthread_sigmask(signal.SIG_UNBLOCK, handled)
                run_task(req)
            except BaseException:
                traceback.print_exc()
                sys.stderr.flush()
                code = 70
            finally:
                os._exit(code)
        running.update(pid=pid, killed=False)
        signal.setitimer(signal.ITIMER_REAL, max(req["timeout"], 0.001))
        signal.pthread_sigmask(signal.SIG_UNBLOCK, handled)
        _, status = os.waitpid(pid, 0)
        signal.setitimer(signal.ITIMER_REAL, 0)
        print(json.dumps({"status": status, "timed_out": running["killed"]}), flush=True)
        running.update(pid=0)


def setup() -> None:
    import binform.cli  # noqa: F401

    print(repr(time.monotonic()), flush=True)


if __name__ == "__main__":
    modes = {"serve": serve, "setup": setup}
    if len(sys.argv) != 2 or sys.argv[1] not in modes:
        raise SystemExit("usage: child.py serve|setup")
    modes[sys.argv[1]]()
