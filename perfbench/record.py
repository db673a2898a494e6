"""Record the report sha256 of every task any seed can produce.

usage: python3 perfbench/record.py

Writes ``expected.json`` from the current sources.  A task whose command
fails is recorded as null and is then checked by its own claims; only
independence certificates have such a check, so any other failure stops
the recording.  Run it only at a commit whose outputs are known good: the
benchmark treats what it records as the truth.
"""

from __future__ import annotations

import json
import sys
import time

from run import Runner
from workloads import EXPECTED_PATH, every_task


def main() -> int:
    hashes = {}
    with Runner({}, deadline=time.monotonic() + 86400) as runner:
        for task in every_task():
            res = runner.run_task(task, traced=False)
            ok = res.get("exit_code") == 0
            if not ok and task.argv[0] != "independence":
                print(f"record.py: {task.key} failed: {res.get('failure')}", file=sys.stderr)
                return 1
            hashes[task.key] = res["sha256"] if ok else None
            print(f"{res.get('wall_s', 0):8.2f}s {'ok  ' if ok else 'FAIL'} {task.key}", flush=True)
    EXPECTED_PATH.write_text(json.dumps({"sha256": hashes}, indent=1, sort_keys=True) + "\n", encoding="ascii")
    return 0


if __name__ == "__main__":
    sys.exit(main())
