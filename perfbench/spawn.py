"""Start the benchmark's child processes from a small process.

Usage: python spawn.py TIMEOUT_S   (requests on stdin, replies on stdout)

The kernel carries a process's peak RSS over ``exec`` into the new program,
so a child's ``ru_maxrss`` is at least the peak RSS of whatever spawned it.
The benchmark process holds oracle arrays and CSV text; children started
from it would report its peak as their own.  This process stays small and
starts every child instead.

Each request is one JSON line ``{"argv": [...], "stdout": PATH, "stderr":
PATH}``; each reply is one JSON line ``{"wall": s, "rss_mb": MB, "rc": n}``,
where ``wall`` covers start to exit and ``rc`` is the exit code (negative
for a signal).  A child still running after TIMEOUT_S seconds is killed.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def main(argv) -> int:
    timeout = float(argv[0])
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "w") as out, open(req["stderr"], "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall": wall, "rss_mb": usage.ru_maxrss / 1024, "rc": proc.returncode}
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
