"""Spawns and times the benchmark's child processes; stays small on purpose.

A child's ru_maxrss includes the resident size of the process that spawned
it, because exec records the old address space's high-water mark. The
benchmark runner grows while it generates inputs and checks outputs, so it
hands every spawn to this process, whose few megabytes cannot mask the
child's own peak.

Protocol: one JSON job per stdin line, {"cmd", "stdout", "stderr",
"timeout"}; one JSON line back per job, {"wall_s", "cpu_s", "rss_mb", "rc"}. The
child is killed once it outlives its timeout. EOF on stdin ends the process.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(job: dict) -> dict:
    with open(job["stdout"], "wb") as so, open(job["stderr"], "wb") as se:
        t0 = time.perf_counter()
        proc = subprocess.Popen(job["cmd"], stdout=so, stderr=se)
        timer = threading.Timer(job["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0, "rc": proc.returncode}


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
