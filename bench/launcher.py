"""Start the benchmark's child processes from a process that stays small.

A child's peak RSS, as ``wait4`` reports it, counts the memory of the
process it was forked from, so children forked from the benchmark itself
would report its inputs and checks as their own. This launcher is started
before the benchmark grows. It reads one JSON request per line on stdin,
``{"cmd": [...], "out": path, "timeout": seconds}``, runs the command with
stdout to ``out``, and answers with one JSON line:
``{"wall", "cpu", "rss_kb", "code"}``. It exits at the end of its input.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["out"], "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(request["cmd"], stdout=out, stderr=subprocess.DEVNULL,
                                start_new_session=True)
        timer = threading.Timer(request["timeout"], os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
            "rss_kb": usage.ru_maxrss, "code": proc.returncode}


def main() -> int:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
