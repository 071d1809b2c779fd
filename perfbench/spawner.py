"""Runs the benchmark's child processes from a small process.

A child's ``ru_maxrss`` counts the resident size of the process it was
forked from (the memory it shares until ``exec``), so children forked by
the benchmark itself, which holds numpy and the inputs it checks, would
report that size as their peak.  This helper holds nothing, so it sets a
floor of a few MB instead.

One JSON request per line on stdin:
    {"argv": [...], "stdout": path, "stderr": path, "cwd": path, "env": {...}, "timeout_s": s}
one JSON reply per line on stdout:
    {"code": exit code, "cpu_s": user + system CPU, "maxrss_mb": peak RSS}
The helper exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, cwd=req["cwd"], env=req["env"])
        timer = threading.Timer(req["timeout_s"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "cpu_s": usage.ru_utime + usage.ru_stime,
                 "maxrss_mb": usage.ru_maxrss / 1024.0}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
