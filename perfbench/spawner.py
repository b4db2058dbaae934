"""Launcher that starts the benchmark's child commands from a small process.

On Linux a child's peak resident set, as ``wait4`` reports it, is at least
the resident set of the process that forked it: the kernel keeps the larger
value across ``exec``.  The benchmark process holds numpy, the program and
the reference probes, so it starts this launcher before importing any of
them and has it start every child command; each child then reports its own
peak.

    python3 perfbench/spawner.py

reads one JSON request per line on standard input (``argv``, ``cwd``,
``env``, ``stdout``, ``stderr``, ``timeout``), runs it to the end and
answers with one JSON line (``wall_s``, ``code``, ``maxrss_kb``).  It exits
at the end of its input.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "w") as out, open(req["stderr"], "w") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"],
                                stdout=out, stderr=err)
        watchdog = threading.Timer(req["timeout"], proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    return {"wall_s": wall, "code": os.waitstatus_to_exitcode(status),
            "maxrss_kb": usage.ru_maxrss}


def main() -> None:
    for line in sys.stdin:
        sys.stdout.write(json.dumps(run(json.loads(line))) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
