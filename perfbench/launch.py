"""Run one command as a child and write its wall time, CPU time and peak RSS.

    python3 perfbench/launch.py RESULT.json TIMEOUT_S LOG -- COMMAND...

A process's peak RSS counts the memory of the process that started it, up
to the moment it exec'd. Starting the command from this small process keeps
the benchmark's own memory out of the measured peak. The result is the
rusage ``wait4`` returns for the child, which covers every descendant the
child waited for (the CLI's pool workers).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def main(argv: list[str]) -> int:
    result_path, timeout_s, log_path = argv[0], float(argv[1]), argv[2]
    command = argv[argv.index("--") + 1 :]
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(command, stdout=log, stderr=subprocess.STDOUT)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            timer.cancel()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
    with open(result_path, "w") as fh:
        json.dump(
            {
                "wall_s": wall,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mib": usage.ru_maxrss / 1024,
                "exit_code": proc.returncode,
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
