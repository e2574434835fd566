"""Run one command; write its wall time, exit code and peak RSS to REPORT as JSON.

    python3 -S perfbench/launch.py REPORT -- ARGV...

On Linux a spawned process's peak RSS, as os.wait4 reports it, starts at the
peak RSS of the process that spawned it.  The benchmark process holds
generated inputs and parsed outputs, so it does not spawn commands itself:
this process, which imports only a few standard modules, spawns the command
and reads the command's own peak from os.wait4.
"""

import json
import os
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: launch.py REPORT -- ARGV...", file=sys.stderr)
        return 2
    report, command = argv[0], argv[2:]
    start = time.perf_counter()
    proc = subprocess.Popen(command)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(report, "w", encoding="utf-8") as fh:
        # ru_maxrss is in KiB on Linux.
        json.dump({"wall_s": wall, "exit": proc.returncode,
                   "rss_mb": usage.ru_maxrss * 1024 / 1e6}, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
