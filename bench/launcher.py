"""Start and time processes on behalf of run.py, from a small process.

A process's ru_maxrss counts the memory of the process that spawned it, up
to the exec.  run.py holds far more than a small ppk run needs, so it hands
every launch to this helper, started once per run with ``python3 -I -S``.

Protocol: one JSON request per stdin line, ``[argv, stdout_path,
stderr_path]``; one JSON reply per stdout line, ``[wall_s, exit, cpu_s,
maxrss_kb]``.  Wall time runs from spawn to the reaped exit; cpu and maxrss
come from wait4 and so include the workers the process waited for.
"""

import json
import os
import sys
import time


def main():
    for line in sys.stdin:
        argv, out_path, err_path = json.loads(line)
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, out_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
            (os.POSIX_SPAWN_OPEN, 2, err_path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644),
        ]
        start = time.perf_counter()
        pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        _, status, usage = os.wait4(pid, 0)
        wall = time.perf_counter() - start
        reply = [wall, os.waitstatus_to_exitcode(status),
                 usage.ru_utime + usage.ru_stime, usage.ru_maxrss]
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
