"""Check that scaling to nominal host speed steadies user and kernel work alike.

    python3 perfbench/scaling_check.py [REPEATS]

Runs three fixed loads in turn, REPEATS times (default 12), each through
`workload.at_nominal_speed`: pure Python arithmetic, file reads and stats
out of the page cache (mostly kernel time), and SQLite inserts (C code).
For each it prints the user-CPU share and the spread, (Q3 - Q1) / median,
of the raw and the scaled times. Scaling helps only if the scaled spread
is the smaller one for every load, the kernel-bound one too. Files are
written under `.perfbench_work/` and removed at exit.
"""

from __future__ import annotations

import os
import resource
import shutil
import sqlite3
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

from workload import at_nominal_speed  # noqa: E402


def _python() -> None:
    total = 0
    for i in range(3_000_000):
        total += i * i


def _kernel(files: list[str]) -> None:
    for _ in range(6):
        for path in files:
            with open(path, "rb") as f:
                f.read()
            os.stat(path)


def _sqlite() -> None:
    con = sqlite3.connect(":memory:")
    con.execute("CREATE TABLE t (a, b)")
    con.executemany("INSERT INTO t VALUES (?, ?)", ((i, str(i)) for i in range(300_000)))
    con.execute("CREATE INDEX ib ON t (b)")
    con.close()


def _spread(values: list[float]) -> float:
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main(repeats: int) -> None:
    work = os.path.join(ROOT, ".perfbench_work", f"scaling-{os.getpid()}")
    os.makedirs(work)
    try:
        files = []
        for i in range(800):
            files.append(os.path.join(work, f"f{i}"))
            with open(files[-1], "wb") as f:
                f.write(bytes(range(256)) * 64)
        loads = {"python": _python, "kernel": lambda: _kernel(files), "sqlite": _sqlite}
        raw: dict[str, list[float]] = {name: [] for name in loads}
        scaled: dict[str, list[float]] = {name: [] for name in loads}
        user: dict[str, list[float]] = {name: [] for name in loads}
        for _ in range(repeats):
            for name, load in loads.items():
                before = resource.getrusage(resource.RUSAGE_SELF)
                _, seconds, wall = at_nominal_speed(load)
                after = resource.getrusage(resource.RUSAGE_SELF)
                cpu_user = after.ru_utime - before.ru_utime
                cpu = cpu_user + after.ru_stime - before.ru_stime
                raw[name].append(wall)
                scaled[name].append(seconds)
                user[name].append(cpu_user / cpu if cpu else 1.0)
        for name in loads:
            print(f"{name:7s} user share {statistics.median(user[name]):.2f}  "
                  f"spread raw {_spread(raw[name]):.3f}  scaled {_spread(scaled[name]):.3f}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 12)
