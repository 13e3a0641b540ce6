"""Print what depex's read commands write for one benchmark database.

    python3 tools/read_outputs.py build corpus-read WHERE
    python3 tools/read_outputs.py dump SRC WHERE > out.txt

`build` generates a perfbench workload's seed-1 inputs under WHERE through
`perfbench/workload.py` (scan-distro is scanned into a database first) and
records the 64 pooled query command lines next to the database. `dump`
imports depex from the source directory SRC, runs `stats --json`, `dot`,
`dot --hide-top 12`, `evolve`, `evolve --format csv` and the pooled
queries in-process against that database, and prints each command line,
its exit code and its output. Dumps made with the `src/` of two commits
differ in a byte exactly when a read answer does.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
READS = (["stats", "--json"], ["dot"], ["dot", "--hide-top", "12"], ["evolve"],
         ["evolve", "--format", "csv"])


def build(workload: str, where: str) -> None:
    sys.path[:0] = [os.path.join(ROOT, d) for d in ("perfbench", "src", "tests")]
    import depex.cli
    from workload import setup

    prepared, _, _ = setup(workload, 1, where)
    db = prepared.corpus_db
    if db is None:
        db = os.path.join(where, "scan.db")
        with contextlib.redirect_stdout(io.StringIO()):
            code = depex.cli.run_cli(["scan", "--sysroot", prepared.root,
                                      "--label", prepared.label, "--db", db])
        if code != 0:
            sys.exit(f"scan of {prepared.root} failed with exit code {code}")
    with open(os.path.join(where, "reads.json"), "w") as f:
        json.dump({"db": os.path.abspath(db),
                   "queries": [argv for argv, _ in prepared.queries]}, f)


def dump(src: str, where: str) -> None:
    sys.path.insert(0, os.path.abspath(src))
    import depex.cli

    with open(os.path.join(where, "reads.json")) as f:
        spec = json.load(f)
    for argv in [*READS, *spec["queries"]]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = depex.cli.run_cli([*argv, "--db", spec["db"]])
        sys.stdout.write(f"$ depex {' '.join(argv)}\nexit {code}\n{out.getvalue()}"
                         f"{err.getvalue()}")


if __name__ == "__main__":
    commands = {"build": build, "dump": dump}
    if len(sys.argv) != 4 or sys.argv[1] not in commands:
        sys.exit(__doc__.split("\n\n")[1])
    commands[sys.argv[1]](sys.argv[2], sys.argv[3])
