"""Run the tests of tests/ under a line tracer and print the lines of src/depex that never ran.

    python3 tools/line_coverage.py

The tests run in this process (`pytest -q -p no:cacheprovider tests`),
with `sys.settrace` and `threading.settrace` recording every line event
in a file of `src/depex`. A line can run when some code object of its
file lists it in `co_lines`; each such line that never ran is printed as
FILE:LINE, its function and its source text.

`tools/unrun_lines.txt` lists the lines that these tests cannot run, each under
its reason. An entry names its line by file, function and source text, not
by number, so an edit elsewhere in the file leaves the list as it is. The
exit status is 1 if the tests fail, if a line that is not listed never
ran, or if an entry names no line of src/depex; else 0. A listed line that
does run passes: a root-only line runs only where the suite is not root.

Lines that run only in another process go unseen: a `python -m depex.cli`
child, and an evolve helper forked by `depex.evolution`, which ends by
`os._exit` before anything could report its lines.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.realpath(os.path.join(SRC, "depex")) + os.sep
SPELLINGS = (os.path.join(SRC, "depex") + os.sep, PACKAGE)  # as imported, and resolved
ALLOWED = os.path.join(ROOT, "tools", "unrun_lines.txt")


def _executable_lines(path: str) -> dict[int, str]:
    """Line number -> the function it belongs to, for every line of path's
    code objects. A comprehension, lambda or generator expression belongs
    to the function around it, so that the names are the same whether or
    not the interpreter inlines comprehensions."""
    with open(path, encoding="utf-8") as f:
        module = compile(f.read(), path, "exec")
    lines: dict[int, str] = {}
    stack = [(module, "")]
    while stack:
        code, outer = stack.pop()
        name = outer if code.co_name.startswith("<") else f"{outer}.{code.co_name}".lstrip(".")
        for _, _, line in code.co_lines():
            if line:  # None, or 0 where a module starts
                lines.setdefault(line, name or "<module>")
        stack += [(const, name) for const in code.co_consts if hasattr(const, "co_lines")]
    return lines


def _keys(path: str, lines: dict[int, str]) -> dict[int, tuple[str, str, str, int]]:
    """Line number -> (file, function, stripped text, occurrence), the
    occurrence counting the lines of one function with the same text."""
    with open(path, encoding="utf-8") as f:
        source = f.read().splitlines()
    name, seen, keys = os.path.basename(path), Counter(), {}
    for line in sorted(lines):
        text = source[line - 1].strip()
        seen[lines[line], text] += 1
        keys[line] = (name, lines[line], text, seen[lines[line], text])
    return keys


def _allowed() -> dict[tuple[str, str, str, int], str]:
    """The entries of unrun_lines.txt, each with its reason. A "reason:"
    line names the reason of the entries below it; an entry is FILE,
    FUNCTION and TEXT, separated by tabs, then the occurrence if not 1."""
    entries, reason = {}, None
    with open(ALLOWED, encoding="utf-8") as f:
        for number, raw in enumerate(f, 1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            if line.startswith("reason:"):
                reason = line[len("reason:"):].strip()
                continue
            fields = line.split("\t")
            if reason is None or len(fields) not in (3, 4):
                sys.exit(f"{ALLOWED}:{number}: an entry needs a reason above it and"
                         " FILE, FUNCTION and TEXT separated by tabs")
            entries[(*fields[:3], int(fields[3]) if len(fields) == 4 else 1)] = reason
    return entries


def main() -> int:
    import pytest

    ran: set[tuple[str, int]] = set()

    def trace_lines(frame, event, arg):
        if event == "line":
            ran.add((frame.f_code.co_filename, frame.f_lineno))
        return trace_lines

    def trace_calls(frame, event, arg):  # only depex's frames trace their lines
        return trace_lines if frame.f_code.co_filename.startswith(SPELLINGS) else None

    sys.path.insert(0, SRC)
    os.chdir(ROOT)
    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", "tests"])
    finally:
        sys.settrace(None)
        threading.settrace(None)  # type: ignore[arg-type]
    ran = {(os.path.realpath(path), line) for path, line in ran}

    allowed = _allowed()
    unlisted, named = [], set()
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = PACKAGE + name
        keys = _keys(path, _executable_lines(path))
        named.update(keys.values())
        for line, key in keys.items():
            if (path, line) not in ran:
                listed = key in allowed
                print(f"src/depex/{name}:{line}: {key[1]}: {key[2]}" + "  (listed)" * listed)
                if not listed:
                    unlisted.append(line)
    stale = [key for key in allowed if key not in named]
    for key in stale:
        print(f"tools/unrun_lines.txt: names no line of src/depex: {chr(9).join(map(str, key))}")
    print(f"{len(unlisted)} unrun lines not in tools/unrun_lines.txt,"
          f" {len(stale)} entries naming no line")
    return 1 if status or unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
