"""Measure the dependency shape of a real root, to set the generator's parameters.

    python3 perfbench/calibrate.py [ROOT]

Reads the ELF files in a root's standard binary and library directories
(not recursively, except `/opt`) and prints, as one JSON document, the
numbers `gen.distro` draws from: files per directory, DT_NEEDED per
executable and per library, imported and exported symbols, the share of
libraries with a soname or development symlink, the share of PIE
executables, and how strongly needs concentrate on a few libraries. The
constants in `gen.py` cite a run of this script. It only reads.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src")]

from depex.elf import ElfError, FileKind, ObjectType, classify_kind, parse_elf  # noqa: E402

BIN_DIRS = ("/usr/bin", "/usr/sbin", "/bin", "/sbin")
LIB_DIRS = ("/usr/lib/x86_64-linux-gnu", "/usr/lib", "/lib/x86_64-linux-gnu", "/lib",
            "/usr/local/lib")


def _quantiles(values: list[int]) -> dict:
    if not values:
        return {}
    s = sorted(values)
    q = statistics.quantiles(s, n=10, method="inclusive") if len(s) > 1 else [s[0]] * 9
    return {"n": len(s), "min": s[0], "p10": q[0], "p50": q[4], "p90": q[8],
            "max": s[-1], "mean": round(statistics.fmean(s), 2)}


def _histogram(values: list[int]) -> list[int]:
    """Counts of 0, 1, 2, ... up to the maximum."""
    out = [0] * (max(values, default=-1) + 1)
    for v in values:
        out[v] += 1
    return out


def _files(root: str, directory: str, recursive: bool = False):
    top = root.rstrip("/") + directory
    if not os.path.isdir(top) or os.path.islink(top):
        return
    for dirpath, dirnames, filenames in os.walk(top):
        if not recursive:
            dirnames[:] = []
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            if not os.path.islink(path) and os.path.isfile(path):
                yield path


def measure(root: str) -> dict:
    per_dir: dict[str, dict[str, int]] = {}
    exes, libs = [], []  # (path, summary)
    non_elf = 0
    seen: set[tuple[int, int]] = set()
    places = [(d, False) for d in BIN_DIRS + LIB_DIRS] + [("/opt", True)]
    for directory, recursive in places:
        for path in _files(root, directory, recursive):
            st = os.stat(path)
            if (st.st_dev, st.st_ino) in seen:
                continue
            seen.add((st.st_dev, st.st_ino))
            try:
                with open(path, "rb") as f:
                    summary = parse_elf(f.read())
            except (ElfError, OSError):
                non_elf += directory in BIN_DIRS
                continue
            kind = classify_kind(summary)
            # glibc's libc.so.6 has a PT_INTERP, so it classifies as an
            # executable; anything with a soname in a library directory is
            # counted as the library it is
            if summary.soname and directory in LIB_DIRS:
                kind = FileKind.SHARED_LIBRARY
            bucket = per_dir.setdefault(directory, {})
            bucket[kind.value] = bucket.get(kind.value, 0) + 1
            if kind is FileKind.EXECUTABLE_BINARY:
                exes.append((path, summary))
            elif kind is FileKind.SHARED_LIBRARY and summary.soname:
                libs.append((path, summary))

    # symlinks next to the libraries: the soname link and the bare `.so` link
    soname_links = dev_links = 0
    for path, s in libs:
        d = os.path.dirname(path)
        soname_links += os.path.islink(os.path.join(d, s.soname))
        stem = s.soname.split(".so")[0]
        dev_links += os.path.islink(os.path.join(d, stem + ".so"))

    users: dict[str, int] = {}
    for _, s in exes + libs:
        for name in s.needed:
            users[name] = users.get(name, 0) + 1
    edges = sum(users.values())
    ranked = sorted(users.values(), reverse=True)
    known = {s.soname for _, s in libs}
    return {
        "root": root,
        "files_per_dir": per_dir,
        "non_elf_in_bin_dirs": non_elf,
        "executables": len(exes),
        "libraries": len(libs),
        "pie_share": round(sum(s.object_type is ObjectType.SHARED_OBJECT
                               for _, s in exes) / max(1, len(exes)), 3),
        "exe_needed": _quantiles([len(s.needed) for _, s in exes]),
        "exe_needed_hist": _histogram([len(s.needed) for _, s in exes]),
        "lib_needed": _quantiles([len(s.needed) for _, s in libs]),
        "lib_needed_hist": _histogram([len(s.needed) for _, s in libs]),
        "exe_imports": _quantiles([len(s.undefined_symbols) for _, s in exes]),
        "lib_imports": _quantiles([len(s.undefined_symbols) for _, s in libs]),
        "lib_exports": _quantiles([len(s.exported_symbols) for _, s in libs]),
        "runpath_share": round(sum(bool(s.runpath or s.rpath) for _, s in exes + libs)
                               / max(1, len(exes) + len(libs)), 3),
        "soname_link_share": round(soname_links / max(1, len(libs)), 3),
        "dev_link_share": round(dev_links / max(1, len(libs)), 3),
        "needs_outside_root_share": round(
            sum(n for name, n in users.items() if name not in known) / max(1, edges), 3),
        # concentration: the share of all needs that the most-needed library,
        # the top 1% and the top 10% of needed names take
        "needs_top1_share": round(ranked[0] / max(1, edges), 3) if ranked else 0,
        "needs_top1pct_share": round(sum(ranked[:max(1, len(ranked) // 100)])
                                     / max(1, edges), 3),
        "needs_top10pct_share": round(sum(ranked[:max(1, len(ranked) // 10)])
                                      / max(1, edges), 3),
        "libraries_never_needed_share": round(
            sum(1 for _, s in libs if s.soname not in users) / max(1, len(libs)), 3),
    }


if __name__ == "__main__":
    print(json.dumps(measure(sys.argv[1] if len(sys.argv) > 1 else "/"), indent=1))
