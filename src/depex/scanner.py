"""Sysroot walker: parses every ELF file under a sysroot, assembles the graph.

The walk itself is serial (it is cheap) and works out each file's identity
as it goes, through the resolver's one canonicaliser: its canonical path
inside the sysroot, its inode and every symlinked or hard-linked spelling,
so each file becomes one node with its aliases. Extraction then reads
each canonical file once, in the calling process: a file that starts with
the ELF magic is parsed for its link facts (no symbol sets) and
classified; any other file is counted in files_seen and skipped. Each
file's extraction is a flat record of plain values (kind, soname, needed
names, RPATH, RUNPATH or the error), so no parsed image outlives its
file. Records are assembled into a deterministic, path-sorted node list.
"""

from __future__ import annotations

import os
import posixpath
import stat as stat_module
import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import NamedTuple

from depex.elf import ELF_MAGIC, ElfError, FileKind, classify_kind, parse_elf
from depex.resolver import Resolver, SearchConfig
from depex.store import DependencyEdge, FileNode

DEFAULT_EXCLUDES = ("/proc", "/sys", "/dev", "/run")


class SysrootUnreadable(Exception):
    pass


class RelativeExclude(ValueError):
    """An excluded prefix that is not absolute: it could match no spelling."""


@dataclass
class ScanOptions:
    config: SearchConfig
    follow_symlinks: bool = True
    excluded_prefixes: list[str] = field(default_factory=lambda: list(DEFAULT_EXCLUDES))


@dataclass
class ScanCounts:
    files_seen: int = 0
    elf_parsed: int = 0
    executables: int = 0
    libraries: int = 0
    errors: int = 0


@dataclass
class ScanResult:
    root: str
    counts: ScanCounts
    duration: float
    nodes: list[FileNode]
    edges: list[DependencyEdge]
    error_records: list[tuple[str, str]]


def _walk_regular_files(options: ScanOptions, resolver: Resolver,
                        errors: list[tuple[str, str]]
                        ) -> Iterator[tuple[str, str, tuple[int, int], int]]:
    """Every regular file under the sysroot, in sorted traversal order.

    Yields (spelling, canonical path, (st_dev, st_ino), size) and appends
    what it cannot walk to errors. The stack holds spellings: each entry's
    identity comes from the resolver's canonical_file_stat, and a directory
    is listed at its canonical path, so links never lead out of the sysroot
    and every alias spelling of a file is seen. Cycles are cut on the
    ancestor chain, not globally: a directory reachable two independent
    ways must be walked twice for its aliases to surface.
    """
    # a prefix excludes itself and everything under it
    excluded_names = frozenset(options.excluded_prefixes)
    excluded_dirs = tuple(p.rstrip("/") + "/" for p in options.excluded_prefixes)
    sysroot = options.config.sysroot.rstrip("/")
    root = os.stat(sysroot + "/")
    stack = [("/", frozenset({(root.st_dev, root.st_ino)}))]
    while stack:
        rel, ancestors = stack.pop()
        try:
            with os.scandir(sysroot + resolver.canonical(rel)[0]) as it:
                entries = sorted(it, key=lambda e: e.name)
        except OSError as exc:
            errors.append((rel, f"listing failed: {exc}"))
            continue
        subdirs = []
        for entry in entries:
            child = posixpath.join(rel, entry.name)
            if child in excluded_names or child.startswith(excluded_dirs) or (
                    not options.follow_symlinks and entry.is_symlink()):
                continue
            canonical, st = resolver.canonical_file_stat(child)
            if canonical is None:
                errors.append((child, "symlink loop"))
            elif st is None:  # dangling, or gone since the listing
                if not entry.is_symlink():
                    errors.append((child, "stat failed"))
            elif stat_module.S_ISDIR(st.st_mode):
                key = (st.st_dev, st.st_ino)
                if key not in ancestors:
                    subdirs.append((child, ancestors | {key}))
            elif stat_module.S_ISREG(st.st_mode):
                yield child, canonical, (st.st_dev, st.st_ino), st.st_size
        stack.extend(reversed(subdirs))


class _Extracted(NamedTuple):
    """What extraction learns of one file, in plain values only.

    The scan holds one record per file until assembly. An ElfSummary would
    keep its whole file alive through `image`, so holding summaries instead
    would keep every parsed file in memory at once.
    """

    canonical: str
    size_bytes: int
    kind: str | None = None  # FileKind value; None: not an ELF file, or an error
    error: str | None = None
    soname: str | None = None
    needed: tuple[str, ...] = ()
    rpath: str | None = None
    runpath: str | None = None


def _extract_one(canonical: str, size: int, options: ScanOptions) -> _Extracted:
    host = options.config.sysroot.rstrip("/") + canonical
    try:
        with open(host, "rb") as f:
            if f.read(len(ELF_MAGIC)) != ELF_MAGIC:
                return _Extracted(canonical, size)
            f.seek(0)
            data = f.read()
    except OSError as exc:
        return _Extracted(canonical, 0, error=str(exc))
    try:
        summary = parse_elf(data)
    except ElfError as exc:
        return _Extracted(canonical, size, error=f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # a parser crash must not kill the scan
        return _Extracted(canonical, size,
                          error=f"parser crashed: {type(exc).__name__}: {exc}")
    return _Extracted(canonical, size, classify_kind(summary).value,
                      soname=summary.soname, needed=summary.needed,
                      rpath=summary.rpath, runpath=summary.runpath)


def scan_tree(options: ScanOptions) -> ScanResult:
    """Walk the sysroot and build the node/edge sets for one snapshot.

    Every step runs in the calling process: the walk, one extraction per
    canonical file, then assembly and resolution.
    """
    start = time.monotonic()
    for prefix in options.excluded_prefixes:
        if not prefix.startswith("/"):
            raise RelativeExclude(prefix)
    sysroot = options.config.sysroot
    if not os.path.isdir(sysroot):
        raise SysrootUnreadable(sysroot)
    resolver = Resolver(options.config)

    # collapse symlink aliases and hard links onto one canonical node each
    errors: list[tuple[str, str]] = []
    alias_of: dict[str, str] = {}        # canonical path -> primary
    aliases: dict[str, set[str]] = {}    # primary -> its other spellings
    by_inode: dict[tuple[int, int], str] = {}
    canonical_files: list[tuple[str, int]] = []
    for spelling, canonical, key, size in _walk_regular_files(options, resolver, errors):
        primary = alias_of.get(canonical)
        if primary is None:
            # the first sighting of a file, or a hard link to one seen before
            primary = alias_of[canonical] = by_inode.setdefault(key, canonical)
            if primary == canonical:
                canonical_files.append((canonical, size))
        for alias in (spelling, canonical):
            if alias != primary:
                aliases.setdefault(primary, set()).add(alias)

    counts = ScanCounts(files_seen=len(canonical_files))
    parsed: list[_Extracted] = []
    for canonical, size in canonical_files:
        item = _extract_one(canonical, size, options)
        if item.error is not None:
            errors.append((item.canonical, item.error))
        elif item.kind is not None:
            parsed.append(item)

    parsed.sort(key=lambda it: it.canonical)
    node_ids = {item.canonical: idx for idx, item in enumerate(parsed)}
    nodes: list[FileNode] = []
    for idx, item in enumerate(parsed):
        kind = FileKind(item.kind)
        if kind is FileKind.EXECUTABLE_BINARY:
            counts.executables += 1
        elif kind is FileKind.SHARED_LIBRARY:
            counts.libraries += 1
        nodes.append(FileNode(idx, None, item.canonical,
                              sorted(aliases.get(item.canonical, ())), kind,
                              item.soname, item.size_bytes))
    counts.elf_parsed = len(nodes)

    edges: list[DependencyEdge] = []
    for item in parsed:
        from_id = node_ids[item.canonical]
        # a repeated DT_NEEDED of the same name is one requirement
        for name in dict.fromkeys(item.needed):
            resolution = resolver.resolve(name, item, item.canonical)
            # a hit on a hard-linked spelling lands on its primary's node; a
            # hit that is no node at all (non-ELF or excluded) would fail in
            # the loader too, so it stays an unmet requirement
            target = node_ids.get(alias_of.get(resolution.path))
            if target is None:
                edges.append(DependencyEdge(len(edges), None, from_id, name))
            else:
                edges.append(DependencyEdge(len(edges), None, from_id, name,
                                            target, resolution.origin))

    counts.errors = len(errors)
    return ScanResult(
        root=sysroot,
        counts=counts,
        duration=time.monotonic() - start,
        nodes=nodes,
        edges=edges,
        error_records=errors,
    )
