"""Sysroot walker: parses every ELF file under a sysroot, assembles the graph.

The walk itself is serial (it is cheap); extraction runs on a process pool
sized by parallelism_hint. A file that starts with the ELF magic is parsed;
any other file is counted in files_seen and skipped. Results are assembled
into a deterministic, path-sorted node list regardless of worker
completion order.
"""

from __future__ import annotations

import os
import posixpath
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field

from depex.elf import (ELF_MAGIC, ElfError, ElfSummary, FileKind, classify_kind,
                       parse_elf)
from depex.resolver import (Resolver, SearchConfig, SymlinkLoop,
                            canonicalize_in_sysroot)
from depex.store import DependencyEdge, FileNode

DEFAULT_EXCLUDES = ("/proc", "/sys", "/dev", "/run")


class SysrootUnreadable(Exception):
    pass


@dataclass
class ScanOptions:
    config: SearchConfig
    follow_symlinks: bool = True
    excluded_prefixes: list[str] = field(default_factory=lambda: list(DEFAULT_EXCLUDES))
    parallelism_hint: int = 1


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
    summaries: dict[str, ElfSummary]  # canonical path -> parse facts
    error_records: list[tuple[str, str]]


def _excluded(path: str, prefixes: list[str]) -> bool:
    return any(path == p or path.startswith(p.rstrip("/") + "/") for p in prefixes)


def _walk_regular_files(options: ScanOptions) -> tuple[list[str], list[tuple[str, str]]]:
    """All regular-file paths under the sysroot, in sorted traversal order.

    Symlinked directories are listed through their sysroot-canonical target
    (absolute targets never leak to the host tree) while the yielded paths
    keep the symlinked spelling, so every alias of a file is seen. Cycles
    are cut on the ancestor chain, not globally: a directory reachable two
    independent ways must be walked twice for its aliases to surface.
    """
    sysroot = options.config.sysroot.rstrip("/")
    config = options.config
    errors: list[tuple[str, str]] = []
    files: list[str] = []
    stack: list[tuple[str, frozenset[tuple[int, int]]]] = [("/", frozenset())]

    while stack:
        rel, ancestors = stack.pop()
        try:
            canonical = canonicalize_in_sysroot(rel, config)
        except SymlinkLoop:
            errors.append((rel, "symlink loop"))
            continue
        host = sysroot + canonical
        try:
            st = os.stat(host)
        except OSError as exc:
            errors.append((rel, f"stat failed: {exc}"))
            continue
        key = (st.st_dev, st.st_ino)
        if key in ancestors:
            continue
        ancestors = ancestors | {key}
        try:
            with os.scandir(host) as it:
                entries = sorted(it, key=lambda e: e.name)
        except OSError as exc:
            errors.append((rel, f"listing failed: {exc}"))
            continue
        subdirs: list[str] = []
        for entry in entries:
            child = posixpath.join(rel, entry.name)
            if _excluded(child, options.excluded_prefixes):
                continue
            try:
                if entry.is_symlink():
                    if not options.follow_symlinks:
                        continue
                    try:
                        target = canonicalize_in_sysroot(child, config)
                    except SymlinkLoop:
                        errors.append((child, "symlink loop"))
                        continue
                    target_host = sysroot + target
                    if os.path.isdir(target_host):
                        subdirs.append(child)
                    elif os.path.isfile(target_host):
                        files.append(child)
                elif entry.is_dir(follow_symlinks=False):
                    subdirs.append(child)
                elif entry.is_file(follow_symlinks=False):
                    files.append(child)
            except OSError as exc:
                errors.append((child, str(exc)))
        stack.extend((sub, ancestors) for sub in reversed(subdirs))

    return files, errors


@dataclass
class _Extracted:
    canonical: str
    size_bytes: int
    summary: ElfSummary | None = None  # None: not an ELF file, or an error
    error: str | None = None


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
        return _Extracted(canonical, size, parse_elf(data))
    except ElfError as exc:
        return _Extracted(canonical, size, error=f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # a parser crash must not kill the scan
        return _Extracted(canonical, size,
                          error=f"parser crashed: {type(exc).__name__}: {exc}")


_worker_state: dict = {}


def _pool_init(options: ScanOptions) -> None:
    _worker_state["options"] = options


def _pool_extract(item: tuple[str, int]) -> _Extracted:
    return _extract_one(item[0], item[1], _worker_state["options"])


def _run_extraction(canonical_files: list[tuple[str, int]], workers: int,
                    options: ScanOptions) -> list[_Extracted]:
    if workers > 1 and len(canonical_files) >= 2 * workers:
        with ProcessPoolExecutor(max_workers=workers, initializer=_pool_init,
                                 initargs=(options,)) as pool:
            chunk = max(16, len(canonical_files) // (workers * 8))
            return list(pool.map(_pool_extract, canonical_files, chunksize=chunk))
    return [_extract_one(c, size, options) for c, size in canonical_files]


def scan_tree(options: ScanOptions) -> ScanResult:
    """Walk the sysroot and build the node/edge sets for one snapshot."""
    start = time.monotonic()
    sysroot = options.config.sysroot
    if not os.path.isdir(sysroot):
        raise SysrootUnreadable(sysroot)
    resolver = Resolver(options.config)

    raw_paths, errors = _walk_regular_files(options)

    # collapse symlink aliases and hard links onto one canonical node each
    aliases: dict[str, list[str]] = {}   # keyed by the primary canonical path
    alias_of: dict[str, str] = {}        # canonical path -> primary
    by_inode: dict[tuple[int, int], str] = {}
    canonical_files: list[tuple[str, int]] = []
    for rel in raw_paths:
        canonical, st = resolver.canonical_file_stat(rel)
        if canonical is None:
            errors.append((rel, "symlink loop"))
            continue
        primary = alias_of.get(canonical)
        if primary is None:
            if st is None:
                errors.append((rel, "stat failed"))
                continue
            key = (st.st_dev, st.st_ino)
            primary = by_inode.get(key)
            if primary is None:
                # first sighting of this file
                by_inode[key] = canonical
                alias_of[canonical] = canonical
                aliases[canonical] = []
                canonical_files.append((canonical, st.st_size))
                primary = canonical
            else:
                # a hard link: different canonical path, same file
                alias_of[canonical] = primary
                if canonical not in aliases[primary]:
                    aliases[primary].append(canonical)
        if rel != primary and rel not in aliases[primary]:
            aliases[primary].append(rel)

    workers = max(1, options.parallelism_hint)
    extracted = _run_extraction(canonical_files, workers, options)

    counts = ScanCounts()
    parsed: list[_Extracted] = []
    for item in extracted:
        counts.files_seen += 1
        if item.error is not None:
            errors.append((item.canonical, item.error))
        elif item.summary is not None:
            parsed.append(item)

    parsed.sort(key=lambda it: it.canonical)
    node_ids = {item.canonical: idx for idx, item in enumerate(parsed)}
    nodes: list[FileNode] = []
    for idx, item in enumerate(parsed):
        kind = classify_kind(item.summary, item.canonical)
        if kind is FileKind.EXECUTABLE_BINARY:
            counts.executables += 1
        elif kind is FileKind.SHARED_LIBRARY:
            counts.libraries += 1
        nodes.append(FileNode(idx, None, item.canonical,
                              sorted(aliases[item.canonical]), kind,
                              item.summary.soname, item.size_bytes))
    counts.elf_parsed = len(nodes)

    edges: list[DependencyEdge] = []
    for item in parsed:
        from_id = node_ids[item.canonical]
        # a repeated DT_NEEDED of the same name is one requirement
        for name in dict.fromkeys(item.summary.needed):
            resolution = resolver.resolve(name, item.summary, item.canonical)
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
        summaries={item.canonical: item.summary for item in parsed},
        error_records=errors,
    )
