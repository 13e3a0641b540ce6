"""Sysroot walker: parses every ELF file under a sysroot, assembles the graph.

The walk is serial (it is cheap) and works out each file's identity as it
goes, from its directory's listing or, for a link, the resolver's one
canonicaliser: its canonical path inside the sysroot, its inode and every
symlinked or hard-linked spelling, so each file becomes one node with its
aliases; a directory reached again by another spelling is walked from the
listing the resolver kept. Extraction then reads each canonical file once,
in the calling process, through a bare file descriptor: a file that starts
with the ELF magic is parsed for its link facts (no symbol sets),
classified, and its needed names resolved while its summary is in hand;
any other file is counted in files_seen and skipped. The scan keeps a
plain tuple per ELF file (path, size, kind, soname, resolutions), so no
parsed image outlives its file, and assembly builds the path-sorted nodes
and their edges from those tuples in one loop.
"""

from __future__ import annotations

import os
import stat as stat_module
import time
from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass, field

from depex.elf import ELF_MAGIC, ElfError, ElfSummary, classify_kind, parse_elf
from depex.resolver import Resolver, SearchConfig
from depex.store import DependencyEdge, FileKind, FileNode, Resolution, collector_paused

DEFAULT_EXCLUDES = ("/proc", "/sys", "/dev", "/run")
_FIRST_READ = 4096  # bytes: a page, which holds most non-ELF files whole


class SysrootUnreadable(Exception):
    pass


class RelativePath(ValueError):
    """(option, element): a path option element that is not absolute. An
    excluded prefix could match no spelling, and a search directory would
    be read from the sysroot's root."""


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
    phase_seconds: dict[str, float]  # walk, extract, assemble, resolve
    nodes: list[FileNode]
    edges: list[DependencyEdge]
    error_records: list[tuple[str, str]]


def _walk_regular_files(options: ScanOptions, resolver: Resolver,
                        errors: list[tuple[str, str]]
                        ) -> Iterator[tuple[str, str, tuple[int, int]]]:
    """Every regular file under the sysroot, in sorted traversal order.

    Yields (spelling, canonical path, (st_dev, st_ino)) and appends what it
    cannot walk to errors. The stack holds spellings, and a directory is
    listed at its canonical path, so links never lead out of the sysroot
    and every alias spelling of a file is seen. Only a link goes through
    canonical_file_stat, by its spelling, as the 40-link budget counts over
    the whole spelling; a plain file's identity is its directory's st_dev
    and its d_ino. Cycles are cut on the ancestor chain of the listed
    directories' (st_dev, st_ino), one stat each (a mount point's d_ino is
    the covered inode), not globally: a directory reachable two ways is
    walked twice, so that its aliases surface.
    """
    # a prefix excludes itself and everything under it
    excluded_names = frozenset(options.excluded_prefixes)
    excluded_dirs = tuple(p.rstrip("/") + "/" for p in options.excluded_prefixes)
    sysroot = options.config.sysroot.rstrip("/")
    stack = [("/", frozenset())]
    while stack:
        rel, ancestors = stack.pop()
        directory = resolver.canonical(rel)[0]
        try:
            st = os.stat(sysroot + directory)
            if (st.st_dev, st.st_ino) in ancestors:
                continue
            types, inodes, searchable = resolver.scandir(directory)
        except OSError as exc:
            errors.append((rel, f"listing failed: {exc.strerror}"))
            continue
        ancestors |= {(st.st_dev, st.st_ino)}
        prefix, directory = rel.rstrip("/") + "/", directory.rstrip("/")
        # a child is excluded only where an excluded prefix and its spelling overlap
        tested = any(d.startswith(prefix) or prefix.startswith(d) for d in excluded_dirs)
        subdirs = []
        for (name, mode), inode in zip(types.items(), inodes):
            child = prefix + name
            if tested and (child in excluded_names or child.startswith(excluded_dirs)):
                continue
            if mode == stat_module.S_IFLNK:
                if not options.follow_symlinks:
                    continue
                canonical, target = resolver.canonical_file_stat(child)
                if canonical is None:
                    errors.append((child, "symlink loop"))
                if target is None:  # a loop, or dangling
                    continue
                mode, key = stat_module.S_IFMT(target.st_mode), (target.st_dev, target.st_ino)
            elif not searchable:  # an lstat of the name is denied
                errors.append((child, "stat failed"))
                continue
            else:
                canonical, key = f"{directory}/{name}", (st.st_dev, inode)
            if mode == stat_module.S_IFDIR:
                subdirs.append((child, ancestors))
            elif mode == stat_module.S_IFREG:
                yield child, canonical, key
        stack.extend(reversed(subdirs))


def _extract_one(canonical: str, options: ScanOptions
                 ) -> tuple[int, ElfSummary | None, str | None]:
    """(bytes read, summary, error) of one file: no summary for a file that
    is not ELF or fails, and an error only where it fails. One read of a
    page gets the magic, or a small file whole; an ELF file that fills the
    page is read whole by one pread from its start, the size fstat gives, so
    no join copies it; one that grew since reads on to EOF."""
    try:
        fd = os.open(options.config.sysroot.rstrip("/") + canonical, os.O_RDONLY)
        try:
            data = os.read(fd, _FIRST_READ)
            if not data.startswith(ELF_MAGIC):
                return len(data), None, None
            if len(data) == _FIRST_READ:
                size = os.fstat(fd).st_size
                data = os.pread(fd, size + 1, 0)
                while len(data) > size:  # it grew since the fstat: read on to EOF
                    size, data = len(data), data + os.pread(fd, _FIRST_READ, len(data))
        finally:
            os.close(fd)
    except OSError as exc:  # strerror: the text without the host path
        return 0, None, f"read failed: {exc.strerror}"
    try:
        return len(data), parse_elf(data), None
    except ElfError as exc:
        return len(data), None, f"{type(exc).__name__}: {exc}"
    except Exception as exc:  # a parser crash must not kill the scan
        return len(data), None, f"parser crashed: {type(exc).__name__}: {exc}"


@collector_paused
def scan_tree(options: ScanOptions) -> ScanResult:
    """Walk the sysroot and build the node/edge sets for one snapshot.

    Every step runs in the calling process: the walk, one extraction and
    resolution per canonical file, then assembly. phase_seconds books the
    time inside the searches to resolve, not to extract.
    """
    config = options.config
    for option, elements in (("--exclude", options.excluded_prefixes),
                             ("--env-library-path", config.env_library_path),
                             ("--default-dirs", config.default_dirs)):
        for element in elements:
            if not element.startswith("/"):
                raise RelativePath(option, element)
    sysroot = config.sysroot
    if not os.path.isdir(sysroot):
        raise SysrootUnreadable(sysroot)
    resolver = Resolver(config)
    started = time.perf_counter()

    # collapse symlink aliases and hard links onto one canonical node each
    errors: list[tuple[str, str]] = []
    alias_of: dict[str, str] = {}        # canonical path -> primary
    aliases: defaultdict[str, set[str]] = defaultdict(set)  # primary -> its other spellings
    by_inode: dict[tuple[int, int], str] = {}
    canonical_files: list[str] = []
    for spelling, canonical, key in _walk_regular_files(options, resolver, errors):
        primary = alias_of.get(canonical)
        if primary is None:
            # the first sighting of a file, or a hard link to one seen before
            primary = alias_of[canonical] = by_inode.setdefault(key, canonical)
            if primary == canonical:
                canonical_files.append(canonical)
        if spelling != primary:
            aliases[primary].add(spelling)
        if canonical != primary:
            aliases[primary].add(canonical)
    walked = time.perf_counter()

    # (canonical, size, kind, soname, resolutions) per ELF file: its needs are
    # resolved while its summary is in hand, and no summary, which holds its
    # whole file in `image`, outlives the file's turn
    files: list[tuple[str, int, FileKind, str | None, list[Resolution]]] = []
    searching = 0.0  # the time inside the searches, booked to resolve
    for canonical in canonical_files:
        size, summary, error = _extract_one(canonical, options)
        if error is not None:
            errors.append((canonical, error))
        elif summary is not None:
            kind, searched = classify_kind(summary), time.perf_counter()
            # a repeated DT_NEEDED of the same name is one requirement
            resolutions = [resolver.resolve(name, summary, canonical)
                           for name in dict.fromkeys(summary.needed)]
            searching += time.perf_counter() - searched
            files.append((canonical, size, kind, summary.soname, resolutions))
            del summary  # before the next file is read
    extracted = time.perf_counter()

    files.sort()  # canonical paths are unique, so only they are compared
    node_ids = {file[0]: idx for idx, file in enumerate(files)}
    nodes: list[FileNode] = []
    edges: list[DependencyEdge] = []
    for idx, (canonical, size, kind, soname, resolutions) in enumerate(files):
        nodes.append(FileNode(idx, None, canonical, sorted(aliases.get(canonical, ())),
                              kind, soname, size))
        for name, path, origin in resolutions:
            # a hit on a hard-linked spelling lands on its primary's node; a
            # hit that is no node at all (non-ELF or excluded) would fail in
            # the loader too, so it stays an unmet requirement
            target = node_ids.get(alias_of.get(path))
            edges.append(DependencyEdge(len(edges), None, idx, name, target,
                                        None if target is None else origin))
    kinds = [node.kind for node in nodes]
    counts = ScanCounts(files_seen=len(canonical_files), elf_parsed=len(nodes),
                        executables=kinds.count(FileKind.EXECUTABLE_BINARY),
                        libraries=kinds.count(FileKind.SHARED_LIBRARY), errors=len(errors))
    assembled = time.perf_counter()

    return ScanResult(
        root=sysroot,
        counts=counts,
        phase_seconds={"walk": walked - started, "extract": extracted - walked - searching,
                       "assemble": assembled - extracted, "resolve": searching},
        nodes=nodes,
        edges=edges,
        error_records=errors,
    )
