"""Sysroot walker: offers files to type-specific plugins, assembles the graph.

The walk itself is serial (it is cheap); extraction runs on a process pool
sized by parallelism_hint when the plugin registry can be pickled (the
shipped ELF plugin can), and serially otherwise. Results are assembled
into a deterministic, path-sorted node list regardless of worker
completion order.
"""

from __future__ import annotations

import logging
import os
import pickle
import posixpath
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable

from depex.elf import (ELF_MAGIC, ElfError, ElfSummary, FileKind, NotElf,
                       classify_kind, parse_elf)
from depex.resolver import (Resolver, SearchConfig, SymlinkLoop,
                            canonicalize_in_sysroot)
from depex.store import DependencyEdge, FileNode

log = logging.getLogger(__name__)

DEFAULT_EXCLUDES = ("/proc", "/sys", "/dev", "/run")
HEAD_BYTES = 64  # plugins match on path + this much leading content


class SysrootUnreadable(Exception):
    pass


class DuplicateName(Exception):
    """A plugin with this name is already registered."""


@dataclass
class ScanOptions:
    config: SearchConfig
    follow_symlinks: bool = True
    excluded_prefixes: list[str] = field(default_factory=lambda: list(DEFAULT_EXCLUDES))
    parallelism_hint: int = 1


@dataclass
class NodeFacts:
    """What a plugin learned about one file."""

    kind: FileKind
    soname: str | None = None
    summary: ElfSummary | None = None


@dataclass(frozen=True)
class PluginDescriptor:
    name: str
    supported_matcher: Callable[[str, bytes], bool]
    extract: Callable[[str, bytes, SearchConfig], tuple[NodeFacts, list[str]]]


class PluginRegistry:
    """Ordered plugin set; registration order is matching priority."""

    def __init__(self) -> None:
        self._plugins: list[PluginDescriptor] = []

    def register(self, descriptor: PluginDescriptor) -> PluginDescriptor:
        if any(p.name == descriptor.name for p in self._plugins):
            raise DuplicateName(descriptor.name)
        self._plugins.append(descriptor)
        return descriptor

    def __len__(self) -> int:
        return len(self._plugins)

    def match(self, path: str, head: bytes) -> PluginDescriptor | None:
        matches = [p for p in self._plugins if p.supported_matcher(path, head)]
        if len(matches) > 1:
            log.warning("plugins %s all claim %s; using %r",
                        [p.name for p in matches], path, matches[0].name)
        return matches[0] if matches else None


def _elf_matcher(path: str, head: bytes) -> bool:
    return head[:4] == ELF_MAGIC


def _elf_extract(path: str, data: bytes,
                 config: SearchConfig) -> tuple[NodeFacts, list[str]]:
    summary = parse_elf(data)
    kind = classify_kind(summary, path)
    return NodeFacts(kind, summary.soname, summary), list(summary.needed)


ELF_PLUGIN = PluginDescriptor("elf", _elf_matcher, _elf_extract)


def default_registry() -> PluginRegistry:
    registry = PluginRegistry()
    registry.register(ELF_PLUGIN)
    return registry


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
    facts: NodeFacts | None  # None: no plugin matched
    claims: list[str]
    error: str | None = None


def _extract_one(canonical: str, size: int, options: ScanOptions,
                 registry: PluginRegistry) -> _Extracted:
    host = options.config.sysroot.rstrip("/") + canonical
    try:
        with open(host, "rb") as f:
            head = f.read(HEAD_BYTES)
            plugin = registry.match(canonical, head)
            if plugin is None:
                return _Extracted(canonical, size, None, [])
            data = head + f.read()
    except OSError as exc:
        return _Extracted(canonical, 0, None, [], error=str(exc))
    try:
        facts, claims = plugin.extract(canonical, data, options.config)
    except NotElf:
        return _Extracted(canonical, size, None, [])
    except ElfError as exc:
        return _Extracted(canonical, size, None, [],
                          error=f"{type(exc).__name__}: {exc}")
    except Exception as exc:  # a misbehaving plugin must not kill the scan
        return _Extracted(canonical, size, None, [],
                          error=f"plugin {plugin.name!r} failed: {exc}")
    return _Extracted(canonical, size, facts, claims)


_worker_state: dict = {}


def _pool_init(options: ScanOptions, registry: PluginRegistry) -> None:
    _worker_state["options"] = options
    _worker_state["registry"] = registry


def _pool_extract(item: tuple[str, int]) -> _Extracted:
    return _extract_one(item[0], item[1], _worker_state["options"],
                        _worker_state["registry"])


def _run_extraction(canonical_files: list[tuple[str, int]], workers: int,
                    options: ScanOptions,
                    registry: PluginRegistry) -> list[_Extracted]:
    if workers > 1 and len(canonical_files) >= 2 * workers:
        try:
            pickle.dumps((options, registry))
        except Exception:
            pass  # closure-based plugins cannot cross a process boundary
        else:
            with ProcessPoolExecutor(max_workers=workers, initializer=_pool_init,
                                     initargs=(options, registry)) as pool:
                chunk = max(16, len(canonical_files) // (workers * 8))
                return list(pool.map(_pool_extract, canonical_files,
                                     chunksize=chunk))
    return [_extract_one(c, size, options, registry) for c, size in canonical_files]


def scan_tree(options: ScanOptions, registry: PluginRegistry | None = None) -> ScanResult:
    """Walk the sysroot and build the node/edge sets for one snapshot."""
    start = time.monotonic()
    sysroot = options.config.sysroot
    if not os.path.isdir(sysroot):
        raise SysrootUnreadable(sysroot)
    if registry is None:
        registry = default_registry()
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
    extracted = _run_extraction(canonical_files, workers, options, registry)

    counts = ScanCounts()
    summaries: dict[str, ElfSummary] = {}
    kept: list[_Extracted] = []
    for item in extracted:
        counts.files_seen += 1
        if item.error is not None:
            counts.errors += 1
            errors.append((item.canonical, item.error))
            continue
        if item.facts is None:
            continue
        counts.elf_parsed += 1
        if item.facts.kind is FileKind.EXECUTABLE_BINARY:
            counts.executables += 1
        elif item.facts.kind is FileKind.SHARED_LIBRARY:
            counts.libraries += 1
        kept.append(item)
        if item.facts.summary is not None:
            summaries[item.canonical] = item.facts.summary

    kept.sort(key=lambda it: it.canonical)
    node_ids = {item.canonical: idx for idx, item in enumerate(kept)}
    nodes = [
        FileNode(idx, None, item.canonical, sorted(aliases[item.canonical]),
                 item.facts.kind, item.facts.soname, item.size_bytes)
        for idx, item in enumerate(kept)
    ]

    edges: list[DependencyEdge] = []
    for item in kept:
        from_id = node_ids[item.canonical]
        summary = item.facts.summary
        seen_names: set[str] = set()
        for name in item.claims:
            if name in seen_names:
                continue  # repeated DT_NEEDED of the same name is one requirement
            seen_names.add(name)
            if summary is None:
                edges.append(DependencyEdge(len(edges), None, from_id, name))
                continue
            resolution = resolver.resolve(name, summary, item.canonical)
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
        summaries=summaries,
        error_records=errors,
    )
