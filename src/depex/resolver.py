"""Dynamic-loader search semantics confined to a sysroot.

All paths handed around here are absolute strings interpreted *inside*
the sysroot; the functions never touch the host filesystem outside it
(chroot emulation, including re-rooting of absolute symlink targets).
Resolver.resolve is the one implementation of the loader's search: every
candidate, searched or given with a '/', goes through the same probe.
"""

from __future__ import annotations

import glob
import logging
import os
import posixpath
import stat as stat_module
from collections import deque
from dataclasses import dataclass, field
from enum import Enum

from depex.elf import ElfSummary

log = logging.getLogger(__name__)

DEFAULT_DIRS = ("/lib", "/usr/lib", "/lib64", "/usr/lib64")
LDSO_CONF_PATH = "/etc/ld.so.conf"
MAX_LINK_TRAVERSALS = 40  # mirrors the kernel/loader loop limit


class SymlinkLoop(Exception):
    """More than MAX_LINK_TRAVERSALS symlink hops while canonicalizing."""


class Origin(Enum):
    """Which search stage produced a resolution."""

    RPATH = "rpath"
    ENV_PATH = "env-path"
    RUNPATH = "runpath"
    LDSO_CONF = "ldso-conf"
    DEFAULT_DIR = "default-dir"
    # needed names containing '/' bypass the directory search entirely
    DIRECT = "direct"


@dataclass(frozen=True)
class Resolution:
    needed_name: str
    path: str | None = None  # canonical sysroot path; None = missing
    origin: Origin | None = None

    @property
    def resolved(self) -> bool:
        return self.path is not None


@dataclass
class SearchConfig:
    """Where and how to look for shared libraries inside a sysroot."""

    sysroot: str
    env_library_path: list[str] = field(default_factory=list)
    default_dirs: list[str] = field(default_factory=lambda: list(DEFAULT_DIRS))


def substitute_origin(raw_path_element: str, dependent_file_dir: str) -> str:
    """Expand $ORIGIN/${ORIGIN} to the dependent file's directory."""
    return raw_path_element.replace("${ORIGIN}", dependent_file_dir).replace(
        "$ORIGIN", dependent_file_dir
    )


def canonicalize_in_sysroot(path: str, config: SearchConfig) -> str:
    """Resolve symlinks component-by-component without escaping the sysroot.

    Absolute link targets are re-rooted under the sysroot; ".." clamps at
    the sysroot. Nonexistent components pass through lexically.
    """
    pending = deque(p for p in path.split("/") if p and p != ".")
    resolved: list[str] = []
    hops = 0
    while pending:
        comp = pending.popleft()
        if comp == "..":
            if resolved:
                resolved.pop()
            continue
        host_path = os.path.join(config.sysroot, *resolved, comp)
        try:
            is_link = os.path.islink(host_path)
        except OSError:
            is_link = False
        if not is_link:
            resolved.append(comp)
            continue
        hops += 1
        if hops > MAX_LINK_TRAVERSALS:
            raise SymlinkLoop(path)
        target = os.readlink(host_path)
        if target.startswith("/"):
            resolved = []
        pending.extendleft(
            reversed([p for p in target.split("/") if p and p != "."])
        )
    return "/" + "/".join(resolved)


def parse_ldso_conf(config: SearchConfig) -> list[str]:
    """Directories listed by ld.so.conf inside the sysroot, includes expanded."""
    dirs: list[str] = []
    _read_ldso_conf(config, LDSO_CONF_PATH, dirs, ())
    return dirs


def _read_ldso_conf(config: SearchConfig, conf_path: str, dirs: list[str],
                    chain: tuple[str, ...]) -> None:
    canonical = canonicalize_in_sysroot(conf_path, config)
    if canonical in chain:
        # a diamond include is legal and re-processed; only a true cycle stops
        log.warning("cyclic include of %s in ld.so.conf; continuing with "
                    "directories gathered so far", conf_path)
        return
    chain = chain + (canonical,)
    host_path = _host_path(config, canonical)
    try:
        with open(host_path, encoding="utf-8", errors="surrogateescape") as f:
            lines = f.readlines()
    except OSError:
        return
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("include") and line[7:8] in (" ", "\t"):
            pattern = line[8:].strip()
            if not pattern.startswith("/"):
                pattern = posixpath.join(posixpath.dirname(conf_path), pattern)
            host_pattern = config.sysroot.rstrip("/") + pattern
            for match in sorted(glob.glob(host_pattern)):
                rel = "/" + os.path.relpath(match, config.sysroot)
                _read_ldso_conf(config, rel, dirs, chain)
        else:
            dirs.append(line)


def _host_path(config: SearchConfig, canonical: str) -> str:
    return config.sysroot.rstrip("/") + canonical


def discover_multiarch_dirs(config: SearchConfig) -> list[str]:
    """Triplet subdirectories of /lib and /usr/lib that hold shared objects."""
    found = []
    for parent in ("/lib", "/usr/lib"):
        host_parent = _host_path(config, parent)
        try:
            entries = sorted(os.listdir(host_parent))
        except OSError:
            continue
        for entry in entries:
            subdir = os.path.join(host_parent, entry)
            if not os.path.isdir(subdir):
                continue
            try:
                has_libs = any(
                    name.startswith("lib") and ".so" in name
                    for name in os.listdir(subdir)
                )
            except OSError:
                continue
            if has_libs:
                found.append(posixpath.join(parent, entry))
    return found


def _split_search_value(raw: str, dependent_dir: str) -> list[str]:
    return [
        substitute_origin(elem, dependent_dir)
        for elem in raw.split(":")
        if elem
    ]


def build_search_stages(summary: ElfSummary, dependent_dir: str,
                        config: SearchConfig, ldso_dirs: list[str],
                        multiarch_dirs: list[str]) -> list[tuple[Origin, str]]:
    """(stage, directory) pairs in loader precedence order.

    DT_RPATH only applies when DT_RUNPATH is absent; that flip is the
    whole reason the two tags exist side by side. ldso_dirs and
    multiarch_dirs are parse_ldso_conf's and discover_multiarch_dirs'
    answers for the tree, read once per Resolver.
    """
    stages: list[tuple[Origin, str]] = []
    if summary.rpath is not None and summary.runpath is None:
        stages += [(Origin.RPATH, d)
                   for d in _split_search_value(summary.rpath, dependent_dir)]
    stages += [(Origin.ENV_PATH, d) for d in config.env_library_path]
    if summary.runpath is not None:
        stages += [(Origin.RUNPATH, d)
                   for d in _split_search_value(summary.runpath, dependent_dir)]
    stages += [(Origin.LDSO_CONF, d) for d in ldso_dirs]
    stages += [(Origin.DEFAULT_DIR, d) for d in config.default_dirs]
    stages += [(Origin.DEFAULT_DIR, d) for d in multiarch_dirs]
    return stages


class Resolver:
    """The loader's search for DT_NEEDED names, with per-tree caches.

    The sysroot must not change while an instance is in use; every cache
    below assumes an immutable tree. A scan keeps one instance for the
    whole tree; resolve_needed uses a fresh one per call.
    """

    def __init__(self, config: SearchConfig):
        self.config = config
        self._ldso_dirs: list[str] | None = None
        self._multiarch: list[str] | None = None
        self._resolution_cache: dict[tuple[str, str | None, str | None, str],
                                     Resolution] = {}
        self._dir_cache: dict[str, str | None] = {}

    def ldso_dirs(self) -> list[str]:
        if self._ldso_dirs is None:
            self._ldso_dirs = parse_ldso_conf(self.config)
        return self._ldso_dirs

    def multiarch_dirs(self) -> list[str]:
        if self._multiarch is None:
            self._multiarch = discover_multiarch_dirs(self.config)
        return self._multiarch

    def canonical_dir(self, directory: str) -> str | None:
        """Cached directory canonicalization; None for symlink loops."""
        hit = self._dir_cache.get(directory, "")
        if hit != "":
            return hit
        try:
            canonical = canonicalize_in_sysroot(directory, self.config)
        except SymlinkLoop:
            canonical = None
        self._dir_cache[directory] = canonical
        return canonical

    def canonical_file_stat(self, path: str) -> tuple[str | None, os.stat_result | None]:
        """(canonical path, stat) with one syscall in the common case.

        canonical None means a symlink loop; stat None means nothing exists
        at the canonical location.
        """
        directory, name = posixpath.split(path)
        canonical_dir = self.canonical_dir(directory or "/")
        if canonical_dir is None:
            return None, None
        if not name or name in (".", ".."):
            try:
                canonical = canonicalize_in_sysroot(path, self.config)
            except SymlinkLoop:
                return None, None
            return canonical, self._stat(canonical)
        joined = posixpath.join(canonical_dir, name)
        try:
            st = os.lstat(_host_path(self.config, joined))
        except OSError:
            return joined, None
        if not stat_module.S_ISLNK(st.st_mode):
            return joined, st
        try:
            canonical = canonicalize_in_sysroot(joined, self.config)
        except SymlinkLoop:
            return None, None
        return canonical, self._stat(canonical)

    def _stat(self, canonical: str) -> os.stat_result | None:
        try:
            return os.stat(_host_path(self.config, canonical))
        except OSError:
            return None

    def _probe(self, directory: str, name: str) -> str | None:
        canonical, st = self.canonical_file_stat(posixpath.join(directory, name))
        if canonical is not None and st is not None and stat_module.S_ISREG(st.st_mode):
            return canonical
        return None

    def resolve(self, needed_name: str, summary: ElfSummary,
                dependent_path: str) -> Resolution:
        dependent_dir = posixpath.dirname(dependent_path) or "/"
        key = (needed_name, summary.rpath, summary.runpath, dependent_dir)
        hit = self._resolution_cache.get(key)
        if hit is not None:
            return hit
        if "/" in needed_name:
            # opened as given, relative to the dependent's directory
            stages = [(Origin.DIRECT, dependent_dir)]
        else:
            stages = build_search_stages(summary, dependent_dir, self.config,
                                         self.ldso_dirs(), self.multiarch_dirs())
        result = Resolution(needed_name)
        for origin, directory in stages:
            found = self._probe(directory, needed_name)
            if found is not None:
                result = Resolution(needed_name, found, origin)
                break
        self._resolution_cache[key] = result
        return result


def resolve_needed(needed_name: str, summary: ElfSummary, dependent_path: str,
                   config: SearchConfig) -> Resolution:
    """Find the file a DT_NEEDED entry lands on, or report it missing."""
    return Resolver(config).resolve(needed_name, summary, dependent_path)
