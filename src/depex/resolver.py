"""Dynamic-loader search semantics confined to a sysroot.

All paths handed around here are absolute strings interpreted *inside*
the sysroot; nothing is read outside it (chroot emulation, including
re-rooting of absolute symlink targets). The scanner's walk, the search
probes, ld.so.conf includes and multiarch listings all go through the one
canonicaliser, Resolver.canonical, and the one lister, Resolver.scandir.
Resolver.search_stages alone spells the loader's order, and Resolver.resolve
runs it. A Resolver is the only way in.

Lookups read directory listings, not one lstat per name: a Resolver keeps
each listed directory's names with their d_type and d_ino (Resolver.scandir,
which the scanner's walk calls, lists a directory once); on DT_UNKNOWN,
os.DirEntry makes the lstat. A directory not listed, or not searchable, is
probed by name, one lstat each, as the loader needs only search permission.
The gap: for a file bind-mounted over a name, readdir reports the type and
inode it covers.
"""

from __future__ import annotations

import fnmatch
import logging
import os
import posixpath
import re
import stat as stat_module
from array import array
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from operator import attrgetter

from depex.elf import ElfSummary

log = logging.getLogger(__name__)

DEFAULT_DIRS = ("/lib", "/usr/lib", "/lib64", "/usr/lib64")
LDSO_CONF_PATH = "/etc/ld.so.conf"
MAX_LINK_TRAVERSALS = 40  # mirrors the kernel/loader loop limit


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


# $ORIGIN or ${ORIGIN}; unbraced, a name that goes on is no token (is_dst in glibc)
_ORIGIN = re.compile(r"\$(?:\{ORIGIN\}|ORIGIN(?![A-Za-z0-9_]))")


def _split_search_value(raw: str | None, dependent_dir: str) -> list[str]:
    """The absolute directories of an RPATH or RUNPATH value (None: no such
    tag), $ORIGIN and ${ORIGIN} expanded to the dependent file's directory
    in one left-to-right pass, as the loader does, so a token that the
    directory itself spells stays as it is. The loader reads an element
    that is still relative after that against the process's working
    directory, which a scan cannot know: it is dropped."""
    return [d for d in (_ORIGIN.sub(lambda _: dependent_dir, elem)
                        for elem in (raw or "").split(":")) if d.startswith("/")]


class Resolver:
    """The loader's search for the DT_NEEDED names of a dependent file,
    given its ElfSummary and path, and the one canonicaliser for walk
    spellings, search candidates, includes and multiarch listings.

    The memo and caches assume the tree does not change while an instance
    is in use. A scan keeps one; a fresh look at the tree takes a new one."""

    def __init__(self, config: SearchConfig):
        self.config = config
        self._host = config.sysroot.rstrip("/")
        self._resolution_cache: dict[tuple[str, str | None, str | None, str],
                                     Resolution] = {}
        # normalised spelling -> canonical's answer for it
        self._memo: dict[str, tuple[str | None, int, int] | None] = {
            "/": ("/", 0, stat_module.S_IFDIR)}
        # canonical directory -> {name: S_IFLNK, S_IFDIR, S_IFREG or 0 for
        # any other type}, None for one that is not searchable; -> its d_ino list
        self._listings: dict[str, dict[str, int] | None] = {}
        self._inodes: dict[str, array] = {}

    def canonical(self, path: str, spent: int = 0
                  ) -> tuple[str | None, int, int] | None:
        """(canonical spelling of path, links it follows, the st_mode type
        of what is there, 0 for nothing); None for a loop, and a canonical
        spelling of None when there is no such path.

        Link targets are resolved against the canonical parent; absolute
        ones are re-rooted under the sysroot, and ".." clamps at it. A
        missing or non-directory component passes through lexically while
        only names follow it, since nothing exists below it; a ".", a ".."
        or a trailing "/" after it makes no such path, where the kernel
        fails with ENOENT or ENOTDIR (path_resolution(7)) instead of
        dropping or cancelling the component. As in the
        kernel, a lookup that follows more than MAX_LINK_TRAVERSALS links,
        counted over the whole path, is a loop; spent is what an enclosing
        lookup has followed already. Only following a link recurses, so the
        depth is bounded by the limit. A name in a directory that
        Resolver.scandir has listed is looked up in that listing, not lstat.
        """
        memo = self._memo
        key, parts = path, []
        if key not in memo:  # start from the longest known prefix, most often the parent
            parts = ["."] * path.endswith("/")  # no key but "/" has "//" or an end "/"
            while key not in memo:
                key, _, name = key.rpartition("/")
                key = key or "/"
                parts.append(name)
            parts = [p for p in reversed(parts) if p]
        hit = memo[key]
        if hit is None or spent + hit[1] > MAX_LINK_TRAVERSALS:
            return None
        canonical, links, mode = hit
        if canonical is None:
            return hit
        for name in parts:  # keys and canonical paths end in "/" only at the root
            key = f"{key.rstrip('/')}/{name}"
            if name in (".", ".."):
                if not stat_module.S_ISDIR(mode):
                    memo[key] = hit = (None, links, 0)
                    return hit
                if name == "..":
                    canonical = posixpath.dirname(canonical)
            else:
                parent, canonical = canonical, f"{canonical.rstrip('/')}/{name}"
                # nothing is below a missing component or a non-directory
                listing = self._listings.get(parent) if stat_module.S_ISDIR(mode) else {}
                try:
                    mode = (os.lstat(self._host + canonical).st_mode if listing is None
                            else listing.get(name, 0))
                    target = (os.readlink(self._host + canonical)
                              if stat_module.S_ISLNK(mode) else None)
                except (OSError, ValueError):  # nothing there; ValueError: a NUL byte
                    mode, target = 0, None
                if target is not None:
                    memo[key] = None  # met again while following it: a loop
                    hit = (self.canonical(posixpath.join(parent, target), spent + links + 1)
                           if spent + links < MAX_LINK_TRAVERSALS else None)
                    if hit is None:
                        if spent:  # the enclosing lookup's budget may be what ran out
                            del memo[key]
                        return None
                    canonical, links, mode = hit[0], links + 1 + hit[1], hit[2]
                    if canonical is None:
                        memo[key] = hit = (None, links, 0)
                        return hit
            memo[key] = (canonical, links, mode)
        return canonical, links, mode

    def canonical_file_stat(self, path: str) -> tuple[str | None, os.stat_result | None]:
        """(canonical path, stat) of what path names, links followed.
        canonical None means a symlink loop; stat None, nothing at the
        canonical path, which is path itself when there is no such path."""
        hit = self.canonical(path)
        if hit is None:
            return None, None
        if hit[0] is None:
            return path, None
        try:
            return hit[0], os.stat(self._host + hit[0])
        except (OSError, ValueError):
            return hit[0], None

    def scandir(self, directory: str) -> tuple[dict[str, int], array, bool]:
        """(types, inodes, searchable): each name's type from readdir(3), in
        name order, the type S_IFLNK, S_IFDIR, S_IFREG or 0; their inodes in
        that order; and whether names in it can be stat'd, kept for lookups
        and later calls only then. OSError if the directory cannot be listed."""
        if self._listings.get(directory) is not None:
            return self._listings[directory], self._inodes[directory], True
        with os.scandir(self._host + directory) as it:
            entries = sorted(it, key=attrgetter("name"))
        types = {e.name: stat_module.S_IFREG if e.is_file(follow_symlinks=False)
                 else stat_module.S_IFLNK if e.is_symlink()
                 else stat_module.S_IFDIR if e.is_dir(follow_symlinks=False)
                 else 0 for e in entries}
        inodes = array("Q", [e.inode() for e in entries])
        searchable = os.access(self._host + directory, os.X_OK)
        self._listings[directory] = types if searchable else None
        self._inodes[directory] = inodes
        return types, inodes, searchable

    def _names(self, path: str) -> list[str]:
        """Sorted names in the directory path spells: a kept listing, or scandir's."""
        hit = self.canonical(path)
        if not hit or not stat_module.S_ISDIR(hit[2]):
            return []
        try:
            return list(self.scandir(hit[0])[0])
        except (OSError, ValueError):  # unreadable, or a NUL byte
            return []

    def ldso_dirs(self) -> list[str]:
        """Directories listed by ld.so.conf inside the sysroot, includes
        expanded, each file read once and each directory kept at its first
        line: a later duplicate could find nothing the first one missed."""
        dirs: dict[str, None] = {}
        self._read_ldso_conf(LDSO_CONF_PATH, (), set(), dirs)
        return list(dirs)

    def _read_ldso_conf(self, conf_path: str, chain: tuple[str, ...], done: set[str],
                        dirs: dict[str, None]) -> None:
        hit = self.canonical(conf_path)
        if hit is None or hit[0] in chain:
            # a diamond include is legal and adds nothing new; only a true cycle warns
            log.warning("cyclic include or symlink loop at %s in ld.so.conf; "
                        "continuing with directories gathered so far", conf_path)
            return
        if hit[0] in done or not stat_module.S_ISREG(hit[2]):  # read, missing, or a FIFO
            return
        chain = chain + (hit[0],)
        done.add(hit[0])
        try:
            with open(self._host + hit[0], encoding="utf-8",
                      errors="surrogateescape") as f:
                lines = f.readlines()
        except (OSError, ValueError):
            return
        for line in lines:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if line.startswith("include") and line[7:8] in (" ", "\t"):
                # as ldconfig, each blank-separated pattern of the line
                for pattern in filter(None, line[8:].replace("\t", " ").split(" ")):
                    pattern = posixpath.join(posixpath.dirname(conf_path), pattern)
                    for match in self._glob(pattern):
                        self._read_ldso_conf(match, chain, done, dirs)
            elif line.startswith("/"):  # a relative line names no fixed directory
                dirs.setdefault(line)

    def _glob(self, pattern: str) -> list[str]:
        """Sorted spellings an include pattern matches, one component at a
        time, so that every directory is listed inside the sysroot."""
        matches = ["/"]
        for part in pattern.split("/"):
            if not any(c in part for c in "*?["):
                matches = [posixpath.join(m, part) for m in matches]
            else:  # as glob(3): a wildcard matches a leading "." only if part has one
                matches = [posixpath.join(m, name) for m in matches
                           for name in fnmatch.filter(self._names(m), part)
                           if part[0] == "." or name[0] != "."]
        return sorted(matches)

    def multiarch_dirs(self) -> list[str]:
        """Triplet subdirectories of /lib and /usr/lib that hold shared objects."""
        return [subdir for parent in ("/lib", "/usr/lib")
                for subdir in (posixpath.join(parent, e) for e in self._names(parent))
                if any(name.startswith("lib") and ".so" in name
                       for name in self._names(subdir))]

    def search_stages(self, needed_name: str, summary: ElfSummary,
                      dependent_dir: str) -> list[tuple[Origin, str]]:
        """(stage, directory) pairs in loader precedence order, read from
        summary, the dependent's ElfSummary; a name with '/' is opened as
        given, relative to the dependent's directory, and DT_RPATH applies
        only when DT_RUNPATH is absent."""
        if "/" in needed_name:
            return [(Origin.DIRECT, dependent_dir)]
        rpath = summary.rpath if summary.runpath is None else None
        return ([(Origin.RPATH, d) for d in _split_search_value(rpath, dependent_dir)]
                + [(Origin.ENV_PATH, d) for d in self.config.env_library_path]
                + [(Origin.RUNPATH, d)
                   for d in _split_search_value(summary.runpath, dependent_dir)]
                + self._tail)

    @cached_property
    def _tail(self) -> list[tuple[Origin, str]]:
        """ld.so.conf, default and multiarch stages, read from the tree once."""
        return ([(Origin.LDSO_CONF, d) for d in self.ldso_dirs()]
                + [(Origin.DEFAULT_DIR, d)
                   for d in [*self.config.default_dirs, *self.multiarch_dirs()]])

    def resolve(self, needed_name: str, summary: ElfSummary,
                dependent_path: str) -> Resolution:
        """Where the loader finds needed_name for the file at dependent_path,
        whose ElfSummary is summary; answers are kept per search key."""
        # only $ORIGIN and a name with '/' read the dependent's directory
        rpath, runpath = summary.rpath, summary.runpath
        reads_dir = "/" in needed_name or "$" in (rpath or "") or "$" in (runpath or "")
        key = (needed_name, rpath, runpath,
               posixpath.dirname(dependent_path) if reads_dir else None)
        hit = self._resolution_cache.get(key)
        if hit is not None:
            return hit
        result = Resolution(needed_name)
        for origin, directory in self.search_stages(
                needed_name, summary, posixpath.dirname(dependent_path) or "/"):
            # only a regular file ends the search: a directory, a FIFO or a
            # dangling or looping link named like the library is skipped
            hit = self.canonical(posixpath.join(directory, needed_name))
            if hit is not None and stat_module.S_ISREG(hit[2]):
                result = Resolution(needed_name, hit[0], origin)
                break
        self._resolution_cache[key] = result
        return result
