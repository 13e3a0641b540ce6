"""Independent oracles the implementation is checked against.

readelf/nm come from binutils and know nothing about this package; the
closure oracle is a dense boolean-matrix fixpoint, deliberately naive; the
canonicalisation oracle is a plain root-to-leaf loop with no memo; the
resolution oracle walks ld.so(8)'s search order on top of it, with its own
ld.so.conf reader and directory listings.
"""

from __future__ import annotations

import fnmatch
import os
import posixpath
import re
import shutil
import subprocess
from collections import deque

READELF = shutil.which("readelf")


def readelf_dynamic(path: str) -> dict:
    """needed/soname/rpath/runpath as readelf -d reports them."""
    out = subprocess.run([READELF, "-d", path], capture_output=True,
                         text=True, check=True).stdout
    info = {
        "needed": re.findall(r"\(NEEDED\)\s+Shared library: \[(.*?)\]", out),
        "soname": None,
        "rpath": None,
        "runpath": None,
    }
    m = re.search(r"\(SONAME\)\s+Library soname: \[(.*?)\]", out)
    if m:
        info["soname"] = m.group(1)
    m = re.search(r"\(RPATH\)\s+Library rpath: \[(.*?)\]", out)
    if m:
        info["rpath"] = m.group(1)
    m = re.search(r"\(RUNPATH\)\s+Library runpath: \[(.*?)\]", out)
    if m:
        info["runpath"] = m.group(1)
    return info


NO_SUCH_PATH = "no such path"  # never a canonical spelling: not absolute


def canonical_reference(sysroot: str, path: str) -> str | None:
    """path's canonical spelling inside sysroot, None for a symlink loop, or
    NO_SUCH_PATH.

    Root to leaf, one islink per component: a link's target components
    are spliced in front of the pending ones, an absolute target restarts
    at the root and ".." clamps there. Nonexistent components pass through
    lexically, but a ".", a ".." or a trailing "/" (in the path or in a
    link's target) after a component that is no directory is NO_SUCH_PATH
    (ENOENT or ENOTDIR in the kernel). More than 40 links in the whole
    lookup is a loop, as in Linux path_resolution(7).
    """
    pending = deque(_components(path))
    resolved: list[str] = []
    links = 0
    while pending:
        comp = pending.popleft()
        if comp in (".", ".."):
            if not os.path.isdir(os.path.join(sysroot, *resolved)):
                return NO_SUCH_PATH
            if comp == ".." and resolved:
                resolved.pop()
            continue
        host_path = os.path.join(sysroot, *resolved, comp)
        if not os.path.islink(host_path):
            resolved.append(comp)
            continue
        links += 1
        if links > 40:
            return None
        target = os.readlink(host_path)
        if target.startswith("/"):
            resolved = []
        pending.extendleft(reversed(_components(target)))
    return "/" + "/".join(resolved)


def _components(path: str) -> list[str]:
    """path's components, a trailing "/" read as a last "." (it too needs
    a directory before it)."""
    return [p for p in path.split("/") if p] + ["."] * path.endswith("/")


def resolve_reference(sysroot: str, needed: str, rpath: str | None, runpath: str | None,
                      dependent_dir: str, config) -> tuple[str | None, str | None]:
    """(canonical path, stage) of the first regular file named needed that
    ld.so(8)'s search order meets inside sysroot; (None, None) for none.

    $ORIGIN and ${ORIGIN} in needed are expanded as in an RPATH element
    below (glibc's dl-deps.c), and if needed then holds "/", once more
    (_dl_map_object), and it is opened as given, relative to dependent_dir,
    and nothing else. Otherwise the stages run in ld.so(8)'s order: DT_RPATH
    (only without DT_RUNPATH), LD_LIBRARY_PATH (config.env_library_path),
    DT_RUNPATH, the cache (read here, as depex does, as the directories
    that /etc/ld.so.conf and its includes list) and the default
    directories (config.default_dirs, then every subdirectory of /lib and
    /usr/lib that holds a lib*.so* file). In an RPATH or RUNPATH element,
    $ORIGIN and ${ORIGIN} name dependent_dir, in one pass, and $ORIGIN
    followed by a letter, digit or "_" is no token (is_dst in glibc's
    elf/dl-load.c); an element that is still relative is skipped. As in
    ldconfig, an include line may list several blank-separated patterns.
    Stages are the values of depex's Origin.
    """
    needed = _ORIGIN.sub(lambda _: dependent_dir, needed)
    if "/" in needed:
        needed = _ORIGIN.sub(lambda _: dependent_dir, needed)
    for stage, directory in _reference_stages(sysroot, needed, rpath, runpath,
                                              dependent_dir, config):
        path = canonical_reference(sysroot, posixpath.join(directory, needed))
        if path not in (None, NO_SUCH_PATH) and os.path.isfile(sysroot + path):
            return path, stage
    return None, None


def _reference_stages(sysroot, needed, rpath, runpath, dependent_dir, config):
    if "/" in needed:
        yield "direct", dependent_dir
        return
    yield from (("rpath", d) for d in _reference_elements(
        rpath if runpath is None else None, dependent_dir))
    yield from (("env-path", d) for d in config.env_library_path)
    yield from (("runpath", d) for d in _reference_elements(runpath, dependent_dir))
    for directory in _reference_conf(sysroot, "/etc/ld.so.conf", []):
        yield "ldso-conf", directory
    for directory in config.default_dirs:
        yield "default-dir", directory
    for parent in ("/lib", "/usr/lib"):
        for name in _reference_listing(sysroot, parent):
            if fnmatch.filter(_reference_listing(sysroot, f"{parent}/{name}"), "lib*.so*"):
                yield "default-dir", f"{parent}/{name}"


_ORIGIN = re.compile(r"\$(\{ORIGIN\}|ORIGIN(?![A-Za-z0-9_]))")


def _reference_elements(value: str | None, dependent_dir: str) -> list[str]:
    """The absolute elements of an RPATH or RUNPATH value, $ORIGIN expanded."""
    elements = [_ORIGIN.sub(lambda _: dependent_dir, e) for e in (value or "").split(":")]
    return [e for e in elements if e.startswith("/")]


def _reference_listing(sysroot: str, path: str) -> list[str]:
    """Sorted names in the directory path spells inside sysroot, or none."""
    canonical = canonical_reference(sysroot, path)
    if canonical in (None, NO_SUCH_PATH) or not os.path.isdir(sysroot + canonical):
        return []
    return sorted(os.listdir(sysroot + canonical))


def _reference_conf(sysroot: str, spelling: str, chain: list[str]) -> list[str]:
    """The directory lines of one ld.so.conf file, includes read in place.
    A file already being read (a cycle) or a link loop adds nothing."""
    canonical = canonical_reference(sysroot, spelling)
    if canonical in (None, NO_SUCH_PATH, *chain) or not os.path.isfile(sysroot + canonical):
        return []
    with open(sysroot + canonical, encoding="utf-8", errors="surrogateescape") as f:
        lines = [line.partition("#")[0].strip() for line in f]
    directories = []
    for line in lines:
        include = re.match(r"include[ \t](.*)", line)
        if include:  # ldconfig reads each blank-separated pattern
            for pattern in re.findall(r"[^ \t]+", include[1]):
                pattern = posixpath.join(posixpath.dirname(spelling), pattern)
                for match in _reference_glob(sysroot, pattern):
                    directories += _reference_conf(sysroot, match, [*chain, canonical])
        elif line.startswith("/"):
            directories.append(line)
    return directories


def _reference_glob(sysroot: str, pattern: str) -> list[str]:
    """glob(3) of pattern inside sysroot: a component with a wildcard is
    matched against its directory's listing, and its leading "." only by
    a leading "."; other components are taken as they are spelt."""
    spellings = ["/"]
    for part in pattern.split("/"):
        if part and any(c in part for c in "*?["):
            spellings = [posixpath.join(s, name) for s in spellings
                         for name in _reference_listing(sysroot, s)
                         if fnmatch.fnmatchcase(name, part)
                         and (part[0] == "." or name[0] != ".")]
        else:
            spellings = [posixpath.join(s, part) for s in spellings]
    return sorted(spellings)


_SYM_LINE = re.compile(
    r"\s*\d+:\s+\S+\s+\S+\s+\S+\s+(?P<bind>\S+)\s+\S+\s+(?P<ndx>\S+)\s+(?P<name>\S+)")


def readelf_dyn_syms(path: str) -> tuple[set[str], set[str], set[str]]:
    """(undefined non-local, exported global/weak, weak undefined) per readelf."""
    out = subprocess.run([READELF, "--dyn-syms", "-W", path], capture_output=True,
                         text=True, check=True).stdout
    undefined: set[str] = set()
    exported: set[str] = set()
    weak_undefined: set[str] = set()
    for line in out.splitlines():
        m = _SYM_LINE.match(line)
        if not m:
            continue
        name = m.group("name").split("@", 1)[0]
        if not name:
            continue
        if m.group("ndx") == "UND":
            if m.group("bind") != "LOCAL":
                undefined.add(name)
                if m.group("bind") == "WEAK":
                    weak_undefined.add(name)
        elif m.group("bind") in ("GLOBAL", "WEAK"):
            exported.add(name)
    undefined -= exported
    weak_undefined &= undefined
    return undefined, exported, weak_undefined


def closure_sets(n: int, pairs: set[tuple[int, int]]) -> list[set[int]]:
    """Per-node reachability by boolean-matrix fixpoint (node itself excluded)."""
    import numpy as np

    adj = np.zeros((n, n), dtype=np.int64)
    for src, dst in pairs:
        adj[src, dst] = 1
    reach = adj.copy()
    while True:
        step = ((reach @ adj) > 0).astype(np.int64) | reach
        if (step == reach).all():
            break
        reach = step
    return [set(np.flatnonzero(reach[i]).tolist()) - {i} for i in range(n)]
