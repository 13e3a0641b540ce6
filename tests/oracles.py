"""Independent oracles the implementation is checked against.

readelf/nm come from binutils and know nothing about this package; the
closure oracle is a dense boolean-matrix fixpoint, deliberately naive; the
canonicalisation oracle is a plain root-to-leaf loop with no memo.
"""

from __future__ import annotations

import os
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
