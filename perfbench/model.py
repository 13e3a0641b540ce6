"""Ground truth for the benchmark, computed without depex.

`TreeWriter` writes a synthetic OS tree to disk and records what it
wrote. `expected_scan` then derives, from that record alone, the node and
edge sets a loader-faithful scan must produce: it re-implements the walk,
symlink canonicalisation and library search on the in-memory model, never
on the filesystem. `Graph` answers closure queries and snapshot statistics
with bitset reachability, independently of depex's own DFS.
"""

from __future__ import annotations

import fnmatch
import functools
import hashlib
import os
import posixpath
from dataclasses import dataclass, field

from elfbuild import ElfSpec, build_elf

EXE, LIB, OTHER = "executable", "library", "elf-other"
DEFAULT_DIRS = ("/lib", "/usr/lib", "/lib64", "/usr/lib64")
LDSO_CONF = "/etc/ld.so.conf"


@dataclass(frozen=True)
class ElfFacts:
    kind: str
    soname: str | None
    needed: tuple[str, ...]
    rpath: str | None
    runpath: str | None


def facts_of(spec: ElfSpec) -> ElfFacts:
    """The dynamic-linking facts a spec encodes (ELF gABI e_type rules)."""
    if spec.e_type == 2 or (spec.e_type == 3 and spec.interpreter):
        kind = EXE
    elif spec.e_type == 3:
        kind = LIB
    else:
        kind = OTHER
    if not spec.with_dynamic:
        return ElfFacts(kind, None, (), None, None)
    return ElfFacts(kind, spec.soname, tuple(spec.needed), spec.rpath, spec.runpath)


class TreeWriter:
    """Writes a sysroot and keeps a model of it.

    Offers the `write`/`elf`/`symlink` calls of the test suite's sysroot
    builder, so the suite's demo tree can be replayed through it.
    """

    def __init__(self, root: str):
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)
        self.elves: dict[str, ElfFacts] = {}
        self.plain: dict[str, bytes] = {}  # non-ELF regular files
        self.links: dict[str, str] = {}
        self.dirs: set[str] = {"/"}
        self.bytes_logical = 0

    def _note_parents(self, rel: str) -> None:
        parent = posixpath.dirname(rel)
        while parent not in self.dirs:
            self.dirs.add(parent)
            parent = posixpath.dirname(parent)

    def _put(self, rel: str, data: bytes) -> str:
        path = self.root + rel
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as f:
            f.write(data)
        self._note_parents(rel)
        self.bytes_logical += len(data)
        return path

    def write(self, rel: str, data: bytes) -> str:
        if data[:4] == b"\x7fELF":
            raise ValueError(f"{rel}: write ELF files through elf()")
        self.plain[rel] = data
        return self._put(rel, data)

    def elf(self, rel: str, spec: ElfSpec) -> str:
        self.elves[rel] = facts_of(spec)
        return self._put(rel, build_elf(spec))

    def symlink(self, rel: str, target: str) -> str:
        path = self.root + rel
        os.makedirs(os.path.dirname(path), exist_ok=True)
        os.symlink(target, path)
        self.links[rel] = target
        self._note_parents(rel)
        return path


class _Tree:
    """Path semantics over a TreeWriter's record."""

    def __init__(self, w: TreeWriter):
        self.w = w
        self._entries: dict[tuple[str, str], str | None] = {}
        self.children: dict[str, list[str]] = {}
        for path in (*w.elves, *w.plain, *w.links, *w.dirs):
            if path != "/":
                self.children.setdefault(posixpath.dirname(path), []).append(
                    posixpath.basename(path))
        for names in self.children.values():
            names.sort()

    def canon(self, path: str) -> str | None:
        """Follow symlinks component-wise, re-rooting absolute targets."""
        pending = [p for p in path.split("/") if p and p != "."]
        pending.reverse()
        resolved: list[str] = []
        hops = 0
        while pending:
            comp = pending.pop()
            if comp == "..":
                if resolved:
                    resolved.pop()
                continue
            here = "/" + "/".join(resolved + [comp])
            target = self.w.links.get(here)
            if target is None:
                resolved.append(comp)
                continue
            hops += 1
            if hops > 40:
                return None
            if target.startswith("/"):
                resolved = []
            pending.extend(reversed([p for p in target.split("/") if p and p != "."]))
        return "/" + "/".join(resolved)

    def canon_entry(self, directory: str, name: str) -> str | None:
        """`canon(directory/name)`, memoised: library search asks it often."""
        key = (directory, name)
        if key not in self._entries:
            self._entries[key] = self.canon(posixpath.join(directory, name))
        return self._entries[key]

    def is_dir(self, canonical: str | None) -> bool:
        return canonical in self.w.dirs

    def is_file(self, canonical: str | None) -> bool:
        return canonical in self.w.elves or canonical in self.w.plain

    def walk(self) -> list[str]:
        """Every spelling of every regular file, symlinked dirs followed."""
        out: list[str] = []
        stack = [("/", frozenset())]
        while stack:
            rel, ancestors = stack.pop()
            here = self.canon(rel)
            if here is None or here in ancestors or not self.is_dir(here):
                continue
            ancestors = ancestors | {here}
            subdirs = []
            for name in self.children.get(here, ()):
                child = posixpath.join(rel, name)
                target = self.canon(child)
                if self.is_dir(target):
                    subdirs.append(child)
                elif self.is_file(target):
                    out.append(child)
            stack.extend((s, ancestors) for s in reversed(subdirs))
        return out

    def ldso_dirs(self) -> list[str]:
        dirs: list[str] = []

        def read(conf: str, chain: tuple[str, ...]) -> None:
            canonical = self.canon(conf)
            if canonical in chain or canonical not in self.w.plain:
                return
            chain += (canonical,)
            for line in self.w.plain[canonical].decode().splitlines():
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if line.startswith("include") and line[7:8] in (" ", "\t"):
                    pattern = line[8:].strip()
                    if not pattern.startswith("/"):
                        pattern = posixpath.join(posixpath.dirname(conf), pattern)
                    base, glob = posixpath.split(pattern)
                    for name in sorted(self.children.get(self.canon(base), ())):
                        if fnmatch.fnmatchcase(name, glob):
                            read(posixpath.join(base, name), chain)
                else:
                    dirs.append(line)

        read(LDSO_CONF, ())
        return dirs

    def multiarch_dirs(self) -> list[str]:
        found = []
        for parent in ("/lib", "/usr/lib"):
            for name in self.children.get(self.canon(parent), ()):
                sub = self.canon(posixpath.join(parent, name))
                if self.is_dir(sub) and any(
                        n.startswith("lib") and ".so" in n
                        for n in self.children.get(sub, ())):
                    found.append(posixpath.join(parent, name))
        return found


@dataclass
class ExpectedScan:
    """What `depex scan` must store for a tree."""

    nodes: dict[str, tuple[str, str | None, tuple[str, ...]]]  # path -> kind, soname, aliases
    # (from path, needed name, to path, search stage); to path None = unmet
    edges: list[tuple[str, str, str | None, str | None]]
    files_seen: int

    def kind_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for kind, _, _ in self.nodes.values():
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    def node_digest(self) -> str:
        return digest_nodes(self.nodes)

    def edge_digest(self) -> str:
        return digest_edges(self.edges)

    @functools.cached_property
    def graph(self) -> "Graph":
        return Graph.from_paths(
            {p: (k, s) for p, (k, s, _) in self.nodes.items()}, self.edges)


def digest_nodes(nodes: dict[str, tuple[str, str | None, tuple[str, ...]]]) -> str:
    lines = sorted(f"{p}\t{k}\t{s}\t{','.join(sorted(a))}"
                   for p, (k, s, a) in nodes.items())
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def digest_edges(edges) -> str:
    lines = sorted(f"{e[0]}\t{e[1]}\t{e[2]}" for e in edges)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def expected_scan(w: TreeWriter) -> ExpectedScan:
    tree = _Tree(w)
    spellings: dict[str, list[str]] = {}
    for rel in tree.walk():
        spellings.setdefault(tree.canon(rel), []).append(rel)
    nodes = {
        path: (w.elves[path].kind, w.elves[path].soname,
               tuple(sorted(r for r in rels if r != path)))
        for path, rels in spellings.items() if path in w.elves
    }
    stages = ([("ldso-conf", d) for d in tree.ldso_dirs()]
              + [("default-dir", d) for d in DEFAULT_DIRS]
              + [("default-dir", d) for d in tree.multiarch_dirs()])

    def locate(name: str, facts: ElfFacts, here: str) -> tuple[str | None, str | None]:
        def expand(stage: str, value: str | None) -> list[tuple[str, str]]:
            return [(stage, d.replace("${ORIGIN}", here).replace("$ORIGIN", here))
                    for d in (value or "").split(":") if d]

        if "/" in name:
            search = [("direct", "/" if name.startswith("/") else here)]
        else:
            search = (expand("rpath", facts.rpath) if facts.runpath is None else []) \
                + expand("runpath", facts.runpath) + stages
        for origin, d in search:
            hit = tree.canon_entry(d, name)
            if tree.is_file(hit):
                # the first regular file ends the search; a non-node hit is unmet
                return (hit, origin) if hit in nodes else (None, None)
        return None, None

    edges = []
    for path in sorted(nodes):
        facts = w.elves[path]
        here = posixpath.dirname(path) or "/"
        seen: set[str] = set()
        for name in facts.needed:
            if name not in seen:
                seen.add(name)
                edges.append((path, name, *locate(name, facts, here)))
    return ExpectedScan(nodes, edges, len(spellings))


@dataclass
class Graph:
    """A snapshot's graph by node index, with bitset closures."""

    paths: list[str]
    kinds: list[str]
    sonames: list[str | None]
    # per node, in import order: (needed name, target index, search stage)
    out: list[list[tuple[str, int | None, str | None]]]
    _fwd: list[int] | None = field(default=None, repr=False)
    _rev: list[int] | None = field(default=None, repr=False)

    @classmethod
    def from_paths(cls, nodes: dict[str, tuple[str, str | None]],
                   edges: list[tuple[str, str, str | None, str | None]]) -> "Graph":
        paths = sorted(nodes)
        index = {p: i for i, p in enumerate(paths)}
        out: list[list[tuple[str, int | None, str | None]]] = [[] for _ in paths]
        for src, name, dst, origin in edges:
            out[index[src]].append(
                (name, None if dst is None else index[dst], origin))
        return cls(paths, [nodes[p][0] for p in paths],
                   [nodes[p][1] for p in paths], out)

    def __len__(self) -> int:
        return len(self.paths)

    def edge_count(self) -> int:
        return sum(len(o) for o in self.out)

    def _closure(self, succ: list[list[int]]) -> list[int]:
        """Reachability bitsets (start node excluded) over an acyclic graph."""
        n = len(succ)
        indeg = [0] * n
        for targets in succ:
            for t in targets:
                indeg[t] += 1
        order = [i for i in range(n) if indeg[i] == 0]
        for i in order:
            for t in succ[i]:
                indeg[t] -= 1
                if indeg[t] == 0:
                    order.append(t)
        if len(order) != n:
            raise ValueError("benchmark graphs are acyclic by construction")
        reach = [0] * n
        for i in reversed(order):
            bits = 0
            for t in succ[i]:
                bits |= reach[t] | (1 << t)
            reach[i] = bits
        return reach

    def forward(self) -> list[int]:
        if self._fwd is None:
            self._fwd = self._closure(
                [sorted({t for _, t, _ in o if t is not None}) for o in self.out])
        return self._fwd

    def reverse(self) -> list[int]:
        if self._rev is None:
            rev: list[set[int]] = [set() for _ in self.paths]
            for src, o in enumerate(self.out):
                for _, t, _ in o:
                    if t is not None:
                        rev[t].add(src)
            self._rev = self._closure([sorted(r) for r in rev])
        return self._rev

    def bits_to_paths(self, bits: int) -> list[str]:
        out = []
        while bits:
            low = bits & -bits
            out.append(self.paths[low.bit_length() - 1])
            bits ^= low
        return out  # already sorted: paths are in index order

    def stats(self) -> dict:
        """The `depex stats --json` document."""
        population = [i for i, k in enumerate(self.kinds) if k in (EXE, LIB)]
        fwd = self.forward()
        directs = [len(self.out[i]) for i in population]
        recursives = [fwd[i].bit_count() for i in population]
        resolved_names = {n for o in self.out for n, t, _ in o if t is not None}
        missing = {n for o in self.out for n, t, _ in o if t is None} - resolved_names
        has_users = {t for o in self.out for _, t, _ in o if t is not None}
        unused = sum(1 for i, k in enumerate(self.kinds)
                     if k == LIB and i not in has_users)
        count = len(population)
        executables = sum(1 for i in population if self.kinds[i] == EXE)
        return {
            "executables": executables,
            "libraries": count - executables,
            "dependencies": self.edge_count(),
            "missing": len(missing),
            "unused": unused,
            "avg_direct": round(sum(directs) / count, 2) if count else 0.0,
            "avg_recursive": round(sum(recursives) / count, 2) if count else 0.0,
            "max_direct": max(directs, default=0),
            "max_recursive": max(recursives, default=0),
        }

    def trend_row(self, label: str) -> dict:
        s = self.stats()
        return {
            "label": label, "executables": s["executables"],
            "libraries": s["libraries"], "files_total": len(self),
            "dependencies": s["dependencies"], "missing": s["missing"],
            "unused": s["unused"],
            "unused_fraction": round(s["unused"] / s["libraries"], 4)
            if s["libraries"] else 0.0,
            "avg_direct": s["avg_direct"], "avg_recursive": s["avg_recursive"],
            "max_direct": s["max_direct"], "max_recursive": s["max_recursive"],
        }

    def users(self) -> list[set[int]]:
        """Per node, the nodes with a resolved edge to it."""
        users: list[set[int]] = [set() for _ in self.paths]
        for src, o in enumerate(self.out):
            for _, t, _ in o:
                if t is not None:
                    users[t].add(src)
        return users

    def depth(self) -> int:
        """Longest resolved dependency chain, in edges."""
        fwd_succ = [sorted({t for _, t, _ in o if t is not None}) for o in self.out]
        memo: list[int] = [-1] * len(self.paths)
        for start in range(len(self.paths)):
            stack = [start]
            while stack:
                i = stack[-1]
                pending = [t for t in fwd_succ[i] if memo[t] < 0]
                if pending:
                    stack.extend(pending)
                    continue
                stack.pop()
                memo[i] = 1 + max((memo[t] for t in fwd_succ[i]), default=-1)
        return max(memo, default=0)
