"""Interactive-grade queries over one snapshot's graph."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import eq

from depex.elf import FileKind
from depex.resolver import Resolution
from depex.store import DependencyGraph, UnknownNode


class AmbiguousName(Exception):
    """A name argument matched more than one node."""

    def __init__(self, name: str, candidates: list[str]):
        super().__init__(f"{name!r} is ambiguous: {', '.join(candidates)}")
        self.name = name
        self.candidates = candidates


def get_deps(graph: DependencyGraph, node_id: int) -> list[tuple[str, Resolution]]:
    """Direct dependencies in import-table order."""
    p = graph.require(node_id)
    out = []
    for e in range(graph.out_start[p], graph.out_start[p + 1]):
        name, d = graph.names[e], graph.dst[e]
        res = Resolution(name) if d < 0 else Resolution(name, graph.paths[d], graph.origins[e])
        out.append((name, res))
    return out


def get_all_deps(graph: DependencyGraph, node_id: int) -> set[int]:
    """Transitive closure over resolved edges; never contains the start node."""
    return graph.reachable_from(node_id)


def who_uses(graph: DependencyGraph, node_id: int, transitive: bool = False) -> set[int]:
    """Files that depend on this one, directly or through any chain."""
    if transitive:
        return graph.reverse_reachable(node_id)
    edges = compress(count(), map(eq, graph.dst, repeat(graph.require(node_id))))  # no reverse CSR
    return {bisect_right(graph.out_start, e) - 1 for e in edges}  # each edge's source


@dataclass
class UpdateImpact:
    direct: set[int]
    transitive: set[int]
    executables_affected: set[int]


def update_impact(graph: DependencyGraph, node_id: int) -> UpdateImpact:
    """Everything that would feel an update of this library."""
    transitive = who_uses(graph, node_id, transitive=True)
    start = graph.in_start  # built for the transitive set: the direct one is its slice
    direct = set(graph.in_src[start[node_id]:start[node_id + 1]])
    executables = {n for n in transitive if graph.kinds[n] is FileKind.EXECUTABLE_BINARY}
    return UpdateImpact(direct, transitive, executables)


def find_node(graph: DependencyGraph, ref: str) -> int:
    """Resolve a CLI name-or-path argument to a node id.

    Sonames match first; otherwise the argument is a canonical path or a
    path suffix on a component boundary. More than one hit is an error
    that lists the candidates.
    """
    sonames, paths = graph.sonames, graph.paths
    if sonames.count(ref) == 1:
        return sonames.index(ref)
    if ref in sonames:  # more than once
        raise AmbiguousName(ref, sorted(compress(paths, map(eq, sonames, repeat(ref)))))
    suffix = "/" + ref.lstrip("/")
    by_path = list(compress(range(len(paths)), map(str.endswith, paths, repeat(suffix))))
    if not ref.startswith("/") and ref in paths:  # a relative path matches only whole
        by_path.append(paths.index(ref))
    if len(by_path) == 1:
        return by_path[0]
    if len(by_path) > 1:
        raise AmbiguousName(ref, sorted(paths[p] for p in by_path))
    raise UnknownNode(ref)
