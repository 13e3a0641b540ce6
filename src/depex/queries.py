"""Interactive-grade queries over one snapshot's graph."""

from __future__ import annotations

from dataclasses import dataclass

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
    p = graph.require(node_id)
    return set(graph.in_src[graph.in_start[p]:graph.in_start[p + 1]])


@dataclass
class UpdateImpact:
    direct: set[int]
    transitive: set[int]
    executables_affected: set[int]


def update_impact(graph: DependencyGraph, node_id: int) -> UpdateImpact:
    """Everything that would feel an update of this library."""
    direct = who_uses(graph, node_id, transitive=False)
    transitive = who_uses(graph, node_id, transitive=True)
    executables = {n for n in transitive if graph.kinds[n] is FileKind.EXECUTABLE_BINARY}
    return UpdateImpact(direct, transitive, executables)


def find_node(graph: DependencyGraph, ref: str) -> int:
    """Resolve a CLI name-or-path argument to a node id.

    Sonames match first; otherwise the argument is a canonical path or a
    path suffix on a component boundary. More than one hit is an error
    that lists the candidates.
    """
    by_soname = [p for p, soname in enumerate(graph.sonames) if soname == ref]
    if len(by_soname) == 1:
        return by_soname[0]
    if len(by_soname) > 1:
        raise AmbiguousName(ref, sorted(graph.paths[p] for p in by_soname))
    suffix = "/" + ref.lstrip("/")
    by_path = [p for p, path in enumerate(graph.paths)
               if path == ref or path.endswith(suffix)]
    if len(by_path) == 1:
        return by_path[0]
    if len(by_path) > 1:
        raise AmbiguousName(ref, sorted(graph.paths[p] for p in by_path))
    raise UnknownNode(ref)
