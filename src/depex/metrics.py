"""Coupling, popularity and health statistics over a loaded graph.

Direct coupling is what a developer sees in the import table; recursive
coupling is the whole iceberg underneath it. Everything here is read-only
over an immutable graph and safe to call concurrently.

One node's recursive coupling is one DFS, O(V + E). For a whole snapshot,
closure_sizes condenses the imported core (the nodes something imports)
into strongly connected components (Tarjan 1972) and propagates
reachability bitsets over the condensation in reverse topological order
(Purdom 1970; Nuutila 1995); only the core's nodes get bits. Each
never-imported node then costs one OR per out-edge, not one DFS.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import compress, count, repeat
from operator import is_, is_not, not_

from depex.elf import FileKind
from depex.store import DependencyGraph


def closure_sizes(graph: DependencyGraph) -> dict[int, int]:
    """Recursive coupling of every node, in two passes over the graph: how
    many distinct files each reaches through resolved edges, never itself,
    as len(graph.reachable_from(p)) counts them for one node p.

    First the imported core, the nodes with a resolved in-edge, which holds
    every edge target. There Tarjan's SCC, iterative so deep chains cannot
    hit the recursion limit, emits each component after every component it
    reaches. Its members get contiguous bits; its reach is an int bitset of
    those bits OR the reach of each component it has an edge into, and a
    member's closure size is that popcount minus one. A reach is dropped
    once the last edge into its component has been read. Then each
    never-imported node, with no bit and no Tarjan state, gets the popcount
    of the OR of its targets' reaches, kept alive by its unread edges.
    """
    n, start, dst, in_start = len(graph.paths), graph.out_start, graph.dst, graph.in_start
    succ = [[d for d in dst[start[p]:start[p + 1]] if d >= 0]
            if in_start[p] != in_start[p + 1] else None for p in range(n)]
    index = [-1] * n      # discovery order; -1 until visited
    low = [0] * n
    component = [-1] * n  # visited and still -1: on the Tarjan stack
    stack: list[int] = []
    unread: list[int] = []       # per component: edges into it not yet read
    reach: dict[int, int] = {}   # per component with unread edges
    sizes = [0] * n
    discovered = 0
    next_bit = 0
    for root in range(n):
        if index[root] >= 0 or in_start[root] == in_start[root + 1]:
            continue
        index[root] = low[root] = discovered
        discovered += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, targets = work[-1]
            for w in targets:
                if index[w] < 0:
                    index[w] = low[w] = discovered
                    discovered += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if component[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] != index[v]:
                    continue
                c = len(unread)
                members, into = [], 0
                while True:
                    w = stack.pop()
                    component[w] = c
                    members.append(w)
                    into += in_start[w + 1] - in_start[w]
                    if w == v:
                        break
                reached = 0  # all outside the component: the condensation is acyclic
                for m in members:
                    for w in succ[m]:
                        d = component[w]
                        if d == c:
                            into -= 1
                            continue
                        reached |= reach[d]
                        unread[d] -= 1
                        if not unread[d]:
                            del reach[d]
                unread.append(into)
                if into:
                    reach[c] = reached | ((1 << len(members)) - 1) << next_bit
                next_bit += len(members)
                size = reached.bit_count() + len(members) - 1
                for m in members:
                    sizes[m] = size
    for p in range(n):
        if in_start[p] == in_start[p + 1]:
            reached = 0
            for d in dst[start[p]:start[p + 1]]:
                if d >= 0:
                    reached |= reach[component[d]]
            sizes[p] = reached.bit_count()
    return dict(enumerate(sizes))


def popularity(graph: DependencyGraph) -> dict[int, int]:
    """Per node: how many distinct files import it directly."""
    start, sources = graph.in_start, graph.in_src
    return {p: len(set(sources[start[p]:start[p + 1]])) for p in range(len(graph.paths))}


@dataclass
class HealthReport:
    missing_names: set[str]
    directly_impacted: set[int]
    unused_libraries: set[int]


def health(graph: DependencyGraph) -> HealthReport:
    names, kinds, start, out_start = graph.names, graph.kinds, graph.in_start, graph.out_start
    unresolved = [d < 0 for d in graph.dst]
    resolved_names = set(compress(names, map(not_, unresolved)))
    libraries = compress(range(len(kinds)), map(is_, kinds, repeat(FileKind.SHARED_LIBRARY)))
    return HealthReport(set(compress(names, unresolved)) - resolved_names,
                        {bisect_right(out_start, e) - 1 for e in compress(count(), unresolved)},
                        {p for p in libraries if start[p] == start[p + 1]})


@dataclass
class StatsSummary:
    executables: int
    libraries: int
    dependencies: int
    missing: int
    unused: int
    avg_direct: float
    avg_recursive: float
    max_direct: int
    max_recursive: int


def stats_summary(graph: DependencyGraph) -> StatsSummary:
    """Snapshot-level aggregate; averages span executables and libraries.

    Recursive coupling comes from closure_sizes: O(V + E) plus one OR of
    at most core-size bits per edge, not a DFS per node at O(V * (V + E)).
    """
    kinds = graph.kinds
    population = list(compress(range(len(kinds)), map(is_not, kinds, repeat(FileKind.ELF_OTHER))))
    report = health(graph)
    directs = list(map(graph.degrees.__getitem__, population))
    recursives = list(map(closure_sizes(graph).__getitem__, population))
    return StatsSummary(
        executables=kinds.count(FileKind.EXECUTABLE_BINARY),
        libraries=kinds.count(FileKind.SHARED_LIBRARY),
        dependencies=len(graph.names),
        missing=len(report.missing_names),
        unused=len(report.unused_libraries),
        avg_direct=round(sum(directs) / len(population), 2) if population else 0.0,
        avg_recursive=round(sum(recursives) / len(population), 2) if population else 0.0,
        max_direct=max(directs, default=0),
        max_recursive=max(recursives, default=0),
    )
