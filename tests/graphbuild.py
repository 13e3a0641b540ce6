"""In-memory graph factories for metric/query tests (no filesystem involved)."""

from __future__ import annotations

import random

from depex.elf import FileKind
from depex.resolver import Origin
from depex.store import DependencyEdge, DependencyGraph, Snapshot

EXE = FileKind.EXECUTABLE_BINARY
LIB = FileKind.SHARED_LIBRARY

_SNAP = Snapshot(1, "test", "/", "1970-01-01T00:00:00+00:00", "0")


def build_graph(nodes, edges, aliases=()) -> DependencyGraph:
    """nodes: list of (path, kind) or (path, kind, soname), ids by position.

    edges: (from_id, needed_name, to_id) with to_id None for a missing ref;
    their ids are positions once grouped by source, each source's in order.
    aliases: (node_id, alias_path) pairs, stored in the given order.
    """
    edges = sorted(edges, key=lambda edge: edge[0])  # stable: import-table order kept
    degrees = [0] * len(nodes)
    for src, _, _ in edges:
        degrees[src] += 1
    return DependencyGraph(
        _SNAP, [spec[0] for spec in nodes], [spec[1] for spec in nodes],
        [spec[2] if len(spec) > 2 else None for spec in nodes], [0] * len(nodes),
        [p for p, _ in aliases], [alias for _, alias in aliases],
        degrees, [name for _, name, _ in edges],
        [-1 if dst is None else dst for _, _, dst in edges],
        [None if dst is None else Origin.DEFAULT_DIR for _, _, dst in edges])


def edge_sources(graph: DependencyGraph) -> list[int]:
    """Each edge's source node id, read off out_start's per-node ranges."""
    start = graph.out_start
    return [p for p in range(len(graph.paths)) for _ in range(start[p], start[p + 1])]


def edge_records(graph: DependencyGraph) -> list[DependencyEdge]:
    """Every edge as a new record, by source in import-table order."""
    return [edge for out in graph.adjacency.values() for edge in out]


def random_graph(rng: random.Random, max_nodes: int = 50,
                 max_density: float = 0.3) -> tuple[DependencyGraph, int, set[tuple[int, int]]]:
    """Random digraph (cycles allowed) plus its raw edge set for oracles."""
    n = rng.randint(1, max_nodes)
    density = rng.uniform(0.0, max_density)
    pairs = set()
    for src in range(n):
        for dst in range(n):
            if src != dst and rng.random() < density:
                pairs.add((src, dst))
    nodes = [(f"/n/{i:03d}", LIB if rng.random() < 0.6 else EXE) for i in range(n)]
    edges = [(src, f"lib{dst}.so", dst) for src, dst in sorted(pairs)]
    # sprinkle a few unresolved references
    for src in range(n):
        if rng.random() < 0.1:
            edges.append((src, f"ghost{src}.so", None))
    return build_graph(nodes, edges), n, pairs
