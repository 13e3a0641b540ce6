"""DOT emission with popularity filtering.

Output is deterministic byte-for-byte: nodes sort by canonical path,
edges follow import-table order within each source node. Hiding the few
hyper-popular libraries is what turns the full-system hairball into
something a human can read.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from depex.elf import FileKind
from depex.metrics import popularity
from depex.store import DependencyGraph

_SHAPES = {FileKind.EXECUTABLE_BINARY: "box"}  # every other node is an ellipse


@dataclass
class DotOptions:
    hide_top_k: int = 0
    hide_names: list[str] = field(default_factory=list)
    roots: list[int] | None = None


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def dot_chunks(graph: DependencyGraph, options: DotOptions | None = None) -> Iterator[str]:
    """The DOT text in chunks: the header, the node declarations, the
    missing-name declarations, the edge lines of every 16 visible sources
    and the closing brace. All that can fail runs before the first chunk."""
    options = options or DotOptions()
    paths = graph.paths

    visible = set(range(len(paths)))  # node ids
    if options.roots is not None:  # the roots and their closures; reachable_from checks each
        visible = set(options.roots).union(*map(graph.reachable_from, options.roots))

    if options.hide_top_k > 0:  # nsmallest: sorted(...)[:k] without sorting every node
        pop = popularity(graph)
        visible -= set(heapq.nsmallest(options.hide_top_k, range(len(paths)),
                                       key=lambda p: (-pop[p], paths[p])))

    if options.hide_names:
        visible = {p for p in visible if not any(s in paths[p] for s in options.hide_names)}

    order = sorted(visible, key=paths.__getitem__)
    quoted = {p: _quote(paths[p]) for p in order}  # each visible path, quoted once
    # one synthetic node per distinct unresolved name keeps breakage visible
    missing_shown = sorted({graph.names[e] for e, d in enumerate(graph.dst)
                            if d < 0 and bisect_right(graph.out_start, e) - 1 in visible})
    yield "digraph dependencies {\n"
    yield "".join(f"    {quoted[p]} [shape={_SHAPES.get(graph.kinds[p], 'ellipse')}];\n"
                  for p in order)
    yield "".join(f"    {_quote('missing:' + name)} "
                  f"[label={_quote(name)}, shape=ellipse, style=dashed, color=red];\n"
                  for name in missing_shown)
    for i in range(0, len(order), 16):  # a chunk a few kB long, written as it is made
        yield emit_dot(graph, order[i:i + 16], quoted)
    yield "}\n"


def emit_dot(graph: DependencyGraph, sources: Iterable[int], quoted: dict[int, str]) -> str:
    """The DOT edge lines of `sources` in import-table order: each edge to a
    node in `quoted` (the shown nodes' quoted paths) or to a missing: node."""
    start, dst, names = graph.out_start, graph.dst, graph.names
    lines = []
    for p in sources:
        for e in range(start[p], start[p + 1]):
            d = dst[e]
            if d < 0:
                lines.append(f"    {quoted[p]} -> {_quote('missing:' + names[e])};\n")
            elif d in quoted:
                lines.append(f"    {quoted[p]} -> {quoted[d]};\n")
    return "".join(lines)
