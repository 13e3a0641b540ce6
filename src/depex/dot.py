"""DOT emission with popularity filtering.

Output is deterministic byte-for-byte: nodes sort by canonical path,
edges follow import-table order within each source node. Hiding the few
hyper-popular libraries is what turns the full-system hairball into
something a human can read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from depex.elf import FileKind
from depex.metrics import popularity
from depex.store import DependencyGraph


@dataclass
class DotOptions:
    hide_top_k: int = 0
    hide_names: list[str] = field(default_factory=list)
    roots: list[int] | None = None


def _quote(s: str) -> str:
    return '"' + s.replace("\\", "\\\\").replace('"', '\\"') + '"'


def _node_attrs(kind: FileKind) -> str:
    if kind is FileKind.EXECUTABLE_BINARY:
        return "shape=box"
    return "shape=ellipse"


def emit_dot(graph: DependencyGraph, options: DotOptions | None = None) -> str:
    options = options or DotOptions()
    paths = graph.paths

    visible = set(range(len(paths)))  # node ids
    if options.roots is not None:
        keep: set[int] = set()
        for root in options.roots:
            keep.add(graph.require(root))
            keep.update(graph.reachable_from(root))
        visible &= keep

    if options.hide_top_k > 0:
        pop = popularity(graph)
        ranked = sorted(range(len(paths)), key=lambda p: (-pop[p], paths[p]))
        visible -= set(ranked[: options.hide_top_k])

    if options.hide_names:
        visible = {
            p for p in visible
            if not any(s in paths[p] for s in options.hide_names)
        }

    order = sorted(visible, key=paths.__getitem__)
    quoted = {p: _quote(paths[p]) for p in order}  # each visible path, quoted once
    lines = ["digraph dependencies {"]
    for p in order:
        lines.append(f"    {quoted[p]} [{_node_attrs(graph.kinds[p])}];")

    # one synthetic node per distinct unresolved name keeps breakage visible
    missing_shown = sorted({
        name for s, name, d in zip(graph.src, graph.names, graph.dst)
        if d < 0 and s in visible
    })
    for name in missing_shown:
        lines.append(
            f"    {_quote('missing:' + name)} "
            f"[label={_quote(name)}, shape=ellipse, style=dashed, color=red];")

    start, dst, names = graph.out_start, graph.dst, graph.names
    for p in order:
        for e in range(start[p], start[p + 1]):
            d = dst[e]
            if d < 0:
                lines.append(f"    {quoted[p]} -> {_quote('missing:' + names[e])};")
            elif d in quoted:
                lines.append(f"    {quoted[p]} -> {quoted[d]};")
    lines.append("}\n")  # the last newline rides along: no second copy of the output
    return "\n".join(lines)
