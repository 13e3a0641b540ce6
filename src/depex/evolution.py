"""Cross-snapshot trends, deltas and longevity.

Nodes are matched across snapshots by soname when they have one, else by
path basename: paths drift across OS eras while sonames stay put.
"""

from __future__ import annotations

import posixpath
from dataclasses import asdict, dataclass, field, fields

from depex.elf import FileKind
from depex.metrics import stats_summary
from depex.store import DependencyGraph, FileNode, list_snapshots, load_graph

@dataclass
class TrendRow:
    label: str
    executables: int
    libraries: int
    files_total: int
    dependencies: int
    missing: int
    unused: int
    unused_fraction: float
    avg_direct: float
    avg_recursive: float
    max_direct: int
    max_recursive: int


TREND_COLUMNS = tuple(f.name for f in fields(TrendRow))


@dataclass
class TrendReport:
    rows: list[TrendRow] = field(default_factory=list)


@dataclass
class SnapshotDelta:
    added_libraries: set[str] = field(default_factory=set)
    removed_libraries: set[str] = field(default_factory=set)
    added_executables: set[str] = field(default_factory=set)
    removed_executables: set[str] = field(default_factory=set)
    persistent_nodes: set[str] = field(default_factory=set)


@dataclass
class PresenceSpan:
    first_seen: str
    last_seen: str
    present_count: int


def identity_key(node: FileNode) -> str:
    return node.soname if node.soname else posixpath.basename(node.canonical_path)


def _labels_or_all(db_path: str, labels: list[str] | None) -> list[str]:
    if labels is not None:
        return list(labels)
    return [s.label for s in list_snapshots(db_path)]


def _trend_row(label: str, graph: DependencyGraph) -> TrendRow:
    stats = stats_summary(graph)
    return TrendRow(label=label, files_total=len(graph.nodes),
                    unused_fraction=round(stats.unused / stats.libraries, 4)
                    if stats.libraries else 0.0, **asdict(stats))


def trend_report(db_path: str, labels: list[str] | None = None) -> TrendReport:
    """One row of headline metrics per snapshot, in the given order."""
    report = TrendReport()
    for label in _labels_or_all(db_path, labels):
        report.rows.append(_trend_row(label, load_graph(label, db_path)))
    return report


def _keys_by_kind(graph: DependencyGraph, kind: FileKind) -> set[str]:
    return {identity_key(n) for n in graph.nodes.values() if n.kind is kind}


def diff_snapshots(db_path: str, label_a: str, label_b: str) -> SnapshotDelta:
    """What appeared and disappeared going from snapshot a to snapshot b."""
    graph_a = load_graph(label_a, db_path)
    graph_b = load_graph(label_b, db_path)
    lib_a = _keys_by_kind(graph_a, FileKind.SHARED_LIBRARY)
    lib_b = _keys_by_kind(graph_b, FileKind.SHARED_LIBRARY)
    exe_a = _keys_by_kind(graph_a, FileKind.EXECUTABLE_BINARY)
    exe_b = _keys_by_kind(graph_b, FileKind.EXECUTABLE_BINARY)
    return SnapshotDelta(
        added_libraries=lib_b - lib_a,
        removed_libraries=lib_a - lib_b,
        added_executables=exe_b - exe_a,
        removed_executables=exe_a - exe_b,
        persistent_nodes=(lib_a & lib_b) | (exe_a & exe_b),
    )


def longevity(db_path: str,
              labels: list[str] | None = None) -> dict[str, PresenceSpan]:
    """Presence span of every executable/library key across the corpus."""
    spans: dict[str, PresenceSpan] = {}
    for label in _labels_or_all(db_path, labels):
        graph = load_graph(label, db_path)
        keys = (_keys_by_kind(graph, FileKind.SHARED_LIBRARY)
                | _keys_by_kind(graph, FileKind.EXECUTABLE_BINARY))
        for key in keys:
            span = spans.get(key)
            if span is None:
                spans[key] = PresenceSpan(label, label, 1)
            else:
                span.last_seen = label
                span.present_count += 1
    return spans
