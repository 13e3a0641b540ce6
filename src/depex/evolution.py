"""Cross-snapshot trends, deltas and longevity.

Nodes are matched across snapshots by soname when they have one, else by
path basename: paths drift across OS eras while sonames stay put.

Each trend row is loaded and summarised in a forked worker process, one
per CPU the caller may run on (so `taskset` limits them), at most one per
distinct label. The calling process computes the rows itself, with no
fork, when there are fewer than two distinct labels, when it may run on
one CPU only, when the platform has no `os.sched_getaffinity`, and when
it runs more than one thread (a forked child of a threaded process may
deadlock).
"""

from __future__ import annotations

import os
import posixpath
import threading
from dataclasses import asdict, dataclass, field, fields

from depex.elf import FileKind
from depex.metrics import stats_summary
from depex.store import DependencyGraph, list_snapshots, load_graph

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


def identity_key(soname: str | None, path: str) -> str:
    return soname if soname else posixpath.basename(path)


def _labels_or_all(db_path: str, labels: list[str] | None) -> list[str]:
    if labels is not None:
        return list(labels)
    return [s.label for s in list_snapshots(db_path)]


def _trend_row(label: str, graph: DependencyGraph) -> TrendRow:
    stats = stats_summary(graph)
    return TrendRow(label=label, files_total=len(graph.paths),
                    unused_fraction=round(stats.unused / stats.libraries, 4)
                    if stats.libraries else 0.0, **asdict(stats))


def _load_row(label: str, db_path: str) -> TrendRow:
    return _trend_row(label, load_graph(label, db_path))


def trend_report(db_path: str, labels: list[str] | None = None) -> TrendReport:
    """One row of headline metrics per snapshot, in the given order. A
    failure is the first failing label's, as if the rows were made in turn."""
    labels = _labels_or_all(db_path, labels)
    distinct = list(dict.fromkeys(labels))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    workers = min(cpus, len(distinct))
    if workers < 2 or threading.active_count() > 1:
        return TrendReport([_load_row(label, db_path) for label in labels])
    # imported here, so that no other command pays for importing them
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
        # the last label, the newest release by default, is the largest: start it first
        futures = {label: pool.submit(_load_row, label, db_path) for label in reversed(distinct)}
        return TrendReport([futures[label].result() for label in labels])


def _keys_by_kind(graph: DependencyGraph, kind: FileKind) -> set[str]:
    return {identity_key(soname, path) for soname, path, k in
            zip(graph.sonames, graph.paths, graph.kinds) if k is kind}


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
