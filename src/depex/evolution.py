"""Cross-snapshot trends, deltas and longevity.

Nodes are matched across snapshots by soname when they have one, else by
path basename: paths drift across OS eras while sonames stay put.

`trend_report` makes each distinct label's row once, newest first: the
calling process makes its share beside one forked helper per further CPU it
may run on (so `taskset` limits them), up to one per distinct label, and none
on one CPU, without `os.sched_getaffinity`, or in a threaded process (a forked
child of one may deadlock). Each process holds one graph at a time, and an
error is raised only once every distinct row is made.
"""

from __future__ import annotations

import os
import posixpath
import signal
import threading
from typing import NamedTuple

from depex.metrics import stats_summary
from depex.store import DependencyGraph, FileKind, list_snapshots, load_graph


class TrendRow(NamedTuple):
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


TREND_COLUMNS = TrendRow._fields


class SnapshotDelta(NamedTuple):
    added_libraries: set[str]
    removed_libraries: set[str]
    added_executables: set[str]
    removed_executables: set[str]
    persistent_nodes: set[str]


class PresenceSpan(NamedTuple):
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
                    if stats.libraries else 0.0, **stats._asdict())


def _load_row(label: str, db_path: str) -> TrendRow:
    return _trend_row(label, load_graph(label, db_path))


_QUEUE_ITEMS = 1024  # 4-byte items fill a 4 KiB page, the least a pipe holds


def _shared_rows(distinct: list[str], db_path: str, helpers: int) -> list:
    """Each distinct label's row or exception, made here and in `helpers` forked
    processes, none of which outlives the call; ChildProcessError if one dies."""
    run = -(-len(distinct) // _QUEUE_ITEMS) or 1  # labels per item, so the queue never blocks

    def claim() -> list[tuple]:  # (index, row or exception) per label, until the queue is empty
        made = []
        while item := os.read(queue, 4):
            for i in range(int.from_bytes(item, "little"), len(distinct))[:run]:
                try:
                    made.append((i, _load_row(distinct[i], db_path)))
                except Exception as exc:  # trend_report raises it in the asked order
                    made.append((i, exc))
        return made

    queue, feed = os.pipe()
    fds, pids = [queue], []  # fds[i + 1] brings the rows of pids[i]
    try:
        with open(feed, "wb") as items:  # the newest label, the largest, first
            items.write(b"".join(i.to_bytes(4, "little")
                                 for i in range(0, len(distinct), run)[::-1]))
        for _ in range(helpers):
            import pickle  # imported only with helpers, so that one CPU does not pay for it
            fds += os.pipe()
            if (pid := os.fork()) == 0:  # a helper: it sends its rows and never returns
                try:
                    with open(fds[-1], "wb") as rows:
                        pickle.dump(claim(), rows)
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(fds.pop())
            pids.append(pid)
        made = dict(claim())
        while pids:
            with open(fds.pop(), "rb") as rows:
                sent = rows.read()
            status = os.waitpid(pids[-1], 0)[1]
            pid = pids.pop()  # reaped, so no longer the finally's to kill
            if code := os.waitstatus_to_exitcode(status):
                raise ChildProcessError(f"evolve helper {pid} ended with status {code}")
            made.update(pickle.loads(sent))
        return [made[i] for i in range(len(distinct))]
    finally:
        for fd in fds:
            os.close(fd)
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def trend_report(db_path: str, labels: list[str] | None = None) -> list[TrendRow]:
    """One row of headline metrics per snapshot, in the given order. A
    failure is the first failing label's, as if the rows were made in turn."""
    labels = _labels_or_all(db_path, labels)
    distinct = list(dict.fromkeys(labels))
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    helpers = 0 if threading.active_count() > 1 else max(min(cpus, len(distinct)) - 1, 0)
    rows = dict(zip(distinct, _shared_rows(distinct, db_path, helpers)))
    for row in rows.values():  # in the asked order of first sight: the first failure first
        if isinstance(row, Exception):
            raise row
    return [rows[label] for label in labels]


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
    for label in dict.fromkeys(_labels_or_all(db_path, labels)):
        graph = load_graph(label, db_path)
        keys = (_keys_by_kind(graph, FileKind.SHARED_LIBRARY)
                | _keys_by_kind(graph, FileKind.EXECUTABLE_BINARY))
        for key in keys:
            first_seen, _, count = spans.get(key, (label, label, 0))
            spans[key] = PresenceSpan(first_seen, label, count + 1)
    return spans
