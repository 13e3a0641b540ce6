"""Snapshot persistence in a single SQLite file, plus the loaded graph.

One database holds any number of snapshots so cross-snapshot queries and
evolution reports work without juggling files. The write path is a single
exclusive transaction: a crash mid-save leaves the database exactly as it
was. Reads open the file read-only, so they never create or alter it.

A loaded graph is columns, not records, with CSR (compressed sparse row)
adjacency; see DependencyGraph. Node and edge ids are positions in it:
the row ids of files and deps never leave this module, and a scan's ids
come back from save_snapshot and load_graph unchanged. load_graph reads
idx_files_snapshot (files in id order, no sort; the alias subselect) and
idx_deps_snapshot. An older database loads the same answers without
them, through idx_files_snapshot_kind plus a sort and a full deps scan;
the next save into it creates both and drops the indexes no query reads.
"""

from __future__ import annotations

import os
import re
import sqlite3
from collections.abc import Mapping
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cached_property
from itertools import accumulate, islice
from operator import gt
from typing import TYPE_CHECKING, Iterable, Iterator
from urllib.parse import quote

from depex.elf import FileKind
from depex.resolver import Origin

if TYPE_CHECKING:
    from depex.scanner import ScanResult


class StoreError(Exception):
    pass


class DuplicateLabel(StoreError):
    pass


class UnknownLabel(StoreError):
    pass


class StorageFailure(StoreError):
    pass


class UnreadableDatabase(StoreError):
    """A read found no database, or one without depex's tables."""


class UnknownNode(Exception):
    """A queried node id or reference does not exist in the graph."""


@dataclass(frozen=True)
class Snapshot:
    id: int
    label: str
    root_path: str
    scanned_at: str  # UTC ISO-8601
    tool_version: str


@dataclass(slots=True)
class FileNode:
    id: int
    snapshot_id: int | None
    canonical_path: str
    alias_paths: list[str] = field(default_factory=list)
    kind: FileKind = FileKind.ELF_OTHER
    soname: str | None = None
    size_bytes: int = 0


@dataclass(slots=True)
class DependencyEdge:
    id: int
    snapshot_id: int | None
    from_node: int
    needed_name: str
    to_node: int | None = None  # None = the needed name went unresolved
    origin: Origin | None = None

    @property
    def resolved(self) -> bool:
        return self.to_node is not None


def _columns(rows: Iterator[tuple], width: int) -> list[list]:
    """Rows as `width` columns, split 1024 rows at a time: all rows at once
    would sit in memory next to their columns."""
    columns: list[list] = [[] for _ in range(width)]
    while chunk := list(islice(rows, 1024)):
        for i, column in enumerate(columns):
            column.extend([row[i] for row in chunk])
    return columns


def _offsets(keys: list[int], n: int) -> list[int]:
    """CSR offsets over positions 0..n-1: entry p counts the keys below p.
    A key of -1 (no target) is counted in count[n], which no offset reads."""
    count = [0] * (n + 1)
    for k in keys:
        count[k] += 1
    return [0, *accumulate(count[:n])]


class _View(Mapping):
    """Read-only node id -> record mapping; a record is built when read."""

    def __init__(self, graph: DependencyGraph, record):
        self._graph, self._record = graph, record

    def __getitem__(self, node_id: int):
        if node_id not in self._graph:
            raise KeyError(node_id)
        return self._record(node_id)

    def __iter__(self) -> Iterator[int]:
        return iter(range(len(self)))

    def __len__(self) -> int:
        return len(self._graph.paths)


class DependencyGraph:
    """One snapshot's nodes and edges as columns, with CSR adjacency.

    A node's id is its position in the order given: paths, kinds, sonames,
    sizes and sparse aliases are indexed by it. An edge's id is its position
    once grouped by source in import-table order: src and dst node ids (dst
    -1: unresolved), names and origins, so node p's out-edges are numbers
    out_start[p] to out_start[p + 1] - 1. The reverse CSR over resolved
    edges (in_start, in_src) is built on first use. `nodes` and `adjacency`
    are read-only id -> record views that build a record when it is read.
    """

    def __init__(self, snapshot: Snapshot, nodes: Iterable[FileNode],
                 edges: Iterable[DependencyEdge]):
        nodes = list(nodes)
        self._fill(snapshot, _columns(((n.id, n.canonical_path, n.kind, n.soname,
                                        n.size_bytes) for n in nodes), 5),
                   [(n.id, alias) for n in nodes for alias in n.alias_paths],
                   _columns(((e.from_node, e.needed_name, e.to_node, e.origin)
                             for e in edges), 4))

    def _fill(self, snapshot, node_columns, alias_rows, edge_columns) -> None:
        """Node columns in record field order, alias rows (id, alias), edge
        columns (from, name, to, origin); the given node ids only place the
        aliases and the edge ends. KeyError for an edge end outside the nodes."""
        self.snapshot = snapshot
        ids, self.paths, self.kinds, self.sonames, self.sizes = node_columns
        pos = dict(zip(ids, range(len(ids))))
        self.aliases: dict[int, list[str]] = {}
        for node_id, alias in alias_rows:
            self.aliases.setdefault(pos[node_id], []).append(alias)
        froms, names, tos, origins = edge_columns
        src = list(map(pos.__getitem__, froms))
        pos[None] = -1
        dst = list(map(pos.__getitem__, tos))
        columns = (src, names, dst, origins)
        if any(map(gt, src, src[1:])):  # not grouped by source: a stable sort
            order = sorted(range(len(src)), key=src.__getitem__)
            columns = [[column[e] for e in order] for column in columns]
        self.src, self.names, self.dst, self.origins = columns
        self.out_start = _offsets(self.src, len(ids))

    @cached_property
    def in_start(self) -> list[int]:
        """Reverse CSR offsets: the sources of the resolved edges into
        node p are in_src[in_start[p]:in_start[p + 1]]."""
        return _offsets(self.dst, len(self.paths))

    @cached_property
    def in_src(self) -> list[int]:
        """Source ids of the resolved edges, grouped by target by the
        second pass of a counting sort over in_start."""
        fill = self.in_start[:-1]
        sources = [0] * self.in_start[-1]
        for s, d in zip(self.src, self.dst):
            if d >= 0:
                sources[fill[d]] = s
                fill[d] += 1
        return sources

    @property
    def nodes(self) -> Mapping[int, FileNode]:
        return _View(self, self._node)

    @property
    def adjacency(self) -> Mapping[int, list[DependencyEdge]]:
        sid, start, dst = self.snapshot.id, self.out_start, self.dst
        return _View(self, lambda p: [
            DependencyEdge(e, sid, p, self.names[e], None if dst[e] < 0 else dst[e],
                           self.origins[e])
            for e in range(start[p], start[p + 1])])

    def _node(self, p: int) -> FileNode:
        return FileNode(p, self.snapshot.id, self.paths[p], list(self.aliases.get(p, ())),
                        self.kinds[p], self.sonames[p], self.sizes[p])

    @property
    def missing_names(self) -> set[tuple[int, str]]:
        """(node id, needed name) of every unresolved edge."""
        return {(s, name) for s, name, d in zip(self.src, self.names, self.dst) if d < 0}

    def __contains__(self, node_id: int) -> bool:
        return node_id in range(len(self.paths))  # no wrap-around: -1 is no node

    def require(self, node_id: int) -> int:
        """node_id, once it is checked; UnknownNode if the graph has none."""
        if node_id not in self:
            raise UnknownNode(node_id)
        return node_id

    def edges(self) -> Iterator[DependencyEdge]:
        """Every edge as a new record, by source in import-table order."""
        for out in self.adjacency.values():
            yield from out

    def reachable_from(self, node_id: int) -> set[int]:
        """Forward closure over resolved edges, excluding the start node."""
        return self._reach(node_id, self.out_start, self.dst)

    def reverse_reachable(self, node_id: int) -> set[int]:
        """Reverse closure over resolved edges, excluding the start node."""
        return self._reach(node_id, self.in_start, self.in_src)

    def _reach(self, node_id: int, start: list[int], targets: list[int]) -> set[int]:
        first = self.require(node_id)
        seen = {first}
        stack = [first]
        while stack:
            p = stack.pop()
            for q in targets[start[p]:start[p + 1]]:
                if q >= 0 and q not in seen:
                    seen.add(q)
                    stack.append(q)
        seen.discard(first)
        return seen


_SCHEMA = """
CREATE TABLE IF NOT EXISTS snapshots(
    id INTEGER PRIMARY KEY,
    label TEXT NOT NULL UNIQUE,
    root_path TEXT NOT NULL,
    scanned_at TEXT NOT NULL,
    tool_version TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS files(
    id INTEGER PRIMARY KEY,
    snapshot_id INTEGER NOT NULL REFERENCES snapshots(id),
    canonical_path TEXT NOT NULL,
    kind TEXT NOT NULL,
    soname TEXT,
    size_bytes INTEGER NOT NULL DEFAULT 0,
    UNIQUE(snapshot_id, canonical_path)
);
CREATE TABLE IF NOT EXISTS file_aliases(
    file_id INTEGER NOT NULL REFERENCES files(id),
    alias_path TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS deps(
    id INTEGER PRIMARY KEY,
    snapshot_id INTEGER NOT NULL REFERENCES snapshots(id),
    from_file INTEGER NOT NULL REFERENCES files(id),
    needed_name TEXT NOT NULL,
    to_file INTEGER,
    origin TEXT
);
DROP INDEX IF EXISTS idx_deps_from;
DROP INDEX IF EXISTS idx_deps_to;
DROP INDEX IF EXISTS idx_files_snapshot_kind;
CREATE INDEX IF NOT EXISTS idx_deps_snapshot ON deps(snapshot_id);
CREATE INDEX IF NOT EXISTS idx_files_snapshot ON files(snapshot_id);
"""


def open_db(db_path: str) -> sqlite3.Connection:
    """A writable connection with depex's tables, creating the file if absent."""
    con = None
    try:
        con = sqlite3.connect(db_path, isolation_level=None)
        con.execute("PRAGMA foreign_keys = ON")
        con.executescript(_SCHEMA)
    except sqlite3.DatabaseError as exc:
        if con is not None:
            con.close()
        raise UnreadableDatabase(f"cannot open database {db_path!r}: {exc}") from None
    return con


@contextmanager
def _read_only(db_path: str) -> Iterator[sqlite3.Connection]:
    """A connection that can neither create the file nor change its content.

    A writer killed after spilling pages leaves a hot journal, which a
    read-only connection may not roll back. If the first read fails, one
    connection that can write but not create opens the file, which rolls
    such a journal back to the last committed state, as any SQLite reader
    would.
    """
    # an empty authority, so that a path starting with "//" stays a path
    path = quote(os.path.abspath(db_path), errors="surrogateescape")
    uri = f"file://{path}?mode="
    try:
        con = sqlite3.connect(uri + "ro", uri=True)
    except sqlite3.OperationalError as exc:
        raise UnreadableDatabase(f"cannot open database {db_path!r}: {exc}") from None
    try:
        try:
            con.execute("PRAGMA schema_version")
        except sqlite3.OperationalError:
            recovery = sqlite3.connect(uri + "rw", uri=True)
            try:
                recovery.execute("PRAGMA schema_version")
            finally:
                recovery.close()
        yield con
    except sqlite3.DatabaseError as exc:
        raise UnreadableDatabase(f"cannot read database {db_path!r}: {exc}") from None
    finally:
        con.close()


def save_snapshot(result: "ScanResult", label: str, db_path: str,
                  tool_version: str | None = None) -> Snapshot:
    """Write one scan as a snapshot; all-or-nothing."""
    from depex import __version__

    scanned_at = datetime.now(timezone.utc).isoformat()
    version = tool_version if tool_version is not None else __version__
    con = open_db(db_path)
    try:
        con.execute("BEGIN IMMEDIATE")
        row = con.execute("SELECT 1 FROM snapshots WHERE label = ?", (label,)).fetchone()
        if row is not None:
            con.execute("ROLLBACK")
            raise DuplicateLabel(label)
        cur = con.execute(
            "INSERT INTO snapshots(label, root_path, scanned_at, tool_version)"
            " VALUES (?, ?, ?, ?)",
            (label, result.root, scanned_at, version))
        snapshot_id = cur.lastrowid
        # the ids SQLite assigns one row at a time: this writer holds the lock
        first_id, = con.execute("SELECT coalesce(max(id), 0) + 1 FROM files").fetchone()
        id_map = {node.id: first_id + i for i, node in enumerate(result.nodes)}
        seen_pairs: set[tuple[int, str]] = set()
        for edge in result.edges:
            if edge.from_node not in id_map or (
                    edge.to_node is not None and edge.to_node not in id_map):
                raise StorageFailure(
                    f"edge {edge.needed_name!r} references a node outside the snapshot")
            pair = (edge.from_node, edge.needed_name)
            if pair in seen_pairs:
                raise StorageFailure(
                    f"duplicate dependency {edge.needed_name!r} from node "
                    f"{edge.from_node}")
            seen_pairs.add(pair)
        con.executemany(
            "INSERT INTO files(id, snapshot_id, canonical_path, kind, soname, size_bytes)"
            " VALUES (?, ?, ?, ?, ?, ?)",
            ((first_id + i, snapshot_id, node.canonical_path, node.kind.value, node.soname,
              node.size_bytes) for i, node in enumerate(result.nodes)))
        con.executemany(
            "INSERT INTO file_aliases(file_id, alias_path) VALUES (?, ?)",
            ((first_id + i, alias) for i, node in enumerate(result.nodes)
             for alias in node.alias_paths))
        con.executemany(
            "INSERT INTO deps(snapshot_id, from_file, needed_name, to_file, origin)"
            " VALUES (?, ?, ?, ?, ?)",
            ((snapshot_id, id_map[edge.from_node], edge.needed_name,
              None if edge.to_node is None else id_map[edge.to_node],
              None if edge.origin is None else edge.origin.value) for edge in result.edges))
        con.execute("COMMIT")
        return Snapshot(snapshot_id, label, result.root, scanned_at, version)
    except DuplicateLabel:
        raise
    except StorageFailure:
        con.execute("ROLLBACK")
        raise
    except Exception as exc:
        try:
            con.execute("ROLLBACK")
        except sqlite3.Error:
            pass
        raise StorageFailure(str(exc)) from exc
    finally:
        con.close()


def _snapshot_row(con: sqlite3.Connection, label: str) -> Snapshot:
    row = con.execute(
        "SELECT id, label, root_path, scanned_at, tool_version FROM snapshots"
        " WHERE label = ?", (label,)).fetchone()
    if row is None:
        raise UnknownLabel(label)
    return Snapshot(*row)


class _Decoder(dict):
    """Stored value -> enum member for one column; a value depex does not
    know makes the database unreadable rather than misread."""

    def __init__(self, column: str, members: dict):
        super().__init__(members)
        self.column = column

    def __missing__(self, value):
        raise UnreadableDatabase(f"column {self.column} holds {value!r}, "
                                 "which this version of depex does not know")


_KINDS = _Decoder("files.kind", {k.value: k for k in FileKind})
_ORIGINS = _Decoder("deps.origin", {None: None, **{o.value: o for o in Origin}})


def load_graph(label: str, db_path: str) -> DependencyGraph:
    """Load one snapshot back as a columnar graph: one query per table,
    rows split into columns, kinds and origins decoded through the lookup
    tables above, and no record built."""
    with _read_only(db_path) as con:
        snap = _snapshot_row(con, label)
        ids, paths, kinds, sonames, sizes = _columns(con.execute(
            "SELECT id, canonical_path, kind, soname, size_bytes FROM files"
            " WHERE snapshot_id = ? ORDER BY id", (snap.id,)), 5)
        aliases = con.execute(
            "SELECT file_id, alias_path FROM file_aliases WHERE file_id IN"
            " (SELECT id FROM files WHERE snapshot_id = ?) ORDER BY rowid",
            (snap.id,)).fetchall()
        froms, names, tos, origins = _columns(con.execute(
            "SELECT from_file, needed_name, to_file, origin FROM deps"
            " WHERE snapshot_id = ? ORDER BY id", (snap.id,)), 4)
        kinds = list(map(_KINDS.__getitem__, kinds))
        origins = list(map(_ORIGINS.__getitem__, origins))
        graph = DependencyGraph.__new__(DependencyGraph)
        try:
            graph._fill(snap, (ids, paths, kinds, sonames, sizes), aliases,
                        (froms, names, tos, origins))
        except KeyError as exc:  # only a from_file or to_file id can be missing
            row, = con.execute("SELECT min(id) FROM deps WHERE snapshot_id = ?"
                               " AND ? IN (from_file, to_file)",
                               (snap.id, exc.args[0])).fetchone()
            raise UnreadableDatabase(
                f"deps row {row} of snapshot {label!r} names file {exc.args[0]},"
                " which is not in that snapshot") from None
    return graph


def _natural_key(label: str) -> list[tuple[int, object]]:
    # digit runs compare numerically, so "5.04" sorts before "23.04"
    return [(0, int(run)) if run.isdigit() else (1, run)
            for run in re.split(r"(\d+)", label) if run]


def list_snapshots(db_path: str) -> list[Snapshot]:
    """All snapshots in natural version order, then scan time."""
    with _read_only(db_path) as con:
        rows = [Snapshot(*row) for row in con.execute(
            "SELECT id, label, root_path, scanned_at, tool_version FROM snapshots")]
    return sorted(rows, key=lambda s: (_natural_key(s.label), s.scanned_at, s.label))
