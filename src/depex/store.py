"""Snapshot persistence in a single SQLite file, plus the loaded graph.

One database holds any number of snapshots so cross-snapshot queries and
evolution reports work without juggling files. The write path is a single
exclusive transaction: a crash mid-save leaves the database exactly as it
was. Reads open the file read-only, so they never create or alter it.

Besides the primary keys and the indexes behind the UNIQUE constraints
(snapshots.label, read by the label lookup; files(snapshot_id,
canonical_path), read by no query), two indexes exist, each read by
load_graph: idx_files_snapshot by the files query (in id order, so with
no sort) and the alias query's subselect, idx_deps_snapshot by the deps
query. An older database loads the same answers without them: files
through idx_files_snapshot_kind plus a sort, deps by a full scan where
idx_deps_snapshot is missing. The next save into it creates both and
drops idx_files_snapshot_kind, idx_deps_from and idx_deps_to, which no
query needs.
"""

from __future__ import annotations

import os
import re
import sqlite3
from contextlib import contextmanager
from dataclasses import dataclass, field
from datetime import datetime, timezone
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


class DependencyGraph:
    """One snapshot's nodes and edges, indexed both ways.

    The constructor builds the forward adjacency (out-edges per node), the
    reverse adjacency (in-edges over resolved edges) and the set of missing
    (node, name) pairs in one pass over the edges, so queries in either
    direction are dictionary lookups.
    """

    def __init__(self, snapshot: Snapshot, nodes: Iterable[FileNode],
                 edges: Iterable[DependencyEdge]):
        self.snapshot = snapshot
        self.nodes: dict[int, FileNode] = {n.id: n for n in nodes}
        self.adjacency: dict[int, list[DependencyEdge]] = {n: [] for n in self.nodes}
        self.reverse_adjacency: dict[int, list[DependencyEdge]] = {n: [] for n in self.nodes}
        self.missing_names: set[tuple[int, str]] = set()
        for edge in edges:
            self.adjacency[edge.from_node].append(edge)
            if edge.to_node is not None:
                self.reverse_adjacency[edge.to_node].append(edge)
            else:
                self.missing_names.add((edge.from_node, edge.needed_name))

    def __contains__(self, node_id: int) -> bool:
        return node_id in self.nodes

    def require(self, node_id: int) -> FileNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise UnknownNode(node_id) from None

    def edges(self) -> Iterable[DependencyEdge]:
        for out in self.adjacency.values():
            yield from out

    def out_edges(self, node_id: int) -> list[DependencyEdge]:
        self.require(node_id)
        return self.adjacency[node_id]

    def in_edges(self, node_id: int) -> list[DependencyEdge]:
        self.require(node_id)
        return self.reverse_adjacency[node_id]

    def reachable_from(self, node_id: int) -> set[int]:
        """Forward closure over resolved edges, excluding the start node."""
        self.require(node_id)
        visited = {node_id}
        stack = [node_id]
        while stack:
            for edge in self.adjacency[stack.pop()]:
                t = edge.to_node
                if t is not None and t not in visited:
                    visited.add(t)
                    stack.append(t)
        visited.discard(node_id)
        return visited

    def reverse_reachable(self, node_id: int) -> set[int]:
        """Reverse closure over resolved edges, excluding the start node."""
        self.require(node_id)
        visited = {node_id}
        stack = [node_id]
        while stack:
            for edge in self.reverse_adjacency[stack.pop()]:
                f = edge.from_node
                if f not in visited:
                    visited.add(f)
                    stack.append(f)
        visited.discard(node_id)
        return visited


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
        id_map: dict[int, int] = {}
        for node in result.nodes:
            if node.kind is FileKind.NOT_ELF:
                raise StorageFailure(
                    f"node {node.canonical_path!r} has no storable kind")
            cur = con.execute(
                "INSERT INTO files(snapshot_id, canonical_path, kind, soname, size_bytes)"
                " VALUES (?, ?, ?, ?, ?)",
                (snapshot_id, node.canonical_path, node.kind.value, node.soname,
                 node.size_bytes))
            id_map[node.id] = cur.lastrowid
            for alias in node.alias_paths:
                con.execute("INSERT INTO file_aliases(file_id, alias_path) VALUES (?, ?)",
                            (id_map[node.id], alias))
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
            con.execute(
                "INSERT INTO deps(snapshot_id, from_file, needed_name, to_file, origin)"
                " VALUES (?, ?, ?, ?, ?)",
                (snapshot_id, id_map[edge.from_node], edge.needed_name,
                 None if edge.to_node is None else id_map[edge.to_node],
                 None if edge.origin is None else edge.origin.value))
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
    """Load one snapshot back as an in-memory graph, in one pass per table:
    kinds and origins come from the lookup tables above, and edges stream
    from the cursor straight into the graph."""
    with _read_only(db_path) as con:
        snap = _snapshot_row(con, label)
        sid, kinds, origins = snap.id, _KINDS, _ORIGINS
        nodes = {fid: FileNode(fid, sid, path, [], kinds[kind], soname, size)
                 for fid, path, kind, soname, size in con.execute(
                     "SELECT id, canonical_path, kind, soname, size_bytes FROM files"
                     " WHERE snapshot_id = ? ORDER BY id", (sid,))}
        for fid, alias in con.execute(
                "SELECT file_id, alias_path FROM file_aliases WHERE file_id IN"
                " (SELECT id FROM files WHERE snapshot_id = ?) ORDER BY rowid",
                (sid,)):
            nodes[fid].alias_paths.append(alias)
        edges = (DependencyEdge(eid, sid, from_file, name, to_file, origins[origin])
                 for eid, from_file, name, to_file, origin in con.execute(
                     "SELECT id, from_file, needed_name, to_file, origin FROM deps"
                     " WHERE snapshot_id = ? ORDER BY id", (sid,)))
        return DependencyGraph(snap, nodes.values(), edges)


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
