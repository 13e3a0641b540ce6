"""Snapshot persistence in a single SQLite file, plus the loaded graph.

One database holds any number of snapshots so cross-snapshot queries and
evolution reports work without juggling files. The write path is a single
exclusive transaction: a crash mid-save leaves the database exactly as it
was. Reads open the file read-only, so they never create or alter it.

FileKind, Origin and the records (Snapshot, FileNode, DependencyEdge and
Resolution, all named tuples) are defined here, where they are stored; the
scan's modules import them, and this one imports no depex module on load.

A loaded graph is columns with CSR (compressed sparse row) adjacency,
built from those columns only; its record views are built whole on first
read and shared (see DependencyGraph), and no read command reads them.
save_snapshot turns a scan's records into columns and packs them, with
no graph built. Node and edge ids are positions, and a scan's ids come
back from save_snapshot and load_graph unchanged.

Schema version 4 (PRAGMA user_version) stores a snapshot's graph as those
columns: one `graphs` row of BLOBs (see _COLUMNS), keyed by the snapshot's
id, whose three text columns are zlib streams and whose eight integer
columns are each one width code byte, then the values at the narrowest
signed width that holds them all, that too a zlib stream in all but names
and dst; src holds each node's out-degree, as the edges come grouped by
source. A snapshot's root is a BLOB, so that any path round-trips. A load
reads that one row, checks and decodes each column in one pass and keeps
the out-degrees and both alias columns as stored. Older databases are read
as they are: a version 3 row holds plain integer columns and each edge's
source in src, counted into out-degrees, a version 2 row one-byte kinds
and origins and int32 or int64 other integers, a version 1 row plain text
and int32 kinds and origins too, and a version 0 database a row per node,
alias and dependency in `files`, `file_aliases` and `deps`. The first save
into any of them converts every snapshot to a version 4 row (and drops
version 0's tables) in that save's transaction, then runs VACUUM once to
give the freed pages back. A depex reading only versions 0-3 refuses a v4 file.
"""

from __future__ import annotations

import gc
import os
import re
import sqlite3
import sys
import zlib
from array import array
from collections.abc import Collection, Mapping, Sequence
from contextlib import contextmanager, suppress
from datetime import datetime, timezone
from enum import Enum
from functools import cached_property, wraps
from itertools import accumulate, chain, islice, repeat
from operator import itemgetter
from types import MappingProxyType
from typing import Iterator, NamedTuple
from urllib.parse import quote


class StoreError(Exception):
    pass


class DuplicateLabel(StoreError):
    pass


class UnknownLabel(StoreError):
    pass


class StorageFailure(StoreError):
    pass


class UnreadableDatabase(StoreError):
    """A read found no database, one without depex's tables or of a newer
    schema version, or a stored snapshot that does not decode."""


class UnknownNode(Exception):
    """A queried node id or reference does not exist in the graph."""


class FileKind(Enum):
    EXECUTABLE_BINARY = "executable"
    SHARED_LIBRARY = "library"
    ELF_OTHER = "elf-other"


class Origin(Enum):
    """Which search stage produced a resolution."""

    RPATH = "rpath"
    ENV_PATH = "env-path"
    RUNPATH = "runpath"
    LDSO_CONF = "ldso-conf"
    DEFAULT_DIR = "default-dir"
    # needed names containing '/' bypass the directory search entirely
    DIRECT = "direct"


class Snapshot(NamedTuple):
    id: int
    label: str
    root_path: str
    scanned_at: str  # UTC ISO-8601
    tool_version: str


class FileNode(NamedTuple):
    id: int
    snapshot_id: int | None
    canonical_path: str
    alias_paths: Sequence[str] = ()
    kind: FileKind = FileKind.ELF_OTHER
    soname: str | None = None
    size_bytes: int = 0


class DependencyEdge(NamedTuple):
    id: int
    snapshot_id: int | None
    from_node: int
    needed_name: str
    to_node: int | None = None  # None = the needed name went unresolved
    origin: Origin | None = None


class Resolution(NamedTuple):
    needed_name: str
    path: str | None = None  # canonical sysroot path; None = missing
    origin: Origin | None = None

    @property
    def resolved(self) -> bool:
        return self.path is not None


def _counts(keys: list[int], n: int) -> list[int]:
    """How many keys are each of 0..n-1; a key of -1 (no target) is dropped."""
    count = [0] * (n + 1)
    for k in keys:
        count[k] += 1
    return count[:n]


def _by_source(pos: dict[int, int], froms: list[int], names: list[str],
               tos: list[int | None], origins: list) -> list[list]:
    """Out-degrees and edge columns names, dst (None: -1) and origins, node
    ids made positions, grouped by source as given; KeyError for an unknown id."""
    src = list(map(pos.__getitem__, froms))
    dst = [-1 if to is None else pos[to] for to in tos]
    columns = [names, dst, origins]
    if src != sorted(src):  # not grouped yet: a stable sort
        order = sorted(range(len(src)), key=src.__getitem__)
        columns = [[column[e] for e in order] for column in columns]
    return [_counts(src, len(pos)), *columns]


class DependencyGraph:
    """One snapshot's nodes and edges as columns, with CSR adjacency.

    It is built from its columns only. A node's id is its position: paths,
    kinds, sonames, sizes and out-degrees are indexed by it, and so are the
    alias_nodes, as stored: one per spelling in alias_paths. An edge's id is
    its position in dst node ids (-1: unresolved), names and origins, grouped
    by source in import-table order: node p's out-edges are out_start[p] to
    out_start[p + 1] - 1, so edge e's source is bisect_right(out_start, e) - 1.
    Built on first use, each once: those offsets (the degrees' prefix sums),
    the reverse CSR over resolved edges (in_start, in_src), and `nodes` and
    `adjacency`, read-only id -> record mappings built whole from the columns
    (only `nodes` groups the aliases), of named tuples; treat the alias
    lists they share as read-only.
    """

    def __init__(self, snapshot: Snapshot, paths, kinds, sonames, sizes, alias_nodes,
                 alias_paths, degrees, names, dst, origins):
        self.snapshot = snapshot
        self.paths, self.kinds, self.sonames, self.sizes = paths, kinds, sonames, sizes
        self.alias_nodes, self.alias_paths = alias_nodes, alias_paths
        self.degrees, self.names, self.dst, self.origins = degrees, names, dst, origins

    @cached_property
    def out_start(self) -> list[int]:
        return [0, *accumulate(self.degrees)]

    @cached_property
    def in_start(self) -> list[int]:
        """Reverse CSR offsets: the sources of the resolved edges into
        node p are in_src[in_start[p]:in_start[p + 1]]."""
        return [0, *accumulate(_counts(self.dst, len(self.paths)))]

    @cached_property
    def in_src(self) -> list[int]:
        """Source ids of the resolved edges, grouped by target by the
        second pass of a counting sort over in_start, source by source."""
        fill = self.in_start[:-1]
        sources = [0] * self.in_start[-1]
        targets = iter(self.dst)
        for s, degree in enumerate(self.degrees):
            for d in islice(targets, degree):  # node s's out-edges, grouped by source
                if d >= 0:
                    sources[fill[d]] = s
                    fill[d] += 1
        return sources

    @cached_property
    def nodes(self) -> Mapping[int, FileNode]:
        aliases = [[] for _ in self.paths]
        for p, alias in zip(self.alias_nodes, self.alias_paths):
            aliases[p].append(alias)
        return MappingProxyType(dict(enumerate(map(
            FileNode, range(len(aliases)), repeat(self.snapshot.id), self.paths, aliases,
            self.kinds, self.sonames, self.sizes))))

    @cached_property
    def adjacency(self) -> Mapping[int, list[DependencyEdge]]:
        sid, start, dst = self.snapshot.id, self.out_start, self.dst
        return MappingProxyType({p: [
            DependencyEdge(e, sid, p, self.names[e], None if dst[e] < 0 else dst[e],
                           self.origins[e])
            for e in range(start[p], start[p + 1])] for p in range(len(self.paths))})

    def __contains__(self, node_id: int) -> bool:
        return node_id in range(len(self.paths))  # no wrap-around: -1 is no node

    def require(self, node_id: int) -> int:
        """node_id, once it is checked; UnknownNode if the graph has none."""
        if node_id not in self:
            raise UnknownNode(node_id)
        return node_id

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


# The BLOB columns of a graphs row, in table order, each with its type
# code in schema versions 1, 2, 3 and 4: a string list ("s": UTF-8 with
# surrogateescape, so any path or ELF string round-trips, each string
# ended by NUL, which no C string holds; "z": that text as a zlib stream),
# a little-endian array of int8 ("b"), int32 ("i") or int64 ("q"), or one
# ("w") whose first byte is its width code, b, h (int16), i or q, the
# narrowest that holds every value ("c": that as a zlib stream). kinds,
# sonames, names and origins index the snapshot's distinct strings (-1:
# None), which _pack lists kind and origin values first, so that their codes
# fit in a byte; dst (-1: unresolved) and alias_nodes are node positions,
# and so is src up to version 3; a version 4 src ("d": a "c" column) holds
# each node's out-degree, which places the edges, grouped by source.
# names and dst stay plain: near-random indexes hardly deflate.
_COLUMNS = (("strings", "szzz"), ("paths", "szzz"), ("kinds", "ibwc"), ("sonames", "iiwc"),
            ("sizes", "qqwc"), ("alias_nodes", "iiwc"), ("aliases", "szzz"),
            ("src", "iiwd"), ("names", "iiww"), ("dst", "iiww"), ("origins", "ibwc"))
_NAMES = ", ".join(name for name, _ in _COLUMNS)
_VERSION = 4
_SCHEMA = ("""CREATE TABLE IF NOT EXISTS snapshots(
    id INTEGER PRIMARY KEY,
    label TEXT NOT NULL UNIQUE,
    root_path TEXT NOT NULL,
    scanned_at TEXT NOT NULL,
    tool_version TEXT NOT NULL
)""", "CREATE TABLE IF NOT EXISTS graphs(snapshot_id INTEGER PRIMARY KEY"
      " REFERENCES snapshots(id), "
      + ", ".join(f"{name} BLOB NOT NULL" for name, _ in _COLUMNS) + ")")
_INSERT_GRAPH = f"INSERT INTO graphs({_NAMES}, snapshot_id) VALUES (?{', ?' * len(_COLUMNS)})"
_UPDATE_GRAPH = (f"UPDATE graphs SET {' = ?, '.join(name for name, _ in _COLUMNS)} = ?"
                 " WHERE snapshot_id = ?")
_SNAPSHOT = "id, label, root_path, scanned_at, tool_version"


def _pack_ints(values: list[int]) -> bytes:
    """A "w" column: the narrowest width code that holds values, then values."""
    for code in "bhi":  # a narrow array stops at the first value it cannot hold
        with suppress(OverflowError):
            column = array(code, values)  # C short and int: 16 and 32 bits wherever CPython runs
            break
    else:
        column = array("q", values)  # past int64, the OverflowError that a save reports
    if sys.byteorder == "big":
        column.byteswap()
    return column.typecode.encode() + column.tobytes()


def _unpack_ints(code: str, blob: bytes) -> array:
    column = array(code, blob)  # ValueError unless whole items
    if sys.byteorder == "big":
        column.byteswap()
    return column


def _pack_strings(values: list[str]) -> bytes:
    blob = "\0".join([*values, ""]).encode("utf-8", "surrogateescape")
    if blob.count(0) != len(values):
        raise ValueError("a string to store holds NUL")
    return zlib.compress(blob, 1)


def _unpack_strings(blob: bytes) -> list[str]:
    *values, rest = blob.decode("utf-8", "surrogateescape").split("\0")
    if rest:
        raise ValueError("its last string is not NUL-terminated")
    return values


def _require_unique(values: Collection, what: str) -> None:
    if len(set(values)) == len(values):  # the loop only names the repeat
        return
    seen = set()
    for value in values:
        if value in seen:
            raise ValueError(f"{what} {value!r} occurs twice")
        seen.add(value)


def _pack(paths, kinds, sonames, sizes, alias_nodes, alias_paths, degrees, names, dst,
          origins) -> list[bytes]:
    """The graphs row of a graph's columns, as DependencyGraph takes them,
    in _COLUMNS order; ValueError if they cannot be stored as they are."""
    _require_unique(paths, "canonical path")
    sources = chain.from_iterable(map(repeat, range(len(paths)), degrees))
    _require_unique(list(zip(sources, names)), "dependency (node, needed name)")
    # _value_, what the value property reads, at a tenth of its cost; a non-member fails alike
    coded = ([k._value_ for k in kinds], [None if o is None else o._value_ for o in origins],
             sonames, names)
    strings = [s for s in dict.fromkeys(chain.from_iterable(coded)) if s is not None]
    index = {None: -1, **{s: i for i, s in enumerate(strings)}}
    kinds, origins, sonames, names = (list(map(index.__getitem__, c)) for c in coded)
    values = (strings, paths, kinds, sonames, sizes, alias_nodes, alias_paths, degrees, names,
              dst, origins)
    return [_pack_strings(v) if codes[-1] == "z" else
            zlib.compress(_pack_ints(v), 1) if codes[-1] in "cd" else _pack_ints(v)
            for (_, codes), v in zip(_COLUMNS, values)]


def _unpack(row: tuple, version: int) -> list:
    """The columns of one version 1 to 4 graphs row, as DependencyGraph
    takes them, each checked and decoded in one pass; ValueError names the
    first column that does not fit the others."""
    columns = {}
    for (name, codes), blob in zip(_COLUMNS, row):
        code = codes[version - 1]
        try:
            if type(blob) is not bytes:
                raise ValueError("it holds no BLOB")
            if code in "zcd":  # zlib.decompress would ignore bytes after the stream
                inflate = zlib.decompressobj()
                text = inflate.decompress(blob)
                if inflate.unused_data:
                    raise ValueError(f"{len(inflate.unused_data)} bytes follow its zlib stream")
                blob = text if inflate.eof else zlib.decompress(blob)  # names a cut stream
            if code in "wcd":
                if not blob:
                    raise ValueError("it holds no width code")
                code, blob = blob[:1].decode("latin-1"), blob[1:]
                if code not in ("b", "h", "i", "q"):
                    raise ValueError(f"its width code {code!r} is none of b, h, i, q")
            columns[name] = _unpack_strings(blob) if code in "sz" else _unpack_ints(code, blob)
        except (ValueError, zlib.error) as exc:
            raise ValueError(f"column {name}: {exc}") from None
    by_degree = dict(_COLUMNS)["src"][version - 1] == "d"
    n, m = len(columns["paths"]), len(columns["names" if by_degree else "src"])
    for name, length in (("kinds", n), ("sonames", n), ("sizes", n), ("names", m), ("dst", m),
                         ("origins", m), ("alias_nodes", len(columns["aliases"])),
                         ("src", n if by_degree else m)):
        if len(columns[name]) != length:
            raise ValueError(f"column {name} holds {len(columns[name])} values, not {length}")
    _require_unique(columns["paths"], "column paths: path")
    sizes, src, dst = (columns[name].tolist() for name in ("sizes", "src", "dst"))
    if by_degree and src and min(src) < 0:  # node p is the source of the next src[p] edges
        raise ValueError("column src holds a negative out-degree")
    if by_degree and sum(src) != m:  # so they are grouped and in bounds, and kept as they are
        raise ValueError(f"column src holds out-degrees that sum to {sum(src)}, not {m}")
    grouped = by_degree or src == sorted(src)  # sorted finds a grouped column one run
    for name, values, low, high in (
            ("sizes", sizes and [min(sizes)], 0, 1 << 63),  # an int64 is below 2**63
            ("alias_nodes", columns["alias_nodes"], 0, n), ("dst", dst, -1, n),
            ("src", [] if by_degree else src[:1] + src[-1:] if grouped else src, 0, n)):
        if values and not (low <= min(values) and max(values) < high):  # grouped: ends bound it
            raise ValueError(f"column {name} holds a value outside {low}..{high - 1}")
    if not grouped:
        raise ValueError("column src is not grouped by source")
    strings = columns["strings"]
    index = dict(zip(strings, range(len(strings))))  # a decoder looks its few values up
    if len(index) != len(strings):  # so each string must have one index
        _require_unique(strings, "column strings: string")
    text = dict(enumerate(strings))  # each lookup below checks and decodes
    for name, known, low in (("kinds", _KINDS, 0), ("sonames", None, -1),
                             ("names", None, 0), ("origins", _ORIGINS, -1)):
        table = text if known is None else {index[s]: v for s, v in known.items() if s in index}
        try:
            columns[name] = list(map(({-1: None, **table} if low else table).__getitem__,
                                     columns[name]))
        except KeyError as exc:
            if exc.args[0] in text:  # a gap only a decoder's table has
                known[text[exc.args[0]]]  # raises: a kind or origin it does not know
            raise ValueError(f"column {name} holds a value outside {low}..{len(text) - 1}")
    return [columns["paths"], columns["kinds"], columns["sonames"], sizes,
            columns["alias_nodes"], columns["aliases"], src if by_degree else _counts(src, n),
            columns["names"], dst, columns["origins"]]


def _columns(rows: list[tuple], width: int) -> list[list]:
    return [list(map(itemgetter(i), rows)) for i in range(width)]


def _load_v0(con: sqlite3.Connection, snap: Snapshot) -> list:
    """The columns of one snapshot of a version 0 database, as DependencyGraph
    takes them, read straight from its files, file_aliases and deps rows;
    ValueError for a dependency on a file outside it."""
    ids, paths, kinds, sonames, sizes = _columns(con.execute(
        "SELECT id, canonical_path, kind, soname, size_bytes FROM files"
        " WHERE snapshot_id = ? ORDER BY id", (snap.id,)).fetchall(), 5)
    pos = dict(zip(ids, range(len(ids))))
    alias_files, alias_paths = _columns(con.execute(
        "SELECT file_id, alias_path FROM file_aliases WHERE file_id IN"
        " (SELECT id FROM files WHERE snapshot_id = ?) ORDER BY rowid", (snap.id,)).fetchall(), 2)
    froms, names, tos, origins = _columns(con.execute(
        "SELECT from_file, needed_name, to_file, origin FROM deps"
        " WHERE snapshot_id = ? ORDER BY id", (snap.id,)).fetchall(), 4)
    try:
        return [paths, list(map(_KINDS.__getitem__, kinds)), sonames, sizes,
                list(map(pos.__getitem__, alias_files)), alias_paths,
                *_by_source(pos, froms, names, tos, list(map(_ORIGINS.__getitem__, origins)))]
    except KeyError as exc:  # only a from_file or to_file id can be missing
        row, = con.execute("SELECT min(id) FROM deps WHERE snapshot_id = ?"
                           " AND ? IN (from_file, to_file)", (snap.id, exc.args[0])).fetchone()
        raise ValueError(f"deps row {row} names file {exc.args[0]},"
                         " which is not in that snapshot") from None


def _check_version(version: int, db_path: str) -> None:
    if not 0 <= version <= _VERSION:
        raise UnreadableDatabase(
            f"database {db_path!r} has schema version {version}; this version of"
            f" depex reads versions 0 to {_VERSION}")


def _read(con: sqlite3.Connection, snap: Snapshot, version: int) -> list:
    """The columns of one stored snapshot, as DependencyGraph takes them;
    ValueError if they do not decode."""
    if version == 0:
        return _load_v0(con, snap)
    row = con.execute(f"SELECT {_NAMES} FROM graphs WHERE snapshot_id = ?",
                      (snap.id,)).fetchone()
    if row is None:
        raise ValueError("its graph is not stored")
    return _unpack(row, version)


def _convert(con: sqlite3.Connection, version: int) -> None:
    """Store every snapshot of a version 0 to 3 database as a version 4
    graphs row, read as a load reads it, and drop version 0's tables; one
    step from each older version. Nothing for a new file."""
    if version == 0 and con.execute(
            "SELECT 1 FROM sqlite_master WHERE name = 'files'").fetchone() is None:
        return
    for row in con.execute(f"SELECT {_SNAPSHOT} FROM snapshots ORDER BY id").fetchall():
        snap = _snapshot(row)
        try:
            packed = _pack(*_read(con, snap, version))
        except ValueError as exc:
            raise UnreadableDatabase(f"snapshot {snap.label!r} cannot be converted:"
                                     f" {exc}") from None
        con.execute(_UPDATE_GRAPH if version else _INSERT_GRAPH, (*packed, snap.id))
    if version == 0:
        for table in ("deps", "file_aliases", "files"):  # their indexes go with them
            con.execute(f"DROP TABLE {table}")


def _begin(db_path: str) -> sqlite3.Connection:
    """A writable connection in a BEGIN IMMEDIATE transaction on a version 4
    database: a new file gets the tables and an older database is
    converted, both inside the transaction, so a rollback undoes them.
    UnreadableDatabase for a file that is no depex database, StorageFailure
    if it cannot be written."""
    con = None
    try:
        con = sqlite3.connect(db_path, isolation_level=None)
        con.execute("PRAGMA schema_version")  # reads the header of an existing file
    except sqlite3.DatabaseError as exc:
        if con is not None:
            con.close()
        raise UnreadableDatabase(f"cannot open database {db_path!r}: {exc}") from None
    try:
        con.execute("PRAGMA foreign_keys = ON")
        con.execute("BEGIN IMMEDIATE")
        version, = con.execute("PRAGMA user_version").fetchone()
        _check_version(version, db_path)
        if version < _VERSION:
            for statement in _SCHEMA:
                con.execute(statement)
            _convert(con, version)
            con.execute(f"PRAGMA user_version = {_VERSION}")
    except sqlite3.DatabaseError as exc:
        con.close()
        raise StorageFailure(f"cannot write database {db_path!r}: {exc}") from None
    except BaseException:
        con.close()
        raise
    return con


def _commit(con: sqlite3.Connection) -> None:
    """Commit, then VACUUM if pages are free, as only a conversion leaves
    them. The commit stands if the VACUUM fails."""
    con.execute("COMMIT")
    if con.execute("PRAGMA freelist_count").fetchone()[0]:
        with suppress(sqlite3.Error):
            con.execute("VACUUM")


def open_db(db_path: str) -> sqlite3.Connection:
    """A writable connection with depex's tables, creating the file if
    absent and converting an older database."""
    con = _begin(db_path)
    _commit(con)
    return con


@contextmanager
def _read_only(db_path: str) -> Iterator[tuple[sqlite3.Connection, int]]:
    """A connection that can neither create the file nor change its content,
    and the database's schema version.

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
        except sqlite3.DatabaseError as exc:  # a file that is no database at all
            raise UnreadableDatabase(f"cannot open database {db_path!r}: {exc}") from None
        version, = con.execute("PRAGMA user_version").fetchone()
        _check_version(version, db_path)
        yield con, version
    except sqlite3.DatabaseError as exc:
        raise UnreadableDatabase(f"cannot read database {db_path!r}: {exc}") from None
    finally:
        con.close()


def require_new_label(label: str, db_path: str) -> None:
    """DuplicateLabel if the database holds label, read-only, so that a scan
    is refused before it starts; an absent or empty file, or one without
    depex's tables, holds none. UnreadableDatabase as for a read."""
    if os.path.isfile(db_path) and os.path.getsize(db_path):
        with _read_only(db_path) as (con, _), suppress(sqlite3.OperationalError):
            if con.execute("SELECT 1 FROM snapshots WHERE label = ?", (label,)).fetchone():
                raise DuplicateLabel(label)  # no snapshots table, or no answer: the save checks


def collector_paused(fn):
    """fn with the cyclic collector off, then on if it was: a scan or save makes no cycle."""
    @wraps(fn)
    def paused(*args, **kwargs):
        was_on = gc.isenabled()
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            if was_on:
                gc.enable()
    return paused


@collector_paused
def save_snapshot(result, label: str, db_path: str) -> Snapshot:
    """Write one scan (a depex.scanner.ScanResult: its root, nodes and edges)
    as a snapshot, one graphs row; all-or-nothing. The scan's records become
    columns here, their ids only placing the edge ends."""
    from depex import __version__

    nodes, edges = result.nodes, result.edges
    try:
        row = _pack([n.canonical_path for n in nodes], [n.kind for n in nodes],
                    [n.soname for n in nodes], [n.size_bytes for n in nodes],
                    [p for p, n in enumerate(nodes) for _ in n.alias_paths],
                    [alias for n in nodes for alias in n.alias_paths],
                    *_by_source({n.id: p for p, n in enumerate(nodes)},
                                [e.from_node for e in edges], [e.needed_name for e in edges],
                                [e.to_node for e in edges], [e.origin for e in edges]))
    except KeyError as exc:
        raise StorageFailure(f"an edge names node {exc.args[0]},"
                             " which is not in the snapshot") from None
    except (ValueError, OverflowError) as exc:
        raise StorageFailure(f"cannot store snapshot {label!r}: {exc}") from None
    scanned_at = datetime.now(timezone.utc).isoformat()
    con = _begin(db_path)
    try:
        if con.execute("SELECT 1 FROM snapshots WHERE label = ?", (label,)).fetchone():
            raise DuplicateLabel(label)
        snapshot_id = con.execute(
            "INSERT INTO snapshots(label, root_path, scanned_at, tool_version)"
            " VALUES (?, ?, ?, ?)", (label, result.root.encode("utf-8", "surrogateescape"),
                                     scanned_at, __version__)).lastrowid
        con.execute(_INSERT_GRAPH, (*row, snapshot_id))
        _commit(con)
    except DuplicateLabel:
        raise
    except Exception as exc:
        raise StorageFailure(str(exc)) from exc
    finally:
        con.close()  # which rolls back what was not committed
    return Snapshot(snapshot_id, label, result.root, scanned_at, __version__)


def _snapshot(row: tuple) -> Snapshot:
    """A snapshots row; its root is TEXT in version 1 and, so that any path
    round-trips, a BLOB of UTF-8 with surrogateescape since version 2."""
    sid, label, root, *rest = row
    return Snapshot(sid, label, root if type(root) is str
                    else root.decode("utf-8", "surrogateescape"), *rest)


class _Decoder(dict):
    """Stored value -> enum member for one column; a value depex does not
    know makes the snapshot unreadable rather than misread."""

    def __init__(self, column: str, members: dict):
        super().__init__(members)
        self.column = column

    def __missing__(self, value):
        raise ValueError(f"it stores {self.column} {value!r}, which this version"
                         " of depex does not know")


_KINDS = _Decoder("kind", {k.value: k for k in FileKind})
_ORIGINS = _Decoder("origin", {None: None, **{o.value: o for o in Origin}})


def load_graph(label: str, db_path: str) -> DependencyGraph:
    """Load one snapshot back as a columnar graph from its graphs row, each
    column checked and decoded in one pass; no record is built."""
    with _read_only(db_path) as (con, version):
        row = con.execute(f"SELECT {_SNAPSHOT} FROM snapshots WHERE label = ?",
                          (label,)).fetchone()
        if row is None:
            raise UnknownLabel(label)
        snap = _snapshot(row)
        try:
            return DependencyGraph(snap, *_read(con, snap, version))
        except ValueError as exc:
            raise UnreadableDatabase(
                f"snapshot {label!r} in {db_path!r} cannot be read: {exc}") from None


def _natural_key(label: str) -> list[tuple[int, object]]:
    # digit runs compare numerically, so "5.04" sorts before "23.04"
    return [(0, int(run)) if run.isdigit() else (1, run)
            for run in re.split(r"(\d+)", label) if run]


def list_snapshots(db_path: str) -> list[Snapshot]:
    """All snapshots in natural version order, then scan time."""
    with _read_only(db_path) as (con, _):
        rows = [_snapshot(row) for row in con.execute(f"SELECT {_SNAPSHOT} FROM snapshots")]
    return sorted(rows, key=lambda s: (_natural_key(s.label), s.scanned_at, s.label))
