from __future__ import annotations

import hashlib
import os
import sqlite3
import subprocess
import sys
import textwrap

import pytest

from depex.elf import FileKind
from depex.resolver import Origin, SearchConfig
from depex.scanner import ScanOptions, scan_tree
from depex.store import (DependencyEdge, DependencyGraph, DuplicateLabel,
                         FileNode, StorageFailure, UnknownLabel, UnknownNode,
                         UnreadableDatabase, list_snapshots, load_graph,
                         open_db, save_snapshot)
from graphbuild import EXE, LIB, build_graph


class FakeResult:
    """Duck-typed stand-in for a ScanResult when no tree is needed."""

    def __init__(self, nodes, edges, root="/fake"):
        self.nodes = nodes
        self.edges = edges
        self.root = root


def db_file(tmp_path) -> str:
    return str(tmp_path / "corpus.db")


def file_hash(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def small_result():
    nodes = [
        FileNode(0, None, "/bin/app", ["/alias/app"], FileKind.EXECUTABLE_BINARY, None, 100),
        FileNode(1, None, "/lib/liba.so", [], FileKind.SHARED_LIBRARY, "liba.so", 200),
        FileNode(2, None, "/lib/libb.so", [], FileKind.SHARED_LIBRARY, "libb.so", 300),
    ]
    edges = [
        DependencyEdge(0, None, 0, "liba.so", 1, Origin.DEFAULT_DIR),
        DependencyEdge(1, None, 0, "libmissing.so", None, None),
        DependencyEdge(2, None, 1, "libb.so", 2, Origin.LDSO_CONF),
    ]
    return FakeResult(nodes, edges)


def test_roundtrip(tmp_path):
    db = db_file(tmp_path)
    save_snapshot(small_result(), "s1", db)
    graph = load_graph("s1", db)
    assert sorted(n.canonical_path for n in graph.nodes.values()) == \
        ["/bin/app", "/lib/liba.so", "/lib/libb.so"]
    app = next(n for n in graph.nodes.values() if n.canonical_path == "/bin/app")
    assert app.alias_paths == ["/alias/app"]
    assert app.kind is FileKind.EXECUTABLE_BINARY
    assert app.size_bytes == 100
    out = graph.out_edges(app.id)
    assert [(e.needed_name, e.resolved) for e in out] == \
        [("liba.so", True), ("libmissing.so", False)]
    assert out[0].origin is Origin.DEFAULT_DIR
    assert graph.missing_names == {(app.id, "libmissing.so")}


def test_scan_roundtrip_preserves_graph(demo_sysroot, tmp_path):
    db = db_file(tmp_path)
    result = scan_tree(ScanOptions(SearchConfig(demo_sysroot.root)))
    save_snapshot(result, "demo", db)
    graph = load_graph("demo", db)
    assert len(graph.nodes) == len(result.nodes)
    scan_edges = {(result.nodes[e.from_node].canonical_path, e.needed_name,
                   None if e.to_node is None else result.nodes[e.to_node].canonical_path)
                  for e in result.edges}
    db_edges = {(graph.nodes[e.from_node].canonical_path, e.needed_name,
                 None if e.to_node is None else graph.nodes[e.to_node].canonical_path)
                for e in graph.edges()}
    assert scan_edges == db_edges


def test_duplicate_label(tmp_path):
    db = db_file(tmp_path)
    save_snapshot(small_result(), "s1", db)
    with pytest.raises(DuplicateLabel):
        save_snapshot(small_result(), "s1", db)


def test_unknown_label(tmp_path):
    db = db_file(tmp_path)
    save_snapshot(small_result(), "s1", db)
    with pytest.raises(UnknownLabel):
        load_graph("nope", db)


def test_cycle_roundtrips(tmp_path):
    nodes = [
        FileNode(0, None, "/lib/liba.so", [], FileKind.SHARED_LIBRARY, "liba.so"),
        FileNode(1, None, "/lib/libb.so", [], FileKind.SHARED_LIBRARY, "libb.so"),
    ]
    edges = [
        DependencyEdge(0, None, 0, "libb.so", 1, Origin.DEFAULT_DIR),
        DependencyEdge(1, None, 1, "liba.so", 0, Origin.DEFAULT_DIR),
    ]
    db = db_file(tmp_path)
    save_snapshot(FakeResult(nodes, edges), "cyc", db)
    graph = load_graph("cyc", db)
    assert len(list(graph.edges())) == 2
    a = next(n.id for n in graph.nodes.values() if n.canonical_path == "/lib/liba.so")
    assert graph.reachable_from(a) == {n for n in graph.nodes} - {a}


def test_edge_to_unknown_node_is_storage_failure(tmp_path):
    nodes = [FileNode(0, None, "/bin/app", [], FileKind.EXECUTABLE_BINARY)]
    edges = [DependencyEdge(0, None, 0, "liba.so", 99, Origin.DEFAULT_DIR)]
    db = db_file(tmp_path)
    save_snapshot(small_result(), "keep", db)
    before = file_hash(db)
    with pytest.raises(StorageFailure):
        save_snapshot(FakeResult(nodes, edges), "bad", db)
    assert [s.label for s in list_snapshots(db)] == ["keep"]
    graph = load_graph("keep", db)
    assert len(graph.nodes) == 3
    assert file_hash(db) == before


def test_failed_save_leaves_db_unchanged(tmp_path):
    db = db_file(tmp_path)
    save_snapshot(small_result(), "s1", db)
    with pytest.raises(DuplicateLabel):
        save_snapshot(small_result(), "s1", db)
    assert [s.label for s in list_snapshots(db)] == ["s1"]


def test_duplicate_needed_name_rejected(tmp_path):
    nodes = [
        FileNode(0, None, "/bin/app", [], FileKind.EXECUTABLE_BINARY),
        FileNode(1, None, "/lib/liba.so", [], FileKind.SHARED_LIBRARY, "liba.so"),
    ]
    edges = [
        DependencyEdge(0, None, 0, "liba.so", 1, Origin.DEFAULT_DIR),
        DependencyEdge(1, None, 0, "liba.so", 1, Origin.DEFAULT_DIR),
    ]
    with pytest.raises(StorageFailure):
        save_snapshot(FakeResult(nodes, edges), "dup", db_file(tmp_path))


def test_not_elf_kind_rejected(tmp_path):
    nodes = [FileNode(0, None, "/etc/motd", [], FileKind.NOT_ELF)]
    with pytest.raises(StorageFailure):
        save_snapshot(FakeResult(nodes, []), "bad", db_file(tmp_path))


def kill_writer_mid_transaction(db: str, rows: int, cache_pages: int = 2000) -> None:
    script = textwrap.dedent(f"""
        import os, sqlite3
        con = sqlite3.connect({db!r}, isolation_level=None)
        con.execute("PRAGMA cache_size = {cache_pages}")
        con.execute("BEGIN IMMEDIATE")
        cur = con.execute(
            "INSERT INTO snapshots(label, root_path, scanned_at, tool_version)"
            " VALUES ('doomed', '/', 'now', '0')")
        sid = cur.lastrowid
        for i in range({rows}):
            con.execute(
                "INSERT INTO files(snapshot_id, canonical_path, kind, size_bytes)"
                " VALUES (?, ?, 'library', 0)", (sid, f'/lib/lib{{i}}.so'))
        os._exit(1)
    """)
    proc = subprocess.run([sys.executable, "-c", script])
    assert proc.returncode == 1


def test_kill_during_write_leaves_db_readable(tmp_path):
    db = db_file(tmp_path)
    save_snapshot(small_result(), "committed", db)
    # a writer that dies mid-transaction must leave no trace
    kill_writer_mid_transaction(db, rows=50)
    assert [s.label for s in list_snapshots(db)] == ["committed"]
    graph = load_graph("committed", db)
    assert len(graph.nodes) == 3


def test_read_rolls_back_hot_journal_of_killed_writer(tmp_path):
    db = db_file(tmp_path)
    save_snapshot(small_result(), "committed", db)
    # a 10-page cache makes the writer spill uncommitted pages into the file,
    # leaving a journal that a read-only connection cannot roll back
    kill_writer_mid_transaction(db, rows=5000, cache_pages=10)
    plain = sqlite3.connect(f"file:{db}?mode=ro", uri=True)
    with pytest.raises(sqlite3.OperationalError):
        plain.execute("SELECT label FROM snapshots")
    plain.close()
    assert [s.label for s in list_snapshots(db)] == ["committed"]
    assert len(load_graph("committed", db).nodes) == 3


def test_reads_open_odd_paths_without_creating_files(tmp_path):
    db = str(tmp_path / "v1?mode=rwc#x%41.db")
    save_snapshot(small_result(), "s1", db)
    assert [s.label for s in list_snapshots(db)] == ["s1"]
    assert len(load_graph("s1", "/" + db).nodes) == 3  # "//" starts no URI authority
    missing = str(tmp_path / "typo?mode=rwc.db")
    with pytest.raises(UnreadableDatabase):
        list_snapshots(missing)
    with pytest.raises(UnreadableDatabase):
        load_graph("s1", missing)
    assert sorted(os.listdir(tmp_path)) == [os.path.basename(db)]


def test_list_snapshots_natural_order(tmp_path):
    db = db_file(tmp_path)
    for label in ["23.04", "5.04", "9.10"]:
        save_snapshot(small_result(), label, db)
    assert [s.label for s in list_snapshots(db)] == ["5.04", "9.10", "23.04"]


def test_list_snapshots_mixed_labels(tmp_path):
    db = db_file(tmp_path)
    for label in ["a", "5.04"]:
        save_snapshot(small_result(), label, db)
    assert [s.label for s in list_snapshots(db)] == ["5.04", "a"]


def test_list_snapshots_prefixed_versions(tmp_path):
    db = db_file(tmp_path)
    for label in ["ubuntu-23.04", "ubuntu-5.04", "ubuntu-9.10"]:
        save_snapshot(small_result(), label, db)
    assert [s.label for s in list_snapshots(db)] == \
        ["ubuntu-5.04", "ubuntu-9.10", "ubuntu-23.04"]


def test_list_snapshots_empty(tmp_path):
    db = db_file(tmp_path)
    open_db(db).close()
    assert list_snapshots(db) == []


def test_unknown_node_raises():
    graph = build_graph([("/a", EXE)], [])
    with pytest.raises(UnknownNode):
        graph.require(42)


def test_reverse_adjacency_is_exact_transpose():
    graph = build_graph(
        [("/a", EXE), ("/b", LIB), ("/c", LIB)],
        [(0, "b", 1), (0, "c", 2), (1, "c", 2), (2, "ghost", None)])
    forward = {(e.from_node, e.to_node) for e in graph.edges() if e.resolved}
    transposed = {(e.from_node, e.to_node)
                  for edges in graph.reverse_adjacency.values() for e in edges}
    assert forward == transposed


STORABLE_KINDS = [k for k in FileKind if k is not FileKind.NOT_ELF]


def release(k: int) -> FakeResult:
    """Snapshot k of three: every storable kind, every origin, aliases, a
    missing name and a two-node cycle, with paths and sizes that differ
    from release to release."""
    nodes = [FileNode(0, None, f"/bin/app{k}", [f"/usr/bin/app{k}", f"/sbin/app{k}"],
                      FileKind.EXECUTABLE_BINARY, None, 100 + k)]
    for i, kind in enumerate(STORABLE_KINDS * 2, start=1):
        soname = f"lib{i}.so.{k}" if kind is FileKind.SHARED_LIBRARY else None
        aliases = [f"/lib/lib{i}.so.{k}"] if i % 2 else []
        nodes.append(FileNode(i, None, f"/usr/lib/r{k}/lib{i}.so", aliases, kind,
                              soname, 1000 * k + i))
    edges = [DependencyEdge(j, None, 0, f"lib{j + 1}.so.{k}", j + 1, origin)
             for j, origin in enumerate(Origin)]
    last = len(nodes) - 1
    edges += [
        DependencyEdge(len(edges), None, 0, f"libghost.so.{k}"),
        DependencyEdge(len(edges) + 1, None, 1, "cycle-b", last, Origin.RUNPATH),
        DependencyEdge(len(edges) + 2, None, last, "cycle-a", 1, Origin.DEFAULT_DIR),
    ]
    return FakeResult(nodes, edges, root=f"/srv/r{k}")


def saved_rows(result):
    nodes = sorted((n.canonical_path, sorted(n.alias_paths), n.kind, n.soname, n.size_bytes)
                   for n in result.nodes)
    path = {n.id: n.canonical_path for n in result.nodes}
    edges = sorted((path[e.from_node], e.needed_name,
                    None if e.to_node is None else path[e.to_node], e.origin)
                   for e in result.edges)
    return nodes, edges


def loaded_rows(graph):
    return saved_rows(FakeResult(list(graph.nodes.values()), list(graph.edges())))


def test_three_snapshots_roundtrip_apart(tmp_path):
    db = db_file(tmp_path)
    releases = {f"r{k}": release(k) for k in (1, 2, 3)}
    for label, result in releases.items():
        save_snapshot(result, label, db)
    seen_ids: set[int] = set()
    for k in (1, 2, 3):
        label, result = f"r{k}", releases[f"r{k}"]
        graph = load_graph(label, db)
        assert graph.snapshot.label == label and graph.snapshot.root_path == result.root
        assert loaded_rows(graph) == saved_rows(result)
        sid = graph.snapshot.id
        assert {n.snapshot_id for n in graph.nodes.values()} == {sid}
        assert {e.snapshot_id for e in graph.edges()} == {sid}
        assert all(e.from_node in graph and (e.to_node is None or e.to_node in graph)
                   for e in graph.edges())
        assert not seen_ids & graph.nodes.keys()
        seen_ids |= graph.nodes.keys()
        assert {e.origin for e in graph.edges()} == set(Origin) | {None}
        assert {n.kind for n in graph.nodes.values()} == set(STORABLE_KINDS)
        ids = {n.canonical_path: n.id for n in graph.nodes.values()}
        a, b = ids[f"/usr/lib/r{k}/lib1.so"], ids[f"/usr/lib/r{k}/lib{len(ids) - 1}.so"]
        assert a in graph.reachable_from(b) and b in graph.reachable_from(a)
        assert graph.missing_names == {(ids[f"/bin/app{k}"], f"libghost.so.{k}")}


def connect_plain(db: str) -> sqlite3.Connection:
    return sqlite3.connect(f"file:{db}?mode=ro", uri=True)


def traced_statements(monkeypatch) -> list[str]:
    """Every SQL statement the store runs from now on, values filled in."""
    statements: list[str] = []
    connect = sqlite3.connect

    def tracing(*args, **kwargs):
        con = connect(*args, **kwargs)
        con.set_trace_callback(statements.append)
        return con

    monkeypatch.setattr(sqlite3, "connect", tracing)
    return statements


def test_deps_load_reads_through_the_snapshot_index(tmp_path, monkeypatch):
    db = db_file(tmp_path)
    for k in (1, 2, 3):
        save_snapshot(release(k), f"r{k}", db)
    statements = traced_statements(monkeypatch)
    load_graph("r2", db)
    deps_queries = [s for s in statements if " FROM deps" in s]
    assert len(deps_queries) == 1
    con = connect_plain(db)
    plan = [row[3] for row in con.execute("EXPLAIN QUERY PLAN " + deps_queries[0])]
    con.close()
    assert plan == ["SEARCH deps USING INDEX idx_deps_snapshot (snapshot_id=?)"]


def test_files_load_reads_through_the_snapshot_index_unsorted(tmp_path, monkeypatch):
    db = db_file(tmp_path)
    for k in (1, 2, 3):
        save_snapshot(release(k), f"r{k}", db)
    statements = traced_statements(monkeypatch)
    load_graph("r2", db)
    files_queries = [s for s in statements
                     if s.lstrip().startswith("SELECT id, canonical_path")]
    assert len(files_queries) == 1
    con = connect_plain(db)
    plan = [row[3] for row in con.execute("EXPLAIN QUERY PLAN " + files_queries[0])]
    con.close()
    assert plan == ["SEARCH files USING INDEX idx_files_snapshot (snapshot_id=?)"]


# _SCHEMA as written before idx_deps_snapshot replaced the two deps indexes
OLD_SCHEMA = """
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
CREATE INDEX IF NOT EXISTS idx_deps_from ON deps(from_file);
CREATE INDEX IF NOT EXISTS idx_deps_to ON deps(to_file);
CREATE INDEX IF NOT EXISTS idx_files_snapshot_kind ON files(snapshot_id, kind);
"""


def index_names(db: str) -> set[str]:
    con = connect_plain(db)
    names = {row[0] for row in con.execute(
        "SELECT name FROM sqlite_master WHERE type = 'index' AND sql IS NOT NULL")}
    con.close()
    return names


def graph_dump(graph) -> tuple:
    return (graph.snapshot,
            [(n.id, n.canonical_path, n.alias_paths, n.kind, n.soname, n.size_bytes)
             for n in graph.nodes.values()],
            [(e.id, e.from_node, e.needed_name, e.to_node, e.origin) for e in graph.edges()])


def test_old_schema_database_loads_the_same_and_migrates_on_save(tmp_path):
    new_db, old_db = str(tmp_path / "new.db"), str(tmp_path / "old.db")
    for k in (1, 2):
        save_snapshot(release(k), f"r{k}", new_db)
    con = sqlite3.connect(old_db, isolation_level=None)
    con.executescript(OLD_SCHEMA)
    con.execute("ATTACH DATABASE ? AS new", (new_db,))
    for table in ("snapshots", "files", "file_aliases", "deps"):
        con.execute(f"INSERT INTO main.{table} SELECT * FROM new.{table} ORDER BY rowid")
    con.execute("DETACH DATABASE new")
    con.close()
    old_indexes = {"idx_deps_from", "idx_deps_to", "idx_files_snapshot_kind"}
    assert index_names(old_db) == old_indexes

    before = file_hash(old_db)
    loaded = {label: graph_dump(load_graph(label, old_db)) for label in ("r1", "r2")}
    for label, dump in loaded.items():
        assert dump == graph_dump(load_graph(label, new_db))
    assert [s.label for s in list_snapshots(old_db)] == ["r1", "r2"]
    assert file_hash(old_db) == before
    assert index_names(old_db) == old_indexes

    save_snapshot(release(3), "r3", old_db)
    assert index_names(old_db) == {"idx_deps_snapshot", "idx_files_snapshot"}
    for label, dump in loaded.items():
        assert graph_dump(load_graph(label, old_db)) == dump
    assert loaded_rows(load_graph("r3", old_db)) == saved_rows(release(3))
