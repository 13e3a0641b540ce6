from __future__ import annotations

import gc
import hashlib
import os
import random
import re
import sqlite3
import subprocess
import sys
import textwrap
import time
import zlib
from array import array

import pytest

import depex.store
from depex.cli import run_cli
from depex.dot import dot_chunks
from depex.elf import FileKind
from depex.metrics import closure_sizes, health, popularity, stats_summary
from depex.queries import get_all_deps, get_deps, update_impact, who_uses
from depex.resolver import Origin, SearchConfig
from depex.scanner import ScanOptions, scan_tree
from depex.store import (_COLUMNS, DependencyEdge, DependencyGraph, DuplicateLabel,
                         FileNode, Snapshot, StorageFailure, UnknownLabel, UnknownNode,
                         UnreadableDatabase, _pack, _pack_ints, _unpack, list_snapshots,
                         load_graph, open_db, save_snapshot)
from conftest import database_from_dump
from graphbuild import EXE, LIB, build_graph, edge_records, edge_sources, random_graph


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


def unresolved(graph) -> set[tuple[int, str]]:
    """(node id, needed name) of every unresolved edge."""
    return {(e.from_node, e.needed_name) for e in edge_records(graph) if e.to_node is None}


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
    out = graph.adjacency[app.id]
    assert [(e.needed_name, e.to_node is not None) for e in out] == \
        [("liba.so", True), ("libmissing.so", False)]
    assert out[0].origin is Origin.DEFAULT_DIR
    assert unresolved(graph) == {(app.id, "libmissing.so")}


def test_scan_ids_survive_save_and_load(demo_sysroot, tmp_path):
    # node and edge ids are positions: the second snapshot of a database
    # loads with the scan's ids, not with its row ids
    db = db_file(tmp_path)
    result = scan_tree(ScanOptions(SearchConfig(demo_sysroot.root)))
    save_snapshot(result, "first", db)
    save_snapshot(result, "second", db)
    graph = load_graph("second", db)
    assert [(n.id, n.canonical_path) for n in graph.nodes.values()] == \
        [(n.id, n.canonical_path) for n in result.nodes]
    assert [(e.id, e.from_node, e.needed_name, e.to_node, e.origin)
            for e in edge_records(graph)] == \
        [(e.id, e.from_node, e.needed_name, e.to_node, e.origin) for e in result.edges]


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
                for e in edge_records(graph)}
    assert scan_edges == db_edges


def test_duplicate_label(tmp_path):
    db = db_file(tmp_path)
    save_snapshot(small_result(), "s1", db)
    with pytest.raises(DuplicateLabel):
        save_snapshot(small_result(), "s1", db)


def test_save_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, collector):
    seen = []
    pack = depex.store._pack
    monkeypatch.setattr(depex.store, "_pack",
                        lambda *columns: seen.append(gc.isenabled()) or pack(*columns))
    db = db_file(tmp_path)
    save_snapshot(small_result(), "s1", db)
    assert seen == [False]  # paused while the save runs
    assert gc.isenabled() is collector
    with pytest.raises(DuplicateLabel):
        save_snapshot(small_result(), "s1", db)
    assert gc.isenabled() is collector
    with pytest.raises(StorageFailure):
        save_snapshot(FakeResult(small_result().nodes[:1], small_result().edges), "s2", db)
    assert gc.isenabled() is collector


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
    assert len(edge_records(graph)) == 2
    a = next(n.id for n in graph.nodes.values() if n.canonical_path == "/lib/liba.so")
    assert graph.reachable_from(a) == {n for n in graph.nodes} - {a}


@pytest.mark.parametrize("from_node, to_node", [(0, 99), (99, 0)], ids=["to_node", "from_node"])
def test_edge_to_unknown_node_is_storage_failure(tmp_path, from_node, to_node):
    nodes = [FileNode(0, None, "/bin/app", [], FileKind.EXECUTABLE_BINARY)]
    edges = [DependencyEdge(0, None, from_node, "liba.so", to_node, Origin.DEFAULT_DIR)]
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


def _replace(records: list, i: int, **fields) -> None:
    records[i] = records[i]._replace(**fields)


UNSTORABLE = {
    "duplicate path": lambda r: _replace(r.nodes, 2, canonical_path="/lib/liba.so"),
    "NUL in a path": lambda r: _replace(r.nodes, 1, canonical_path="/lib/li\0ba.so"),
    "NUL in an alias": lambda r: r.nodes[0].alias_paths.append("/alias/\0app"),
    "NUL in a soname": lambda r: _replace(r.nodes, 1, soname="liba.so\0"),
    "NUL in a needed name": lambda r: _replace(r.edges, 1, needed_name="\0libmissing.so"),
    "size past int64": lambda r: _replace(r.nodes, 1, size_bytes=2**63),
}


@pytest.mark.parametrize("change", UNSTORABLE)
def test_unstorable_snapshot_fails_and_leaves_db_unchanged(tmp_path, change):
    # one path per node and no NUL, which ends each stored string
    db = db_file(tmp_path)
    save_snapshot(small_result(), "keep", db)
    before = file_hash(db)
    bad = small_result()
    UNSTORABLE[change](bad)
    with pytest.raises(StorageFailure):
        save_snapshot(bad, "bad", db)
    assert file_hash(db) == before
    assert [s.label for s in list_snapshots(db)] == ["keep"]


@pytest.mark.parametrize("write", [open_db, lambda db: save_snapshot(small_result(), "s1", db)],
                         ids=["open_db", "save_snapshot"])
def test_writing_into_a_file_that_is_no_database_is_unreadable(tmp_path, write):
    db = tmp_path / "notes.txt"
    db.write_bytes(b"not a database\n" * 100)
    with pytest.raises(UnreadableDatabase, match=f"^cannot open database {str(db)!r}: "):
        write(str(db))
    assert db.read_bytes() == b"not a database\n" * 100
    assert os.listdir(tmp_path) == ["notes.txt"]


def test_newer_schema_version_is_unreadable(tmp_path):
    db = db_file(tmp_path)
    save_snapshot(small_result(), "s1", db)
    con = sqlite3.connect(db)
    con.execute("PRAGMA user_version = 5")
    con.close()
    before = file_hash(db)
    for call in (lambda: list_snapshots(db), lambda: load_graph("s1", db),
                 lambda: save_snapshot(small_result(), "s2", db)):
        with pytest.raises(UnreadableDatabase, match="schema version 5"):
            call()
    assert file_hash(db) == before


def kill_writer_mid_transaction(db: str, rows: int, cache_pages: int = 2000) -> None:
    script = textwrap.dedent(f"""
        import os, sqlite3
        con = sqlite3.connect({db!r}, isolation_level=None)
        con.execute("PRAGMA cache_size = {cache_pages}")
        con.execute("BEGIN IMMEDIATE")
        for i in range({rows}):
            con.execute(
                "INSERT INTO snapshots(label, root_path, scanned_at, tool_version)"
                " VALUES (?, '/', 'now', '0')", (f'doomed{{i}}',))
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
    # a node id is a position, so -1 must not wrap around to the last node
    for node_id in (42, -1, len(graph.nodes)):
        with pytest.raises(UnknownNode):
            graph.require(node_id)
        with pytest.raises(UnknownNode):
            who_uses(graph, node_id)
        assert node_id not in graph
        assert graph.nodes.get(node_id) is None and graph.adjacency.get(node_id) is None
    assert list(graph.nodes) == [0] and 0 in graph


def test_reverse_adjacency_is_exact_transpose():
    graph = build_graph(
        [("/a", EXE), ("/b", LIB), ("/c", LIB)],
        [(0, "b", 1), (0, "c", 2), (1, "c", 2), (2, "ghost", None)])
    forward = {(e.from_node, e.to_node) for e in edge_records(graph) if e.to_node is not None}
    transposed = {(s, target) for target in range(len(graph.nodes))
                  for s in graph.in_src[graph.in_start[target]:graph.in_start[target + 1]]}
    assert forward == transposed


STORABLE_KINDS = list(FileKind)


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
    return saved_rows(FakeResult(list(graph.nodes.values()), edge_records(graph)))


def test_three_snapshots_roundtrip_apart(tmp_path):
    db = db_file(tmp_path)
    releases = {f"r{k}": release(k) for k in (1, 2, 3)}
    for label, result in releases.items():
        save_snapshot(result, label, db)
    for k in (1, 2, 3):
        label, result = f"r{k}", releases[f"r{k}"]
        graph = load_graph(label, db)
        assert graph.snapshot.label == label and graph.snapshot.root_path == result.root
        assert loaded_rows(graph) == saved_rows(result)
        sid = graph.snapshot.id
        assert {n.snapshot_id for n in graph.nodes.values()} == {sid}
        assert {e.snapshot_id for e in edge_records(graph)} == {sid}
        assert all(e.from_node in graph and (e.to_node is None or e.to_node in graph)
                   for e in edge_records(graph))
        assert {e.origin for e in edge_records(graph)} == set(Origin) | {None}
        assert {n.kind for n in graph.nodes.values()} == set(STORABLE_KINDS)
        ids = {n.canonical_path: n.id for n in graph.nodes.values()}
        a, b = ids[f"/usr/lib/r{k}/lib1.so"], ids[f"/usr/lib/r{k}/lib{len(ids) - 1}.so"]
        assert a in graph.reachable_from(b) and b in graph.reachable_from(a)
        assert unresolved(graph) == {(ids[f"/bin/app{k}"], f"libghost.so.{k}")}


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


def test_load_reads_one_graphs_row_by_its_key(tmp_path, monkeypatch):
    db = db_file(tmp_path)
    for k in (1, 2, 3):
        save_snapshot(release(k), f"r{k}", db)
    statements = traced_statements(monkeypatch)
    load_graph("r2", db)
    queries = [s for s in statements if s.lstrip().startswith("SELECT")]
    assert len(queries) == 2  # the snapshot by its label, then its graph
    assert " FROM graphs WHERE snapshot_id = " in queries[1]
    con = connect_plain(db)
    plan = [row[3] for row in con.execute("EXPLAIN QUERY PLAN " + queries[1])]
    con.close()
    assert plan == ["SEARCH graphs USING INTEGER PRIMARY KEY (rowid=?)"]


def test_deps_load_reads_through_the_snapshot_index(v0_db, monkeypatch):
    # a version 0 database is read from its deps table until it is converted
    statements = traced_statements(monkeypatch)
    load_graph("1", v0_db)
    deps_queries = [s for s in statements if " FROM deps" in s]
    assert len(deps_queries) == 1
    con = connect_plain(v0_db)
    plan = [row[3] for row in con.execute("EXPLAIN QUERY PLAN " + deps_queries[0])]
    con.close()
    assert plan == ["SEARCH deps USING INDEX idx_deps_snapshot (snapshot_id=?)"]


def test_files_load_reads_through_the_snapshot_index_unsorted(v0_db, monkeypatch):
    statements = traced_statements(monkeypatch)
    load_graph("1", v0_db)
    files_queries = [s for s in statements
                     if s.lstrip().startswith("SELECT id, canonical_path")]
    assert len(files_queries) == 1
    con = connect_plain(v0_db)
    plan = [row[3] for row in con.execute("EXPLAIN QUERY PLAN " + files_queries[0])]
    con.close()
    assert plan == ["SEARCH files USING INDEX idx_files_snapshot (snapshot_id=?)"]


def schema(db: str) -> tuple[int, set[str]]:
    """The user_version and the name of every table and index."""
    con = connect_plain(db)
    try:
        version, = con.execute("PRAGMA user_version").fetchone()
        return version, {row[0] for row in con.execute("SELECT name FROM sqlite_master")}
    finally:
        con.close()


def graph_dump(graph) -> tuple:
    return (graph.snapshot,
            [(n.id, n.canonical_path, n.alias_paths, n.kind, n.soname, n.size_bytes)
             for n in graph.nodes.values()],
            [(e.id, e.from_node, e.needed_name, e.to_node, e.origin) for e in edge_records(graph)])


TABLES = {"snapshots", "sqlite_autoindex_snapshots_1", "graphs"}


def test_old_schema_database_loads_the_same_and_migrates_on_save(v0_db, demo_sysroot,
                                                                 tmp_path):
    # the same scans saved by this version, in the same order
    new_db = str(tmp_path / "new.db")
    save_snapshot(scan_tree(ScanOptions(SearchConfig(demo_sysroot.root))), "demo", new_db)
    for k in (1, 2):
        save_snapshot(release(k), str(k), new_db)
    assert schema(new_db) == (4, TABLES)
    version, tables = schema(v0_db)
    assert version == 0 and {"files", "file_aliases", "deps"} <= tables

    before = file_hash(v0_db)
    loaded = {}
    for label in ("demo", "1", "2"):
        old, new = load_graph(label, v0_db), load_graph(label, new_db)
        assert (old.snapshot.id, old.snapshot.label) == (new.snapshot.id, label)
        assert graph_dump(old)[1:] == graph_dump(new)[1:]
        assert answers(old) == answers(new)
        loaded[label] = graph_dump(old)
    assert [s.label for s in list_snapshots(v0_db)] == ["1", "2", "demo"]
    assert file_hash(v0_db) == before
    with pytest.raises(DuplicateLabel):
        save_snapshot(release(3), "demo", v0_db)
    assert file_hash(v0_db) == before

    save_snapshot(release(3), "3", v0_db)
    assert schema(v0_db) == (4, TABLES)
    con = connect_plain(v0_db)
    assert con.execute("SELECT snapshot_id FROM graphs ORDER BY 1").fetchall() == \
        [(1,), (2,), (3,), (4,)]
    con.close()
    for label, dump in loaded.items():
        assert graph_dump(load_graph(label, v0_db)) == dump
    assert loaded_rows(load_graph("3", v0_db)) == saved_rows(release(3))


def older_database_loads_the_same_and_converts_on_save(db, version, demo_sysroot, tmp_path):
    new_db = str(tmp_path / "new.db")
    save_snapshot(scan_tree(ScanOptions(SearchConfig(demo_sysroot.root))), "demo", new_db)
    save_snapshot(release(1), "1", new_db)
    assert schema(db) == (version, TABLES)
    before = file_hash(db)
    loaded = {label: graph_dump(load_graph(label, db)) for label in ("demo", "1")}
    for label, dump in loaded.items():
        assert dump[1:] == graph_dump(load_graph(label, new_db))[1:]
    assert [(s.label, s.root_path) for s in list_snapshots(db)] == \
        [("1", "/srv/r1"), ("demo", "/srv/demo")]
    with pytest.raises(DuplicateLabel):  # the conversion rolls back with the save
        save_snapshot(release(2), "demo", db)
    assert file_hash(db) == before

    save_snapshot(release(2), "2", db)
    assert schema(db) == (4, TABLES)
    for label, dump in loaded.items():
        assert graph_dump(load_graph(label, db)) == dump
    assert loaded_rows(load_graph("2", db)) == saved_rows(release(2))
    con = connect_plain(db)
    # a width code, then a byte per node and per edge, in a zlib stream
    assert [(len(zlib.decompress(kinds)), len(zlib.decompress(origins))) for kinds, origins
            in con.execute("SELECT kinds, origins FROM graphs ORDER BY snapshot_id")] == \
        [(11, 11), (8, 10), (8, 10)]
    assert con.execute("PRAGMA freelist_count").fetchone() == (0,)
    con.close()


def test_v1_database_loads_the_same_and_converts_on_save(v1_db, demo_sysroot, tmp_path):
    older_database_loads_the_same_and_converts_on_save(v1_db, 1, demo_sysroot, tmp_path)


def test_v2_database_loads_the_same_and_converts_on_save(v2_db, demo_sysroot, tmp_path):
    older_database_loads_the_same_and_converts_on_save(v2_db, 2, demo_sysroot, tmp_path)


def test_v3_database_loads_the_same_and_converts_on_save(v3_db, demo_sysroot, tmp_path):
    older_database_loads_the_same_and_converts_on_save(v3_db, 3, demo_sysroot, tmp_path)


@pytest.mark.parametrize("convert", [False, True], ids=["as-is", "converted"])
@pytest.mark.parametrize("name", ["v0", "v1", "v2", "v3"])
def test_fixture_aliases_group_into_the_saved_lists(demo_sysroot, tmp_path, name, convert):
    db = database_from_dump(tmp_path, name)
    if convert:
        open_db(db).close()
    demo = scan_tree(ScanOptions(SearchConfig(demo_sysroot.root)))
    for label in ("demo", "1", "2") if name == "v0" else ("demo", "1"):
        saved = {n.canonical_path: n.alias_paths for n in
                 (demo if label == "demo" else release(int(label))).nodes if n.alias_paths}
        graph = load_graph(label, db)
        # the columns as stored: grouped by node, in node order
        assert [(graph.paths[p], alias) for p, alias in zip(graph.alias_nodes,
                                                             graph.alias_paths)] == \
            [(path, alias) for path, group in saved.items() for alias in group]
        assert "nodes" not in vars(graph)
        assert {graph.paths[p]: graph.nodes[p].alias_paths
                for p in graph.nodes if graph.nodes[p].alias_paths} == saved
        assert {n.canonical_path: n.alias_paths
                for n in graph.nodes.values() if n.alias_paths} == saved


def test_a_v1_row_that_does_not_decode_stops_the_save_that_would_convert_it(v1_db):
    con = sqlite3.connect(v1_db)
    with con:
        con.execute("UPDATE graphs SET names = x'00' WHERE snapshot_id = 2")
    con.close()
    before = file_hash(v1_db)
    with pytest.raises(UnreadableDatabase, match="snapshot '1' cannot be converted: column names"):
        save_snapshot(release(2), "2", v1_db)
    assert file_hash(v1_db) == before
    assert len(load_graph("demo", v1_db).nodes) == 10


def width_coded(blob: bytes) -> tuple[str, list[int]]:
    """The width code of a version 3 integer column and its values."""
    column = array(blob[:1].decode(), blob[1:])
    if sys.byteorder == "big":
        column.byteswap()
    return column.typecode, column.tolist()


def test_v4_row_layout(demo_sysroot, tmp_path):
    # the three text columns inflate to NUL-terminated UTF-8; each integer
    # column is its width code, then its values at the narrowest width that
    # holds them, and all but names and dst are a zlib stream of that; src
    # holds each node's out-degree; each kind and origin is a code into
    # strings, whose kinds and origins come first
    db = db_file(tmp_path)
    result = scan_tree(ScanOptions(SearchConfig(demo_sysroot.root)))
    save_snapshot(result, "demo", db)
    con = connect_plain(db)
    cur = con.execute("SELECT * FROM graphs")
    row = dict(zip([d[0] for d in cur.description], cur.fetchone()))
    con.close()
    graph = load_graph("demo", db)
    strings = zlib.decompress(row["strings"]).split(b"\0")
    assert strings.pop() == b""
    assert strings[:5] == [b"executable", b"library", b"runpath", b"ldso-conf", b"rpath"]
    assert zlib.decompress(row["paths"]) == \
        b"".join(n.canonical_path.encode() + b"\0" for n in result.nodes)
    assert zlib.decompress(row["aliases"]) == \
        b"".join(a.encode() + b"\0" for n in result.nodes for a in n.alias_paths)
    ints = {name: width_coded(row[name] if name in ("names", "dst") else
                              zlib.decompress(row[name])) for name in
            ("kinds", "sonames", "sizes", "alias_nodes", "src", "names", "dst", "origins")}
    # sizes of 801-934 bytes need two; the demo tree's other integers fit in one
    assert {name: code for name, (code, _) in ints.items()} == {
        **dict.fromkeys(ints, "b"), "sizes": "h"}
    assert (len(zlib.decompress(row["kinds"])), len(zlib.decompress(row["origins"]))) == \
        (len(result.nodes) + 1, len(result.edges) + 1)
    assert [strings[k] for k in ints["kinds"][1]] == [n.kind.value.encode() for n in result.nodes]
    assert [o >= 0 and strings[o] for o in ints["origins"][1]] == \
        [o is not None and o.value.encode() for o in graph.origins]
    assert ints["sizes"][1] == [n.size_bytes for n in result.nodes] == graph.sizes
    degrees = ints["src"][1]
    assert len(degrees) == len(result.nodes) and 0 in degrees
    assert [p for p, degree in enumerate(degrees) for _ in range(degree)] == edge_sources(graph)
    assert degrees == [sum(e.from_node == p for e in result.edges)
                       for p in range(len(result.nodes))]
    assert ints["dst"][1] == graph.dst


@pytest.mark.parametrize("values, code", [
    ([], "b"), ([0], "b"), ([127], "b"), ([-128], "b"), ([128], "h"), ([-129], "h"),
    ([32767], "h"), ([-32768], "h"), ([32768], "i"), ([-32769], "i"), ([2**31 - 1], "i"),
    ([-2**31], "i"), ([2**31], "q"), ([-2**31 - 1], "q"), ([2**63 - 1], "q"), ([-2**63], "q"),
    ([-1, 127], "b"), ([-1, 128], "h"), ([-129, 127], "h")])
def test_integer_column_takes_the_narrowest_width(values, code):
    assert width_coded(_pack_ints(values)) == (code, values)


@pytest.mark.parametrize("size, code", [
    (127, "b"), (128, "h"), (32767, "h"), (32768, "i"), (2**31 - 1, "i"), (2**31, "q"),
    (2**63 - 1, "q")])
@pytest.mark.parametrize("nodes, node_code", [(128, "b"), (129, "h")])
def test_width_boundaries_round_trip(tmp_path, size, code, nodes, node_code):
    # the largest size sets the sizes column's width; the last node's
    # position, 127 or 128, sets dst's; each node has one out-edge, so src,
    # the out-degrees, is int8
    db = db_file(tmp_path)
    result = FakeResult(
        [FileNode(p, None, f"/lib/lib{p}.so", [], FileKind.SHARED_LIBRARY, f"lib{p}.so",
                  size if p == nodes - 1 else p) for p in range(nodes)],
        [DependencyEdge(p, None, nodes - 1 - p, "libc.so", p, Origin.DEFAULT_DIR)
         for p in range(nodes)])
    save_snapshot(result, "s", db)
    con = connect_plain(db)
    sizes, src, dst = con.execute("SELECT sizes, src, dst FROM graphs").fetchone()
    con.close()
    assert [width_coded(blob)[0] for blob in (zlib.decompress(sizes), zlib.decompress(src),
                                              dst)] == [code, "b", node_code]
    assert width_coded(zlib.decompress(src))[1] == [1] * nodes
    assert loaded_rows(load_graph("s", db)) == saved_rows(result)


@pytest.mark.parametrize("degree, code", [(127, "b"), (128, "h")])
def test_out_degree_width_boundary_round_trips(tmp_path, degree, code):
    # the first of two nodes needs the second under DEGREE names, so its
    # out-degree alone sets src's width; dst, all 1, stays int8
    db = db_file(tmp_path)
    result = FakeResult(
        [FileNode(p, None, f"/lib/lib{p}.so", [], FileKind.SHARED_LIBRARY, f"lib{p}.so", p)
         for p in range(2)],
        [DependencyEdge(e, None, 0, f"lib1.so.{e}", 1, Origin.DEFAULT_DIR)
         for e in range(degree)])
    save_snapshot(result, "s", db)
    con = connect_plain(db)
    src, dst = con.execute("SELECT src, dst FROM graphs").fetchone()
    con.close()
    assert width_coded(zlib.decompress(src)) == (code, [degree, 0])
    assert width_coded(dst) == ("b", [1] * degree)
    assert loaded_rows(load_graph("s", db)) == saved_rows(result)


def test_a_failed_vacuum_after_a_conversion_keeps_the_save(v0_db, monkeypatch):
    connect = sqlite3.connect

    class NoVacuum(sqlite3.Connection):
        def execute(self, sql, *args):
            if sql == "VACUUM":
                raise sqlite3.OperationalError("database or disk is full")
            return super().execute(sql, *args)

    monkeypatch.setattr(sqlite3, "connect",
                        lambda *args, **kwargs: connect(*args, factory=NoVacuum, **kwargs))
    save_snapshot(release(3), "3", v0_db)
    monkeypatch.undo()
    assert schema(v0_db) == (4, TABLES)
    assert loaded_rows(load_graph("3", v0_db)) == saved_rows(release(3))
    con = connect_plain(v0_db)
    assert con.execute("PRAGMA freelist_count").fetchone()[0] > 0  # the pages stay free
    con.close()


def test_a_save_into_a_locked_database_fails_and_leaves_it_unchanged(tmp_path, monkeypatch,
                                                                      capsys, demo_sysroot):
    db = db_file(tmp_path)
    save_snapshot(small_result(), "keep", db)
    before = file_hash(db)
    holder = sqlite3.connect(db, isolation_level=None)
    holder.execute("BEGIN IMMEDIATE")  # readers may read on; no other writer may begin
    connect = sqlite3.connect  # a short busy timeout, not the default 5 s
    monkeypatch.setattr(sqlite3, "connect",
                        lambda *args, **kwargs: connect(*args, **{**kwargs, "timeout": 0.05}))
    locked = f"cannot write database {db!r}: database is locked"
    try:
        with pytest.raises(StorageFailure, match=f"^{re.escape(locked)}$"):
            save_snapshot(small_result(), "new", db)
        code = run_cli(["scan", "--sysroot", demo_sysroot.root, "--label", "new", "--db", db])
        assert (code, capsys.readouterr().err) == (2, f"depex: {locked}\n")
    finally:
        holder.close()
    assert file_hash(db) == before


def test_a_failed_insert_after_a_conversion_rolls_the_conversion_back(v3_db):
    con = sqlite3.connect(v3_db)
    con.execute("CREATE TRIGGER refuse BEFORE INSERT ON snapshots"
                " BEGIN SELECT RAISE(ABORT, 'no new snapshot'); END")
    con.commit()
    con.close()
    before = file_hash(v3_db)
    with pytest.raises(StorageFailure, match="^no new snapshot$"):
        save_snapshot(release(3), "3", v3_db)  # after _convert has rewritten every graphs row
    assert file_hash(v3_db) == before
    assert schema(v3_db)[0] == 3


def test_old_schema_dependencies_in_no_source_order_load_grouped_by_source(v0_db):
    snapshot = "(SELECT id FROM snapshots WHERE label = '2')"
    con = sqlite3.connect(v0_db)
    with con:  # number the snapshot's dependencies last to first
        ids = [row for row, in con.execute(
            f"SELECT id FROM deps WHERE snapshot_id = {snapshot} ORDER BY id")]
        con.executemany("UPDATE deps SET id = ? WHERE id = ?", [(-row, row) for row in ids])
        con.executemany("UPDATE deps SET id = ? WHERE id = ?",
                        [(new, -old) for new, old in zip(ids, reversed(ids))])
    files = con.execute(f"SELECT id FROM files WHERE snapshot_id = {snapshot} ORDER BY id")
    pos = {file_id: p for p, (file_id,) in enumerate(files)}
    deps = con.execute("SELECT id, from_file, needed_name, to_file, origin FROM deps"
                       f" WHERE snapshot_id = {snapshot} ORDER BY id").fetchall()
    con.close()
    froms = [from_file for _, from_file, *_ in deps]
    assert froms != sorted(froms)
    graph = load_graph("2", v0_db)
    expect = sorted([(pos[from_file], name, -1 if to_file is None else pos[to_file],
                      origin and Origin(origin)) for _, from_file, name, to_file, origin in deps],
                    key=lambda edge: edge[0])  # stable: each source keeps its row order
    assert list(zip(edge_sources(graph), graph.names, graph.dst, graph.origins)) == expect
    assert graph.names[0] == "libghost.so.2"  # the first source's last import comes first


def equivalence_case(rng: random.Random) -> tuple[list, list]:
    """A random graph's node specs and edges: cycles, missing names, a name
    missing from one node and resolved from another, two names from one
    node resolving to the same target, and edges in no source order."""
    graph, n, pairs = random_graph(rng, max_nodes=30)
    nodes = [(node.canonical_path, node.kind) for node in graph.nodes.values()]
    edges = [(e.from_node, e.needed_name, e.to_node) for e in edge_records(graph)]
    edges += [(src, f"alt{dst}.so", dst) for src, dst in sorted(pairs) if rng.random() < 0.2]
    edges += [(src, f"lib{dst}.so", None) for src in range(n) for dst in [rng.randrange(n)]
              if (src, dst) not in pairs and rng.random() < 0.2]
    rng.shuffle(edges)
    return nodes, edges


def answers(graph) -> dict:
    """Every read answer of one graph, with node ids spelled as paths."""
    path = {node_id: node.canonical_path for node_id, node in graph.nodes.items()}
    ids = {p: node_id for node_id, p in path.items()}

    def paths(node_ids):
        return sorted(path[n] for n in node_ids)

    report = health(graph)
    roots = [ids[p] for p in sorted(ids)[:2]]
    out = {
        "stats": stats_summary(graph),
        "closure": {path[n]: size for n, size in closure_sizes(graph).items()},
        "health": (report.missing_names, paths(report.directly_impacted),
                   paths(report.unused_libraries)),
        "popularity": {path[n]: count for n, count in popularity(graph).items()},
        "dot": ["".join(dot_chunks(graph)),
                "".join(dot_chunks(graph, hide_top_k=3)),
                "".join(dot_chunks(graph, roots=roots))],
    }
    for p, n in sorted(ids.items()):
        impact = update_impact(graph, n)
        out[p] = (get_deps(graph, n), paths(get_all_deps(graph, n)),
                  paths(who_uses(graph, n)), paths(who_uses(graph, n, transitive=True)),
                  paths(impact.direct), paths(impact.transitive),
                  paths(impact.executables_affected))
    return out


def test_loaded_graph_answers_like_the_record_built_one(tmp_path):
    db = db_file(tmp_path)
    for seed in range(60):
        nodes, edges = equivalence_case(random.Random(seed))
        built = build_graph(nodes, edges)
        # stored grouped by source, import-table order kept: the two graphs
        # get their edges in different orders
        stored = sorted(edges, key=lambda edge: edge[0])
        save_snapshot(FakeResult(
            [FileNode(i, None, path, [], kind) for i, (path, kind) in enumerate(nodes)],
            [DependencyEdge(i, None, src, name, dst, None if dst is None else Origin.DEFAULT_DIR)
             for i, (src, name, dst) in enumerate(stored)]), f"s{seed}", db)
        assert answers(load_graph(f"s{seed}", db)) == answers(built), seed


def test_record_ids_only_place_nodes_and_edges(tmp_path):
    nodes = [("/bin/app", EXE), ("/lib/liba.so", LIB, "liba.so"), ("/lib/libb.so", LIB)]
    edges = [(0, "liba.so", 1), (0, "libghost.so", None), (1, "libb.so", 2), (2, "liba.so", 1)]
    positional = build_graph(nodes, edges)
    ids = [10, 20, 30]
    db = db_file(tmp_path)
    save_snapshot(FakeResult([
        FileNode(ids[i], None, spec[0], ["/lib/a.so"] if ids[i] == 20 else [], spec[1],
                 (spec[2:] or [None])[0])
        for i, spec in enumerate(nodes)], [
        DependencyEdge(99 - i, None, ids[src], name, None if dst is None else ids[dst],
                       None if dst is None else Origin.DEFAULT_DIR)
        # sources last to first, each source's edges in import-table order
        for i, (src, name, dst) in sorted(enumerate(edges), key=lambda e: -e[1][0])]),
        "ids", db)
    records = load_graph("ids", db)
    assert list(records.nodes) == list(records.adjacency) == [0, 1, 2]
    assert [n.id for n in records.nodes.values()] == [0, 1, 2]
    assert [records.nodes[p].alias_paths for p in records.nodes] == [[], ["/lib/a.so"], []]
    assert [(e.id, e.from_node, e.needed_name, e.to_node) for e in edge_records(records)] == \
        [(0, 0, "liba.so", 1), (1, 0, "libghost.so", None), (2, 1, "libb.so", 2),
         (3, 2, "liba.so", 1)]
    assert 10 not in records
    assert answers(records) == answers(positional)


def test_record_views_are_built_once_and_read_only():
    graph = build_graph([("/bin/app", EXE), ("/lib/liba.so", LIB, "liba.so")],
                        [(0, "liba.so", 1), (0, "libghost.so", None)])
    assert vars(graph).keys().isdisjoint({"nodes", "adjacency"})
    nodes, adjacency = graph.nodes, graph.adjacency
    assert graph.nodes is nodes and graph.adjacency is adjacency  # and the records shared
    for view in (nodes, adjacency):
        assert len(view) == 2 and -1 not in view and 2 not in view
        with pytest.raises(TypeError):
            view[2] = None
    assert [e.to_node for e in adjacency[0]] == [1, None] and adjacency[1] == []


# --- a mutation fuzz of stored graphs rows --------------------------------------
#
# Each case changes one graphs row and asks _unpack for its columns. The row
# must either be refused with ValueError, which load_graph reports as an
# unreadable database, or give columns that build a graph stats_summary runs
# on and that _pack and _unpack return unchanged. The one re-pack failure
# allowed is the known gap: a (node, needed name) pair that a load does not
# refuse, which a save does.

def fuzzed_rows(tmp_path, demo_sysroot) -> list[tuple[str, int, str, list]]:
    """(database, schema version, label, row) of each graphs row of the
    version 1 to 3 fixtures, and of the demo tree's version 4 row."""
    v4_db = db_file(tmp_path)
    save_snapshot(scan_tree(ScanOptions(SearchConfig(demo_sysroot.root))), "demo", v4_db)
    rows = []
    for version, db in [*((v, database_from_dump(tmp_path, f"v{v}")) for v in (1, 2, 3)),
                        (4, v4_db)]:
        con = connect_plain(db)
        rows += [(db, version, label, row) for label, *row in con.execute(
            f"SELECT label, {', '.join(name for name, _ in _COLUMNS)} FROM graphs"
            " JOIN snapshots ON snapshots.id = graphs.snapshot_id ORDER BY label")]
        con.close()
    return rows


def bit_flip(rng, row, codes):
    i = rng.choice([i for i, blob in enumerate(row) if blob])
    blob = bytearray(row[i])
    bit = rng.randrange(8 * len(blob))
    blob[bit // 8] ^= 1 << bit % 8
    row[i] = bytes(blob)


def truncation(rng, row, codes):
    i = rng.choice([i for i, blob in enumerate(row) if blob])
    row[i] = row[i][:rng.randrange(len(row[i]))]


def appended_bytes(rng, row, codes):
    i = rng.randrange(len(row))
    row[i] += rng.randbytes(rng.randint(1, 8))


def spliced_column(rng, row, codes):
    i, j = rng.sample(range(len(row)), 2)
    row[i] = row[j]


def swapped_columns(rng, row, codes):
    i, j = rng.sample(range(len(row)), 2)
    row[i], row[j] = row[j], row[i]


def opened(blob: bytes, code: str) -> bytes:
    return zlib.decompress(blob) if code in "zcd" else blob


def closed(data: bytes, code: str) -> bytes:
    return zlib.compress(data, 1) if code in "zcd" else data


def changed_width_code(rng, row, codes):
    i = rng.choice([i for i, code in enumerate(codes) if code in "wcd"])
    data = opened(row[i], codes[i])
    width = rng.choice([c for c in b"bhiq" if c != data[0]])
    row[i] = closed(bytes([width]) + data[1:], codes[i])


def unknown_width_code(rng, row, codes):
    i = rng.choice([i for i, code in enumerate(codes) if code in "wcd"])
    width = rng.choice([c for c in range(256) if c not in b"bhiq"])
    row[i] = closed(bytes([width]) + opened(row[i], codes[i])[1:], codes[i])


def edit_in_deflated_column(rng, row, codes):
    i = rng.choice([i for i, code in enumerate(codes) if code in "zcd" and opened(row[i], code)])
    data = bytearray(zlib.decompress(row[i]))
    at = rng.randrange(len(data))
    data[at] = (data[at] + rng.randrange(1, 256)) % 256
    row[i] = zlib.compress(bytes(data), 1)


def out_degrees_off_the_edge_count(rng, row, codes):
    i = [name for name, _ in _COLUMNS].index("src")
    _, degrees = width_coded(zlib.decompress(row[i]))
    at = rng.randrange(len(degrees))
    degrees[at] = rng.choice([d for d in range(degrees[at] + 5) if d != degrees[at]])
    row[i] = zlib.compress(_pack_ints(degrees), 1)


# mutation -> the schema versions it applies to, and whether it is always refused
MUTATIONS = {
    bit_flip: ((1, 2, 3, 4), False),
    truncation: ((1, 2, 3, 4), False),
    appended_bytes: ((1, 2, 3, 4), False),
    spliced_column: ((1, 2, 3, 4), False),
    swapped_columns: ((1, 2, 3, 4), False),
    changed_width_code: ((3, 4), False),
    unknown_width_code: ((3, 4), True),
    edit_in_deflated_column: ((2, 3, 4), False),
    out_degrees_off_the_edge_count: ((4,), True),
}
DUPLICATE_PAIR = r"dependency \(node, needed name\) .* occurs twice"


def test_mutated_graphs_rows_are_refused_or_load_and_round_trip(tmp_path, demo_sysroot,
                                                                 capsys):
    rows = fuzzed_rows(tmp_path, demo_sysroot)
    assert sorted({version for _, version, _, _ in rows}) == [1, 2, 3, 4]
    snapshot = Snapshot(1, "fuzz", "/", "", "")
    for _, version, _, row in rows:  # each row as stored loads and round-trips
        columns = _unpack(row, version)
        assert _unpack(_pack(*columns), 4) == columns
    rng = random.Random(0xF022)
    outcomes = {mutation: {"refused": 0, "loaded": 0, "duplicate": 0} for mutation in MUTATIONS}
    refused_rows = {}  # per database, the first two refused rows, to show depex stats
    start = time.monotonic()
    for _ in range(10_000):
        db, version, label, stored = rng.choice(rows)
        mutation = rng.choice([m for m, (versions, _) in MUTATIONS.items() if version in versions])
        row = list(stored)
        mutation(rng, row, [codes[version - 1] for _, codes in _COLUMNS])
        try:
            columns = _unpack(row, version)
        except ValueError:
            outcomes[mutation]["refused"] += 1
            cases = refused_rows.setdefault(db, [])
            if len(cases) < 2:
                cases.append((label, row))
            continue
        stats_summary(DependencyGraph(snapshot, *columns))
        try:
            repacked = _pack(*columns)
        except ValueError as exc:
            assert re.fullmatch(DUPLICATE_PAIR, str(exc)), exc
            outcomes[mutation]["duplicate"] += 1
            continue
        assert _unpack(repacked, 4) == columns
        outcomes[mutation]["loaded"] += 1
    elapsed = time.monotonic() - start
    totals = {key: sum(o[key] for o in outcomes.values()) for key in ("refused", "loaded",
                                                                       "duplicate")}
    assert all(o["refused"] for o in outcomes.values()), outcomes
    assert not any(o["loaded"] or o["duplicate"] for m, o in outcomes.items()
                   if MUTATIONS[m][1]), outcomes
    assert totals["loaded"], outcomes

    assert len(refused_rows) == 4
    for db, label, row in [(db, *case) for db, cases in refused_rows.items() for case in cases]:
        con = sqlite3.connect(db)
        with con:
            con.execute(f"UPDATE graphs SET {' = ?, '.join(name for name, _ in _COLUMNS)} = ?"
                        " WHERE snapshot_id = (SELECT id FROM snapshots WHERE label = ?)",
                        (*row, label))
        con.close()
        before = file_hash(db)
        assert run_cli(["stats", "--db", db, "--snapshot", label]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"depex: snapshot {label!r} in "), err
        assert "cannot be read: column " in err
        assert file_hash(db) == before
    print(f"graphs row fuzz: 10,000 cases in {elapsed:.2f}s, {totals}")
