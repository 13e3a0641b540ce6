from __future__ import annotations

import hashlib
import io
import json
import os
import re
import shutil
import signal
import sqlite3
import subprocess
import sys
import zlib
from array import array
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import depex.cli
import depex.evolution
import depex.scanner
from depex.cli import run_cli
from depex.elf import FileKind
from depex.resolver import SearchConfig
from depex.scanner import ScanOptions, scan_tree
from depex.store import FileNode, load_graph, open_db, save_snapshot
from conftest import SysrootBuilder, make_demo_sysroot
from elfbuild import ElfSpec, build_elf
from graphbuild import edge_records


@pytest.fixture
def demo_db(demo_sysroot, tmp_path):
    db = str(tmp_path / "demo.db")
    result = scan_tree(ScanOptions(SearchConfig(demo_sysroot.root)))
    save_snapshot(result, "demo", db)
    return db


def run(capsys, *argv):
    code = run_cli(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def validate(payload, schema_name: str) -> None:
    schema_text = resources.files("depex").joinpath(
        f"schemas/{schema_name}.schema.json").read_text()
    jsonschema.validate(payload, json.loads(schema_text))


def db_hash(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def test_version(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip() == "depex 0.1.0"


def test_stats_json_golden(capsys, demo_db):
    code, out, _ = run(capsys, "stats", "--db", demo_db, "--snapshot", "demo", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "executables": 3,
        "libraries": 7,
        "dependencies": 10,
        "missing": 1,
        "unused": 2,
        "avg_direct": 1.0,
        "avg_recursive": 1.2,
        "max_direct": 2,
        "max_recursive": 3,
    }
    validate(payload, "stats")


def test_stats_human_output(capsys, demo_db):
    code, out, _ = run(capsys, "stats", "--db", demo_db)
    assert code == 0
    assert "executables" in out and "3" in out


TEXT_GOLDEN = {
    ("stats",): "executables    3\nlibraries      7\ndependencies   10\nmissing        1\n"
                "unused         2\navg_direct     1.0\navg_recursive  1.2\nmax_direct     2\n"
                "max_recursive  3\n",
    ("who-uses", "libc.so.6"): "/opt/app/lib/libapp.so.1\n/usr/bin/broken\n"
                               "/usr/lib/gtk/libgtk.so.0\n/usr/lib/libm.so.6\n"
                               "/usr/lib/libz.so.1.2.13\n",
    ("who-uses", "libc.so.6", "--transitive"):
        "/opt/app/bin/app\n/opt/app/lib/libapp.so.1\n/usr/bin/broken\n/usr/bin/tool\n"
        "/usr/lib/gtk/libgtk.so.0\n/usr/lib/libm.so.6\n/usr/lib/libplugin.so\n"
        "/usr/lib/libz.so.1.2.13\n",
    ("get-deps", "/usr/bin/broken"): "libghost.so.9\tMISSING\n"
                                     "libc.so.6\t/usr/lib/libc.so.6 (ldso-conf)\n",
    ("get-all-deps", "/usr/bin/tool"): "/usr/lib/libc.so.6\n/usr/lib/libm.so.6\n"
                                       "/usr/lib/libz.so.1.2.13\n",
    ("impact", "libc.so.6"):
        "direct:\n  /opt/app/lib/libapp.so.1\n  /usr/bin/broken\n  /usr/lib/gtk/libgtk.so.0\n"
        "  /usr/lib/libm.so.6\n  /usr/lib/libz.so.1.2.13\n"
        "transitive:\n  /opt/app/bin/app\n  /opt/app/lib/libapp.so.1\n  /usr/bin/broken\n"
        "  /usr/bin/tool\n  /usr/lib/gtk/libgtk.so.0\n  /usr/lib/libm.so.6\n"
        "  /usr/lib/libplugin.so\n  /usr/lib/libz.so.1.2.13\n"
        "executables_affected:\n  /opt/app/bin/app\n  /usr/bin/broken\n  /usr/bin/tool\n",
}


def test_text_output_golden(capsys, demo_sysroot, demo_db):
    for argv, expected in TEXT_GOLDEN.items():
        assert run(capsys, *argv, "--db", demo_db) == (0, expected, ""), argv
    code, out, err = run(capsys, "snapshots", "--db", demo_db)
    assert (code, err) == (0, "")
    scanned_at = r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d(\.\d{6})?\+00:00"
    assert re.fullmatch(f"demo\t{scanned_at}\t{re.escape(demo_sysroot.root)}\n", out), out


def test_unknown_snapshot(capsys, demo_db):
    code, _, err = run(capsys, "stats", "--db", demo_db, "--snapshot", "nope")
    assert code == 1
    assert "unknown snapshot" in err


def test_snapshots_empty_db(capsys, tmp_path):
    db = str(tmp_path / "empty.db")
    open_db(db).close()
    code, out, _ = run(capsys, "snapshots", "--db", db, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == []
    validate(payload, "snapshots")


def test_snapshots_listing(capsys, demo_db):
    code, out, _ = run(capsys, "snapshots", "--db", demo_db, "--json")
    assert code == 0
    payload = json.loads(out)
    assert [s["label"] for s in payload] == ["demo"]
    validate(payload, "snapshots")


def test_who_uses_json(capsys, demo_db):
    code, out, _ = run(capsys, "who-uses", "libc.so.6", "--db", demo_db,
                       "--transitive", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["library"] == "/usr/lib/libc.so.6"
    assert payload["transitive"] is True
    assert "/usr/bin/tool" in payload["dependents"]
    assert payload["dependents"] == sorted(payload["dependents"])
    validate(payload, "who_uses")


def test_get_deps_json(capsys, demo_db):
    code, out, _ = run(capsys, "get-deps", "/usr/bin/broken", "--db", demo_db, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dependencies"][0] == {
        "needed_name": "libghost.so.9", "status": "missing",
        "path": None, "origin": None}
    assert payload["dependencies"][1]["status"] == "resolved"
    validate(payload, "get_deps")


def test_get_all_deps_json(capsys, demo_db):
    code, out, _ = run(capsys, "get-all-deps", "/usr/bin/tool", "--db", demo_db, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["dependencies"] == [
        "/usr/lib/libc.so.6", "/usr/lib/libm.so.6", "/usr/lib/libz.so.1.2.13"]
    validate(payload, "get_all_deps")


def test_impact_json(capsys, demo_db):
    code, out, _ = run(capsys, "impact", "libc.so.6", "--db", demo_db, "--json")
    assert code == 0
    payload = json.loads(out)
    assert "/usr/bin/tool" in payload["transitive"]
    assert "/usr/bin/tool" in payload["executables_affected"]
    assert "/usr/lib/libspare.so" not in payload["transitive"]
    validate(payload, "impact")


def test_ambiguous_name(capsys, demo_db):
    code, _, err = run(capsys, "get-deps", "tool", "--db", demo_db)
    assert code == 0  # only one node ends in /tool in the demo tree
    code, _, err = run(capsys, "who-uses", "so.6", "--db", demo_db)
    assert code == 1
    assert "ambiguous" in err or "unknown" in err


def test_dot_cli(capsys, demo_db):
    code, out, _ = run(capsys, "dot", "--db", demo_db)
    assert code == 0
    assert out.startswith("digraph dependencies {")
    assert '"missing:libghost.so.9"' in out
    code, out2, _ = run(capsys, "dot", "--db", demo_db, "--hide-top", "1")
    assert code == 0
    assert '"/usr/lib/libc.so.6"' not in out2
    code, out3, _ = run(capsys, "dot", "--db", demo_db, "--root", "/opt/app/bin/app")
    assert code == 0
    assert '"/usr/bin/tool"' not in out3
    assert '"/opt/app/lib/libapp.so.1"' in out3


class RecordingStdout(io.TextIOBase):
    def __init__(self):
        self.writes: list[str] = []

    def write(self, text: str) -> int:
        self.writes.append(text)
        return len(text)


def test_dot_is_written_as_it_is_made(demo_db, monkeypatch):
    golden = (Path(__file__).parent / "data" / "golden.dot").read_text()
    stdout = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", stdout)
    assert run_cli(["dot", "--db", demo_db]) == 0
    assert "".join(stdout.writes) == golden
    assert len(stdout.writes) > 1
    stdout.writes.clear()
    assert run_cli(["dot", "--root", "nowhere", "--db", demo_db]) == 1
    assert stdout.writes == []  # an error writes no part of the graph


def test_evolve_csv_and_json(capsys, demo_db):
    code, out, _ = run(capsys, "evolve", "--db", demo_db, "--format", "csv")
    assert code == 0
    header = out.splitlines()[0]
    assert header == ("label,executables,libraries,files_total,dependencies,"
                      "missing,unused,unused_fraction,avg_direct,avg_recursive,"
                      "max_direct,max_recursive")
    code, out, _ = run(capsys, "evolve", "--db", demo_db, "--format", "json")
    payload = json.loads(out)
    assert payload["rows"][0]["label"] == "demo"
    validate(payload, "evolve")


READ_COMMANDS = (["stats"], ["snapshots"], ["who-uses", "libc.so.6"],
                 ["get-deps", "/usr/bin/tool"], ["get-all-deps", "/usr/bin/tool"],
                 ["impact", "libc.so.6"], ["dot"], ["evolve"])
# the read commands that load one snapshot's graph
GRAPH_COMMANDS = tuple(argv for argv in READ_COMMANDS if argv[0] not in ("snapshots", "evolve"))


def test_read_commands_do_not_modify_db(capsys, demo_db, v1_db, v2_db, v3_db):
    for db in (demo_db, v1_db, v2_db, v3_db):  # version 4, and older ones a save would convert
        before = db_hash(db)
        for argv in READ_COMMANDS:
            code, _, _ = run(capsys, *argv, "--db", db)
            assert code == 0
        assert db_hash(db) == before


def test_no_read_command_groups_the_aliases(capsys, demo_sysroot, demo_db, monkeypatch):
    loaded = []

    def recording_load(label, db):
        loaded.append(load_graph(label, db))
        return loaded[-1]

    for module in (depex.cli, depex.evolution):
        monkeypatch.setattr(module, "load_graph", recording_load)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)  # evolve forks no helper
    for argv in (["stats"], ["who-uses", "libc.so.6"], ["who-uses", "libc.so.6", "--transitive"],
                 ["get-deps", "/usr/bin/tool"], ["get-all-deps", "/usr/bin/tool"],
                 ["impact", "libc.so.6"], ["dot"], ["evolve"]):
        loaded.clear()
        code, out, _ = run(capsys, *argv, "--db", demo_db)
        assert code == 0 and out and len(loaded) == 1, argv
        assert "nodes" not in vars(loaded[0]) and "adjacency" not in vars(loaded[0]), argv
    # a reader that asks for them sees the scan's sorted lists
    nodes = scan_tree(ScanOptions(SearchConfig(demo_sysroot.root))).nodes
    graph = loaded[0]
    assert {p: graph.nodes[p].alias_paths for p in graph.nodes if graph.nodes[p].alias_paths} \
        == {p: n.alias_paths for p, n in enumerate(nodes) if n.alias_paths}
    assert [n.alias_paths for n in graph.nodes.values()] == [n.alias_paths for n in nodes]
    assert all(n.alias_paths == sorted(n.alias_paths) for n in nodes)
    assert sum(len(n.alias_paths) for n in nodes) == 3


def test_read_commands_do_not_modify_a_v0_db(capsys, v0_db):
    before = db_hash(v0_db)
    for argv in READ_COMMANDS:
        code, _, _ = run(capsys, *argv, "--db", v0_db)
        assert code == 0, argv
    assert db_hash(v0_db) == before


# (a file, a library) of each snapshot of the version 0 and 1 fixtures
FIXTURE_NODES = {"demo": ("/usr/bin/tool", "libc.so.6"),
                 "1": ("/bin/app1", "/usr/lib/r1/lib1.so"),
                 "2": ("/bin/app2", "/usr/lib/r2/lib1.so")}


def fixture_reads(capsys, db: str, labels=("demo", "1", "2")) -> list[tuple[int, str, str]]:
    """Each read of the given snapshots of a fixture (by default the three of
    the version 0 fixture), text and JSON."""
    reads = [run(capsys, "evolve", "--snapshots", ",".join(sorted(labels)), *form, "--db", db)
             for form in ([], ["--format", "csv"])]
    for label in labels:
        app, lib = FIXTURE_NODES[label]
        for argv in (["stats"], ["who-uses", lib], ["who-uses", lib, "--transitive"],
                     ["get-deps", app], ["get-all-deps", app], ["impact", lib]):
            for form in ([], ["--json"]):
                reads.append(run(capsys, *argv, *form, "--snapshot", label, "--db", db))
        reads.append(run(capsys, "dot", "--snapshot", label, "--db", db))
    assert all(code == 0 and out and not err for code, out, err in reads)
    return reads


def freelist_count(db: str) -> int:
    con = sqlite3.connect(db)
    try:
        return con.execute("PRAGMA freelist_count").fetchone()[0]
    finally:
        con.close()


@pytest.mark.parametrize("convert", ["open_db", "save"])
def test_converting_a_v0_db_gives_its_free_pages_back(capsys, v0_db, convert):
    before = fixture_reads(capsys, v0_db)
    if convert == "open_db":
        open_db(v0_db).close()
    else:
        save_snapshot(FakeResult([], []), "later", v0_db)
    assert freelist_count(v0_db) == 0
    assert fixture_reads(capsys, v0_db) == before


def converting_keeps_every_answer(capsys, db: str, tmp_path) -> None:
    converted = str(tmp_path / "converted.db")
    shutil.copy(db, converted)
    open_db(converted).close()
    con = sqlite3.connect(converted)
    assert con.execute("PRAGMA user_version").fetchone() == (4,)
    con.close()
    assert freelist_count(converted) == 0
    # a width code, a byte per node
    assert len(zlib.decompress(graphs_row(converted, "demo")["kinds"])) == 11
    for argv in (["snapshots"], ["snapshots", "--json"]):
        assert run(capsys, *argv, "--db", converted) == run(capsys, *argv, "--db", db)
    labels = ("demo", "1")
    assert fixture_reads(capsys, converted, labels) == fixture_reads(capsys, db, labels)


def test_converting_a_v1_db_keeps_every_answer(capsys, v1_db, tmp_path):
    converting_keeps_every_answer(capsys, v1_db, tmp_path)


def test_converting_a_v2_db_keeps_every_answer(capsys, v2_db, tmp_path):
    converting_keeps_every_answer(capsys, v2_db, tmp_path)


def test_converting_a_v3_db_keeps_every_answer(capsys, v3_db, tmp_path):
    converting_keeps_every_answer(capsys, v3_db, tmp_path)


def test_graph_commands_on_a_db_without_snapshots(capsys, tmp_path):
    db = str(tmp_path / "empty.db")
    open_db(db).close()
    before = db_hash(db)
    for argv in GRAPH_COMMANDS:
        code, out, err = run(capsys, *argv, "--db", db)
        assert (code, out, err) == (1, "", "depex: database has no snapshots\n"), argv
    assert db_hash(db) == before


def test_read_commands_create_no_database(capsys, tmp_path):
    db = str(tmp_path / "typo.db")
    for argv in READ_COMMANDS:
        code, _, err = run(capsys, *argv, "--db", db)
        assert code == 1
        assert "cannot open database" in err
        assert not os.path.exists(db)


def test_scan_cli(capsys, demo_sysroot, tmp_path):
    db = str(tmp_path / "cli.db")
    code, out, _ = run(capsys, "scan", "--sysroot", demo_sysroot.root,
                       "--label", "v1", "--db", db)
    assert code == 0
    assert "12 files seen" in out
    code, _, err = run(capsys, "scan", "--sysroot", demo_sysroot.root,
                       "--label", "v1", "--db", db)
    assert code == 1
    assert "already exists" in err


def test_scan_into_non_database_file_fails_cleanly(capsys, demo_sysroot, tmp_path):
    db = tmp_path / "notes.txt"
    db.write_bytes(b"hello")
    code, _, err = run(capsys, "scan", "--sysroot", demo_sysroot.root,
                       "--label", "v1", "--db", str(db))
    assert code == 1
    assert err.startswith("depex: cannot open database")
    assert db.read_bytes() == b"hello"
    code, _, err = run(capsys, "scan", "--sysroot", demo_sysroot.root,
                       "--label", "v1", "--db", str(tmp_path / "absent" / "x.db"))
    assert code == 1
    assert err.startswith("depex: cannot open database")


def test_scan_refuses_what_its_save_would_before_it_walks_the_tree(capsys, demo_db, tmp_path,
                                                                   monkeypatch):
    def no_walk(options):
        raise AssertionError("the tree was walked")

    monkeypatch.setattr(depex.scanner, "scan_tree", no_walk)
    junk = tmp_path / "notes.txt"
    junk.write_bytes(b"hello")
    newer = str(tmp_path / "newer.db")
    shutil.copy(demo_db, newer)
    con = sqlite3.connect(newer)
    con.execute("PRAGMA user_version = 5")
    con.close()
    for db, message in ((demo_db, "depex: snapshot label already exists: demo\n"),
                        (str(junk), f"depex: cannot open database {str(junk)!r}: "),
                        (newer, f"depex: database {newer!r} has schema version 5;")):
        before = db_hash(db)
        code, out, err = run(capsys, "scan", "--sysroot", str(tmp_path), "--label", "demo",
                             "--db", db)
        assert (code, out) == (1, ""), db
        assert err.startswith(message), err
        assert db_hash(db) == before


@pytest.mark.parametrize("content", ["empty", "foreign"])
def test_scan_saves_into_an_empty_file_or_one_without_depex_tables(capsys, demo_sysroot,
                                                                   tmp_path, content):
    db = tmp_path / "x.db"
    db.write_bytes(b"")
    if content == "foreign":
        con = sqlite3.connect(db)
        con.execute("CREATE TABLE notes(text TEXT)")
        con.close()
    code, out, err = run(capsys, "scan", "--sysroot", demo_sysroot.root, "--label", "demo",
                         "--db", str(db))
    assert (code, err) == (0, "") and "12 files seen" in out
    assert len(load_graph("demo", str(db)).paths) == 10


def test_scan_bad_sysroot(capsys, tmp_path):
    db = str(tmp_path / "x.db")
    code, _, err = run(capsys, "scan", "--sysroot", str(tmp_path / "nope"),
                       "--label", "v1", "--db", db)
    assert code == 1
    assert "sysroot" in err


def test_scan_rejects_relative_exclude(capsys, demo_sysroot, tmp_path):
    db = str(tmp_path / "x.db")
    code, _, err = run(capsys, "scan", "--sysroot", demo_sysroot.root,
                       "--label", "v1", "--db", db, "--exclude", "usr/share")
    assert code == 1
    assert "'usr/share'" in err
    assert not os.path.exists(db)


@pytest.mark.parametrize("option, value, element", [
    ("--default-dirs", "/usr/lib::/lib", ""),
    ("--default-dirs", "usr/../", "usr/../"),
    ("--default-dirs", "", ""),
    ("--env-library-path", "", ""),
    ("--env-library-path", "opt/lib", "opt/lib"),
])
def test_scan_rejects_relative_search_dir(capsys, demo_sysroot, tmp_path,
                                          option, value, element):
    # each of these used to be searched from the sysroot's root, or ("")
    # to mean the default directories
    db = str(tmp_path / "x.db")
    code, _, err = run(capsys, "scan", "--sysroot", demo_sysroot.root,
                       "--label", "v1", "--db", db, option, value)
    assert code == 1
    assert f"{option} takes absolute paths, got {element!r}" in err
    assert not os.path.exists(db)


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_scan_rejects_workers_below_one(capsys, demo_sysroot, tmp_path, workers):
    db = str(tmp_path / "x.db")
    code, _, err = run(capsys, "scan", "--sysroot", demo_sysroot.root,
                       "--label", "v1", "--db", db, "--workers", workers)
    assert code == 1
    assert "--workers" in err and "must be at least 1" in err
    assert not os.path.exists(db)


@pytest.mark.parametrize("label", ["", "a,b"], ids=["empty", "comma"])
def test_scan_rejects_labels_no_command_can_name(capsys, demo_sysroot, tmp_path, label):
    db = str(tmp_path / "x.db")
    code, out, err = run(capsys, "scan", "--sysroot", demo_sysroot.root,
                         "--label", label, "--db", db)
    assert code == 1
    assert out == ""
    assert "--label" in err
    assert not os.path.exists(db)
    if label:  # stored before scan refused it, it stays readable
        save_snapshot(scan_tree(ScanOptions(SearchConfig(demo_sysroot.root))), label, db)
        code, out, _ = run(capsys, "stats", "--db", db, "--snapshot", label, "--json")
        assert code == 0 and json.loads(out)["libraries"] == 7


def test_a_label_that_is_not_utf8_is_a_usage_error(capsys, demo_db):
    # stored labels are UTF-8 text, so such a label names no snapshot
    before = db_hash(demo_db)
    for argv in (["stats", "--snapshot", "a\udcff"], ["dot", "--snapshot", "a\udcff"],
                 ["get-deps", "/usr/bin/tool", "--snapshot", "a\udcff"],
                 ["evolve", "--snapshots", "demo,a\udcff"]):
        code, out, err = run(capsys, *argv, "--db", demo_db)
        assert (code, out) == (1, ""), argv
        assert "snapshot label 'a\\udcff' is not UTF-8" in err and "Traceback" not in err
    assert db_hash(demo_db) == before


def test_scan_refuses_a_label_that_is_not_utf8_before_scanning(capsys, demo_sysroot, tmp_path,
                                                                 monkeypatch):
    def no_scan(options):
        raise AssertionError("scanned")

    monkeypatch.setattr(depex.scanner, "scan_tree", no_scan)
    db = str(tmp_path / "x.db")
    code, out, err = run(capsys, "scan", "--sysroot", demo_sysroot.root,
                         "--label", "l\udcff", "--db", db)
    assert (code, out) == (1, "")
    assert "--label" in err and "is not UTF-8" in err
    assert not os.path.exists(db)


def test_scan_stores_a_sysroot_whose_path_is_not_utf8(capsys, tmp_path):
    root = make_demo_sysroot(SysrootBuilder(str(tmp_path / "root\udcff"))).root
    db = str(tmp_path / "x.db")
    code, _, err = run(capsys, "scan", "--sysroot", root, "--label", "v1", "--db", db)
    assert (code, err) == (0, "")
    code, out, _ = run(capsys, "snapshots", "--json", "--db", db)
    assert code == 0 and [s["root_path"] for s in json.loads(out)] == [root]
    assert load_graph("v1", db).snapshot.root_path == root
    assert run(capsys, "stats", "--json", "--db", db)[0] == 0


def test_scan_runs_in_one_process(capsys, demo_sysroot, tmp_path, monkeypatch):
    demo_sysroot.write("/usr/lib/libbad.so", build_elf(ElfSpec(soname="libbad.so"))[:60])
    results = []

    def recording_scan(options):
        results.append(scan_tree(options))
        return results[-1]

    def no_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(depex.scanner, "scan_tree", recording_scan)
    monkeypatch.setattr(os, "fork", no_fork)
    dumps = []
    for workers in ("1", "2"):
        db = str(tmp_path / f"w{workers}.db")
        code, _, err = run(capsys, "scan", "--sysroot", demo_sysroot.root,
                           "--label", "v1", "--db", db, "--workers", workers)
        assert code == 0, err
        graph = load_graph("v1", db)
        dumps.append(([(n.id, n.canonical_path, n.alias_paths, n.kind, n.soname,
                        n.size_bytes) for n in graph.nodes.values()],
                      [(e.id, e.from_node, e.needed_name, e.to_node, e.origin)
                       for e in edge_records(graph)]))
    assert dumps[0] == dumps[1] and len(dumps[0][0]) == 10
    assert results[0].error_records == results[1].error_records
    assert [path for path, _ in results[1].error_records] == ["/usr/lib/libbad.so"]


def test_dot_rejects_negative_hide_top(capsys, demo_db):
    before = db_hash(demo_db)
    code, out, err = run(capsys, "dot", "--db", demo_db, "--hide-top", "-1")
    assert code == 1
    assert out == ""
    assert "--hide-top" in err and "must be at least 0" in err
    assert db_hash(demo_db) == before
    code, _, err = run(capsys, "dot", "--db", demo_db, "--hide-top", "x")
    assert code == 1
    assert "invalid int value: 'x'" in err


def test_scan_survives_looping_ldso_conf_include(capsys, demo_sysroot, tmp_path):
    demo_sysroot.symlink("/etc/ld.so.conf.d/a.conf", "a.conf")
    db = str(tmp_path / "x.db")
    code, out, _ = run(capsys, "scan", "--sysroot", demo_sysroot.root,
                       "--label", "v1", "--db", db)
    assert code == 0 and "10 parsed" in out
    code, out, _ = run(capsys, "snapshots", "--db", db, "--json")
    assert code == 0 and [s["label"] for s in json.loads(out)] == ["v1"]


def test_scan_stores_names_that_are_not_utf8(capsys, demo_sysroot, tmp_path):
    # a file name or DT_NEEDED byte that is no UTF-8 decodes to a lone
    # surrogate, as os.fsdecode gives it
    demo_sysroot.elf("/usr/lib/libq\udcfd.so", ElfSpec(soname="libq\udcfd.so",
                                                       defined=[("q", 1)]))
    demo_sysroot.elf("/usr/bin/t\udcff", ElfSpec(
        interpreter="/lib/ld.so", needed=["libq\udcfd.so", "lib\udcfe.so"]))
    db = str(tmp_path / "x.db")
    code, _, err = run(capsys, "scan", "--sysroot", demo_sysroot.root,
                       "--label", "v1", "--db", db)
    assert (code, err) == (0, "")
    code, out, _ = run(capsys, "get-deps", "/usr/bin/t\udcff", "--db", db, "--json")
    assert code == 0
    assert json.loads(out) == {"file": "/usr/bin/t\udcff", "dependencies": [
        {"needed_name": "libq\udcfd.so", "status": "resolved",
         "path": "/usr/lib/libq\udcfd.so", "origin": "ldso-conf"},
        {"needed_name": "lib\udcfe.so", "status": "missing", "path": None, "origin": None}]}


def test_missing_db_argument(capsys, monkeypatch):
    monkeypatch.delenv("DEPEX_DB", raising=False)
    code, _, err = run(capsys, "snapshots")
    assert code == 1
    assert "DEPEX_DB" in err


def test_no_command_prints_the_help_and_exits_one(capsys):
    code, out, err = run(capsys)
    assert (code, err) == (1, "")
    assert out.startswith("usage: depex ") and "positional arguments:" in out


def test_a_damaged_page_past_the_header_is_unreadable(capsys, demo_db):
    # the graphs table's one page gets a b-tree page type SQLite does not have
    con = sqlite3.connect(demo_db)
    page_size, = con.execute("PRAGMA page_size").fetchone()
    root, = con.execute("SELECT rootpage FROM sqlite_master WHERE name = 'graphs'").fetchone()
    con.close()
    assert root > 1
    with open(demo_db, "r+b") as f:
        f.seek((root - 1) * page_size)
        f.write(b"\xff")
    before = db_hash(demo_db)
    code, out, _ = run(capsys, "snapshots", "--db", demo_db)
    assert code == 0 and out.startswith("demo")
    for argv in GRAPH_COMMANDS + (["evolve"],):
        code, out, err = run(capsys, *argv, "--db", demo_db)
        assert (code, out) == (1, ""), argv
        assert err.startswith(f"depex: cannot read database {demo_db!r}: "), err
    assert db_hash(demo_db) == before


def test_db_env_fallback(capsys, demo_db, monkeypatch):
    monkeypatch.setenv("DEPEX_DB", demo_db)
    code, out, _ = run(capsys, "snapshots", "--json")
    assert code == 0
    assert json.loads(out)[0]["label"] == "demo"


def depex_process(*argv, stdout, **env):
    env = {**os.environ, **env,
           "PYTHONPATH": os.path.dirname(os.path.dirname(depex.cli.__file__))}
    return subprocess.run([sys.executable, "-m", "depex.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, timeout=60)


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE on this platform")
def test_closed_stdout_ends_the_command_quietly(demo_db):
    argv = ("who-uses", "libc.so.6", "--transitive", "--db", demo_db)
    full = depex_process(*argv, stdout=subprocess.PIPE)
    assert (full.returncode, full.stderr) == (0, b"")
    assert full.stdout.decode() == TEXT_GOLDEN[argv[:3]]
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        closed = depex_process(*argv, stdout=write_end)
    finally:
        os.close(write_end)
    assert (closed.returncode, closed.stderr) == (-signal.SIGPIPE, b"")


# what a read command must not import: the scan's modules, and the standard
# modules that only they, or dataclasses, need
SCAN_MODULES = ("depex.scanner", "depex.elf", "depex.resolver", "depex.evolution", "logging",
                "dataclasses", "inspect")
READ_COMMANDS = (("stats",), ("snapshots",), ("who-uses", "libc.so.6", "--transitive"),
                 ("get-deps", "/usr/bin/tool"), ("get-all-deps", "/usr/bin/tool"),
                 ("impact", "libc.so.6"), ("dot",))


@pytest.mark.parametrize("commands, allowed", [(READ_COMMANDS, ()),
                                               ((("evolve",),), ("depex.evolution",))],
                         ids=["read commands", "evolve"])
def test_a_read_command_imports_nothing_of_the_scan(demo_db, commands, allowed):
    # -S: no site module, so that no .pth file imports any of them first
    script = ("import contextlib, io, sys\n"
              "from depex.cli import run_cli\n"
              f"for argv in {commands!r}:\n"
              "    with contextlib.redirect_stdout(io.StringIO()):\n"
              f"        assert run_cli([*argv, '--db', {demo_db!r}]) == 0, argv\n"
              f"print(sorted(set({SCAN_MODULES!r}) & sys.modules.keys()))\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(depex.cli.__file__))}
    done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == f"{sorted(allowed)}\n"


# (argv, bytes its text output holds) on a tree with non-UTF-8 names
NON_UTF8_TEXT = [
    (("get-deps", "/usr/bin/t\udcff"), b"libq\xfd.so\t/usr/lib/libq\xfd.so"),
    (("who-uses", "libq\udcfd.so"), b"/usr/bin/t\xff\n"),
    (("impact", "libq\udcfd.so"), b"  /usr/bin/t\xff\n"),
    (("get-all-deps", "/usr/bin/t\udcff"), b"/usr/lib/libq\xfd.so"),
    (("dot",), b'"/usr/bin/t\xff"'),
    (("snapshots",), b"/root\xff\n"),
]


@pytest.mark.parametrize("argv, shown", NON_UTF8_TEXT,
                         ids=[argv[0] for argv, _ in NON_UTF8_TEXT])
def test_text_output_of_a_non_utf8_path_is_its_bytes(tmp_path, argv, shown):
    # a strict UTF-8 stdout, as under en_US.UTF-8, cannot encode the lone
    # surrogate a non-UTF-8 byte decodes to: the path's own byte is written
    sysroot = make_demo_sysroot(SysrootBuilder(f"{tmp_path}/root\udcff"))
    sysroot.elf("/usr/lib/libq\udcfd.so", ElfSpec(soname="libq\udcfd.so"))
    sysroot.elf("/usr/bin/t\udcff", ElfSpec(interpreter="/lib/ld.so", needed=["libq\udcfd.so"]))
    db = str(tmp_path / "x.db")
    save_snapshot(scan_tree(ScanOptions(SearchConfig(sysroot.root))), "v1", db)
    done = depex_process(*argv, "--db", db, stdout=subprocess.PIPE,
                         PYTHONIOENCODING="utf-8:strict")
    assert (done.returncode, done.stderr) == (0, b"")
    assert shown in done.stdout


def test_bad_usage_exits_one(capsys):
    code, _, _ = run(capsys, "stats", "--not-a-flag")
    assert code == 1


def test_snapshot_defaults_to_latest(capsys, demo_sysroot, tmp_path):
    db = str(tmp_path / "multi.db")
    result = scan_tree(ScanOptions(SearchConfig(demo_sysroot.root)))
    save_snapshot(result, "5.04", db)
    save_snapshot(result, "23.04", db)
    code, out, _ = run(capsys, "stats", "--db", db, "--json")
    assert code == 0  # picked 23.04, the natural-order latest
    code2, out2, _ = run(capsys, "stats", "--db", db, "--snapshot", "23.04", "--json")
    assert out == out2


@pytest.mark.parametrize("column", ["files.kind", "deps.origin"])
def test_unknown_stored_value_is_unreadable(capsys, v0_db, demo_sysroot, column):
    table, name = column.split(".")
    con = sqlite3.connect(v0_db)
    with con:  # one row of the column, the last one stored for the latest snapshot
        con.execute(f"UPDATE {table} SET {name} = 'bogus' WHERE id ="
                    f" (SELECT max(id) FROM {table} WHERE {name} IS NOT NULL"
                    " AND snapshot_id = (SELECT id FROM snapshots WHERE label = 'demo'))")
    con.close()
    before = db_hash(v0_db)
    for argv in (["stats"], ["evolve"], ["dot"], ["get-deps", "/usr/bin/tool"]):
        code, out, err = run(capsys, *argv, "--db", v0_db)
        assert code == 1, argv
        assert out == ""
        assert "snapshot 'demo'" in err and f"{name} 'bogus'" in err
        assert "Traceback" not in err
    # a save would convert the database, which needs every snapshot read
    code, out, err = run(capsys, "scan", "--sysroot", demo_sysroot.root, "--label", "new",
                         "--db", v0_db)
    assert (code, out) == (1, "")
    assert "snapshot 'demo' cannot be converted" in err and f"{name} 'bogus'" in err
    assert db_hash(v0_db) == before


class FakeResult:
    """Duck-typed stand-in for a ScanResult when no tree is needed."""

    def __init__(self, nodes, edges):
        self.nodes, self.edges, self.root = nodes, edges, "/img"


@pytest.mark.parametrize("column", ["from_file", "to_file"])
def test_dependency_on_a_file_outside_its_snapshot_is_unreadable(capsys, v0_db, column):
    con = sqlite3.connect(v0_db)
    with con:  # the latest snapshot's first resolved dependency names a file no snapshot has
        row = con.execute("SELECT min(id) FROM deps WHERE to_file IS NOT NULL AND snapshot_id ="
                          " (SELECT id FROM snapshots WHERE label = 'demo')").fetchone()[0]
        con.execute(f"UPDATE deps SET {column} = 999 WHERE id = ?", (row,))
    con.close()
    before = db_hash(v0_db)
    for argv in (["stats"], ["who-uses", "libc.so.6"], ["evolve"], ["dot"]):
        code, out, err = run(capsys, *argv, "--db", v0_db)
        assert code == 1, argv
        assert out == ""
        assert f"deps row {row} " in err and "names file 999" in err
        assert "Traceback" not in err
    assert db_hash(v0_db) == before


def graphs_row(db: str, label: str) -> dict:
    con = sqlite3.connect(db)
    try:
        cur = con.execute("SELECT graphs.* FROM graphs JOIN snapshots"
                          " ON snapshots.id = graphs.snapshot_id WHERE label = ?", (label,))
        return dict(zip([d[0] for d in cur.description], cur.fetchone()))
    finally:
        con.close()


def ints(blob: bytes, code: str = "i") -> list[int]:
    column = array(code, blob)
    if sys.byteorder == "big":
        column.byteswap()
    return column.tolist()


def as_blob(values: list[int], code: str = "i") -> bytes:
    column = array(code, values)
    if sys.byteorder == "big":
        column.byteswap()
    return column.tobytes()


def swapped_sources(row: dict) -> dict:
    src = ints(row["src"])
    src[0], src[-1] = src[-1], src[0]  # the demo tree's first and last sources differ
    return {"src": as_blob(src)}


def first_set(row: dict, column: str, value: int, code: str = "i") -> dict:
    values = ints(row[column], code)
    values[0] = value
    return {column: as_blob(values, code)}


def inflated(row: dict, column: str) -> list[bytes]:
    return zlib.decompress(row[column]).split(b"\0")


def deflated(strings: list[bytes], column: str) -> dict:
    return {column: zlib.compress(b"\0".join(strings), 1)}


def renamed(row: dict, name: str, new: str) -> dict:
    strings = row["strings"].split(b"\0")
    strings[strings.index(name.encode())] = new.encode()
    return {"strings": b"\0".join(strings)}


def first_path_twice(row: dict) -> dict:
    paths = row["paths"].split(b"\0")
    paths[1] = paths[0]
    return {"paths": b"\0".join(paths)}


# (stored column changes, what the message says), on the demo tree's 10 nodes
# and edges and 13 distinct strings
CORRUPT_V1 = {
    "dst outside the nodes": (lambda r: {"dst": as_blob(ints(r["dst"])[:-1] + [10])},
                              "column dst holds a value outside -1..9"),
    "src outside the nodes": (lambda r: {"src": as_blob(ints(r["src"])[:-1] + [10])},
                              "column src holds a value outside 0..9"),
    "a node kind too few": (lambda r: {"kinds": r["kinds"][:-4]},
                            "column kinds holds 9 values, not 10"),
    "names of part of an int": (lambda r: {"names": r["names"] + b"\0"},
                                "column names: bytes length not a multiple of item size"),
    "edges not grouped by source": (swapped_sources, "column src is not grouped by source"),
    "unknown kind": (lambda r: renamed(r, "library", "bogus"), "kind 'bogus'"),
    "unknown origin": (lambda r: renamed(r, "ldso-conf", "bogus"), "origin 'bogus'"),
    # a lookup in a list would wrap -2 round to a string, and read 13 as None
    "soname index -2": (lambda r: first_set(r, "sonames", -2),
                        "column sonames holds a value outside -1..12"),
    "origin index -2": (lambda r: first_set(r, "origins", -2),
                        "column origins holds a value outside -1..12"),
    "name index one past the strings": (lambda r: first_set(r, "names", 13),
                                        "column names holds a value outside 0..12"),
    "negative size": (lambda r: first_set(r, "sizes", -1, "q"),
                      "column sizes holds a value outside 0..9223372036854775807"),
    "grouped sources from -1": (lambda r: first_set(r, "src", -1),
                                "column src holds a value outside 0..9"),
    # save refuses this; a load that took it would declare one file as two nodes
    "a path twice": (first_path_twice,
                     "column paths: path '/opt/app/bin/app' occurs twice"),
}


def code_of(row: dict, string: str) -> int:
    return inflated(row, "strings").index(string.encode())


# the same on a version 2 row, whose text columns are zlib streams and
# whose kinds and origins take a byte each; the kind and origin values
# come first in its strings: executable, library, runpath, ldso-conf, rpath
CORRUPT_V2 = {
    "paths that do not inflate": (lambda r: {"paths": b"/opt/app/bin/app\0"},
                                  "column paths: Error -3 while decompressing data"),
    "strings cut short": (lambda r: {"strings": r["strings"][:-4]},
                          "column strings: Error -5 while decompressing data"),
    "junk after the stream": (lambda r: {"paths": r["paths"] + b"junk"},
                              "column paths: 4 bytes follow its zlib stream"),
    "aliases without their last NUL": (
        lambda r: {"aliases": zlib.compress(zlib.decompress(r["aliases"])[:-1], 1)},
        "column aliases: its last string is not NUL-terminated"),
    "a kind byte too few": (lambda r: {"kinds": r["kinds"][:-1]},
                            "column kinds holds 9 values, not 10"),
    "an origin byte too many": (lambda r: {"origins": r["origins"] + b"\3"},
                                "column origins holds 11 values, not 10"),
    "kind code one past the strings": (lambda r: first_set(r, "kinds", 13, "b"),
                                       "column kinds holds a value outside 0..12"),
    "origin code -2": (lambda r: first_set(r, "origins", -2, "b"),
                       "column origins holds a value outside -1..12"),
    "kind code naming a soname": (lambda r: first_set(r, "kinds", code_of(r, "libc.so.6"), "b"),
                                  "kind 'libc.so.6'"),
    "origin code naming a needed name": (
        lambda r: first_set(r, "origins", code_of(r, "libghost.so.9"), "b"),
        "origin 'libghost.so.9'"),
    "unknown origin": (lambda r: deflated([b"bogus" if s == b"ldso-conf" else s
                                           for s in inflated(r, "strings")], "strings"),
                       "origin 'bogus'"),
    # each string has one code, which a kind or origin is looked up by
    "a string twice": (lambda r: deflated([b"library", *inflated(r, "strings")[1:]],
                                          "strings"),
                       "column strings: string 'library' occurs twice"),
}


def width_set(row: dict, column: str, value: int, code: str | None = None) -> dict:
    """A version 3 integer column with its first value set, at its own
    width or at the width code given."""
    width = row[column][:1].decode()
    values = ints(row[column][1:], width)
    values[0] = value
    return {column: (code or width).encode() + as_blob(values, code or width)}


# the same on a version 3 row, whose integer columns are each a width code
# (b, h, i or q) and then their values at that width: on the demo tree
# sizes are int16 and the other integers int8, and it has 3 aliases
CORRUPT_V3 = {
    "an empty blob": (lambda r: {"dst": b""}, "column dst: it holds no width code"),
    "an unknown width code": (lambda r: {"src": b"l" + r["src"][1:]},
                              "column src: its width code 'l' is none of b, h, i, q"),
    "a width that leaves a partial item": (
        lambda r: {"alias_nodes": b"h" + r["alias_nodes"][1:]},
        "column alias_nodes: bytes length not a multiple of item size"),
    "int8 dst outside the nodes": (lambda r: width_set(r, "dst", 10),
                                   "column dst holds a value outside -1..9"),
    "int8 kind code one past the strings": (lambda r: width_set(r, "kinds", 13),
                                            "column kinds holds a value outside 0..12"),
    "int16 negative size": (lambda r: width_set(r, "sizes", -1),
                            "column sizes holds a value outside 0..9223372036854775807"),
    "int16 name index past the strings": (lambda r: width_set(r, "names", 300, "h"),
                                          "column names holds a value outside 0..12"),
}


def corrupt_graphs_row_is_unreadable(capsys, db: str, change, message: str) -> None:
    con = sqlite3.connect(db)
    with con:
        columns = change(graphs_row(db, "demo"))
        con.execute(f"UPDATE graphs SET {', '.join(f'{c} = ?' for c in columns)}"
                    " WHERE snapshot_id = (SELECT id FROM snapshots WHERE label = 'demo')",
                    list(columns.values()))
    con.close()
    before = db_hash(db)
    for argv in (["stats"], ["who-uses", "libc.so.6"], ["evolve"], ["dot"]):
        code, out, err = run(capsys, *argv, "--db", db)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("depex: snapshot 'demo' in ") and message in err, err
        assert "Traceback" not in err
    assert db_hash(db) == before


@pytest.mark.parametrize("case", CORRUPT_V1)
def test_corrupt_graphs_row_is_unreadable(capsys, v1_db, case):
    corrupt_graphs_row_is_unreadable(capsys, v1_db, *CORRUPT_V1[case])


@pytest.mark.parametrize("case", CORRUPT_V2)
def test_corrupt_v2_graphs_row_is_unreadable(capsys, v2_db, case):
    corrupt_graphs_row_is_unreadable(capsys, v2_db, *CORRUPT_V2[case])


@pytest.mark.parametrize("case", CORRUPT_V3)
def test_corrupt_v3_graphs_row_is_unreadable(capsys, v3_db, case):
    corrupt_graphs_row_is_unreadable(capsys, v3_db, *CORRUPT_V3[case])


def deflated_set(row: dict, column: str, index: int, change) -> dict:
    """A version 4 deflated integer column with its value at index changed
    by change, at its own width."""
    blob = zlib.decompress(row[column])
    values = ints(blob[1:], blob[:1].decode())
    values[index] = change(values[index])
    return {column: zlib.compress(blob[:1] + as_blob(values, blob[:1].decode()), 1)}


# the same on a version 4 row, whose src holds each node's out-degree and
# whose integer columns but names and dst are zlib streams of a version 3
# column; the demo tree's first node (/opt/app/bin/app) has one edge
CORRUPT_V4 = {
    "out-degrees one short of the edges": (
        lambda r: deflated_set(r, "src", 0, lambda d: d - 1),
        "column src holds out-degrees that sum to 9, not 10"),
    "out-degrees one over the edges": (
        lambda r: deflated_set(r, "src", 0, lambda d: d + 1),
        "column src holds out-degrees that sum to 11, not 10"),
    "a negative out-degree": (lambda r: deflated_set(r, "src", 0, lambda d: -1),
                              "column src holds a negative out-degree"),
    "an out-degree too few": (  # a byte per out-degree on the demo tree
        lambda r: {"src": zlib.compress(zlib.decompress(r["src"])[:-1], 1)},
        "column src holds 9 values, not 10"),
    "a byte after a deflated column": (lambda r: {"origins": r["origins"] + b"\0"},
                                       "column origins: 1 bytes follow its zlib stream"),
    "a cut deflated column": (lambda r: {"src": r["src"][:-4]},
                              "column src: Error -5 while decompressing data"),
    "an unknown width code inside a stream": (
        lambda r: {"kinds": zlib.compress(b"l" + zlib.decompress(r["kinds"])[1:], 1)},
        "column kinds: its width code 'l' is none of b, h, i, q"),
    # only the nodes view groups the aliases, but a load checks them
    "an alias node outside the nodes": (lambda r: deflated_set(r, "alias_nodes", 0, lambda p: 10),
                                        "column alias_nodes holds a value outside 0..9"),
    "an alias node too few": (  # a byte per alias node on the demo tree
        lambda r: {"alias_nodes": zlib.compress(zlib.decompress(r["alias_nodes"])[:-1], 1)},
        "column alias_nodes holds 2 values, not 3"),
    "a column stored as TEXT": (lambda r: {"origins": "rpath"},
                                "column origins: it holds no BLOB"),
}


@pytest.mark.parametrize("case", CORRUPT_V4)
def test_corrupt_v4_graphs_row_is_unreadable(capsys, demo_db, case):
    corrupt_graphs_row_is_unreadable(capsys, demo_db, *CORRUPT_V4[case])


def test_a_snapshot_whose_graph_is_gone_is_unreadable(capsys, demo_db):
    con = sqlite3.connect(demo_db)
    with con:
        con.execute("DELETE FROM graphs")
    con.close()
    before = db_hash(demo_db)
    for argv in (["stats"], ["who-uses", "libc.so.6"], ["evolve"], ["dot"]):
        code, out, err = run(capsys, *argv, "--db", demo_db)
        assert (code, out) == (1, ""), argv
        assert err.startswith("depex: snapshot 'demo' in ") and \
            err.endswith("cannot be read: its graph is not stored\n"), err
    assert db_hash(demo_db) == before


EMPTY_ROW = dict.fromkeys(["executables", "libraries", "dependencies", "missing", "unused",
                           "avg_direct", "avg_recursive", "max_direct", "max_recursive"], 0)
EDGE_FREE_ROW = {**EMPTY_ROW, "executables": 1, "libraries": 1, "unused": 1}
CSV_HEADER = ("label,executables,libraries,files_total,dependencies,missing,unused,"
              "unused_fraction,avg_direct,avg_recursive,max_direct,max_recursive\r\n")


@pytest.mark.parametrize("nodes, stats, dot, csv_row", [
    ([], EMPTY_ROW, "", "0,0,0,0,0,0,0.0,0.0,0.0,0,0"),
    ([FileNode(0, None, "/bin/app", [], FileKind.EXECUTABLE_BINARY),
      FileNode(1, None, "/lib/liba.so", [], FileKind.SHARED_LIBRARY, "liba.so")],
     EDGE_FREE_ROW, '    "/bin/app" [shape=box];\n    "/lib/liba.so" [shape=ellipse];\n',
     "1,1,2,0,0,1,1.0,0.0,0.0,0,0"),
], ids=["no-files", "no-deps"])
def test_read_commands_on_snapshots_without_files_or_deps(capsys, tmp_path, nodes, stats,
                                                           dot, csv_row):
    db = str(tmp_path / "sparse.db")
    save_snapshot(FakeResult(nodes, []), "s1", db)
    code, out, _ = run(capsys, "stats", "--json", "--db", db)
    assert (code, json.loads(out)) == (0, stats)
    assert run(capsys, "dot", "--db", db) == (0, f"digraph dependencies {{\n{dot}}}\n", "")
    row = {"label": "s1", **stats, "files_total": len(nodes),
           "unused_fraction": float(stats["unused"])}
    code, out, _ = run(capsys, "evolve", "--db", db)
    assert (code, json.loads(out)) == (0, {"rows": [row]})
    assert run(capsys, "evolve", "--format", "csv", "--db", db) == \
        (0, f"{CSV_HEADER}s1,{csv_row}\r\n", "")
    queries = (["who-uses", "liba.so"], ["who-uses", "liba.so", "--transitive"],
               ["get-deps", "/bin/app"], ["get-all-deps", "/bin/app"], ["impact", "liba.so"])
    for argv in queries:
        code, out, err = run(capsys, *argv, "--db", db)
        if nodes:
            expected = "direct:\ntransitive:\nexecutables_affected:\n" \
                if argv[0] == "impact" else ""
            assert (code, out, err) == (0, expected, ""), argv
        else:
            assert (code, out) == (1, ""), argv
            assert err == f"depex: unknown file or library {argv[1]}\n"


@pytest.mark.parametrize("labels, message", [
    ("", "needs at least one snapshot label"),
    ("demo,,demo", "empty snapshot label in 'demo,,demo'"),
    ("demo,", "empty snapshot label in 'demo,'"),
], ids=["empty list", "empty label inside", "trailing comma"])
def test_evolve_rejects_empty_snapshot_labels(capsys, demo_db, labels, message):
    code, out, err = run(capsys, "evolve", "--db", demo_db, "--snapshots", labels)
    assert code == 1
    assert out == ""
    assert "--snapshots" in err and message in err
    code, out, _ = run(capsys, "evolve", "--db", demo_db, "--snapshots", "demo,demo",
                       "--format", "csv")
    assert code == 0 and [line.split(",")[0] for line in out.splitlines()[1:]] == \
        ["demo", "demo"]


def test_empty_snapshot_label_is_a_user_error(capsys, demo_db):
    before = db_hash(demo_db)
    for argv in READ_COMMANDS:
        if argv[0] in ("snapshots", "evolve"):
            continue  # they take no --snapshot
        code, out, err = run(capsys, *argv, "--db", demo_db, "--snapshot", "")
        assert code == 1, argv
        assert out == ""
        assert "--snapshot" in err and "empty snapshot label" in err
    assert db_hash(demo_db) == before
