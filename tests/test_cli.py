from __future__ import annotations

import hashlib
import json
import os
import sqlite3
from importlib import resources

import jsonschema
import pytest

import depex.cli
from depex.cli import run_cli
from depex.resolver import SearchConfig
from depex.scanner import ScanOptions, scan_tree
from depex.store import load_graph, open_db, save_snapshot
from elfbuild import ElfSpec, build_elf


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


def test_read_commands_do_not_modify_db(capsys, demo_db):
    before = db_hash(demo_db)
    for argv in READ_COMMANDS:
        code, _, _ = run(capsys, *argv, "--db", demo_db)
        assert code == 0
    assert db_hash(demo_db) == before


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


def test_scan_runs_in_one_process(capsys, demo_sysroot, tmp_path, monkeypatch):
    demo_sysroot.write("/usr/lib/libbad.so", build_elf(ElfSpec(soname="libbad.so"))[:60])
    results = []

    def recording_scan(options):
        results.append(scan_tree(options))
        return results[-1]

    def no_fork():
        raise OSError("fork refused")

    monkeypatch.setattr(depex.cli, "scan_tree", recording_scan)
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
                       for e in graph.edges()]))
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


def test_missing_db_argument(capsys, monkeypatch):
    monkeypatch.delenv("DEPEX_DB", raising=False)
    code, _, err = run(capsys, "snapshots")
    assert code == 1
    assert "DEPEX_DB" in err


def test_db_env_fallback(capsys, demo_db, monkeypatch):
    monkeypatch.setenv("DEPEX_DB", demo_db)
    code, out, _ = run(capsys, "snapshots", "--json")
    assert code == 0
    assert json.loads(out)[0]["label"] == "demo"


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
def test_unknown_stored_value_is_unreadable(capsys, demo_db, column):
    table, name = column.split(".")
    con = sqlite3.connect(demo_db)
    with con:  # one row of the column, the last one stored
        con.execute(f"UPDATE {table} SET {name} = 'bogus' WHERE id ="
                    f" (SELECT max(id) FROM {table} WHERE {name} IS NOT NULL)")
    con.close()
    before = db_hash(demo_db)
    for argv in (["stats"], ["evolve"], ["dot"], ["get-deps", "/usr/bin/tool"]):
        code, out, err = run(capsys, *argv, "--db", demo_db)
        assert code == 1, argv
        assert out == ""
        assert column in err and "'bogus'" in err
        assert "Traceback" not in err
    assert db_hash(demo_db) == before


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
