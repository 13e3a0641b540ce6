from __future__ import annotations

import os
import random
import sqlite3
import threading
import time

import pytest

from depex import evolution
from depex.cli import run_cli
from depex.elf import FileKind
from depex.evolution import (PresenceSpan, _trend_row, diff_snapshots,
                             identity_key, longevity, trend_report)
from depex.metrics import stats_summary
from depex.resolver import Origin
from depex.store import (DependencyEdge, FileNode, UnknownLabel, load_graph,
                         save_snapshot)
from graphbuild import edge_records, random_graph
from test_cli import CORRUPT_V2, db_hash, graphs_row

EXE, LIB = FileKind.EXECUTABLE_BINARY, FileKind.SHARED_LIBRARY


class FakeResult:
    def __init__(self, nodes, edges, root="/img"):
        self.nodes = nodes
        self.edges = edges
        self.root = root


def node(i, path, kind, soname=None):
    return FileNode(i, None, path, [], kind, soname)


def edge(i, src, name, dst):
    origin = Origin.DEFAULT_DIR if dst is not None else None
    return DependencyEdge(i, None, src, name, dst, origin)


def snapshot_v1():
    nodes = [
        node(0, "/bin/app", EXE),
        node(1, "/lib/libold.so.1", LIB, "libold.so.1"),
        node(2, "/lib/libstay.so.2", LIB, "libstay.so.2"),
    ]
    edges = [edge(0, 0, "libold.so.1", 1), edge(1, 0, "libstay.so.2", 2)]
    return FakeResult(nodes, edges)


def snapshot_v2():
    # libold removed; libnew added; libstay renamed on disk, same soname;
    # app gains an unresolved reference
    nodes = [
        node(0, "/bin/app", EXE),
        node(1, "/lib/libnew.so.1", LIB, "libnew.so.1"),
        node(2, "/usr/lib/libstay-2.so", LIB, "libstay.so.2"),
    ]
    edges = [
        edge(0, 0, "libnew.so.1", 1),
        edge(1, 0, "libstay.so.2", 2),
        edge(2, 0, "libghost.so", None),
    ]
    return FakeResult(nodes, edges)


def snapshot_v3():
    # the two-version visitor: present in v2 and v3 only... here libnew
    # persists and a short-lived executable appears
    nodes = [
        node(0, "/bin/app", EXE),
        node(1, "/bin/oneshot", EXE),
        node(2, "/lib/libnew.so.1", LIB, "libnew.so.1"),
        node(3, "/usr/lib/libstay-2.so", LIB, "libstay.so.2"),
    ]
    edges = [edge(0, 0, "libnew.so.1", 2), edge(1, 1, "libnew.so.1", 2)]
    return FakeResult(nodes, edges)


@pytest.fixture
def corpus(tmp_path):
    db = str(tmp_path / "corpus.db")
    save_snapshot(snapshot_v1(), "1.0", db)
    save_snapshot(snapshot_v2(), "2.0", db)
    save_snapshot(snapshot_v3(), "3.0", db)
    return db


def test_identity_key_prefers_soname():
    assert identity_key("libx.so.5", "/lib/x.so") == "libx.so.5"
    assert identity_key(None, "/bin/tool") == "tool"


def test_trend_report_hand_computed(corpus):
    report = trend_report(corpus, ["1.0", "2.0"])
    r1, r2 = report.rows
    assert (r1.label, r1.executables, r1.libraries) == ("1.0", 1, 2)
    assert (r1.dependencies, r1.missing, r1.unused) == (2, 0, 0)
    assert r1.files_total == 3
    assert r1.avg_direct == 0.67 and r1.max_direct == 2
    assert (r2.label, r2.executables, r2.libraries) == ("2.0", 1, 2)
    assert (r2.dependencies, r2.missing, r2.unused) == (3, 1, 0)


def test_trend_single_row_equals_stats(corpus):
    row = trend_report(corpus, ["3.0"]).rows[0]
    stats = stats_summary(load_graph("3.0", corpus))
    assert row.executables == stats.executables
    assert row.libraries == stats.libraries
    assert row.dependencies == stats.dependencies
    assert row.avg_direct == stats.avg_direct
    assert row.max_recursive == stats.max_recursive
    assert row.avg_recursive == stats.avg_recursive
    assert row.missing == stats.missing
    assert row.unused == stats.unused
    assert row.unused_fraction == round(stats.unused / stats.libraries, 4)


def test_trend_empty_label_list(corpus):
    assert trend_report(corpus, []).rows == []


def test_trend_defaults_to_all_in_natural_order(corpus):
    labels = [r.label for r in trend_report(corpus).rows]
    assert labels == ["1.0", "2.0", "3.0"]


def test_trend_unknown_label(corpus):
    with pytest.raises(UnknownLabel):
        trend_report(corpus, ["1.0", "missing-label"])


def test_diff_add_remove(corpus):
    delta = diff_snapshots(corpus, "1.0", "2.0")
    assert delta.added_libraries == {"libnew.so.1"}
    assert delta.removed_libraries == {"libold.so.1"}
    assert delta.added_executables == set()
    assert delta.removed_executables == set()


def test_diff_rename_with_stable_soname_is_persistent(corpus):
    delta = diff_snapshots(corpus, "1.0", "2.0")
    assert "libstay.so.2" in delta.persistent_nodes
    assert "libstay.so.2" not in delta.added_libraries
    assert "libstay.so.2" not in delta.removed_libraries


def test_diff_identical_snapshots_empty(corpus):
    delta = diff_snapshots(corpus, "2.0", "2.0")
    assert not delta.added_libraries and not delta.removed_libraries
    assert not delta.added_executables and not delta.removed_executables
    assert delta.persistent_nodes == {"app", "libnew.so.1", "libstay.so.2"}


def test_diff_antisymmetry(corpus):
    forward = diff_snapshots(corpus, "1.0", "2.0")
    backward = diff_snapshots(corpus, "2.0", "1.0")
    assert forward.added_libraries == backward.removed_libraries
    assert forward.removed_libraries == backward.added_libraries
    assert forward.added_executables == backward.removed_executables


def test_longevity_spans(corpus):
    spans = longevity(corpus)
    assert spans["app"] == PresenceSpan("1.0", "3.0", 3)
    assert spans["libold.so.1"] == PresenceSpan("1.0", "1.0", 1)
    assert spans["libnew.so.1"] == PresenceSpan("2.0", "3.0", 2)
    assert spans["oneshot"] == PresenceSpan("3.0", "3.0", 1)


def test_longevity_respects_label_order(corpus):
    spans = longevity(corpus, ["3.0", "2.0"])
    assert spans["libnew.so.1"] == PresenceSpan("3.0", "2.0", 2)


def test_longevity_counts_a_repeated_label_once(corpus):
    assert longevity(corpus, ["1.0", "1.0", "1.0"])["app"] == PresenceSpan("1.0", "1.0", 1)
    assert longevity(corpus, ["2.0", "3.0", "2.0"]) == longevity(corpus, ["2.0", "3.0"])


def test_rows_invariant_to_insertion_order(tmp_path):
    db_a = str(tmp_path / "a.db")
    db_b = str(tmp_path / "b.db")
    save_snapshot(snapshot_v1(), "1.0", db_a)
    save_snapshot(snapshot_v2(), "2.0", db_a)
    save_snapshot(snapshot_v2(), "2.0", db_b)
    save_snapshot(snapshot_v1(), "1.0", db_b)
    rows_a = trend_report(db_a).rows
    rows_b = trend_report(db_b).rows
    assert rows_a == rows_b


# -- trend rows shared with forked helpers ------------------------------------

@pytest.fixture
def random_corpus(tmp_path):
    db = str(tmp_path / "random.db")
    rng = random.Random(22)
    for label in ("r1", "r2", "r3"):
        graph = random_graph(rng, max_nodes=40)[0]
        save_snapshot(FakeResult(list(graph.nodes.values()), edge_records(graph)), label, db)
    return db


@pytest.fixture
def forks(monkeypatch):
    """The number of os.fork calls made by this process."""
    count = [0]
    fork = os.fork

    def counted():
        count[0] += 1
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return count


def on_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def serial_rows(db: str, labels: list[str]):
    return [_trend_row(label, load_graph(label, db)) for label in labels]


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("labels", [None, ["r3", "r2", "r1"], ["r2", "r1", "r2"]],
                         ids=["default", "reversed", "duplicate"])
def test_trend_rows_from_workers_equal_serial_rows(monkeypatch, random_corpus, forks,
                                                   cpus, labels):
    asked = labels or ["r1", "r2", "r3"]
    expected = serial_rows(random_corpus, asked)
    on_cpus(monkeypatch, cpus)
    threads = threading.active_count()
    assert trend_report(random_corpus, labels).rows == expected
    assert forks[0] == min(len(set(asked)), cpus) - 1
    assert no_child_left()
    assert threading.active_count() == threads


@pytest.mark.parametrize("items", [1, 2])
@pytest.mark.parametrize("cpus", [2, 3])
def test_queue_items_naming_runs_of_labels_give_the_same_rows(monkeypatch, random_corpus,
                                                              forks, items, cpus):
    # with more distinct labels than queue items, an item names a run of
    # consecutive labels: one run of three, or runs of two and one
    monkeypatch.setattr(evolution, "_QUEUE_ITEMS", items)
    on_cpus(monkeypatch, cpus)
    for labels in (["r1", "r2", "r3"], ["r3", "r1", "r2", "r1"]):
        assert trend_report(random_corpus, labels).rows == serial_rows(random_corpus, labels)
    assert forks[0] == 2 * (cpus - 1)
    assert no_child_left()


@pytest.mark.parametrize("labels", [["r2"], ["r2", "r2"], []])
def test_one_distinct_label_forks_nothing(monkeypatch, random_corpus, forks, labels):
    on_cpus(monkeypatch, 3)
    assert trend_report(random_corpus, labels).rows == serial_rows(random_corpus, labels)
    assert forks[0] == 0


def test_a_second_thread_keeps_the_rows_in_process(monkeypatch, random_corpus, forks):
    on_cpus(monkeypatch, 3)
    threads = threading.active_count()
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        rows = trend_report(random_corpus).rows
    finally:
        release.set()
        waiter.join()
    assert rows == serial_rows(random_corpus, ["r1", "r2", "r3"])
    assert forks[0] == 0
    assert threading.active_count() == threads


def test_no_affinity_call_keeps_the_rows_in_process(monkeypatch, random_corpus, forks):
    monkeypatch.delattr(os, "sched_getaffinity")
    assert trend_report(random_corpus).rows == serial_rows(random_corpus, ["r1", "r2", "r3"])
    assert forks[0] == 0


@pytest.mark.parametrize("labels", [["r2", "r2", "r2"], ["r2", "r1", "r2"]],
                         ids=["one-label", "two-labels"])
@pytest.mark.parametrize("no_helper", ["one-cpu", "second-thread", "no-affinity-call"])
def test_with_no_helper_each_distinct_label_is_made_once(monkeypatch, random_corpus, forks,
                                                         no_helper, labels):
    made, load_row = [], evolution._load_row
    monkeypatch.setattr(evolution, "_load_row",
                        lambda label, db: made.append(label) or load_row(label, db))
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    if no_helper == "no-affinity-call":
        monkeypatch.delattr(os, "sched_getaffinity")
    else:
        on_cpus(monkeypatch, 1 if no_helper == "one-cpu" else 3)
    if no_helper == "second-thread":
        waiter.start()
    try:
        rows = trend_report(random_corpus, labels).rows
    finally:
        release.set()
        if waiter.ident is not None:
            waiter.join()
    assert rows == serial_rows(random_corpus, labels)
    assert made == list(dict.fromkeys(labels))[::-1]  # once each, the last distinct label first
    assert forks[0] == 0


def corrupt_r2(db: str) -> str:
    change, message = CORRUPT_V2["paths that do not inflate"]
    columns = change(graphs_row(db, "r2"))
    con = sqlite3.connect(db)
    with con:
        con.execute(f"UPDATE graphs SET {', '.join(f'{c} = ?' for c in columns)}"
                    " WHERE snapshot_id = (SELECT id FROM snapshots WHERE label = 'r2')",
                    list(columns.values()))
    con.close()
    return message


@pytest.mark.parametrize("snapshots, corrupt, message", [
    ("r1,nope,r3", False, "depex: unknown snapshot nope\n"),
    (None, True, "snapshot 'r2' in "),
    # both r2 and nope fail; r2 comes first in the asked order
    ("r1,r2,nope", True, "snapshot 'r2' in "),
], ids=["unknown-label", "corrupt-r2", "first-failure-in-order"])
def test_evolve_fails_alike_in_process_and_from_workers(capsys, monkeypatch, random_corpus,
                                                        forks, snapshots, corrupt, message):
    messages = [message] + ([corrupt_r2(random_corpus)] if corrupt else [])
    argv = ["evolve", "--db", random_corpus] + (["--snapshots", snapshots] if snapshots else [])
    before = db_hash(random_corpus)
    errors = []
    for cpus in (1, 2, 3):
        on_cpus(monkeypatch, cpus)
        assert run_cli(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        errors.append(err)
    assert forks[0] == 0 + 1 + 2
    assert errors[0] == errors[1] == errors[2]
    assert all(m in errors[0] for m in messages) and "Traceback" not in errors[0]
    assert db_hash(random_corpus) == before
    assert no_child_left()


def wait_for(path, seconds: float = 30) -> None:
    deadline = time.monotonic() + seconds
    while not path.exists() and time.monotonic() < deadline:
        time.sleep(0.01)
    assert path.exists()


def test_a_helper_that_dies_is_a_clean_error(capsys, monkeypatch, random_corpus, tmp_path):
    caller, died = os.getpid(), tmp_path / "died"
    load_row = evolution._load_row

    def dying(label, db):
        if os.getpid() != caller:  # the helper ends on the first label it claims
            died.touch()
            os._exit(3)
        wait_for(died)  # so that the helper claims one
        return load_row(label, db)

    monkeypatch.setattr(evolution, "_load_row", dying)
    on_cpus(monkeypatch, 2)
    before = db_hash(random_corpus)
    assert run_cli(["evolve", "--db", random_corpus]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("depex: ") and err.count("\n") == 1 and "Traceback" not in err
    assert "status 3" in err
    assert db_hash(random_corpus) == before
    assert no_child_left()


def test_an_interrupt_kills_and_reaps_every_helper(monkeypatch, random_corpus, tmp_path):
    caller, claimed = os.getpid(), tmp_path / "claimed"

    def interrupted(label, db):
        if os.getpid() != caller:  # the helper would outlive the test unless killed
            claimed.touch()
            time.sleep(60)
        wait_for(claimed)
        raise KeyboardInterrupt

    monkeypatch.setattr(evolution, "_load_row", interrupted)
    on_cpus(monkeypatch, 3)
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        trend_report(random_corpus)
    assert time.monotonic() - start < 30
    assert no_child_left()
