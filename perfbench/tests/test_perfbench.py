"""Small-size checks of the benchmark's generator, oracle and tracer."""

from __future__ import annotations

import hashlib
import importlib.util
import inspect
import os
import pickle
import shutil
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
for path in (BENCH, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")):
    if path not in sys.path:
        sys.path.insert(0, path)

import depex  # noqa: E402
from depex.resolver import SearchConfig  # noqa: E402
from depex.scanner import ScanOptions, scan_tree  # noqa: E402

import gen  # noqa: E402
from model import TreeWriter, digest_edges, digest_nodes, expected_scan  # noqa: E402
from spans import _OBSERVERS, LAYERS, Tracer, children_of, layer_metrics  # noqa: E402
from workload import Bench, setup, tail  # noqa: E402

SMALL = {
    "scan-distro": {"libraries": 40, "executables": 120},
    "corpus-read": {"sizes": (60, 90, 120), "depths": (3, 4, 5)},
}


def _tree_fingerprint(root: str) -> str:
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(root)):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode())
            if os.path.islink(path):
                h.update(b"->" + os.readlink(path).encode())
            else:
                with open(path, "rb") as f:
                    h.update(hashlib.sha256(f.read()).digest())
    return h.hexdigest()


def _scan_digests(root: str):
    result = scan_tree(ScanOptions(SearchConfig(sysroot=root)))
    path = {n.id: n.canonical_path for n in result.nodes}
    nodes = {n.canonical_path: (n.kind.value, n.soname, tuple(sorted(n.alias_paths)))
             for n in result.nodes}
    edges = [(path[e.from_node], e.needed_name,
              None if e.to_node is None else path[e.to_node],
              None if e.origin is None else e.origin.value) for e in result.edges]
    return digest_nodes(nodes), digest_edges(edges), sorted(edges, key=str)


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_generator_is_deterministic_per_seed(tmp_path, workload):
    make = gen.GENERATORS[workload]
    a = make(str(tmp_path / "a"), 7, **SMALL[workload]).finish()
    b = make(str(tmp_path / "b"), 7, **SMALL[workload]).finish()
    c = make(str(tmp_path / "c"), 8, **SMALL[workload]).finish()
    assert a.digest() == b.digest() != c.digest()
    assert _tree_fingerprint(a.tree.root) == _tree_fingerprint(b.tree.root)
    assert a.props == b.props


def _load_demo_builder():
    spec = importlib.util.spec_from_file_location(
        "depex_suite_conftest", os.path.join(ROOT, "tests", "conftest.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.make_demo_sysroot


def test_oracle_agrees_with_depex_on_the_demo_tree(tmp_path):
    tree = TreeWriter(str(tmp_path / "demo"))
    _load_demo_builder()(tree)
    truth = expected_scan(tree)
    nodes, edges, listed = _scan_digests(tree.root)
    assert (nodes, edges) == (truth.node_digest(), truth.edge_digest())
    assert listed == sorted(truth.edges, key=str)  # search stages too
    assert truth.files_seen == 12
    assert ("/usr/bin/broken", "libghost.so.9", None, None) in truth.edges
    assert ("/opt/app/bin/app", "libapp.so.1", "/opt/app/lib/libapp.so.1",
            "runpath") in truth.edges


def test_oracle_agrees_with_depex_on_a_generated_distro(tmp_path):
    inputs = gen.distro(str(tmp_path / "d"), 3, **SMALL["scan-distro"]).finish()
    nodes, edges, listed = _scan_digests(inputs.tree.root)
    assert (nodes, edges) == (inputs.truth.node_digest(), inputs.truth.edge_digest())
    assert listed == sorted(inputs.truth.edges, key=str)
    stages = {e[3] for e in inputs.truth.edges}
    assert {"runpath", "rpath", "ldso-conf", "default-dir", None} <= stages


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_every_command_matches_the_oracle(tmp_path, workload):
    prepared, seconds, raw = setup(workload, 5, str(tmp_path / "setup"), **SMALL[workload])
    assert 0 < seconds and 0 < raw
    prepared = pickle.loads(pickle.dumps(prepared))  # as set-up hands it back
    bench = Bench(prepared, str(tmp_path))
    bench.scan(1)
    bench.scan(2)
    bench.sequence()
    bench.dot()  # a repeat must be byte-identical
    assert bench.problems == []
    assert bench.attempted == 2 + 4 + 2 * 5 + 1


def test_a_failed_scan_is_counted_not_raised(tmp_path):
    prepared, _, _ = setup("scan-distro", 5, str(tmp_path / "setup"), **SMALL["scan-distro"])
    shutil.rmtree(prepared.root)  # the scan fails before it writes a database
    bench = Bench(prepared, str(tmp_path))
    bench.scan(1)
    assert (bench.attempted, bench.failed) == (1, 1)
    assert "exit code" in bench.problems[0]
    bench.sequence()  # read commands without a database fail too
    assert bench.failed == bench.attempted == 2 + 3 + 2 * 5
    assert all("no database to read" in p for p in bench.problems[2:])
    assert os.listdir(tmp_path) == ["setup"]


def test_a_counter_that_no_longer_fits_its_call_is_a_miss():
    tracer = Tracer()
    _OBSERVERS["elf.parse_elf"](tracer, (b"\x7fELF",), None)
    assert tracer.counters == {"elf.parse_elf.bytes": 4}
    _OBSERVERS["elf.parse_elf"](tracer, ("/usr/bin/e1",), None)  # a path, not bytes
    _OBSERVERS["scanner.scan_tree"](tracer, (), None)
    assert tracer.counters["trace.observer_misses"] == 2


def _depex_bindings():
    """Every attribute of every depex module and of the classes they define."""
    out = {}
    modules = [m for n, m in sys.modules.items() if n == "depex" or n.startswith("depex.")]
    for module in modules:
        for attr, obj in vars(module).items():
            out[(module.__name__, attr)] = obj
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                for name, member in vars(obj).items():
                    out[(obj.__qualname__, name)] = member
    return out


def test_traced_run_restores_every_wrapped_name(tmp_path):
    prepared, _, _ = setup("scan-distro", 5, str(tmp_path / "setup"), **SMALL["scan-distro"])
    bench = Bench(prepared, str(tmp_path))
    before = _depex_bindings()
    tracer = Tracer()
    try:
        names = tracer.install()
        import depex.cli
        import depex.scanner
        assert depex.scanner.parse_elf is not before[("depex.scanner", "parse_elf")]
        assert depex.cli.load_graph.__wrapped__ is before[("depex.cli", "load_graph")]
        bench.tracer = tracer
        bench.sequence()
    finally:
        tracer.restore()
    assert _depex_bindings() == before
    assert {n.split(".")[0] for n in names} == set(LAYERS)
    assert bench.problems == []

    metrics = layer_metrics(tracer)
    assert metrics["elf.parse_elf.calls"][0] == sum(prepared.kind_counts.values())
    assert metrics["scanner.files_seen"][0] == prepared.files_seen
    assert "trace.observer_misses" not in tracer.counters
    for name, (value, unit) in metrics.items():
        if name.endswith(("busy_s", ".calls")) and name != "store.reverse_reachable.busy_s":
            assert value > 0, name
    busy = tracer.busy["scanner.scan_tree"]
    children = sum(children_of(tracer, "scanner.scan_tree").values())
    assert tracer.self_time["scanner.scan_tree"] + children == pytest.approx(busy)
    # spans form a tree under one root per operation
    ids = {s[0] for s in tracer.spans}
    assert all(parent in ids for _, parent, name, *_ in tracer.spans
               if not name.startswith("op."))


def test_tail_keeps_ten_samples_above_it():
    value, percentile, count = tail([float(i) for i in range(1, 101)])
    assert (value, percentile, count) == (90.0, 90.0, 100)
    assert tail([3.0, 1.0]) == (3.0, 100.0, 2)
