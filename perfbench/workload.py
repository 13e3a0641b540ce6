"""One benchmark run: set-up, operations, correctness checks, timings.

Every operation is one `depex` command run in-process through
`depex.cli.run_cli`, which is what the `depex` executable runs minus
interpreter start-up. One closed-loop client issues them back to back.
Only the `run_cli` call is timed; checks against the generator's truth
run between operations.

Timings are reported at a nominal host speed. On a shared machine the
speed of the same code drifts by up to half over seconds, which would
swamp any change worth measuring. So while a command runs, a SIGALRM
handler times a fixed arithmetic loop every 20 ms, and the command's time,
less the handler's, is divided by the loop's median time around and
during the command over its nominal time. The whole time is scaled
alike, so a change that moves work between user and kernel time at equal
wall time reads the same. The raw times are kept too and printed next to
the result.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import os
import random
import re
import signal
import statistics
import time

import depex.cli
import depex.store
from depex.elf import FileKind
from depex.resolver import Origin, SearchConfig
from depex.scanner import ScanOptions, scan_tree

from gen import GENERATORS
from model import EXE, LIB, Graph, digest_edges, digest_nodes

HIDE_TOP = 12
QUERY_POOL = 64
MIN_QUERIES = 40
MIN_SAMPLES = 2  # every kind gets a median of at least this many samples
# sub-second read commands vary by a third between samples on a shared
# host, so their medians need more samples than scans, which vary less
ENOUGH_SCANS = 7
ENOUGH_READS = 15
# a kind short of those counts is done once its samples took this long:
# a command of seconds is steadied by its own length more than by repeats,
# and repeating it would push a run past a minute
ENOUGH_S = 5.0
QUERY_KINDS = ("who-uses", "who-uses-t", "impact", "get-deps", "get-all-deps")
# share of the measured seconds spent scanning; the rest goes to read commands
SCAN_SHARE = {"scan-distro": 0.6, "corpus-read": 0.25}
# target shares of the read phase, served in deficit order
READ_MIX = {"stats": 0.15, "evolve": 0.15, "dot": 0.15, "query": 0.55}
PROBE_INTERVAL_S = 0.02
PROBE_AROUND = 20  # samples taken just before and just after each command
# the probe loop's time at nominal speed: its fast-state time on the
# 2-vCPU machine the benchmark was written on
PROBE_NOMINAL_S = 100e-6


def _probe_loop() -> float:
    start = time.perf_counter()
    total = 0
    for i in range(2000):
        total += i * i
    return time.perf_counter() - start


def at_nominal_speed(run):
    """(result, seconds at nominal host speed, raw seconds) of `run()`."""
    samples = [_probe_loop() for _ in range(PROBE_AROUND)]
    spent = [0.0]

    def tick(signum, frame) -> None:
        start = time.perf_counter()
        samples.append(_probe_loop())
        spent[0] += time.perf_counter() - start

    previous = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
    try:
        start = time.perf_counter()
        result = run()
        raw = time.perf_counter() - start
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, previous)
    samples += [_probe_loop() for _ in range(PROBE_AROUND)]
    slowdown = statistics.median(samples) / PROBE_NOMINAL_S
    return result, (raw - spent[0]) / slowdown, raw


@dataclasses.dataclass
class Prepared:
    """What set-up hands the measuring process: where the inputs are on
    disk, what a scan of them must store, and the read commands' answers."""

    root: str                   # the sysroot every scan reads
    label: str                  # snapshot label the scans use
    files_seen: int
    kind_counts: dict[str, int]
    node_digest: str
    edge_digest: str
    edges: int                  # dependency edges of every snapshot the reads see
    corpus_db: str | None       # the prebuilt database reads use, if any
    stats: dict
    evolve: dict
    dot_lines: tuple[int, int]  # (declaration lines, edge lines)
    queries: list[tuple[list[str], dict]]
    digest: str                 # fingerprint of the input
    props: dict                 # sizes and properties of the input
    snapshots: list[dict]       # label, nodes, edges and depth of each snapshot


def _save_graph(graph: Graph, label: str, db: str, template) -> None:
    """Store a generated graph as a snapshot through depex's own writer."""
    nodes = [depex.store.FileNode(id=i, snapshot_id=None, canonical_path=p,
                                  kind=FileKind(k), soname=s)
             for i, (p, k, s) in enumerate(zip(graph.paths, graph.kinds, graph.sonames))]
    edges = []
    for src, out in enumerate(graph.out):
        for name, dst, origin in out:
            edges.append(depex.store.DependencyEdge(
                id=len(edges), snapshot_id=None, from_node=src, needed_name=name,
                to_node=dst, origin=None if origin is None else Origin(origin)))
    depex.store.save_snapshot(
        dataclasses.replace(template, root="/", nodes=nodes, edges=edges), label, db)


def _dot_lines(g: Graph) -> tuple[int, int]:
    pop = [len(u) for u in g.users()]
    ranked = sorted(range(len(g)), key=lambda n: (-pop[n], g.paths[n]))
    visible = set(ranked[HIDE_TOP:])
    missing, edges = set(), 0
    for src in visible:
        for name, dst, _ in g.out[src]:
            if dst is None:
                missing.add(name)
            edges += dst is None or dst in visible
    return len(visible) + len(missing), edges


def _query_pool(g: Graph, rng: random.Random) -> list[tuple[list[str], dict]]:
    """Seeded interactive queries on the latest snapshot, with their answers."""
    users = g.users()
    libs = [i for i, k in enumerate(g.kinds) if k == LIB and g.sonames[i]]
    exes = [i for i, k in enumerate(g.kinds) if k == EXE]
    popular = sorted(libs, key=lambda i: -len(users[i]))[:30]
    fwd, rev = g.forward(), g.reverse()
    exe_paths = {g.paths[i] for i in exes}

    def name_of(i: int) -> str:
        if g.sonames[i] and rng.random() < 0.7:
            return g.sonames[i]
        return "/".join(g.paths[i].split("/")[-2:])  # a unique path suffix

    pool = []
    for i in range(QUERY_POOL):
        kind = QUERY_KINDS[i % len(QUERY_KINDS)]  # any 5 in a row cover every kind
        if kind in ("get-deps", "get-all-deps"):
            node = rng.choice(exes if rng.random() < 0.75 else libs)
        else:
            node = rng.choice(popular if rng.random() < 0.5 else libs)
        path = g.paths[node]
        direct = sorted(g.paths[u] for u in users[node])
        if kind == "who-uses":
            argv = ["who-uses", name_of(node), "--json"]
            doc = {"library": path, "transitive": False, "dependents": direct}
        elif kind == "who-uses-t":
            argv = ["who-uses", name_of(node), "--transitive", "--json"]
            doc = {"library": path, "transitive": True,
                   "dependents": g.bits_to_paths(rev[node])}
        elif kind == "impact":
            argv = ["impact", name_of(node), "--json"]
            transitive = g.bits_to_paths(rev[node])
            doc = {"library": path, "direct": direct, "transitive": transitive,
                   "executables_affected": [p for p in transitive if p in exe_paths]}
        elif kind == "get-deps":
            argv = ["get-deps", name_of(node), "--json"]
            doc = {"file": path, "dependencies": [
                {"needed_name": name,
                 "status": "missing" if dst is None else "resolved",
                 "path": None if dst is None else g.paths[dst], "origin": origin}
                for name, dst, origin in g.out[node]]}
        else:
            argv = ["get-all-deps", name_of(node), "--json"]
            doc = {"file": path, "dependencies": g.bits_to_paths(fwd[node])}
        pool.append((argv, doc))
    return pool


def generate(workload: str, seed: int, where: str, **sizes):
    """Write a workload's inputs under `where`.

    Returns the inputs, the corpus database (or None) and the time at
    nominal speed and raw of writing the tree, generating the corpus and
    storing it through depex. `sizes` overrides the generator's size
    parameters (the tests shrink them).
    """
    inputs, seconds, raw = at_nominal_speed(
        lambda: GENERATORS[workload](os.path.join(where, "root"), seed, **sizes))
    inputs.finish()
    corpus_db = None
    if inputs.corpus:
        empty = os.path.join(where, "empty")
        os.makedirs(empty)
        template = scan_tree(ScanOptions(SearchConfig(sysroot=empty)))
        corpus_db = os.path.join(where, "corpus.db")

        def save() -> None:
            for label, graph in inputs.snapshots():
                _save_graph(graph, label, corpus_db, template)

        _, save_s, save_raw = at_nominal_speed(save)
        seconds += save_s
        raw += save_raw
    return inputs, corpus_db, seconds, raw


def setup(workload: str, seed: int, where: str,
          **sizes) -> tuple[Prepared, float, float]:
    """Generate a workload's inputs under `where`, and its expected answers.

    Returns the prepared run and the time of `generate`. Deriving the
    expected answers (the oracle) is not timed.
    """
    inputs, corpus_db, seconds, raw = generate(workload, seed, where, **sizes)
    snapshots = inputs.snapshots()
    label, g = snapshots[-1]
    truth = inputs.truth
    prepared = Prepared(
        inputs.tree.root, inputs.label, truth.files_seen, truth.kind_counts(),
        truth.node_digest(), truth.edge_digest(),
        sum(graph.edge_count() for _, graph in snapshots), corpus_db,
        g.stats(), {"rows": [graph.trend_row(label) for label, graph in snapshots]},
        _dot_lines(g), _query_pool(g, random.Random(f"{workload}/{seed}/queries")),
        inputs.digest(), inputs.props,
        [{"label": label, "nodes": len(graph), "edges": graph.edge_count(),
          "depth": graph.depth()} for label, graph in snapshots])
    return prepared, seconds, raw


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, count): the highest rank with 10 samples above it,
    or the maximum when there are too few samples for that."""
    s = sorted(samples)
    rank = len(s) - 10 if len(s) > 10 else len(s)
    return s[rank - 1], 100.0 * rank / len(s), len(s)


class Bench:
    def __init__(self, prepared: Prepared, work: str, probe: bool = True):
        self.p = prepared
        self.work = work
        self.probe = probe  # scale times to nominal speed; off for traced runs
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.tries: dict[str, int] = {}
        self.times: dict[str, list[float]] = {}  # scaled to nominal speed
        self.raw: dict[str, list[float]] = {}
        self.read_db: str | None = prepared.corpus_db
        self._scans = 0
        self._dot: str | None = None

    # -- plumbing --------------------------------------------------------------

    def _cli(self, kind: str, argv: list[str]) -> tuple[int, str]:
        buf = io.StringIO()
        op = self.tracer.operation(kind) if self.tracer else contextlib.nullcontext()

        def run() -> int:
            with op:
                return depex.cli.run_cli(argv)

        with contextlib.redirect_stdout(buf):
            if self.probe:
                rc, scaled, raw = at_nominal_speed(run)
            else:
                start = time.perf_counter()
                rc = run()
                scaled = raw = time.perf_counter() - start
        self.times.setdefault(kind, []).append(scaled)
        self.raw.setdefault(kind, []).append(raw)
        out = buf.getvalue()
        if self.tracer:
            self.tracer.count("cli.bytes_out", len(out.encode()))
        return rc, out

    def _run(self, kind: str, argv: list[str], check) -> bool:
        """Run, time and check one command; a failure is counted, not raised."""
        self.attempted += 1
        self.tries[kind] = self.tries.get(kind, 0) + 1
        try:
            rc, out = self._cli(kind, argv)
            problem = f"exit code {rc}" if rc != 0 else check(out)
        except Exception as exc:  # a crashing command is a failed operation
            problem = f"{type(exc).__name__}: {exc}"
        if problem:
            self.failed += 1
            self.problems.append(f"{' '.join(argv[:3])}: {problem}")
        return not problem

    @staticmethod
    def _json(expected):
        def check(out: str):
            try:
                got = json.loads(out)
            except ValueError as exc:
                return f"output is not JSON: {exc}"
            return None if got == expected else "answer differs from the oracle"
        return check

    # -- operations ------------------------------------------------------------

    def scan(self, workers: int = 1) -> None:
        """`depex scan` into a fresh database."""
        self._scans += 1
        db = os.path.join(self.work, f"scan{self._scans}.db")
        argv = ["scan", "--sysroot", self.p.root, "--label", self.p.label,
                "--db", db, "--workers", str(workers)]
        ok = self._run("scan" if workers == 1 else "scan_par", argv,
                       lambda out: self._check_scan(db, out))
        if ok and self.read_db is None:
            self.read_db = db  # read commands query the first good scan
        else:
            with contextlib.suppress(FileNotFoundError):  # a failed scan may write none
                os.remove(db)

    def _check_scan(self, db: str, out: str) -> str | None:
        p = self.p
        seen = re.search(r"(\d+) files seen", out)
        if seen and int(seen.group(1)) != p.files_seen:
            return f"{seen.group(1)} files seen, expected {p.files_seen}"
        graph = depex.store.load_graph(p.label, db)
        nodes = {n.canonical_path: (n.kind.value, n.soname, tuple(sorted(n.alias_paths)))
                 for n in graph.nodes.values()}
        kinds: dict[str, int] = {}
        for kind, _, _ in nodes.values():
            kinds[kind] = kinds.get(kind, 0) + 1
        if kinds != p.kind_counts:
            return f"kind counts {kinds}, expected {p.kind_counts}"
        if digest_nodes(nodes) != p.node_digest:
            return "node set differs from the oracle"
        path = {n.id: n.canonical_path for n in graph.nodes.values()}
        edges = [(path[e.from_node], e.needed_name,
                  None if e.to_node is None else path[e.to_node])
                 for out_edges in graph.adjacency.values() for e in out_edges]
        if digest_edges(edges) != p.edge_digest:
            return "edge set differs from the oracle"
        return None

    def _read(self, kind: str, argv: list[str], check) -> None:
        """A read command on the database reads use; one without it fails."""
        if self.read_db is None:
            self.attempted += 1
            self.tries[kind] = self.tries.get(kind, 0) + 1
            self.failed += 1
            self.problems.append(f"{' '.join(argv[:2])}: no database to read, "
                                 "every scan failed")
            return
        self._run(kind, argv + ["--db", self.read_db], check)

    def query(self, i: int) -> None:
        argv, expected = self.p.queries[i % len(self.p.queries)]
        self._read("query", argv, self._json(expected))

    def stats(self) -> None:
        self._read("stats", ["stats", "--json"], self._json(self.p.stats))

    def evolve(self) -> None:
        self._read("evolve", ["evolve"], self._json(self.p.evolve))

    def dot(self) -> None:
        self._read("dot", ["dot", "--hide-top", str(HIDE_TOP)], self._check_dot)

    def _check_dot(self, out: str) -> str | None:
        if self._dot is not None:
            return None if out == self._dot else "output differs from the first run"
        self._dot = out
        lines = out.splitlines()[1:-1]
        edges = sum(1 for line in lines if " -> " in line)
        got = (len(lines) - edges, edges)
        if got != self.p.dot_lines:
            return f"(node, edge) lines {got}, expected {self.p.dot_lines}"
        return None

    # -- schedules -------------------------------------------------------------

    def warm_page_cache(self) -> None:
        """Read every input file once, so timed scans find it in the page cache."""
        for dirpath, _, filenames in os.walk(self.p.root):
            for name in filenames:
                path = os.path.join(dirpath, name)
                if not os.path.islink(path):
                    with open(path, "rb") as f:
                        while f.read(1 << 20):
                            pass

    def enough(self, kind: str) -> bool:
        """Whether a command kind has the samples a steady median needs.

        Counted in attempts, so commands that keep failing cannot keep the
        run going.
        """
        count = self.tries.get(kind, 0)
        if kind == "query":
            return count >= MIN_QUERIES
        target = ENOUGH_SCANS if kind.startswith("scan") else ENOUGH_READS
        return count >= MIN_SAMPLES and (
            count >= target or sum(self.raw.get(kind, ())) >= ENOUGH_S)

    def measure(self, workload: str, seconds: float) -> None:
        """Scan, then read, for their shares of `seconds` and their minimums."""
        self.warm_page_cache()
        start = time.perf_counter()
        scan_until = start + seconds * SCAN_SHARE[workload]
        while not (time.perf_counter() >= scan_until
                   and self.enough("scan") and self.enough("scan_par")):
            self.scan(1)
            self.scan(2)
        if self.read_db is None:
            return  # every scan failed; the run is already marked wrong
        read_until = start + seconds
        spent = dict.fromkeys(READ_MIX, 0.0)
        queries = 0
        while True:
            pending = [k for k in READ_MIX if not self.enough(k)]
            if not pending and time.perf_counter() >= read_until:
                break
            kind = min(pending or READ_MIX, key=lambda k: spent[k] / READ_MIX[k])
            spent[kind] += self._timed_read(kind, queries)
            queries += kind == "query"

    def _timed_read(self, kind: str, queries: int) -> float:
        start = time.perf_counter()
        if kind == "query":
            self.query(queries)
        else:
            getattr(self, kind)()
        return time.perf_counter() - start

    def sequence(self, queries: int = 2 * len(QUERY_KINDS)) -> float:
        """A fixed serial sequence of every command; returns its raw command time."""
        before = sum(map(sum, self.raw.values()))
        self.scan(1)
        self.stats()
        self.evolve()
        self.dot()
        for i in range(queries):
            self.query(i)
        return sum(map(sum, self.raw.values())) - before

    # -- results ---------------------------------------------------------------

    def median(self, kind: str, raw: bool = False) -> float:
        samples = (self.raw if raw else self.times).get(kind)
        return statistics.median(samples) if samples else 0.0

    def db_bytes_per_edge(self) -> float:
        if not self.read_db or not self.p.edges:
            return 0.0
        return os.path.getsize(self.read_db) / self.p.edges
