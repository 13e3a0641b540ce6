"""depex benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload scan-distro --seed 1 --seconds 20 --trace 0

Run from the root of a depex source tree. Inputs are generated from the
seed under `.perfbench_work/` (removed at exit). `--trace 0` measures the
end-to-end metrics with nothing wrapped; `--trace 1` runs a fixed
command sequence with every public depex function wrapped and reports
per-layer metrics, writing the spans to `.perfbench_out/`. The last line
of standard output is the result; the lines before it, starting with
`#`, describe the environment, the inputs and the checks.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import pickle
import platform
import resource
import shutil
import sqlite3
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("scan-distro", "corpus-read")
SETUP_REPEATS = 3


def _git_sha() -> str:
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(ROOT, ".git", ref)) as f:
                return f.read().strip()
        except FileNotFoundError:
            with open(os.path.join(ROOT, ".git", "packed-refs")) as f:
                for line in f:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _environment(work: str) -> dict:
    probe = os.path.join(work, "probe.db")
    con = sqlite3.connect(probe)
    try:
        journal = con.execute("PRAGMA journal_mode").fetchone()[0]
        synchronous = con.execute("PRAGMA synchronous").fetchone()[0]
    finally:
        con.close()
        os.remove(probe)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "git_sha": _git_sha(),
        "flush_policy": f"SQLite defaults, unchanged: journal_mode={journal}, "
                        f"synchronous={synchronous}",
        "page_cache": "warm: inputs are read once before timing; the cache cannot "
                      "be dropped without privileges, so cold reads are not measured",
    }


def _comment(label: str, value) -> None:
    text = value if isinstance(value, str) else json.dumps(value, sort_keys=True)
    print(f"# {label}: {text}")


def _set_up(workload: str, seed: int, work: str, repeats: int):
    """Set up `repeats` times from scratch; keep the last, return all times.

    Each set-up runs in a fresh interpreter (`setup_child.py`), so every
    set-up starts from the same state. The last also derives the expected
    answers and hands back only those and where the inputs are, so the
    generator's and the oracle's memory never counts in this process's
    peak RSS. The child is a plain subprocess that is waited for, so no
    helper process outlives it.
    """
    times, raw = [], []
    for k in range(repeats):
        where = os.path.join(work, f"setup{k}")
        last = k + 1 == repeats
        result = where + ".pickle"
        subprocess.run([sys.executable, os.path.join(HERE, "setup_child.py"), workload,
                        str(seed), where, str(int(last)), result], check=True)
        with open(result, "rb") as f:
            prepared, scaled, seconds = pickle.load(f)
        os.remove(result)
        if not last:
            shutil.rmtree(where)
        times.append(scaled)
        raw.append(seconds)
    os.sync()  # so timed saves do not wait on the set-up's writeback
    _comment("setup_s samples (scaled, raw)", [times, raw])
    return prepared, times


def _peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024


def _end_to_end(workload: str, seed: int, seconds: int, work: str) -> dict:
    from workload import Bench, tail

    prepared, setup_times = _set_up(workload, seed, work, SETUP_REPEATS)
    rss_setup, rss_setup_child = _peak_rss_mb(), _peak_rss_mb(resource.RUSAGE_CHILDREN)
    _describe(prepared)
    bench = Bench(prepared, work)
    bench.measure(workload, seconds)
    files = prepared.files_seen
    queries = [t * 1000 for t in bench.times.get("query", [])] or [0.0]
    tail_ms, tail_pct, n_queries = tail(queries)
    rss_end = _peak_rss_mb()
    _comment("peak RSS (MB)", {
        "this process after set-up": rss_setup, "this process at the end": rss_end,
        "set-up processes": rss_setup_child,
        "scan pool workers and set-up processes": _peak_rss_mb(resource.RUSAGE_CHILDREN)})
    if rss_end <= rss_setup:
        _comment("warning", "peak_rss_mb was reached before any command ran, so it "
                            "measures the benchmark, not depex")
    _comment("samples behind each median", {k: len(v) for k, v in sorted(bench.times.items())})
    _comment("query_tail_ms", f"p{tail_pct:.1f} of {n_queries} samples "
                              f"(10 above it)")
    _comment("raw medians (s)", {k: bench.median(k, raw=True) for k in sorted(bench.raw)})
    serial, parallel = bench.median("scan"), bench.median("scan_par")
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "scan_files_per_s": (files / serial if serial else 0.0, "files/s"),
        "scan_par_files_per_s": (files / parallel if parallel else 0.0, "files/s"),
        "db_bytes_per_edge": (bench.db_bytes_per_edge(), "B/edge"),
        "query_p50_ms": (statistics.median(queries), "ms"),
        "query_tail_ms": (tail_ms, "ms"),
        "stats_s": (bench.median("stats"), "s"),
        "evolve_s": (bench.median("evolve"), "s"),
        "dot_s": (bench.median("dot"), "s"),
        "peak_rss_mb": (rss_end, "MB"),
    }
    return _result(bench, metrics)


def _per_layer(workload: str, seed: int, work: str) -> dict:
    from spans import Tracer, children_of, layer_metrics
    from workload import Bench

    prepared, _ = _set_up(workload, seed, work, 1)
    _describe(prepared)
    tracer = Tracer()
    bench = Bench(prepared, work, probe=False)
    bench.warm_page_cache()
    untraced = bench.sequence()
    names = tracer.install()
    try:
        bench.tracer = tracer
        traced = bench.sequence()
    finally:
        bench.tracer = None
        tracer.restore()
    metrics = layer_metrics(tracer)
    metrics["trace.overhead_ratio"] = (traced / untraced if untraced else 0.0, "ratio")
    busy = tracer.busy.get("scanner.scan_tree", 0.0)
    children = children_of(tracer, "scanner.scan_tree")
    _comment("wrapped functions", len(names))
    _comment("scanner.scan_tree decomposition", {
        "busy_s": busy, "self_s": tracer.self_time.get("scanner.scan_tree", 0.0),
        "children_busy_s": children,
        "self_plus_children_s": tracer.self_time.get("scanner.scan_tree", 0.0)
        + sum(children.values())})
    if busy:
        _comment("shares of scanner.scan_tree.busy_s", {
            name: round(tracer.busy.get(name, 0.0) / busy, 3)
            for name in ("elf.parse_elf", "elf.classify_kind", "resolver.resolve",
                         "resolver.canonical_file_stat")})
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    spans_file = os.path.join(out_dir, f"spans-{workload}-seed{seed}.tsv.gz")
    tracer.write(spans_file)
    misses = tracer.counters.get("trace.observer_misses", 0)
    _comment("spans", f"{len(tracer.spans)} written to "
                      f"{os.path.relpath(spans_file, ROOT)}, {tracer.dropped} dropped")
    if misses:
        # a counter that no longer fits depex's signatures would read as a
        # change of the program; the result is marked wrong instead
        _comment("check failed", f"{misses} layer-boundary counter reads no longer fit "
                                 "the call they observe; fix perfbench/spans.py")
    return _result(bench, metrics, counters_ok=not misses)


def _describe(prepared) -> None:
    _comment("input digest", prepared.digest)
    _comment("input properties", prepared.props)
    if len(prepared.snapshots) > 1:
        _comment("corpus snapshots", prepared.snapshots)


def _result(bench, metrics: dict, counters_ok: bool = True) -> dict:
    for problem in bench.problems[:20]:
        print(f"# check failed: {problem}", file=sys.stderr)
    _comment("checks", f"{bench.attempted - bench.failed} of {bench.attempted} "
                       f"operations passed; error_ratio "
                       f"{bench.failed / max(1, bench.attempted)}")
    return {
        "correct": bench.failed == 0 and bench.attempted > 0 and counters_ok,
        "attempted": max(1, bench.attempted),
        "failed": bench.failed if bench.attempted else 1,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for needed in ("src/depex/cli.py", "tests/elfbuild.py"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            print(f"perfbench: {needed} not found under {ROOT}; run from a depex "
                  "source tree", file=sys.stderr)
            return 2
    sys.path[:0] = [HERE, os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")]

    work = os.path.join(ROOT, ".perfbench_work", str(os.getpid()))
    os.makedirs(work)
    try:
        _comment("workload", {"name": args.workload, "seed": args.seed,
                              "seconds": args.seconds, "trace": args.trace,
                              "clients": 1, "loop": "closed"})
        _comment("environment", _environment(work))
        if args.trace:
            result = _per_layer(args.workload, args.seed, work)
        else:
            result = _end_to_end(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            os.rmdir(os.path.dirname(work))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
