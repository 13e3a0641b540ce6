"""Per-layer tracing by wrapping depex's public functions from outside.

Each depex module is a layer. `Tracer.install` replaces every public
function and public method of the layer modules with a wrapper that
records a span (name, start, end, parent span, operation id), in the
defining module and in every depex module that imported the name, so a
call through `depex.scanner.parse_elf` or `depex.cli.load_graph` is seen.
`Tracer.restore` puts the originals back. Wrappers record only inside
`Tracer.operation`, so checks the benchmark runs between operations do
not count.

Busy time of a name is the summed duration of its outermost spans; self
time is that minus the time covered by child spans.
"""

from __future__ import annotations

import contextlib
import gzip
import importlib
import inspect
import posixpath
import sys
import time
from enum import Enum

LAYERS = ("elf", "resolver", "scanner", "store", "metrics", "queries", "dot",
          "evolution", "cli")
SPAN_CAP = 1_000_000  # spans kept for the trace file; aggregates are always exact


def _targets(layer: str):
    """(name, owner, attribute, function) for a layer's public callables.

    A method is named like a function, `layer.method`, unless another
    callable of the layer has that name; then it is `layer.Class.method`.
    """
    module = importlib.import_module(f"depex.{layer}")
    functions, methods = [], []
    for attr, obj in vars(module).items():
        if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            functions.append((f"{layer}.{attr}", module, attr, obj))
        elif inspect.isclass(obj) and not issubclass(obj, (BaseException, Enum)):
            methods += [(obj, meth, fn) for meth, fn in vars(obj).items()
                        if not meth.startswith("_") and inspect.isfunction(fn)]
    short = [attr for _, _, attr, _ in functions] + [meth for _, meth, _ in methods]
    found = functions + [
        (f"{layer}.{meth}" if short.count(meth) == 1 else f"{layer}.{cls.__name__}.{meth}",
         cls, meth, fn) for cls, meth, fn in methods]
    # a generator's body runs after the call returns, outside any span
    return [t for t in found if not inspect.isgeneratorfunction(t[3])]


class Tracer:
    def __init__(self) -> None:
        self.active = False
        self.calls: dict[str, int] = {}
        self.busy: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.counters: dict[str, float] = {}
        self.child_busy: dict[tuple[str, str], float] = {}  # (parent, child) names
        self.spans: list[tuple[int, int, str, float, float, int]] = []
        self.dropped = 0
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._depth: dict[str, int] = {}
        self._next_id = 0
        self._op = 0
        self._patched: list[tuple[object, str, object]] = []
        self._resolve_keys: set = set()

    # -- recording ---------------------------------------------------------

    def _enter(self, name: str) -> list:
        self._next_id += 1
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        self._depth[name] = self._depth.get(name, 0) + 1
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        depth = self._depth[name] = self._depth[name] - 1
        self.calls[name] = self.calls.get(name, 0) + 1
        if depth == 0:
            self.busy[name] = self.busy.get(name, 0.0) + duration
        self.self_time[name] = self.self_time.get(name, 0.0) + duration - child
        parent = 0
        if self._stack:
            outer = self._stack[-1]
            parent = outer[0]
            outer[3] += duration
            key = (outer[1], name)
            self.child_busy[key] = self.child_busy.get(key, 0.0) + duration
        if len(self.spans) < SPAN_CAP:
            self.spans.append((span_id, parent, name, start, end, self._op))
        else:
            self.dropped += 1

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    @contextlib.contextmanager
    def operation(self, kind: str):
        """One benchmark operation: a root span and a fresh operation id."""
        self._op += 1
        self.active = True
        frame = self._enter(f"op.{kind}")
        try:
            yield
        finally:
            self._exit(frame)
            self.active = False

    # -- installation --------------------------------------------------------

    def _wrap(self, name: str, fn):
        observe = _OBSERVERS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if observe is not None:
                observe(tracer, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        return traced

    def install(self) -> list[str]:
        names = []
        modules = [m for n, m in sys.modules.items() if n == "depex" or n.startswith("depex.")]
        for layer in LAYERS:
            for name, owner, attr, fn in _targets(layer):
                wrapper = self._wrap(name, fn)
                names.append(name)
                self._patch(owner, attr, fn, wrapper)
                if inspect.ismodule(owner):
                    for module in modules:
                        if module is not owner and getattr(module, attr, None) is fn:
                            self._patch(module, attr, fn, wrapper)
        return names

    def _patch(self, owner, attr: str, original, wrapper) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: str) -> None:
        """Spans as tab-separated lines: id, parent, name, start, end, op."""
        with gzip.open(path, "wt", compresslevel=1) as f:
            f.write("id\tparent\tname\tstart_s\tend_s\top\n")
            for span_id, parent, name, start, end, op in self.spans:
                f.write(f"{span_id}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\t{op}\n")


# -- counters taken at layer boundaries -------------------------------------
# Each observer reads a call's arguments and result. One that no longer
# fits the call (the signature changed) records nothing and counts a miss,
# and a run with misses is reported as wrong, so that a broken counter
# cannot pass as a measurement.

def _parse_bytes(t: Tracer, args, result) -> None:
    t.count("elf.parse_elf.bytes", memoryview(args[0]).nbytes)  # bytes-like only


def _resolve(t: Tracer, args, result) -> None:
    _, name, summary, dependent = args[:4]
    t._resolve_keys.add((name, summary.rpath, summary.runpath,
                         posixpath.dirname(dependent)))
    t.count("resolver.resolve.resolved", 1 if result.resolved else 0)


def _scan(t: Tracer, args, result) -> None:
    for field in ("files_seen", "elf_parsed", "errors"):
        t.count(f"scanner.{field}", getattr(result.counts, field))


def _save(t: Tracer, args, result) -> None:
    scan = args[0]
    t.count("store.save_snapshot.rows", 1 + len(scan.nodes) + len(scan.edges)
            + sum(len(n.alias_paths) for n in scan.nodes))


def _result_size(t: Tracer, args, result) -> None:
    t.count("queries.result_nodes", len(result))


def _dot(t: Tracer, args, result) -> None:
    t.count("dot.emit_dot.bytes_out", len(result.encode()))


def _guard(observe):
    def guarded(t: Tracer, args, result) -> None:
        try:
            observe(t, args, result)
        except (AttributeError, IndexError, TypeError, ValueError):
            t.count("trace.observer_misses")
    return guarded


_OBSERVERS = {name: _guard(fn) for name, fn in {
    "elf.parse_elf": _parse_bytes,
    "resolver.resolve": _resolve,
    "scanner.scan_tree": _scan,
    "store.save_snapshot": _save,
    "queries.who_uses": _result_size,
    "queries.get_deps": _result_size,
    "queries.get_all_deps": _result_size,
    "dot.emit_dot": _dot,
}.items()}


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, by name, with units. Absent names read 0."""
    def calls(name):
        return (t.calls.get(name, 0), "count")

    def busy(name):
        return (t.busy.get(name, 0.0), "s")

    def self_s(name):
        return (t.self_time.get(name, 0.0), "s")

    def counter(name, unit="count"):
        return (t.counters.get(name, 0), unit)

    resolves = t.calls.get("resolver.resolve", 0)
    out = {
        "elf.parse_elf.calls": calls("elf.parse_elf"),
        "elf.parse_elf.busy_s": busy("elf.parse_elf"),
        "elf.parse_elf.bytes": counter("elf.parse_elf.bytes", "B"),
        "elf.classify_kind.busy_s": busy("elf.classify_kind"),
        "resolver.resolve.calls": calls("resolver.resolve"),
        "resolver.resolve.busy_s": busy("resolver.resolve"),
        "resolver.resolve.distinct_ratio": (
            len(t._resolve_keys) / resolves if resolves else 0.0, "ratio"),
        "resolver.resolve.resolved_ratio": (
            t.counters.get("resolver.resolve.resolved", 0) / resolves
            if resolves else 0.0, "ratio"),
        "resolver.canonical_file_stat.calls": calls("resolver.canonical_file_stat"),
        "resolver.canonical_file_stat.busy_s": busy("resolver.canonical_file_stat"),
        "scanner.scan_tree.busy_s": busy("scanner.scan_tree"),
        "scanner.scan_tree.self_s": self_s("scanner.scan_tree"),
        "scanner.files_seen": counter("scanner.files_seen"),
        "scanner.elf_parsed": counter("scanner.elf_parsed"),
        "scanner.errors": counter("scanner.errors"),
        "store.save_snapshot.busy_s": busy("store.save_snapshot"),
        "store.save_snapshot.rows": counter("store.save_snapshot.rows"),
        "store.load_graph.calls": calls("store.load_graph"),
        "store.load_graph.busy_s": busy("store.load_graph"),
        "store.reachable_from.calls": calls("store.reachable_from"),
        "store.reachable_from.busy_s": busy("store.reachable_from"),
        "store.reverse_reachable.busy_s": busy("store.reverse_reachable"),
        "metrics.stats_summary.busy_s": busy("metrics.stats_summary"),
        "metrics.stats_summary.self_s": self_s("metrics.stats_summary"),
        "metrics.health.busy_s": busy("metrics.health"),
        "metrics.popularity.busy_s": busy("metrics.popularity"),
    }
    for q in ("find_node", "who_uses", "update_impact", "get_deps", "get_all_deps"):
        out[f"queries.{q}.busy_s"] = busy(f"queries.{q}")
    out.update({
        "queries.result_nodes": counter("queries.result_nodes"),
        "dot.emit_dot.busy_s": busy("dot.emit_dot"),
        "dot.emit_dot.bytes_out": counter("dot.emit_dot.bytes_out", "B"),
        "evolution.trend_report.busy_s": busy("evolution.trend_report"),
        "evolution.trend_report.self_s": self_s("evolution.trend_report"),
        "cli.run_cli.busy_s": busy("cli.run_cli"),
        "cli.run_cli.self_s": self_s("cli.run_cli"),
        "cli.bytes_out": counter("cli.bytes_out", "B"),
    })
    return out


def children_of(t: Tracer, parent_name: str) -> dict[str, float]:
    """Time of each name's spans that sit directly under `parent_name`'s."""
    return {child: seconds for (parent, child), seconds in t.child_busy.items()
            if parent == parent_name}
