"""Command-line entry point.

Every read command runs load -> compute -> render. The load step reads
--db (or DEPEX_DB), takes --snapshot or the latest label, loads that
graph and finds the node a NAME argument names. The compute step, one per
command, returns the answer as (JSON document, text). The render step
writes the document with --json (evolve: --format json), or else the text
a piece at a time as it is made, so `dot` never holds its whole output.
`snapshots` and `evolve` compute from the database alone.

Exit codes: 0 success, 1 user error (unknown snapshot/node, ambiguous
name, bad arguments), 2 internal or storage error. Read commands never
modify the database and print deterministically sorted output.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import signal
import sys
from collections.abc import Iterable, Iterator
from dataclasses import asdict

from depex import __version__
from depex.dot import DotOptions, dot_chunks
from depex.evolution import TREND_COLUMNS, trend_report
from depex.metrics import stats_summary
from depex.queries import (AmbiguousName, find_node, get_all_deps, get_deps,
                           update_impact, who_uses)
from depex.resolver import DEFAULT_DIRS, SearchConfig
from depex.scanner import (RelativePath, ScanOptions, SysrootUnreadable,
                           scan_tree)
from depex.store import (DependencyGraph, DuplicateLabel, StorageFailure,
                         UnknownLabel, UnknownNode, UnreadableDatabase,
                         list_snapshots, load_graph, save_snapshot)

USER_ERROR, INTERNAL_ERROR = 1, 2


class _ArgumentParser(argparse.ArgumentParser):
    # bad usage is a user error, same exit code as unknown names
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _CliError(message)


class _CliError(Exception):
    """A user error the command line finds itself (exit 1)."""


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than `minimum`."""
    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names the type in "invalid int value: ..."
    return parse


def _stored_label(text: str) -> str:
    """argparse type: the label of a stored snapshot, never empty and UTF-8,
    as labels are stored. A label with "," stays nameable here: older
    versions stored such labels."""
    if not text:
        raise argparse.ArgumentTypeError("empty snapshot label")
    try:
        text.encode("utf-8")
    except UnicodeEncodeError:
        raise argparse.ArgumentTypeError(f"snapshot label {text!r} is not UTF-8") from None
    return text


def _label(text: str) -> str:
    """argparse type: a new snapshot label, one every command can name: not
    empty, and without the "," that separates evolve's --snapshots."""
    if "," in _stored_label(text):
        raise argparse.ArgumentTypeError(f"snapshot label {text!r} contains ','")
    return text


def _labels(text: str) -> list[str]:
    """argparse type: a comma-separated list of snapshot labels, none empty."""
    if not text:
        raise argparse.ArgumentTypeError("needs at least one snapshot label")
    try:
        return [_label(label) for label in text.split(",")]
    except argparse.ArgumentTypeError as exc:
        raise argparse.ArgumentTypeError(f"{exc} in {text!r}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(prog="depex",
                             description="OS-tree binary dependency analysis")
    parser.add_argument("--version", action="version",
                        version=f"depex {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def add(name: str, help_text: str, *, snapshot: bool = False, as_json: bool = False,
            node: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--db", default=os.environ.get("DEPEX_DB"),
                       help="database file (or DEPEX_DB)")
        if snapshot:
            p.add_argument("--snapshot", type=_stored_label,
                           help="snapshot label (default: latest)")
        if as_json:
            p.add_argument("--json", action="store_true", dest="as_json")
        if node:  # the load step finds it
            p.add_argument("name", metavar="NAME-OR-PATH")
        return p

    p = add("scan", "scan a sysroot into a new snapshot")
    p.add_argument("--sysroot", required=True)
    p.add_argument("--label", type=_label, required=True)
    p.add_argument("--exclude", action="append", default=[],
                   metavar="PREFIX", help="extra absolute path prefix to skip")
    p.add_argument("--env-library-path", action="append", default=[],
                   metavar="DIR", help="absolute directory searched like LD_LIBRARY_PATH")
    p.add_argument("--default-dirs", metavar="DIR:DIR:...",
                   help=f"absolute dirs to search instead of {':'.join(DEFAULT_DIRS)}")
    p.add_argument("--no-follow-symlinks", action="store_true")
    p.add_argument("--workers", type=_int_at_least(1), default=1, metavar="N",
                   help="accepted and ignored: the scan runs in one process")

    add("stats", "snapshot-level statistics", snapshot=True, as_json=True)
    add("snapshots", "list stored snapshots", as_json=True)

    p = add("who-uses", "files depending on a library", snapshot=True, as_json=True, node=True)
    p.add_argument("--transitive", action="store_true")
    add("get-deps", "direct dependencies of a file", snapshot=True, as_json=True, node=True)
    add("get-all-deps", "transitive dependencies of a file", snapshot=True, as_json=True,
        node=True)
    add("impact", "update impact of a library", snapshot=True, as_json=True, node=True)

    p = add("dot", "emit the dependency graph as DOT", snapshot=True)
    p.set_defaults(as_json=False)  # no --json: DOT is its text form
    p.add_argument("--hide-top", type=_int_at_least(0), default=0, metavar="K",
                   help="hide the K most popular nodes")
    p.add_argument("--hide-name", action="append", default=[], metavar="S",
                   help="hide nodes whose path contains S")
    p.add_argument("--root", action="append", default=[], metavar="PATH",
                   help="restrict to the forward closure of PATH")

    p = add("evolve", "trend report across snapshots")
    p.add_argument("--snapshots", type=_labels, metavar="L1,L2,...",
                   help="ordered labels (default: all, natural order)")
    p.add_argument("--format", choices=("json", "csv"), default="json")

    return parser


def _require_db(args) -> str:
    if not args.db:
        raise _CliError("no database given (use --db or DEPEX_DB)")
    return args.db


def _load(args, db: str) -> tuple[DependencyGraph, int | None]:
    """The load step: the graph of --snapshot (default: the latest snapshot)
    and the node named by NAME, for a command that takes one."""
    label = args.snapshot
    if label is None:
        snaps = list_snapshots(db)
        if not snaps:
            raise _CliError("database has no snapshots")
        label = snaps[-1].label
    graph = load_graph(label, db)
    return graph, find_node(graph, args.name) if "name" in args else None


def _render(as_json: bool, doc, text: Iterable[str]) -> None:
    """The render step: the document in one write, or the text a piece at a
    time as it is made; the text is made only when it is the form asked for."""
    sys.stdout.writelines([json.dumps(doc, indent=2) + "\n"] if as_json else text)


def _lines(items) -> Iterator[str]:
    return (f"{item}\n" for item in items)


def _paths(graph: DependencyGraph, ids) -> list[str]:
    return sorted(graph.paths[n] for n in ids)


def _cmd_scan(args) -> int:
    db = _require_db(args)
    config = SearchConfig(
        sysroot=args.sysroot,
        env_library_path=list(args.env_library_path),
        default_dirs=(list(DEFAULT_DIRS) if args.default_dirs is None
                      else args.default_dirs.split(":")),
    )
    options = ScanOptions(config, follow_symlinks=not args.no_follow_symlinks)
    options.excluded_prefixes.extend(args.exclude)
    result = scan_tree(options)
    snapshot = save_snapshot(result, args.label, db)
    c = result.counts
    print(f"snapshot {snapshot.label!r}: {c.files_seen} files seen, "
          f"{c.elf_parsed} parsed, {c.executables} executables, "
          f"{c.libraries} libraries, {len(result.edges)} dependencies, "
          f"{c.errors} errors in {sum(result.phase_seconds.values()):.2f}s")
    return 0


# The compute steps: each returns its answer as (JSON document, text), the
# text as the pieces to write.
_Answer = tuple[object, Iterable[str]]

def _stats(args, graph: DependencyGraph, node: None) -> _Answer:
    stats = asdict(stats_summary(graph))
    width = max(map(len, stats))
    return stats, _lines(f"{key.ljust(width)}  {value}" for key, value in stats.items())


def _who_uses(args, graph: DependencyGraph, node: int) -> _Answer:
    users = _paths(graph, who_uses(graph, node, transitive=args.transitive))
    return ({"library": graph.paths[node], "transitive": args.transitive,
             "dependents": users}, _lines(users))


def _get_deps(args, graph: DependencyGraph, node: int) -> _Answer:
    deps = get_deps(graph, node)
    return ({"file": graph.paths[node], "dependencies": [
                {"needed_name": name, "status": "resolved" if res.resolved else "missing",
                 "path": res.path, "origin": res.origin.value if res.origin else None}
                for name, res in deps]},
            _lines(f"{name}\t{res.path} ({res.origin.value})" if res.resolved
                   else f"{name}\tMISSING" for name, res in deps))


def _get_all_deps(args, graph: DependencyGraph, node: int) -> _Answer:
    closure = _paths(graph, get_all_deps(graph, node))
    return {"file": graph.paths[node], "dependencies": closure}, _lines(closure)


def _impact(args, graph: DependencyGraph, node: int) -> _Answer:
    impact = update_impact(graph, node)
    sections = {key: _paths(graph, getattr(impact, key))
                for key in ("direct", "transitive", "executables_affected")}
    return ({"library": graph.paths[node], **sections},
            _lines(line for key, paths in sections.items()
                   for line in (f"{key}:", *(f"  {path}" for path in paths))))


def _dot(args, graph: DependencyGraph, node: None) -> _Answer:
    roots = [find_node(graph, r) for r in args.root] or None
    return None, dot_chunks(graph, DotOptions(hide_top_k=args.hide_top,
                                              hide_names=args.hide_name, roots=roots))


def _snapshots(args, db: str) -> _Answer:
    snaps = list_snapshots(db)
    return ([{"label": s.label, "root_path": s.root_path,
              "scanned_at": s.scanned_at, "tool_version": s.tool_version} for s in snaps],
            _lines(f"{s.label}\t{s.scanned_at}\t{s.root_path}" for s in snaps))


def _evolve(args, db: str) -> _Answer:
    rows = [asdict(r) for r in trend_report(db, args.snapshots).rows]
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=TREND_COLUMNS)
    writer.writeheader()
    writer.writerows(rows)
    return {"rows": rows}, [out.getvalue()]


_ON_SNAPSHOT = {"stats": _stats, "who-uses": _who_uses, "get-deps": _get_deps,
                "get-all-deps": _get_all_deps, "impact": _impact, "dot": _dot}
_ON_DATABASE = {"snapshots": _snapshots, "evolve": _evolve}


def _read(args) -> int:
    """A read command: load, compute, render."""
    db = _require_db(args)
    if args.command in _ON_SNAPSHOT:
        doc, text = _ON_SNAPSHOT[args.command](args, *_load(args, db))
    else:
        doc, text = _ON_DATABASE[args.command](args, db)
    _render(args.format == "json" if args.command == "evolve" else args.as_json, doc, text)
    return 0


def run_cli(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit as exc:  # --version/--help print and stop
            return int(exc.code or 0)
        if args.command is None:
            parser.print_help()
            return USER_ERROR
        return _cmd_scan(args) if args.command == "scan" else _read(args)
    except UnknownLabel as exc:
        print(f"depex: unknown snapshot {exc}", file=sys.stderr)
        return USER_ERROR
    except UnknownNode as exc:
        print(f"depex: unknown file or library {exc}", file=sys.stderr)
        return USER_ERROR
    except (_CliError, AmbiguousName, UnreadableDatabase) as exc:
        print(f"depex: {exc}", file=sys.stderr)
        return USER_ERROR
    except DuplicateLabel as exc:
        print(f"depex: snapshot label already exists: {exc}", file=sys.stderr)
        return USER_ERROR
    except RelativePath as exc:
        print(f"depex: {exc.args[0]} takes absolute paths, got {exc.args[1]!r}",
              file=sys.stderr)
        return USER_ERROR
    except SysrootUnreadable as exc:
        print(f"depex: sysroot not readable: {exc}", file=sys.stderr)
        return USER_ERROR
    except (StorageFailure, OSError) as exc:
        print(f"depex: {exc}", file=sys.stderr)
        return INTERNAL_ERROR


def main() -> None:
    if hasattr(signal, "SIGPIPE"):  # a reader that goes away ends the run quietly, as for cat
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.stdout.reconfigure(errors="surrogateescape")  # a non-UTF-8 path prints its own bytes
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
