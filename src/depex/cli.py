"""Command-line entry point.

Exit codes: 0 success, 1 user error (unknown snapshot/node, ambiguous
name, bad arguments), 2 internal or storage error. Read commands never
modify the database and print deterministically sorted output; --json
gives the machine-readable form.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict

from depex import __version__
from depex.dot import DotOptions, emit_dot
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
    def __init__(self, message: str, code: int = USER_ERROR):
        super().__init__(message)
        self.code = code


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
    """argparse type: the label of a stored snapshot, never empty. A label
    with "," stays nameable here: older versions stored such labels."""
    if not text:
        raise argparse.ArgumentTypeError("empty snapshot label")
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

    def add(name: str, help_text: str, *, db: bool = True,
            snapshot: bool = False, as_json: bool = False) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_text)
        if db:
            p.add_argument("--db", default=os.environ.get("DEPEX_DB"),
                           help="database file (or DEPEX_DB)")
        if snapshot:
            p.add_argument("--snapshot", type=_stored_label,
                           help="snapshot label (default: latest)")
        if as_json:
            p.add_argument("--json", action="store_true", dest="as_json")
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

    p = add("who-uses", "files depending on a library", snapshot=True, as_json=True)
    p.add_argument("name", metavar="NAME-OR-PATH")
    p.add_argument("--transitive", action="store_true")

    p = add("get-deps", "direct dependencies of a file", snapshot=True, as_json=True)
    p.add_argument("name", metavar="NAME-OR-PATH")

    p = add("get-all-deps", "transitive dependencies of a file",
            snapshot=True, as_json=True)
    p.add_argument("name", metavar="NAME-OR-PATH")

    p = add("impact", "update impact of a library", snapshot=True, as_json=True)
    p.add_argument("name", metavar="NAME-OR-PATH")

    p = add("dot", "emit the dependency graph as DOT", snapshot=True)
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


def _pick_snapshot(args, db: str) -> str:
    if getattr(args, "snapshot", None):
        return args.snapshot
    snaps = list_snapshots(db)
    if not snaps:
        raise _CliError("database has no snapshots")
    return snaps[-1].label


def _load(args) -> DependencyGraph:
    db = _require_db(args)
    return load_graph(_pick_snapshot(args, db), db)


def _paths(graph: DependencyGraph, ids) -> list[str]:
    return sorted(graph.paths[n] for n in ids)


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2))


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


def _cmd_stats(args) -> int:
    stats = asdict(stats_summary(_load(args)))
    if args.as_json:
        _print_json(stats)
    else:
        width = max(len(k) for k in stats)
        for key, value in stats.items():
            print(f"{key.ljust(width)}  {value}")
    return 0


def _cmd_snapshots(args) -> int:
    snaps = list_snapshots(_require_db(args))
    if args.as_json:
        _print_json([{"label": s.label, "root_path": s.root_path,
                      "scanned_at": s.scanned_at, "tool_version": s.tool_version}
                     for s in snaps])
    else:
        for s in snaps:
            print(f"{s.label}\t{s.scanned_at}\t{s.root_path}")
    return 0


def _cmd_who_uses(args) -> int:
    graph = _load(args)
    node = find_node(graph, args.name)
    users = _paths(graph, who_uses(graph, node, transitive=args.transitive))
    if args.as_json:
        _print_json({"library": graph.paths[node],
                     "transitive": args.transitive, "dependents": users})
    else:
        for path in users:
            print(path)
    return 0


def _cmd_get_deps(args) -> int:
    graph = _load(args)
    node = find_node(graph, args.name)
    deps = get_deps(graph, node)
    if args.as_json:
        _print_json({
            "file": graph.paths[node],
            "dependencies": [
                {"needed_name": name,
                 "status": "resolved" if res.resolved else "missing",
                 "path": res.path,
                 "origin": res.origin.value if res.origin else None}
                for name, res in deps
            ],
        })
    else:
        for name, res in deps:
            where = f"{res.path} ({res.origin.value})" if res.resolved else "MISSING"
            print(f"{name}\t{where}")
    return 0


def _cmd_get_all_deps(args) -> int:
    graph = _load(args)
    node = find_node(graph, args.name)
    closure = _paths(graph, get_all_deps(graph, node))
    if args.as_json:
        _print_json({"file": graph.paths[node],
                     "dependencies": closure})
    else:
        for path in closure:
            print(path)
    return 0


def _cmd_impact(args) -> int:
    graph = _load(args)
    node = find_node(graph, args.name)
    impact = update_impact(graph, node)
    payload = {
        "library": graph.paths[node],
        "direct": _paths(graph, impact.direct),
        "transitive": _paths(graph, impact.transitive),
        "executables_affected": _paths(graph, impact.executables_affected),
    }
    if args.as_json:
        _print_json(payload)
    else:
        for key in ("direct", "transitive", "executables_affected"):
            print(f"{key}:")
            for path in payload[key]:
                print(f"  {path}")
    return 0


def _cmd_dot(args) -> int:
    graph = _load(args)
    roots = [find_node(graph, r) for r in args.root] or None
    options = DotOptions(hide_top_k=args.hide_top, hide_names=args.hide_name,
                         roots=roots)
    sys.stdout.write(emit_dot(graph, options))
    return 0


def _cmd_evolve(args) -> int:
    db = _require_db(args)
    report = trend_report(db, args.snapshots)
    rows = [asdict(r) for r in report.rows]
    if args.format == "csv":
        import csv

        writer = csv.DictWriter(sys.stdout, fieldnames=TREND_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    else:
        _print_json({"rows": rows})
    return 0


_COMMANDS = {
    "scan": _cmd_scan,
    "stats": _cmd_stats,
    "snapshots": _cmd_snapshots,
    "who-uses": _cmd_who_uses,
    "get-deps": _cmd_get_deps,
    "get-all-deps": _cmd_get_all_deps,
    "impact": _cmd_impact,
    "dot": _cmd_dot,
    "evolve": _cmd_evolve,
}


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
        return _COMMANDS[args.command](args)
    except _CliError as exc:
        print(f"depex: {exc}", file=sys.stderr)
        return exc.code
    except UnknownLabel as exc:
        print(f"depex: unknown snapshot {exc}", file=sys.stderr)
        return USER_ERROR
    except UnknownNode as exc:
        print(f"depex: unknown file or library {exc}", file=sys.stderr)
        return USER_ERROR
    except (AmbiguousName, UnreadableDatabase) as exc:
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
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
