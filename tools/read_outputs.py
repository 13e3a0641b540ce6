"""Print what depex's read commands, and its scans, answer on fixed inputs.

    python3 tools/read_outputs.py build corpus-read WHERE
    python3 tools/read_outputs.py dump SRC WHERE > out.txt
    python3 tools/read_outputs.py convert SRC WHERE COPY
    python3 tools/read_outputs.py size SRC WHERE
    python3 tools/read_outputs.py build-trees WHERE
    python3 tools/read_outputs.py scans SRC WHERE > out.txt

`build` generates a perfbench workload's seed-1 inputs under WHERE through
`perfbench/workload.py` (scan-distro is scanned into a database first) and
records the 64 pooled query command lines next to the database. `dump`
imports depex from the source directory SRC, runs `stats` (with and
without `--json`), `dot`, `dot --hide-top 12`, `dot --hide-name lib`,
`dot --root NAME` (NAME: the name of the first pooled `get-all-deps`
query), `evolve`, `evolve --format csv`, `evolve --snapshots` naming every
stored label twice, newest first (so the rows of a repeated label are
compared too), and each pooled query (with and without `--json`, so both
the JSON and the text form are compared) in-process against that database,
and prints each command line, its exit code and its output, which `dot`
writes a chunk at a time. `snapshots` is left out: its scan time and root
differ between databases built apart.
It then prints, for each snapshot, every node's recursive coupling from
`depex.metrics.closure_sizes` as `path<TAB>size` lines in path order,
every node's direct users from `depex.queries.who_uses` as
`path<TAB>count<TAB>digest` lines in path order, the digest a SHA-256
prefix of the users' sorted paths, and every node's columns by position
(path, kind, soname, size, aliases), as `scans` prints a saved snapshot's:
no read command prints sizes or aliases, so a load that decoded them wrongly
would otherwise pass. Dumps made with the `src/` of two commits differ in
a byte exactly when a read answer or a loaded node column does.

`convert` copies the database that `build` made under WHERE into COPY,
with a `reads.json` that names the copy, and converts the copy to SRC's
storage format with one `open_db` call, so that `dump SRC COPY` reads a
converted older database. `size` prints the database's bytes, its
dependency edges over every snapshot (as SRC loads them) and the bytes
per edge, then each `graphs` column's bytes over every snapshot, read
with sqlite3 itself, so for any schema version (none for version 0).

`build-trees` writes the test suite's demo tree, perfbench's seed-1
scan-distro tree and a small conf tree under WHERE. The conf tree's four
ld.so.conf files hold a diamond include and a mutually including pair,
and a program needs one library from each directory they list and one
that no directory holds. `scans` imports depex from SRC and scans
each tree three times: with symlink following on and off, and once more,
following, with the search settings of SEARCH (an `env_library_path`, so
that the env-path stage is taken, and `default_dirs` other than the
default). For each scan it prints the counts, every node (path, kind,
soname, size, aliases), every edge (with its target and origin) and every
error record. It then saves the scan through `save_snapshot`, all six into
one fresh database, and prints what
`load_graph` reads back: the snapshot's id, label and root, the node
columns by position (path, kind, soname, size, aliases) and the edges by
position (source, needed name, target, origin). Scan dumps likewise differ
in a byte exactly when a scan answer or a saved snapshot does, whatever
the storage format.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import shutil
import sqlite3
import sys
import tempfile
from pathlib import Path

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
READS = (["stats", "--json"], ["stats"], ["dot"], ["dot", "--hide-top", "12"],
         ["dot", "--hide-name", "lib"], ["evolve"], ["evolve", "--format", "csv"])
# /opt/app/lib (demo) and /opt/vendor/lib (scan-distro) hold libraries that
# RUNPATH or ld.so.conf finds later, so the env-path stage takes them first
SEARCH = {"env_library_path": ["/opt/vendor/lib", "/opt/app/lib"],
          "default_dirs": ["/usr/lib/gtk", "/usr/lib", "/lib"]}


def build(workload: str, where: str) -> None:
    sys.path[:0] = [os.path.join(ROOT, d) for d in ("perfbench", "src", "tests")]
    import depex.cli
    from workload import setup

    prepared, _, _ = setup(workload, 1, where)
    db = prepared.corpus_db
    if db is None:
        db = os.path.join(where, "scan.db")
        with contextlib.redirect_stdout(io.StringIO()):
            code = depex.cli.run_cli(["scan", "--sysroot", prepared.root,
                                      "--label", prepared.label, "--db", db])
        if code != 0:
            sys.exit(f"scan of {prepared.root} failed with exit code {code}")
    with open(os.path.join(where, "reads.json"), "w") as f:
        json.dump({"db": os.path.abspath(db),
                   "queries": [argv for argv, _ in prepared.queries]}, f)


def build_trees(where: str) -> None:
    sys.path[:0] = [os.path.join(ROOT, d) for d in ("perfbench", "src", "tests")]
    from conftest import make_demo_sysroot
    from elfbuild import ElfSpec
    from gen import GENERATORS
    from model import TreeWriter

    demo = make_demo_sysroot(TreeWriter(os.path.join(where, "demo"))).root
    distro = GENERATORS["scan-distro"](os.path.join(where, "scan-distro"), 1).tree.root
    conf = TreeWriter(os.path.join(where, "conf"))
    # a.conf and b.conf include each other, and both include c.conf
    for name, text in (("ld.so.conf", "include /etc/ld.so.conf.d/*.conf\n"),
                       ("ld.so.conf.d/a.conf", "/opt/a\ninclude b.conf\ninclude c.conf\n"),
                       ("ld.so.conf.d/b.conf", "/opt/b\ninclude a.conf\ninclude c.conf\n"),
                       ("ld.so.conf.d/c.conf", "/opt/c\n/opt/a\n")):
        conf.write(f"/etc/{name}", text.encode())
    for d in "abc":
        conf.elf(f"/opt/{d}/libopt{d}.so", ElfSpec(soname=f"libopt{d}.so"))
    conf.elf("/usr/bin/prog", ElfSpec(e_type=2, needed=["liboptc.so", "liboptb.so",
                                                         "libopta.so", "libnone.so"]))
    with open(os.path.join(where, "trees.json"), "w") as f:
        json.dump({"demo": os.path.abspath(demo), "scan-distro": os.path.abspath(distro),
                   "conf": os.path.abspath(conf.root)}, f)


def scans(src: str, where: str) -> None:
    sys.path.insert(0, os.path.abspath(src))
    from depex.resolver import SearchConfig
    from depex.scanner import ScanOptions, scan_tree
    from depex.store import load_graph, save_snapshot

    with open(os.path.join(where, "trees.json")) as f:
        trees = json.load(f)
    out = sys.stdout
    with tempfile.TemporaryDirectory() as tmp:
        db = os.path.join(tmp, "scans.db")
        for name, root in trees.items():
            for follow, search in ((True, {}), (False, {}), (True, SEARCH)):
                r = scan_tree(ScanOptions(SearchConfig(root, **search), follow_symlinks=follow))
                label = f"{name} {follow}" + " search" * bool(search)
                out.write(f"$ scan {name} follow_symlinks={follow} {search}\n{r.counts}\n")
                paths = [n.canonical_path for n in r.nodes]
                for n in r.nodes:
                    out.write(f"node {n.canonical_path} {n.kind.value} {n.soname} "
                              f"{n.size_bytes} {' '.join(n.alias_paths)}\n")
                for e in r.edges:
                    target = None if e.to_node is None else paths[e.to_node]
                    origin = e.origin and e.origin.value
                    out.write(f"edge {paths[e.from_node]} {e.needed_name} {target} {origin}\n")
                for path, message in r.error_records:
                    out.write(f"error {path} {message}\n")
                snapshot = save_snapshot(r, label, db)
                g = load_graph(snapshot.label, db)
                out.write(f"saved {g.snapshot.id} {g.snapshot.label} {g.snapshot.root_path}\n")
                for p, path in enumerate(g.paths):
                    out.write(f"saved node {p} {path} {g.kinds[p].value} {g.sonames[p]} "
                              f"{g.sizes[p]} {' '.join(g.aliases.get(p, ()))}\n")
                sources = [p for p in range(len(g.paths))
                           for _ in range(g.out_start[p], g.out_start[p + 1])]
                for e, (src, needed, dst, origin) in enumerate(
                        zip(sources, g.names, g.dst, g.origins)):
                    out.write(f"saved edge {e} {src} {needed} {dst} {origin and origin.value}\n")


def convert(src: str, where: str, copy: str) -> None:
    sys.path.insert(0, os.path.abspath(src))
    from depex.store import open_db

    with open(os.path.join(where, "reads.json")) as f:
        spec = json.load(f)
    os.makedirs(copy, exist_ok=True)
    db = os.path.join(os.path.abspath(copy), os.path.basename(spec["db"]))
    shutil.copyfile(spec["db"], db)
    open_db(db).close()
    with open(os.path.join(copy, "reads.json"), "w") as f:
        json.dump({**spec, "db": db}, f)


def size(src: str, where: str) -> None:
    sys.path.insert(0, os.path.abspath(src))
    from depex.store import list_snapshots, load_graph

    with open(os.path.join(where, "reads.json")) as f:
        db = json.load(f)["db"]
    edges = sum(len(load_graph(s.label, db).names) for s in list_snapshots(db))
    nbytes = os.path.getsize(db)
    print(f"{nbytes} B, {edges} edges, {nbytes / max(edges, 1):.2f} B/edge")
    # sqlite3 itself reads the graphs table of any schema version
    con = sqlite3.connect(Path(db).absolute().as_uri() + "?mode=ro", uri=True)
    try:
        columns = [row[1] for row in con.execute("PRAGMA table_info(graphs)")][1:]
        for name in columns:
            total, = con.execute(f"SELECT total(length({name})) FROM graphs").fetchone()
            print(f"column {name}: {int(total)} B")
    finally:
        con.close()


def dump(src: str, where: str) -> None:
    sys.path.insert(0, os.path.abspath(src))
    import depex.cli
    from depex.metrics import closure_sizes
    from depex.queries import who_uses
    from depex.store import list_snapshots, load_graph

    with open(os.path.join(where, "reads.json")) as f:
        spec = json.load(f)
    queries = [form for argv in spec["queries"]
               for form in (argv, [a for a in argv if a != "--json"])]
    root = next(argv[1] for argv in spec["queries"] if argv[0] == "get-all-deps")
    twice = ",".join(s.label for s in list_snapshots(spec["db"])[::-1] for _ in (0, 1))
    for argv in [*READS, ["dot", "--root", root], ["evolve", "--snapshots", twice], *queries]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = depex.cli.run_cli([*argv, "--db", spec["db"]])
        sys.stdout.write(f"$ depex {' '.join(argv)}\nexit {code}\n{out.getvalue()}"
                         f"{err.getvalue()}")
    for snapshot in list_snapshots(spec["db"]):
        graph = load_graph(snapshot.label, spec["db"])
        sys.stdout.write(f"$ closure_sizes {snapshot.label}\n")
        sizes = closure_sizes(graph)
        in_order = sorted(range(len(graph.paths)), key=graph.paths.__getitem__)
        for p in in_order:
            sys.stdout.write(f"{graph.paths[p]}\t{sizes[p]}\n")
        sys.stdout.write(f"$ who_uses {snapshot.label}\n")
        for p in in_order:
            users = sorted(graph.paths[u] for u in who_uses(graph, p))
            digest = hashlib.sha256("\n".join(users).encode("utf-8", "surrogateescape"))
            sys.stdout.write(f"{graph.paths[p]}\t{len(users)}\t{digest.hexdigest()[:16]}\n")
        sys.stdout.write(f"$ nodes {snapshot.label}\n")
        for p, path in enumerate(graph.paths):
            sys.stdout.write(f"node {p} {path} {graph.kinds[p].value} {graph.sonames[p]} "
                             f"{graph.sizes[p]} {' '.join(graph.aliases.get(p, ()))}\n")


if __name__ == "__main__":
    commands = {"build": build, "dump": dump, "convert": convert, "size": size,
                "build-trees": build_trees, "scans": scans}
    command = commands.get(sys.argv[1] if len(sys.argv) > 1 else "")
    if command is None or len(sys.argv) - 2 != command.__code__.co_argcount:
        sys.exit(__doc__.split("\n\n")[1])
    command(*sys.argv[2:])
