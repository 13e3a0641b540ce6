"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sqlite3
import sys
import time
import zlib
from array import array
from pathlib import Path

import pytest

from conftest import SysrootBuilder, make_demo_sysroot
from depex.dot import dot_chunks
from depex.elf import ElfError, parse_elf, read_symbols
from depex.evolution import diff_snapshots, longevity, trend_report
from depex.metrics import health, popularity, recursive_coupling
from depex.queries import get_all_deps
from depex.resolver import Origin, Resolver, SearchConfig
from depex.scanner import ScanOptions, scan_tree
from depex.store import load_graph, save_snapshot
from elfbuild import GLOBAL, WEAK, ElfSpec, build_elf
from graphbuild import build_graph, edge_records, random_graph
from oracles import READELF, closure_sets, readelf_dyn_syms, readelf_dynamic

DATA = Path(__file__).parent / "data"


def ok(number: int, title: str) -> None:
    print(f"ACCEPTANCE {number} ({title}): PASS", flush=True)


# --- 1. parser oracle equivalence -------------------------------------------

def parser_fixture_specs() -> list[tuple[str, ElfSpec]]:
    specs: list[tuple[str, ElfSpec]] = []
    ld = "/lib/ld.so"
    for bits in (32, 64):
        for little in (True, False):
            tag = f"{bits}{'le' if little else 'be'}"
            specs.append((f"exec-{tag}", ElfSpec(
                bits=bits, little=little, e_type=2, interpreter=ld,
                needed=["libc.so.6"], undefined=[("main_helper", GLOBAL)])))
            specs.append((f"pie-{tag}", ElfSpec(
                bits=bits, little=little, e_type=3, interpreter=ld,
                needed=["libc.so.6", "libm.so.6"], runpath="$ORIGIN/../lib",
                undefined=[("sin", GLOBAL), ("maybe_gc", WEAK)])))
            specs.append((f"lib-{tag}", ElfSpec(
                bits=bits, little=little, e_type=3, soname=f"libmix-{tag}.so.1",
                needed=["libc.so.6"], rpath="/opt/lib:/usr/local/lib",
                defined=[("api_one", GLOBAL), ("api_weak", WEAK)],
                undefined=[("memcpy", GLOBAL)])))
    specs += [
        ("lib-both-paths", ElfSpec(
            soname="libboth.so", rpath="/r1:/r2", runpath="/rp1",
            needed=["liba.so", "libb.so", "libc.so"])),
        ("lib-empty-dynamic", ElfSpec(bits=32, little=False)),
        ("exec-no-needed", ElfSpec(e_type=2, interpreter=ld)),
        ("lib-many-symbols", ElfSpec(
            soname="libbig.so",
            defined=[(f"export_{i:03d}", GLOBAL) for i in range(80)],
            undefined=[(f"import_{i:03d}", GLOBAL) for i in range(40)])),
        ("lib-colon-heavy", ElfSpec(
            soname="libcolon.so", runpath="a::b:$ORIGIN:", needed=["libx.so"])),
        ("relocatable", ElfSpec(e_type=1, with_dynamic=False, with_sections=False)),
        ("static-exec", ElfSpec(e_type=2, with_dynamic=False, with_sections=False)),
        ("lib-versioned-imports", ElfSpec(
            soname="libver.so", undefined=[("memcpy@GLIBC_2.14", GLOBAL)],
            defined=[("own@@V2", GLOBAL)])),
    ]
    return specs


def test_criterion_1_parser_oracle_equivalence(tmp_path):
    start = time.monotonic()
    specs = parser_fixture_specs()
    assert len(specs) >= 20
    mismatches = []
    for name, spec in specs:
        data = build_elf(spec)
        summary = parse_elf(data)
        path = str(tmp_path / name)
        with open(path, "wb") as f:
            f.write(data)
        if READELF and spec.with_dynamic and spec.with_sections:
            dyn = readelf_dynamic(path)
            undefined, exported, weak = readelf_dyn_syms(path)
        else:  # fall back to the builder's declared contents
            dyn = {"needed": list(spec.needed), "soname": spec.soname,
                   "rpath": spec.rpath, "runpath": spec.runpath}
            undefined = {n.split("@")[0] for n in spec.expect_undefined}
            exported = {n.split("@")[0] for n in spec.expect_exported}
            weak = {n.split("@")[0] for n in spec.expect_weak_undefined}
        checks = [
            ("needed", list(summary.needed), dyn["needed"]),
            ("soname", summary.soname, dyn["soname"]),
            ("rpath", summary.rpath, dyn["rpath"]),
            ("runpath", summary.runpath, dyn["runpath"]),
            ("undefined", set(summary.undefined_symbols), undefined),
            ("exported", set(summary.exported_symbols), exported),
            ("weak-undefined", set(summary.weak_undefined_symbols), weak),
        ]
        for what, got, want in checks:
            if got != want:
                mismatches.append((name, what, got, want))
    elapsed = time.monotonic() - start
    assert mismatches == []
    assert elapsed < 5.0, f"parser oracle run took {elapsed:.1f}s"
    ok(1, f"parser oracle equivalence, {len(specs)} fixtures, "
          f"oracle={'readelf' if READELF else 'declared'}, {elapsed:.2f}s")


def test_read_symbols_matches_summary_on_parser_fixtures():
    # criterion 1 checks the summary's symbol sets against readelf; both
    # ways of reading them must agree, as parse_elf no longer reads them
    for name, spec in parser_fixture_specs():
        data = build_elf(spec)
        summary = parse_elf(data)
        assert read_symbols(data) == (summary.undefined_symbols,
                                      summary.exported_symbols,
                                      summary.weak_undefined_symbols), name


# --- 2. resolver conformance -------------------------------------------------

def summary_of(**kw):
    return parse_elf(build_elf(ElfSpec(**kw)))


def test_criterion_2_resolver_conformance(tmp_path):
    lib = build_elf(ElfSpec(soname="libfound.so"))
    cases_checked = 0

    def fresh(name) -> SysrootBuilder:
        return SysrootBuilder(str(tmp_path / name))

    # RPATH-only: object's rpath precedes every later stage
    b = fresh("rpath-only")
    b.write("/rp/libx.so", lib)
    b.write("/usr/lib/libx.so", lib)
    r = Resolver(SearchConfig(b.root)).resolve("libx.so", summary_of(rpath="/rp"), "/bin/a")
    assert (r.path, r.origin) == ("/rp/libx.so", Origin.RPATH)
    cases_checked += 1

    # RUNPATH-only
    b = fresh("runpath-only")
    b.write("/rn/libx.so", lib)
    r = Resolver(SearchConfig(b.root)).resolve("libx.so", summary_of(runpath="/rn"), "/bin/a")
    assert (r.path, r.origin) == ("/rn/libx.so", Origin.RUNPATH)
    cases_checked += 1

    # both present: RPATH is dead, RUNPATH wins
    b = fresh("both")
    b.write("/rp/libx.so", lib)
    b.write("/rn/libx.so", lib)
    r = Resolver(SearchConfig(b.root)).resolve(
        "libx.so", summary_of(rpath="/rp", runpath="/rn"), "/bin/a")
    assert (r.path, r.origin) == ("/rn/libx.so", Origin.RUNPATH)
    cases_checked += 1

    # $ORIGIN expansion
    b = fresh("origin")
    b.write("/opt/app/lib/liby.so", lib)
    b.write("/opt/app/bin/x", lib)  # $ORIGIN/.. needs the directory
    r = Resolver(SearchConfig(b.root)).resolve(
        "liby.so", summary_of(runpath="$ORIGIN/../lib"), "/opt/app/bin/x")
    assert (r.path, r.origin) == ("/opt/app/lib/liby.so", Origin.RUNPATH)
    cases_checked += 1

    # ld.so.conf include chain
    b = fresh("ldsoconf")
    b.write("/etc/ld.so.conf", b"include /etc/ld.so.conf.d/*.conf\n")
    b.write("/etc/ld.so.conf.d/extra.conf", b"/srv/libs\n")
    b.write("/srv/libs/libz.so", lib)
    r = Resolver(SearchConfig(b.root)).resolve("libz.so", summary_of(), "/bin/a")
    assert (r.path, r.origin) == ("/srv/libs/libz.so", Origin.LDSO_CONF)
    cases_checked += 1

    # default-dir fallback
    b = fresh("default")
    b.write("/usr/lib/libm.so.6", lib)
    r = Resolver(SearchConfig(b.root)).resolve("libm.so.6", summary_of(), "/bin/a")
    assert (r.path, r.origin) == ("/usr/lib/libm.so.6", Origin.DEFAULT_DIR)
    cases_checked += 1

    # slash-containing needed names skip the search order
    b = fresh("slash")
    b.write("/opt/app/plugins/mod.so", lib)
    b.write("/abs/libabs.so", lib)
    r = Resolver(SearchConfig(b.root)).resolve("plugins/mod.so", summary_of(), "/opt/app/host")
    assert (r.path, r.origin) == ("/opt/app/plugins/mod.so", Origin.DIRECT)
    r = Resolver(SearchConfig(b.root)).resolve("/abs/libabs.so", summary_of(), "/bin/a")
    assert (r.path, r.origin) == ("/abs/libabs.so", Origin.DIRECT)
    cases_checked += 2

    # absolute symlink re-rooting
    b = fresh("reroot")
    b.write("/usr/lib/libq.so", lib)
    b.symlink("/lib64", "/usr/lib")
    r = Resolver(SearchConfig(b.root, default_dirs=["/lib64"])).resolve(
        "libq.so", summary_of(), "/bin/a")
    assert r.path == "/usr/lib/libq.so"
    canon = Resolver(SearchConfig(b.root)).canonical("/lib64/libq.so")[0]
    assert canon == "/usr/lib/libq.so"
    cases_checked += 1

    # symlink loops are survivable, later stages still searched
    b = fresh("loop")
    b.symlink("/lib/libq.so", "/lib/libq.so")
    b.write("/usr/lib/libq.so", lib)
    r = Resolver(SearchConfig(b.root, default_dirs=["/lib", "/usr/lib"])).resolve(
        "libq.so", summary_of(), "/bin/a")
    assert r.path == "/usr/lib/libq.so"
    cases_checked += 1

    # first-match-wins over permuted stage layouts
    b = fresh("firstwin")
    b.write("/s1/libw.so", lib)
    b.write("/s2/libw.so", lib)
    for dirs, expect in ((["/s1", "/s2"], "/s1/libw.so"),
                         (["/s2", "/s1"], "/s2/libw.so")):
        r = Resolver(SearchConfig(b.root, default_dirs=dirs)).resolve(
            "libw.so", summary_of(), "/bin/a")
        assert r.path == expect
    cases_checked += 2

    ok(2, f"resolver conformance, {cases_checked} scripted cases")

    _live_loader_crosscheck(tmp_path)


def _live_loader_crosscheck(tmp_path) -> None:
    """Informative comparison against the real dynamic loader; never gates."""
    gcc, ldd = shutil.which("gcc"), shutil.which("ldd")
    if not gcc or not ldd:
        print("ACCEPTANCE 2 live-loader cross-check: SKIPPED (no gcc/ldd)")
        return
    tree = tmp_path / "live" / "tree"
    (tree / "lib").mkdir(parents=True)
    (tree / "bin").mkdir()
    src = tmp_path / "live"
    (src / "lib.c").write_text("int live_fn(void) { return 42; }\n")
    (src / "main.c").write_text("int live_fn(void); int main(void) { return live_fn(); }\n")
    try:
        subprocess.run([gcc, "-shared", "-fPIC", "-o", str(tree / "lib" / "liblive.so"),
                        str(src / "lib.c")], check=True, capture_output=True)
        subprocess.run([gcc, "-o", str(tree / "bin" / "live"), str(src / "main.c"),
                        "-L", str(tree / "lib"), "-llive",
                        "-Wl,--enable-new-dtags,-rpath,$ORIGIN/../lib"],
                       check=True, capture_output=True)
        out = subprocess.run([ldd, str(tree / "bin" / "live")], check=True,
                             capture_output=True, text=True).stdout
    except subprocess.CalledProcessError as exc:
        print(f"ACCEPTANCE 2 live-loader cross-check: SKIPPED ({exc})")
        return
    loader_path = None
    for line in out.splitlines():
        if "liblive.so" in line and "=>" in line:
            loader_path = line.split("=>", 1)[1].split("(", 1)[0].strip()
    summary = parse_elf((tree / "bin" / "live").read_bytes())
    r = Resolver(SearchConfig(str(tree))).resolve("liblive.so", summary, "/bin/live")
    ours = str(tree) + r.path if r.resolved else None
    agree = (loader_path is not None and ours is not None
             and os.path.realpath(loader_path) == os.path.realpath(ours))
    print(f"ACCEPTANCE 2 live-loader cross-check (informative): "
          f"{'AGREE' if agree else f'DIFFER (ldd={loader_path} ours={ours})'}")


# --- 3. metrics brute-force equivalence --------------------------------------

def test_criterion_3_metrics_bruteforce():
    start = time.monotonic()
    rng = random.Random(0xC0FFEE)
    for _ in range(100):
        graph, n, pairs = random_graph(rng, max_nodes=50, max_density=0.3)
        expect = closure_sets(n, pairs)
        for node in range(n):
            assert recursive_coupling(graph, node) == len(expect[node])
            assert get_all_deps(graph, node) == expect[node]
        assert sum(popularity(graph).values()) == len(pairs)
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"metrics oracle run took {elapsed:.1f}s"
    ok(3, f"metrics brute-force equivalence, 100 graphs, {elapsed:.2f}s")


# --- 4. health identities -----------------------------------------------------

def test_criterion_4_health_identities():
    rng = random.Random(0xBEEF)
    for _ in range(50):
        graph, _, _ = random_graph(rng)
        report = health(graph)
        targets = {e.to_node for e in edge_records(graph) if e.to_node is not None}
        assert not (report.unused_libraries & targets)

    from graphbuild import EXE, LIB

    # three nodes, one shared missing name: impacted counts nodes
    g = build_graph([("/a", EXE), ("/b", EXE), ("/c", EXE)],
                    [(0, "ghost.so", None), (1, "ghost.so", None),
                     (2, "ghost.so", None)])
    r = health(g)
    assert len(r.missing_names) == 1 and len(r.directly_impacted) == 3

    # one node, three missing names: one impacted node, three names
    g = build_graph([("/a", EXE)],
                    [(0, "g1.so", None), (0, "g2.so", None), (0, "g3.so", None)])
    r = health(g)
    assert len(r.missing_names) == 3 and len(r.directly_impacted) == 1

    # mixed: two nodes, two names, one resolvable elsewhere
    g = build_graph([("/a", EXE), ("/b", EXE), ("/l.so", LIB)],
                    [(0, "l.so", 2), (0, "gone.so", None), (1, "gone.so", None),
                     (1, "also.so", None)])
    r = health(g)
    assert r.missing_names == {"gone.so", "also.so"}
    assert r.directly_impacted == {0, 1}
    ok(4, "health identities, 50 random graphs + 3 hand fixtures")


# --- 5. end-to-end golden run --------------------------------------------------

EXPECTED_FILES = {
    ("/opt/app/bin/app", "executable", None),
    ("/opt/app/lib/libapp.so.1", "library", "libapp.so.1"),
    ("/usr/bin/broken", "executable", None),
    ("/usr/bin/tool", "executable", None),
    ("/usr/lib/gtk/libgtk.so.0", "library", "libgtk.so.0"),
    ("/usr/lib/libc.so.6", "library", "libc.so.6"),
    ("/usr/lib/libm.so.6", "library", "libm.so.6"),
    ("/usr/lib/libplugin.so", "library", "libplugin.so"),
    ("/usr/lib/libspare.so", "library", "libspare.so"),
    ("/usr/lib/libz.so.1.2.13", "library", "libz.so.1"),
}

EXPECTED_ALIASES = {
    ("/usr/bin/broken", "/bin/broken"),
    ("/usr/bin/tool", "/bin/tool"),
    ("/usr/lib/libz.so.1.2.13", "/usr/lib/libz.so.1"),
}

EXPECTED_DEPS = {
    ("/opt/app/bin/app", "libapp.so.1", "/opt/app/lib/libapp.so.1", "runpath"),
    ("/opt/app/lib/libapp.so.1", "libc.so.6", "/usr/lib/libc.so.6", "ldso-conf"),
    ("/usr/bin/broken", "libghost.so.9", None, None),
    ("/usr/bin/broken", "libc.so.6", "/usr/lib/libc.so.6", "ldso-conf"),
    ("/usr/bin/tool", "libm.so.6", "/usr/lib/libm.so.6", "ldso-conf"),
    ("/usr/bin/tool", "libz.so.1", "/usr/lib/libz.so.1.2.13", "ldso-conf"),
    ("/usr/lib/gtk/libgtk.so.0", "libc.so.6", "/usr/lib/libc.so.6", "ldso-conf"),
    ("/usr/lib/libm.so.6", "libc.so.6", "/usr/lib/libc.so.6", "ldso-conf"),
    ("/usr/lib/libplugin.so", "libgtk.so.0", "/usr/lib/gtk/libgtk.so.0", "rpath"),
    ("/usr/lib/libz.so.1.2.13", "libc.so.6", "/usr/lib/libc.so.6", "ldso-conf"),
}


def dump_db_rows(db: str, label: str):
    """The snapshot's stored files, aliases and deps, decoded from its
    graphs row by this test alone: zlib streams of NUL-terminated UTF-8
    strings, and little-endian integer arrays, each after one byte that
    names its width (b, h, i or q: 1, 2, 4 or 8 bytes), -1 standing for None,
    all but names and dst inside a zlib stream; src holds each node's
    out-degree, the edges being grouped by source."""
    con = sqlite3.connect(db)
    try:
        cur = con.execute("SELECT graphs.* FROM graphs JOIN snapshots"
                          " ON snapshots.id = graphs.snapshot_id WHERE label = ?", (label,))
        row = dict(zip([d[0] for d in cur.description], cur.fetchone()))
    finally:
        con.close()

    def strings(name):
        return zlib.decompress(row[name]).decode("utf-8", "surrogateescape").split("\0")[:-1]

    def ints(name):
        blob = row[name] if name in ("names", "dst") else zlib.decompress(row[name])
        width = blob[:1].decode()
        column = array(width, blob[1:])
        assert column.itemsize == {"b": 1, "h": 2, "i": 4, "q": 8}[width]
        if sys.byteorder == "big":
            column.byteswap()
        return column.tolist()

    table = strings("strings")
    paths = strings("paths")

    def text(i):
        return None if i == -1 else table[i]

    files = {(path, text(kind), text(soname))
             for path, kind, soname in zip(paths, ints("kinds"), ints("sonames"))}
    aliases = {(paths[p], alias) for p, alias in zip(ints("alias_nodes"), strings("aliases"))}
    deps = {(paths[src], table[name], None if dst == -1 else paths[dst], text(origin))
            for src, name, dst, origin in zip(
                [p for p, degree in enumerate(ints("src")) for _ in range(degree)],
                ints("names"), ints("dst"), ints("origins"))}
    return files, aliases, deps


def test_criterion_5_end_to_end_golden(tmp_path):
    sysroot = make_demo_sysroot(SysrootBuilder(str(tmp_path / "sysroot")))
    db = str(tmp_path / "golden.db")
    result = scan_tree(ScanOptions(SearchConfig(sysroot.root)))
    assert result.counts.executables == 3
    assert result.counts.libraries == 7
    save_snapshot(result, "golden", db)

    files, aliases, deps = dump_db_rows(db, "golden")
    assert files == EXPECTED_FILES
    assert aliases == EXPECTED_ALIASES
    assert deps == EXPECTED_DEPS

    golden = (DATA / "golden.dot").read_text()
    assert "".join(dot_chunks(load_graph("golden", db))) == golden

    # a re-scan must reproduce the same logical state
    save_snapshot(scan_tree(ScanOptions(SearchConfig(sysroot.root))), "again", db)
    assert dump_db_rows(db, "again") == (files, aliases, deps)
    assert "".join(dot_chunks(load_graph("again", db))) == golden
    ok(5, "end-to-end golden run, 12-file sysroot, byte-identical DOT")


# --- 6. evolution correctness ---------------------------------------------------

def build_version_trees(base: Path) -> dict[str, SysrootBuilder]:
    ld = "/lib/ld.so"
    v1 = SysrootBuilder(str(base / "v1"))
    v1.elf("/usr/lib/libold.so.1", ElfSpec(soname="libold.so.1"))
    v1.elf("/usr/lib/libstay.so.2", ElfSpec(soname="libstay.so.2"))
    v1.elf("/usr/bin/app", ElfSpec(e_type=2, interpreter=ld,
                                   needed=["libold.so.1", "libstay.so.2"]))

    v2 = SysrootBuilder(str(base / "v2"))
    v2.elf("/usr/lib/libnew.so.1", ElfSpec(soname="libnew.so.1"))
    # the rename event: new on-disk name, same soname, compat symlink
    v2.elf("/usr/lib/libstay-2.0.so", ElfSpec(soname="libstay.so.2"))
    v2.symlink("/usr/lib/libstay.so.2", "libstay-2.0.so")
    v2.elf("/usr/bin/app", ElfSpec(e_type=2, interpreter=ld,
                                   needed=["libnew.so.1", "libstay.so.2",
                                           "libghost.so"]))

    v3 = SysrootBuilder(str(base / "v3"))
    v3.elf("/usr/lib/libnew.so.1", ElfSpec(soname="libnew.so.1"))
    v3.elf("/usr/lib/libstay-2.0.so", ElfSpec(soname="libstay.so.2"))
    v3.symlink("/usr/lib/libstay.so.2", "libstay-2.0.so")
    v3.elf("/usr/bin/app", ElfSpec(e_type=2, interpreter=ld,
                                   needed=["libnew.so.1", "libstay.so.2"]))
    v3.elf("/usr/bin/oneshot", ElfSpec(e_type=2, interpreter=ld,
                                       needed=["libnew.so.1"]))
    return {"1.0": v1, "2.0": v2, "3.0": v3}


def test_criterion_6_evolution(tmp_path):
    db = str(tmp_path / "corpus.db")
    for label, tree in build_version_trees(tmp_path / "trees").items():
        save_snapshot(scan_tree(ScanOptions(SearchConfig(tree.root))), label, db)

    rows = trend_report(db)
    assert [r.label for r in rows] == ["1.0", "2.0", "3.0"]
    r1, r2, r3 = rows
    assert (r1.executables, r1.libraries, r1.dependencies, r1.missing,
            r1.unused) == (1, 2, 2, 0, 0)
    assert (r2.executables, r2.libraries, r2.dependencies, r2.missing,
            r2.unused) == (1, 2, 3, 1, 0)
    assert (r3.executables, r3.libraries, r3.dependencies, r3.missing,
            r3.unused) == (2, 2, 3, 0, 0)
    assert r1.avg_direct == round(2 / 3, 2)
    assert r2.files_total == 3
    assert r1.unused_fraction == 0.0

    delta = diff_snapshots(db, "1.0", "2.0")
    assert delta.added_libraries == {"libnew.so.1"}
    assert delta.removed_libraries == {"libold.so.1"}
    assert delta.added_executables == set()
    assert delta.removed_executables == set()
    assert delta.persistent_nodes == {"app", "libstay.so.2"}

    back = diff_snapshots(db, "2.0", "1.0")
    assert back.added_libraries == delta.removed_libraries
    assert back.removed_libraries == delta.added_libraries
    assert not diff_snapshots(db, "2.0", "2.0").added_libraries

    spans = longevity(db)
    assert spans["libstay.so.2"].present_count == 3
    assert spans["libold.so.1"].present_count == 1
    assert (spans["libnew.so.1"].first_seen,
            spans["libnew.so.1"].last_seen,
            spans["libnew.so.1"].present_count) == ("2.0", "3.0", 2)
    assert spans["oneshot"].present_count == 1
    ok(6, "evolution correctness, 3 scripted snapshots incl. rename")


# --- 7. full-corpus substitute ---------------------------------------------------

def test_criterion_7_full_corpus_substitute():
    # whole-corpus reproduction needs a multi-gigabyte archive of extracted
    # OS images; criteria 1-6 stand in for it. Point DEPEX_UBUNTU_ROOT at
    # one extracted Ubuntu live root to also check counts against the
    # expected ranges for that release family (non-gating convenience).
    root = os.environ.get("DEPEX_UBUNTU_ROOT")
    if not root:
        ok(7, "substituted by criteria 1-6; set DEPEX_UBUNTU_ROOT for the "
              "optional range check")
        return
    result = scan_tree(ScanOptions(SearchConfig(root)))
    ranges = {"executables": (1519, 2753), "libraries": (1683, 3673)}
    c = result.counts
    for key, (lo, hi) in ranges.items():
        value = getattr(c, key)
        assert lo * 0.9 <= value <= hi * 1.1, f"{key}={value} outside range"
    deps = len(result.edges)
    assert 18165 * 0.9 <= deps <= 37641 * 1.1
    ok(7, f"live root within expected ranges: {c.executables} exec, "
          f"{c.libraries} libs, {deps} deps")


# --- 8. scan performance -----------------------------------------------------------

def test_criterion_8_scan_performance(tmp_path):
    root = tmp_path / "bigtree"
    libdir = root / "usr" / "lib"
    libdir.mkdir(parents=True)
    base = build_elf(ElfSpec(soname="libbase.so", defined=[("base_fn", GLOBAL)]))
    (libdir / "libbase.so").write_bytes(base)
    template = build_elf(ElfSpec(soname="libfill.so", needed=["libbase.so"],
                                 undefined=[("base_fn", GLOBAL)]))
    template += b"\x00" * (4096 - len(template) % 4096)  # pad to ~4 KiB
    for d in range(100):
        sub = root / "opt" / f"pkg{d:02d}"
        sub.mkdir(parents=True)
        for i in range(100):
            (sub / f"libfill{i:02d}.so").write_bytes(template)

    options = ScanOptions(SearchConfig(str(root)))
    t0 = time.monotonic()
    result = scan_tree(options)
    elapsed = time.monotonic() - t0
    assert result.counts.elf_parsed == 10001
    assert elapsed < 60.0, f"scan took {elapsed:.1f}s"
    ok(8, f"scan performance, 10001 files, {elapsed:.1f}s")


# --- 9. mutation-fuzz robustness ------------------------------------------------------

def test_criterion_9_fuzz_robustness():
    rng = random.Random(0xF0CCAC1A)
    bases = [
        build_elf(ElfSpec(bits=64, little=True, e_type=2, interpreter="/lib/ld.so",
                          needed=["libc.so.6"], undefined=[("f", GLOBAL)])),
        build_elf(ElfSpec(bits=64, little=False, soname="libbe.so",
                          rpath="/a:/b", defined=[("g", GLOBAL)])),
        build_elf(ElfSpec(bits=32, little=True, soname="lib32.so",
                          runpath="$ORIGIN", needed=["libm.so.6"])),
        build_elf(ElfSpec(bits=32, little=False, e_type=2, interpreter="/lib/ld.so",
                          needed=["liba.so", "libb.so"],
                          defined=[("h", WEAK)], undefined=[("i", GLOBAL)])),
    ]
    cases = outcomes = 0
    start = time.monotonic()
    for base in bases:
        for _ in range(2500):
            cases += 1
            data = bytearray(base)
            action = rng.random()
            if action < 0.4:  # point mutations
                for _ in range(rng.randint(1, 16)):
                    data[rng.randrange(len(data))] = rng.randrange(256)
            elif action < 0.7:  # truncation
                data = data[:rng.randrange(len(data))]
            elif action < 0.9:  # truncate then mutate
                data = data[:rng.randrange(1, len(data))]
                for _ in range(rng.randint(1, 8)):
                    if data:
                        data[rng.randrange(len(data))] = rng.randrange(256)
            else:  # append garbage
                data = data + bytes(rng.randrange(256) for _ in range(64))
            try:
                # symbol sets are read on first access; the fuzz covers them
                parse_elf(bytes(data)).undefined_symbols
                outcomes += 1
            except ElfError:
                outcomes += 1
            try:
                read_symbols(bytes(data))
            except ElfError:
                pass
    elapsed = time.monotonic() - start
    assert cases == outcomes == 10000
    assert elapsed < 60.0, f"fuzz run took {elapsed:.1f}s; possible hang"
    ok(9, f"fuzz robustness, {cases} cases, {elapsed:.2f}s")
