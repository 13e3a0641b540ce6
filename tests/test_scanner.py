from __future__ import annotations

import errno
import json
import os
import posixpath
import random
import shutil
import stat
import struct
import subprocess
import time
import weakref
from collections import Counter
from typing import NamedTuple

import pytest

import depex.elf
import depex.scanner
from depex.cli import run_cli
from depex.elf import DT_SYMENT, DT_SYMTAB, FileKind, classify_kind, parse_elf
from depex.resolver import Origin, Resolver, SearchConfig
from depex.scanner import RelativePath, ScanOptions, SysrootUnreadable, scan_tree
from depex.store import save_snapshot
from conftest import SysrootBuilder, make_demo_sysroot
from elfbuild import ElfSpec, build_elf, with_dynamic_entry
from oracles import NO_SUCH_PATH, canonical_reference, resolve_reference


def options_for(sysroot, **kw) -> ScanOptions:
    return ScanOptions(SearchConfig(sysroot.root), **kw)


def node_paths(result):
    return [n.canonical_path for n in result.nodes]


def edge_tuples(result):
    out = []
    for e in result.edges:
        src = result.nodes[e.from_node].canonical_path
        dst = result.nodes[e.to_node].canonical_path if e.to_node is not None else None
        out.append((src, e.needed_name, dst))
    return out


def test_demo_tree_counts(demo_sysroot):
    result = scan_tree(options_for(demo_sysroot))
    assert result.counts.executables == 3
    assert result.counts.libraries == 7
    assert result.counts.elf_parsed == 10
    assert result.counts.files_seen == 12
    missing = [e for e in result.edges if e.to_node is None]
    assert [e.needed_name for e in missing] == ["libghost.so.9"]
    assert result.counts.errors == 0
    c = result.counts
    assert c.executables + c.libraries <= c.elf_parsed <= c.files_seen


def test_scan_lists_every_directory_through_scandir(demo_sysroot, monkeypatch):
    # the walk, the ld.so.conf include glob and the multiarch guess share one lister
    demo_sysroot.elf("/usr/lib/x86_64-linux-gnu/libmulti.so.1", ElfSpec(soname="libmulti.so.1"))
    demo_sysroot.elf("/usr/bin/multi", ElfSpec(e_type=2, needed=["libmulti.so.1", "libc.so.6"]))

    def listdir(*args, **kwargs):
        raise AssertionError("os.listdir called")

    monkeypatch.setattr(os, "listdir", listdir)
    result = scan_tree(options_for(demo_sysroot))
    origins = {(result.nodes[e.from_node].canonical_path, e.needed_name): e.origin
               for e in result.edges}
    assert origins[("/usr/bin/multi", "libmulti.so.1")] is Origin.DEFAULT_DIR
    assert origins[("/usr/bin/multi", "libc.so.6")] is Origin.LDSO_CONF


def test_directory_reached_twice_is_listed_once(demo_sysroot, monkeypatch):
    # /bin links to /usr/bin: the walk goes through both spellings, so that
    # every alias surfaces, but reads the second listing from the resolver
    listed, real_scandir = Counter(), os.scandir

    def scandir(path):
        listed[path[len(demo_sysroot.root):]] += 1
        return real_scandir(path)

    monkeypatch.setattr(os, "scandir", scandir)
    result = scan_tree(options_for(demo_sysroot))
    assert listed["/usr/bin"] == 1 and set(listed.values()) == {1}
    assert {n.canonical_path: n.alias_paths for n in result.nodes
            if n.canonical_path.startswith("/usr/bin/")} == {
        "/usr/bin/broken": ["/bin/broken"], "/usr/bin/tool": ["/bin/tool"]}


def test_empty_sysroot(sysroot):
    result = scan_tree(options_for(sysroot))
    assert result.counts.files_seen == 0
    assert result.nodes == [] and result.edges == []


def test_unreadable_sysroot_is_fatal(tmp_path):
    with pytest.raises(SysrootUnreadable):
        scan_tree(ScanOptions(SearchConfig(str(tmp_path / "absent"))))


def test_symlinked_directory_counts_once(demo_sysroot):
    result = scan_tree(options_for(demo_sysroot))
    counts = Counter(node_paths(result))
    assert counts["/usr/bin/tool"] == 1
    assert max(counts.values()) == 1
    tool = next(n for n in result.nodes if n.canonical_path == "/usr/bin/tool")
    assert "/bin/tool" in tool.alias_paths


def test_symlinked_file_recorded_as_alias(demo_sysroot):
    result = scan_tree(options_for(demo_sysroot))
    libz = next(n for n in result.nodes if n.soname == "libz.so.1")
    assert libz.canonical_path == "/usr/lib/libz.so.1.2.13"
    assert "/usr/lib/libz.so.1" in libz.alias_paths


def test_hard_links_deduplicated(sysroot):
    sysroot.elf("/usr/lib/liba.so", ElfSpec(soname="liba.so"))
    os.link(sysroot.root + "/usr/lib/liba.so", sysroot.root + "/usr/lib/libb.so")
    result = scan_tree(options_for(sysroot))
    assert result.counts.libraries == 1
    node = result.nodes[0]
    assert sorted([node.canonical_path] + node.alias_paths) == \
        ["/usr/lib/liba.so", "/usr/lib/libb.so"]


def test_need_of_hard_linked_spelling_resolves_to_its_node(sysroot):
    sysroot.elf("/usr/lib/liba.so", ElfSpec(soname="liba.so"))
    os.link(sysroot.root + "/usr/lib/liba.so", sysroot.root + "/usr/lib/libb.so")
    sysroot.elf("/usr/bin/tool", ElfSpec(
        e_type=2, interpreter="/lib/ld.so", needed=["libb.so"]))
    result = scan_tree(options_for(sysroot))
    assert edge_tuples(result) == [("/usr/bin/tool", "libb.so", "/usr/lib/liba.so")]


def test_no_follow_symlinks(demo_sysroot):
    result = scan_tree(options_for(demo_sysroot, follow_symlinks=False))
    tool = next(n for n in result.nodes if n.canonical_path == "/usr/bin/tool")
    assert tool.alias_paths == []
    # libz is still found via its real file; the symlink spelling is not
    libz = next(n for n in result.nodes if n.soname == "libz.so.1")
    assert libz.alias_paths == []


def test_excluded_prefixes(sysroot):
    sysroot.elf("/usr/lib/liba.so", ElfSpec(soname="liba.so"))
    sysroot.elf("/proc/fake", ElfSpec(soname="libfake.so"))
    result = scan_tree(options_for(sysroot))
    assert node_paths(result) == ["/usr/lib/liba.so"]


def test_relative_excluded_prefix_rejected(demo_sysroot):
    options = options_for(demo_sysroot)
    options.excluded_prefixes.append("usr/lib")
    with pytest.raises(RelativePath, match="usr/lib"):
        scan_tree(options)


def test_error_records_name_no_host_path(tmp_path, monkeypatch):
    real_scandir, real_open = os.scandir, os.open

    def denied(path):
        return PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

    def scandir(path):
        if path.endswith("/usr/share"):
            raise denied(path)
        return real_scandir(path)

    def open_(file, *a, **kw):  # what extraction opens through
        if isinstance(file, str) and file.endswith("/usr/lib/libx.so"):
            raise denied(file)
        return real_open(file, *a, **kw)

    records = []
    for where in ("a", "other/b"):
        tree = make_demo_sysroot(SysrootBuilder(str(tmp_path / where / "sysroot")))
        tree.write("/usr/share/doc/readme", b"text")
        tree.elf("/usr/lib/libx.so", ElfSpec(soname="libx.so"))
        with monkeypatch.context() as patch:
            patch.setattr(os, "scandir", scandir)
            patch.setattr(os, "open", open_)
            records.append(scan_tree(options_for(tree)).error_records)
    assert records[0] == records[1] == [
        ("/usr/share", "listing failed: Permission denied"),
        ("/usr/lib/libx.so", "read failed: Permission denied"),
    ]


@pytest.mark.parametrize("follow", [True, False])
@pytest.mark.parametrize("how", ["chmod", "patched"])
def test_unsearchable_directory_entries_are_stat_failures(sysroot, monkeypatch, how, follow):
    # a directory that may be read but not searched lists its names, yet no
    # name in it can be stat'd: each non-link entry is a stat failure, a
    # link is dangling, and nothing under it is walked or counted
    sysroot.elf("/usr/lib/libok.so", ElfSpec(soname="libok.so"))
    locked = sysroot.mkdir("/opt/locked")
    sysroot.elf("/opt/locked/liba.so", ElfSpec(soname="liba.so"))
    sysroot.write("/opt/locked/sub/b.txt", b"text")
    sysroot.symlink("/opt/locked/link.so", "liba.so")
    os.mkfifo(locked + "/fifo")
    if how == "chmod":
        if os.geteuid() == 0:
            pytest.skip("root searches any directory")
        os.chmod(locked, 0o644)
    else:
        real_access, real_lstat, real_stat = os.access, os.lstat, os.stat

        def denied(real):
            def call(path, *a, **kw):
                if isinstance(path, str) and path.startswith(locked + "/"):
                    raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
                return real(path, *a, **kw)
            return call

        monkeypatch.setattr(os, "access", lambda path, mode, **kw: (
            path.rstrip("/") != locked and real_access(path, mode, **kw)))
        monkeypatch.setattr(os, "lstat", denied(real_lstat))
        monkeypatch.setattr(os, "stat", denied(real_stat))
    try:
        result = scan_tree(options_for(sysroot, follow_symlinks=follow))
    finally:
        os.chmod(locked, 0o755)
    assert node_paths(result) == ["/usr/lib/libok.so"]
    assert result.counts.files_seen == 1
    assert result.error_records == [
        (f"/opt/locked/{name}", "stat failed") for name in ("fifo", "liba.so", "sub")]


def test_walk_stats_directories_not_files(sysroot, monkeypatch):
    # a plain entry's type and inode come from the listing (d_type, d_ino):
    # a link-free tree costs one stat per directory, however many files
    dirs = ["/usr/lib", "/usr/lib/sub", "/opt/bin", "/empty"]
    for d in dirs:
        sysroot.mkdir(d)
    for i in range(60):
        sysroot.write(f"{dirs[i % 3]}/f{i}", b"data" * i)
    calls = Counter()

    def counted(name, real):
        def call(*args, **kw):
            calls[name] += 1
            return real(*args, **kw)
        return call

    with monkeypatch.context() as patch:
        for name in ("lstat", "stat"):
            patch.setattr(os, name, counted(name, getattr(os, name)))
        errors = []
        walked = list(depex.scanner._walk_regular_files(
            options_for(sysroot), Resolver(SearchConfig(sysroot.root)), errors))
    directories = 1 + len({"/usr", "/opt", *dirs})
    assert errors == [] and len(walked) == 60
    assert sum(calls.values()) <= directories
    for spelling, canonical, key in walked:
        st = os.stat(sysroot.root + spelling)
        assert spelling == canonical and key == (st.st_dev, st.st_ino)


def test_phase_seconds(demo_sysroot):
    phases = scan_tree(options_for(demo_sysroot)).phase_seconds
    assert list(phases) == ["walk", "extract", "assemble", "resolve"]
    assert all(seconds >= 0 for seconds in phases.values())


@pytest.mark.parametrize("padding", [0, 4095, 4096, 4097, 4096 * 3 + 7, 1 << 20])
def test_file_past_the_first_read_is_read_whole(sysroot, padding):
    # the first read takes a page; an ELF file that fills it is read on
    assert depex.scanner._FIRST_READ == 4096
    data = build_elf(ElfSpec(soname="libbig.so", needed=["libc.so.6"], runpath="$ORIGIN"))
    data += b"\0" * (padding and padding - len(data))
    sysroot.write("/usr/lib/libbig.so", data)
    sysroot.write("/usr/share/big.txt", b"x" * 200000)
    result = scan_tree(options_for(sysroot))
    assert [(n.canonical_path, n.kind, n.soname, n.size_bytes) for n in result.nodes] == [
        ("/usr/lib/libbig.so", FileKind.SHARED_LIBRARY, "libbig.so", len(data))]
    assert [e.needed_name for e in result.edges] == ["libc.so.6"]
    assert result.counts.files_seen == 2 and result.error_records == []


@pytest.mark.parametrize("reported", [0, 4096, 4097, 9000])
def test_file_longer_than_fstat_says_is_read_to_eof(sysroot, monkeypatch, reported):
    # a file that grew after its fstat: the pread that asks one byte past the
    # size fstat gave gets it, so the scanner reads on to EOF
    data = build_elf(ElfSpec(soname="libbig.so", needed=["libc.so.6"], runpath="$ORIGIN"))
    data += b"\0" * (4096 * 3 + 7 - len(data))
    sysroot.write("/usr/lib/libbig.so", data)
    expected = scan_tree(options_for(sysroot))
    sizes = []

    class ShortFstat:  # os as the scanner sees it, whose fstat reports fewer bytes
        def __getattr__(self, name):
            return getattr(os, name)

        @staticmethod
        def fstat(fd):
            st = os.fstat(fd)
            sizes.append(st.st_size)
            return os.stat_result((*st[:6], reported, *st[7:]))

    monkeypatch.setattr(depex.scanner, "os", ShortFstat())
    result = scan_tree(options_for(sysroot))
    assert sizes == [len(data)]
    assert [(n.canonical_path, n.size_bytes) for n in result.nodes] == \
        [(n.canonical_path, n.size_bytes) for n in expected.nodes] == \
        [("/usr/lib/libbig.so", len(data))]
    assert edge_tuples(result) == edge_tuples(expected) == \
        [("/usr/lib/libbig.so", "libc.so.6", None)]
    assert result.error_records == []


def test_truncated_elf_recorded_not_fatal(sysroot):
    sysroot.elf("/usr/lib/libok.so", ElfSpec(soname="libok.so"))
    good = build_elf(ElfSpec(soname="libbad.so"))
    sysroot.write("/usr/lib/libbad.so", good[:60])
    result = scan_tree(options_for(sysroot))
    assert result.counts.errors == 1
    assert result.counts.libraries == 1
    assert any("libbad" in path for path, _ in result.error_records)


def test_scan_determinism(demo_sysroot):
    first = scan_tree(options_for(demo_sysroot))
    second = scan_tree(options_for(demo_sysroot))
    assert node_paths(first) == node_paths(second)
    assert edge_tuples(first) == edge_tuples(second)


def test_no_file_fully_read_twice(demo_sysroot, monkeypatch):
    full_reads = Counter()
    real_open = os.open

    def counting_open(file, flags, *a, **kw):  # what extraction opens through
        fd = real_open(file, flags, *a, **kw)
        if isinstance(file, str) and file.startswith(demo_sysroot.root):
            full_reads[file] += 1
        return fd

    monkeypatch.setattr(os, "open", counting_open)
    scan_tree(options_for(demo_sysroot))
    assert full_reads and max(full_reads.values()) == 1


def test_parser_crash_recorded_as_error(demo_sysroot, monkeypatch):
    real_parse = depex.scanner.parse_elf
    crashing = build_elf(ElfSpec(soname="libcrash.so"))

    def parse_or_crash(data):
        if data == crashing:
            raise RuntimeError("boom")
        return real_parse(data)

    demo_sysroot.write("/usr/lib/libcrash.so", crashing)
    monkeypatch.setattr(depex.scanner, "parse_elf", parse_or_crash)
    result = scan_tree(options_for(demo_sysroot))
    assert result.counts.errors == 1
    [(path, message)] = result.error_records
    assert path == "/usr/lib/libcrash.so" and "boom" in message
    assert len(result.nodes) == 10 and "/usr/lib/libcrash.so" not in node_paths(result)
    assert result.counts.libraries == 7 and result.counts.files_seen == 13


def test_bad_symbol_table_is_an_error_record(sysroot):
    sysroot.elf("/usr/lib/libok.so", ElfSpec(soname="libok.so"))
    lib = build_elf(ElfSpec(soname="libbad.so", defined=[("f", 1)]))
    sysroot.write("/usr/lib/libsymtab.so", with_dynamic_entry(lib, DT_SYMTAB, 0xDEAD0000))
    sysroot.write("/usr/lib/libsyment.so", with_dynamic_entry(lib, DT_SYMENT, 6))
    result = scan_tree(options_for(sysroot))
    assert node_paths(result) == ["/usr/lib/libok.so"]
    assert sorted(result.error_records) == [
        ("/usr/lib/libsyment.so", "Malformed: DT_SYMENT 6 smaller than symbol entry"),
        ("/usr/lib/libsymtab.so",
         "Malformed: address 0xdead0000 maps into no PT_LOAD segment"),
    ]


def test_scan_builds_no_symbol_sets(demo_sysroot, monkeypatch):
    def no_symbols(*args):
        raise AssertionError("a scan read symbols")

    monkeypatch.setattr(depex.elf, "read_symbols", no_symbols)
    monkeypatch.setattr(depex.elf._Reader, "_read_symbols", no_symbols)
    result = scan_tree(options_for(demo_sysroot))
    assert len(result.nodes) == 10 and result.error_records == []


def test_no_parsed_summary_outlives_its_file(demo_sysroot, monkeypatch):
    # a summary holds its whole file in `image`: each is dead before the
    # next file is parsed, so a scan holds one parsed file at a time
    demo_sysroot.write("/usr/lib/libbad.so", build_elf(ElfSpec(soname="libbad.so"))[:60])
    options = options_for(demo_sysroot)
    parse_elf, summaries = depex.scanner.parse_elf, []

    def tracked(data):
        assert all(ref() is None for ref in summaries)
        summary = parse_elf(data)
        summaries.append(weakref.ref(summary))
        return summary

    with monkeypatch.context() as patch:
        patch.setattr(depex.scanner, "parse_elf", tracked)
        result = scan_tree(options)
    assert len(summaries) == len(result.nodes) == 10
    assert all(ref() is None for ref in summaries)
    assert [path for path, _ in result.error_records] == ["/usr/lib/libbad.so"]

    extracted = {}
    for dirpath, _, names in os.walk(demo_sysroot.root):
        for name in names:
            canonical = os.path.join(dirpath, name)[len(demo_sysroot.root):]
            extracted[canonical] = depex.scanner._extract_one(canonical, options)
    assert len(extracted) == 14  # 10 ELF files, 2 ld.so.conf files, a link, libbad
    assert {summary and classify_kind(summary) for _, summary, _ in extracted.values()} == {
        FileKind.EXECUTABLE_BINARY, FileKind.SHARED_LIBRARY, None}
    assert [c for c, (_, _, error) in extracted.items() if error] == ["/usr/lib/libbad.so"]
    size, summary, error = extracted["/usr/lib/libbad.so"]
    assert (size, summary) == (60, None) and error.startswith("Truncated")


def test_each_phase_is_booked_to_its_key(demo_sysroot, monkeypatch):
    # the searches run in extraction's loop, but their time is resolve's
    resolve, calls = Resolver.resolve, []

    def slow(self, needed_name, *args):
        calls.append(needed_name)
        time.sleep(0.002)
        return resolve(self, needed_name, *args)

    monkeypatch.setattr(Resolver, "resolve", slow)
    phases = scan_tree(options_for(demo_sysroot)).phase_seconds
    assert list(phases) == ["walk", "extract", "assemble", "resolve"]
    assert len(calls) > 5
    assert phases["resolve"] >= len(calls) * 0.002 > phases["extract"]


def test_resolved_target_outside_graph_downgraded_to_missing(sysroot):
    # the needed name lands on a non-ELF file: a loader would choke on it,
    # so the edge records an unmet requirement rather than a bogus target;
    # a regular file ends the search, so the library in /usr/lib is not reached
    sysroot.elf("/usr/bin/tool", ElfSpec(
        e_type=2, interpreter="/lib/ld.so", needed=["libtext.so"]))
    sysroot.write("/lib/libtext.so", b"just text, not a library\n")
    sysroot.elf("/usr/lib/libtext.so", ElfSpec(soname="libtext.so"))
    result = scan_tree(options_for(sysroot))
    assert edge_tuples(result) == [("/usr/bin/tool", "libtext.so", None)]


def test_repeated_needed_name_yields_one_edge(sysroot):
    sysroot.elf("/usr/lib/libc.so.6", ElfSpec(soname="libc.so.6"))
    sysroot.elf("/usr/bin/tool", ElfSpec(
        e_type=2, interpreter="/lib/ld.so", needed=["libc.so.6", "libc.so.6"]))
    result = scan_tree(options_for(sysroot))
    names = [e.needed_name for e in result.edges]
    assert names == ["libc.so.6"]


# --- the walk: symlinked and hard-linked spellings ---------------------------

def node_aliases(result):
    return [(n.canonical_path, n.alias_paths) for n in result.nodes]


@pytest.mark.parametrize("links, nodes, errors", [
    ([("sym", "/usr/lib/loopa", "loopb"), ("sym", "/usr/lib/loopb", "loopa")],
     [("/usr/lib/liba.so", [])],
     [("/usr/lib/loopa", "symlink loop"), ("/usr/lib/loopb", "symlink loop")]),
    ([("sym", "/usr/lib/libself.so", "libself.so")],
     [("/usr/lib/liba.so", [])],
     [("/usr/lib/libself.so", "symlink loop")]),
    ([("sym", "/usr/lib/libgone.so", "libgone.so.1")],
     [("/usr/lib/liba.so", [])],
     []),
    ([("sym", "/usr/lib/self", ".")],
     [("/usr/lib/liba.so", [])],
     []),
    ([("sym", "/lib", "/usr/lib")],
     [("/usr/lib/liba.so", ["/lib/liba.so"])],
     []),
    ([("hard", "/usr/lib/libb.so", "/usr/lib/liba.so"),
      ("sym", "/usr/lib/libc.so", "libb.so")],
     [("/usr/lib/liba.so", ["/usr/lib/libb.so", "/usr/lib/libc.so"])],
     []),
    ([("fifo", "/usr/lib/pipe", None), ("sym", "/usr/lib/libpipe.so", "pipe")],
     [("/usr/lib/liba.so", [])],
     []),
], ids=["two-link loop", "self-link", "dangling link", "self -> . directory link",
        "absolute directory link", "hard link", "fifo and a link to it"])
def test_walk_links(sysroot, links, nodes, errors):
    sysroot.elf("/usr/lib/liba.so", ElfSpec(soname="liba.so"))
    for kind, path, target in links:
        if kind == "sym":
            sysroot.symlink(path, target)
        elif kind == "hard":
            os.link(sysroot.root + target, sysroot.root + path)
        else:
            os.mkfifo(sysroot.root + path)
    result = scan_tree(options_for(sysroot))
    assert node_aliases(result) == nodes
    assert result.error_records == errors
    assert result.counts.files_seen == 1


def random_tree(sysroot, seed):
    """A small tree dense in symlinks: loops, dangling and absolute links,
    '.' and '..' targets, links to links and hard links; some seeds add a
    chain of file links or of directory links around the 40-link limit."""
    rng = random.Random(seed)
    dirs = ["/", "/usr/lib"]
    for i in range(rng.randint(1, 5)):
        dirs.append(posixpath.join(rng.choice(dirs), f"d{i}"))
    for path in dirs:
        sysroot.mkdir(path)
    files = []
    for i in range(rng.randint(2, 8)):
        path = posixpath.join(rng.choice(dirs), f"lib{i}.so")
        sysroot.elf(path, ElfSpec(soname=f"lib{i}.so"))
        files.append(path)
    for i in range(rng.randint(0, 2)):
        path = posixpath.join(rng.choice(dirs), f"h{i}")
        os.link(sysroot.root + rng.choice(files), sysroot.root + path)
    links: list[str] = []
    for i in range(rng.randint(3, 12)):
        where = rng.choice(dirs)
        target = rng.choice(files + dirs)
        target = rng.choice([
            target, posixpath.relpath(target, where), ".", "..", "/", f"s{i}",
            posixpath.relpath(rng.choice(links), where) if links else "nowhere",
            "nowhere", "/no/such/lib.so"])
        links.append(posixpath.join(where, f"s{i}"))
        sysroot.symlink(links[-1], target)
    if rng.random() < 0.25:  # c0 -> c1 -> ... -> a file
        where, length = rng.choice(dirs), rng.randint(36, 44)
        for k in range(length):
            links.append(posixpath.join(where, f"c{k}"))
            sysroot.symlink(links[-1], f"c{k + 1}" if k + 1 < length
                            else posixpath.relpath(rng.choice(files), where))
    if rng.random() < 0.25:  # /chain/dK/l -> ../dK+1, a file at the end
        length = rng.randint(36, 44)
        sysroot.elf(f"/chain/d{length}/libchain.so", ElfSpec(soname="libchain.so"))
        for k in range(length):
            links.append(f"/chain/d{k}/l")
            sysroot.symlink(links[-1], f"../d{k + 1}")
    return links


@pytest.mark.parametrize("seed", range(20))
def test_walk_aliases_land_on_their_node(sysroot, seed):
    links = random_tree(sysroot, seed)
    result = scan_tree(options_for(sysroot))

    def inode_at(path):
        canonical = canonical_reference(sysroot.root, path)
        assert canonical is not None
        st = os.stat(sysroot.root + canonical)
        assert stat.S_ISREG(st.st_mode)
        return st.st_dev, st.st_ino

    for node in result.nodes:
        assert canonical_reference(sysroot.root, node.canonical_path) == node.canonical_path
        inode = inode_at(node.canonical_path)
        assert all(inode_at(alias) == inode for alias in node.alias_paths)
    recorded = {path for path, message in result.error_records if message == "symlink loop"}
    for link in links:
        if canonical_reference(sysroot.root, link) is None:
            assert link in recorded
    assert all(canonical_reference(sysroot.root, path) is None for path in recorded)


@pytest.mark.parametrize("seed", range(0, 20, 3))
def test_every_alias_spelling_names_its_node(sysroot, tmp_path, capsys, seed):
    random_tree(sysroot, seed)
    sysroot.elf("/usr/lib/libv.so.1.2", ElfSpec(soname="libv.so.1"))
    sysroot.symlink("/usr/lib/libv.so.1", "libv.so.1.2")  # a soname link: no path suffix
    sysroot.symlink("/lib", "usr/lib")  # merged /usr: /lib/x is a path suffix of /usr/lib/x
    result = scan_tree(options_for(sysroot))
    db = str(tmp_path / "aliases.db")
    save_snapshot(result, "t", db)
    spellings = [(alias, n.canonical_path) for n in result.nodes for alias in n.alias_paths]
    assert "/usr/lib/libv.so.1" in dict(spellings)
    for alias, path in spellings:
        assert run_cli(["who-uses", alias, "--json", "--db", db]) == 0, alias
        assert json.loads(capsys.readouterr().out)["library"] == path, alias


def random_spelling(rng, names):
    parts = [rng.choice([*names, ".", "..", "nowhere"]) for _ in range(rng.randint(0, 6))]
    return "/" + "/".join(parts) + rng.choice(["", "/"])


@pytest.mark.parametrize("seed", range(20))
def test_canonicalize_matches_reference(sysroot, seed):
    links = random_tree(sysroot, seed)
    config = SearchConfig(sysroot.root)
    names = sorted({part for path in links for part in path.split("/") if part}
                   | {"usr", "lib", "chain"})
    shared = Resolver(config)  # one memo across all spellings, as in a scan
    rng = random.Random(seed)
    for _ in range(300):
        spelling = random_spelling(rng, names)
        # then that spelling followed by "/", ".", "..", "//", "//" and a
        # name, or a name and "/": its parent is in the shared memo now
        for spelling in (spelling, spelling.rstrip("/") + rng.choice(
                ["/", "/.", "/..", "//", f"//{rng.choice(names)}", f"/{rng.choice(names)}/"])):
            expected = canonical_reference(sysroot.root, spelling)
            for hit in (shared.canonical(spelling), Resolver(config).canonical(spelling)):
                assert (hit and (NO_SUCH_PATH if hit[0] is None else hit[0])) == expected, \
                    spelling


class SearchPaths(NamedTuple):
    rpath: str | None
    runpath: str | None


def random_search(sysroot, rng, dirs, spellings):
    """An ld.so.conf chain (globs, relative and cyclic includes, comments,
    relative lines and a looping link) and a SearchConfig with env and
    default directories, drawn from the tree's directories and spellings."""
    def conf():
        return "".join(rng.choice([
            f"{rng.choice(spellings)}\n", f"{rng.choice(spellings)}  # a comment\n",
            "include /etc/ld.so.conf.d/*.conf\n", "include\tconf.d/?.conf\n",
            "include /etc/ld.so.conf\n", "include /etc/*/[ab].conf\n", "relative/lib\n",
            "include /etc/conf.d/b.conf \tconf.d/c.conf\n",
            "# only a comment\n"]) for _ in range(rng.randint(1, 3))).encode()

    sysroot.write("/etc/ld.so.conf", f"include /etc/ld.so.conf.d/*.conf\n"
                  f"{rng.choice(['/usr/lib', *dirs])}\n".encode() + conf())
    sysroot.write("/etc/ld.so.conf.d/.hidden.conf", b"/usr/lib\n")  # "*" does not match it
    for path in ("/etc/ld.so.conf.d/a.conf", "/etc/conf.d/b.conf", "/etc/ld.so.conf.d/c.conf"):
        if rng.random() < 0.7:
            sysroot.write(path, conf())
    sysroot.symlink("/etc/ld.so.conf.d/loop.conf", "loop.conf")
    if rng.random() < 0.3:
        sysroot.symlink("/lib", "usr/lib")
    if rng.random() < 0.5:  # no shared object in it: the multiarch guess skips it
        sysroot.write("/usr/lib/share/libshare.txt", b"x")
    return SearchConfig(sysroot.root, env_library_path=rng.sample(spellings, rng.randint(0, 2)),
                        default_dirs=rng.sample(spellings, rng.randint(0, 3)) + ["/usr/lib"])


def search_value(rng, spellings):
    return rng.choice([None, ":".join(rng.choice(
        [*spellings, "$ORIGIN", "$ORIGIN/..", "${ORIGIN}/d0", "$ORIGIN/../usr/lib", "rel", "",
         "$ORIGIN_/..", "/${ORIGIN}$ORIGIN"])
        for _ in range(rng.randint(1, 3)))])


@pytest.mark.parametrize("seed", range(0, 400, 21))
def test_resolve_matches_reference(sysroot, seed):
    # one Resolver per tree, as in a scan; on odd seeds every directory is
    # listed first, as the walk does, so that lookups read listings
    links = random_tree(sysroot, seed)
    rng = random.Random(seed)
    dirs = [top[len(sysroot.root):] or "/" for top, _, _ in os.walk(sysroot.root)]
    spellings = sorted({*dirs, *links, "/lib", "/nowhere"})
    config = random_search(sysroot, rng, dirs, spellings)
    files = sorted({name for _, _, names in os.walk(sysroot.root) for name in names
                    if name.startswith("lib")})
    names = sorted({p.rsplit("/", 1)[1] for p in links} | {"libghost.so"})
    resolver = Resolver(config)
    if seed % 2:
        for spelling in spellings:
            hit = resolver.canonical(spelling)
            if hit and stat.S_ISDIR(hit[2]):
                resolver.scandir(hit[0])
    for _ in range(30):
        needed = rng.choice([*files, *files, *names, f"d0/{rng.choice(files)}", "../lib0.so",
                             rng.choice(spellings) + "/lib1.so", f"$ORIGIN/{rng.choice(files)}",
                             "${ORIGIN}/../lib0.so", "$ORIGIN_/lib1.so", "lib$ORIGIN"])
        summary = SearchPaths(search_value(rng, dirs), search_value(rng, spellings))
        dependent_dir = rng.choice(dirs)
        r = resolver.resolve(needed, summary, posixpath.join(dependent_dir, "dependent"))
        assert (r.path, r.origin and r.origin.value) == resolve_reference(
            sysroot.root, needed, *summary, dependent_dir, config), (needed, summary, dependent_dir)


# Loader rules that a simpler reading gets wrong, each answer seen with
# glibc 2.36 (ldconfig -r -v, and ldd on a built binary): (files, needed
# name, RPATH, RUNPATH, dependent directory, the loader's answer)
LOADER_CASES = {
    # ldconfig reads each blank-separated pattern of an include line
    "include line with two patterns": (
        {"/etc/ld.so.conf": b"include /etc/a.conf /etc/b.conf\n", "/etc/b.conf": b"/db\n",
         "/db/libx.so": b"x"},
        "libx.so", None, None, "/bin", ("/db/libx.so", "ldso-conf")),
    # glibc reads $ORIGIN only where no letter, digit or "_" follows it
    "$ORIGIN followed by a letter": (
        {"/appAL/libx.so": b"x"},
        "libx.so", None, "$ORIGINAL", "/app", (None, None)),
    # glibc expands in one pass, so a $ORIGIN that the dependent's
    # directory spells is not expanded again
    "$ORIGIN in the dependent's directory": (
        {"/x/$ORIGIN/lib/libx.so": b"x"},
        "libx.so", "${ORIGIN}/lib", None, "/x/$ORIGIN", ("/x/$ORIGIN/lib/libx.so", "rpath")),
    # a needed name's $ORIGIN is expanded (dl-deps.c), and the name with
    # "/" that it makes is opened as a path, not searched
    "$ORIGIN in a needed name": (
        {"/app/lib/libx.so": b"x", "/app/bin/.keep": b""},  # ".." needs the directory
        "$ORIGIN/../lib/libx.so", None, None, "/app/bin", ("/app/lib/libx.so", "direct")),
    "$ORIGIN in a needed name without '/'": (
        {"/lib/libx$ORIGIN": b"x"},
        "libx$ORIGIN", None, "/lib", "/app", (None, None)),
    # then _dl_map_object expands that path's $ORIGIN once more
    "$ORIGIN in a needed name and in the dependent's directory": (
        {"/x/$ORIGIN/lib/libx.so": b"x", "/x/x/$ORIGIN/bin/lib/libx.so": b"x",
         "/x/x/$ORIGIN/bin/bin/.keep": b""},
        "$ORIGIN/../lib/libx.so", None, None, "/x/$ORIGIN/bin",
        ("/x/x/$ORIGIN/bin/lib/libx.so", "direct")),
}


@pytest.mark.parametrize("case", LOADER_CASES)
def test_resolve_agrees_with_the_loader(sysroot, case):
    files, needed, rpath, runpath, dependent_dir, loader = LOADER_CASES[case]
    for path, data in files.items():
        sysroot.write(path, data)
    config = SearchConfig(sysroot.root, default_dirs=[])
    r = Resolver(config).resolve(needed, SearchPaths(rpath, runpath),
                                 posixpath.join(dependent_dir, "dependent"))
    assert (r.path, r.origin and r.origin.value) == loader
    assert resolve_reference(sysroot.root, needed, rpath, runpath, dependent_dir,
                             config) == loader


GCC, LDD = shutil.which("gcc"), shutil.which("ldd")


def ldd_finds(program: str, library: str) -> str | None:
    """The path ldd loads for the one needed name of program that ends in
    library, realpath'd; None where ldd reports it not found."""
    out = subprocess.run([LDD, program], capture_output=True, text=True, check=True).stdout
    line, = (line for line in out.splitlines() if library in line)
    # "NAME => PATH (ADDRESS)", "NAME => not found", or "PATH (ADDRESS)" for a
    # name opened as the path that it spells
    where = line.strip().rpartition(" => ")[2]
    return None if where == "not found" else os.path.realpath(where.rpartition(" (")[0])


@pytest.mark.skipif(not (GCC and LDD), reason="needs gcc and ldd")
def test_origin_in_a_needed_name_resolves_as_ldd_does(tmp_path):
    """A library linked with a SONAME that spells $ORIGIN gives that name to
    the DT_NEEDED of a program linked against it. Each program is resolved
    with the host's root as the sysroot, so that its answer and ldd's are
    the same host path."""
    top = os.path.realpath(tmp_path)
    (tmp_path / "x.c").write_text("int x_fn(void) { return 42; }\n")
    (tmp_path / "main.c").write_text("int x_fn(void); int main(void) { return x_fn(); }\n")
    cases = [  # (program, SONAME, where the library is, a decoy copy, link flags, found)
        (f"{top}/app/bin/prog", "$ORIGIN/../lib/libxo.so", f"{top}/app/lib/libxo.so", None, [],
         True),
        # ld.so expands the name, then that path once more, so a directory
        # that spells $ORIGIN is expanded again; the decoy is where one pass leads
        (f"{top}/x/$ORIGIN/bin/prog", "${ORIGIN}/../lib/libxo.so",
         f"{top}/x{top}/x/$ORIGIN/bin/lib/libxo.so", f"{top}/x/$ORIGIN/lib/libxo.so", [], True),
        # expanded, the name holds "/": no search, though RUNPATH holds a file so named
        (f"{top}/rel/bin/prog", "libxo$ORIGIN", f"{top}/rel/bin/libxo$ORIGIN", None,
         ["-Wl,--enable-new-dtags,-rpath,$ORIGIN"], False),
    ]
    for program, soname, library, decoy, flags, resolved in cases:
        # "bin/../lib" is walked, so a bin beside each library's directory must exist
        for path in (program, library, decoy or library, f"{os.path.dirname(library)}/../bin/"):
            os.makedirs(os.path.dirname(path), exist_ok=True)
        subprocess.run([GCC, "-shared", "-fPIC", "-o", library, f"-Wl,-soname,{soname}",
                        str(tmp_path / "x.c")], check=True, capture_output=True)
        subprocess.run([GCC, "-o", program, str(tmp_path / "main.c"), library, *flags],
                       check=True, capture_output=True)
        if decoy:
            shutil.copyfile(library, decoy)
        with open(program, "rb") as f:
            summary = parse_elf(f.read())
        assert soname in summary.needed
        loader = ldd_finds(program, "libxo")
        assert loader == (library if resolved else None), soname
        r = Resolver(SearchConfig("/")).resolve(soname, summary, program)
        assert (r.path, r.needed_name) == (loader, soname)
        assert resolve_reference("/", soname, summary.rpath, summary.runpath,
                                 os.path.dirname(program), SearchConfig("/"))[0] == loader
    # scanned as a tree of its own, the first program's edge is direct
    result = scan_tree(ScanOptions(SearchConfig(f"{top}/app")))
    assert [e for e in edge_tuples(result) if e[1] == cases[0][1]] == \
        [("/bin/prog", "$ORIGIN/../lib/libxo.so", "/lib/libxo.so")]


GLIBC = "CS_GNU_LIBC_VERSION" in getattr(os, "confstr_names", {}) \
    and (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")


def pt_interp(data: bytes) -> str | None:
    """The PT_INTERP path of an ELF file's bytes, None without one."""
    order, wide = "<" if data[5] == 1 else ">", data[4] == 2
    phoff, = struct.unpack_from(order + ("Q" if wide else "I"), data, 0x20 if wide else 0x1C)
    phentsize, phnum = struct.unpack_from(order + "HH", data, 0x36 if wide else 0x2A)
    for off in range(phoff, phoff + phnum * phentsize, phentsize):
        if struct.unpack_from(order + "I", data, off)[0] == 3:
            offset, size = struct.unpack_from(order + ("8xQ16xQ" if wide else "4xI8xI"), data, off)
            return data[offset:offset + size].rstrip(b"\0").decode()
    return None


def ldd_list(path: str) -> set:
    """What ldd lists for the file at path, realpath'd, and ("not found",
    NAME) for each name it does not find; the vDSO is left out."""
    out = subprocess.run([LDD, path], capture_output=True, text=True, check=True).stdout
    listed = set()
    for line in out.splitlines():
        # "NAME => PATH (ADDRESS)", "NAME => not found", or "PATH (ADDRESS)"
        name, arrow, where = line.strip().partition(" => ")
        where = (where if arrow else name).rpartition(" (")[0] or where
        if where == "not found":
            listed.add(("not found", name))
        elif "/" in where:  # the vDSO has no path
            listed.add(os.path.realpath(where))
    return listed


@pytest.mark.skipif(not (LDD and GLIBC), reason="needs ldd on a glibc host")
def test_closures_of_the_live_root_match_ldd():
    """Each dynamically linked program in the host's /usr/bin, followed
    through depex's own parse_elf and one Resolver with "/" as the sysroot,
    reaches what ldd lists for it, less the vDSO and the interpreter. A
    name that a process finds only by an object loaded for another file is
    the one difference allowed, and only where ldd of the needing library
    also reports that name not found."""
    resolver, files = Resolver(SearchConfig("/")), {}

    def summary(path):  # (needed names, search paths, interpreter), parsed once a file
        if path not in files:
            with open(path, "rb") as f:
                data = f.read()
            elf = parse_elf(data)
            files[path] = elf.needed, SearchPaths(elf.rpath, elf.runpath), pt_interp(data)
        return files[path]

    programs = sorted(entry.path for entry in os.scandir("/usr/bin")
                      if entry.is_file(follow_symlinks=False))
    compared, allowed, wrong = 0, [], []
    for program in programs:
        with open(program, "rb") as f:
            if f.read(4) != b"\x7fELF":
                continue
        interp = summary(program)[2]
        if interp is None or not os.path.exists(interp):
            continue  # static, or for a loader this host lacks
        reached, needing, todo = set(), {}, [program]
        while todo:
            path = todo.pop()
            needed, search, _ = summary(path)
            for name in needed:
                r = resolver.resolve(name, search, path)
                if r.path is None:
                    reached.add(("not found", name))
                    needing.setdefault(name, []).append(path)
                elif r.path not in reached:
                    reached.add(r.path)
                    todo.append(r.path)
        listed = ldd_list(program)
        reached.discard(os.path.realpath(interp))
        listed.discard(os.path.realpath(interp))
        compared += 1
        for item in sorted(reached ^ listed, key=str):
            if isinstance(item, tuple) and item not in listed and any(  # see README
                    item in ldd_list(lib) for lib in needing[item[1]]):
                allowed.append((program, item[1]))
            else:
                wrong.append((program, item, "ldd only" if item in listed else "depex only"))
    assert compared and not wrong, "\n".join(map(str, wrong))
    print(f"{compared} programs, {len(files)} files: closures equal to ldd's but for "
          f"{allowed or 'none'}")


def test_link_chain_past_the_limit_matches_the_kernel(tmp_path):
    # relative links only, so the host's own lookup is the oracle
    sysroot = SysrootBuilder(os.path.realpath(tmp_path) + "/sysroot")
    last = 46
    sysroot.elf(f"/d{last}/libchain.so", ElfSpec(soname="libchain.so"))
    sysroot.symlink(f"/d{last}/libalias.so", "libchain.so")
    for k in range(last):
        sysroot.symlink(f"/d{k}/l", f"../d{k + 1}")
    sysroot.elf("/bin/app40", ElfSpec(e_type=2, needed=["libchain.so", "libalias.so"],
                                      runpath="/d6" + "/l" * 40))
    sysroot.elf("/bin/app41", ElfSpec(e_type=2, needed=["libchain.so"],
                                      runpath="/d5" + "/l" * 41))
    result = scan_tree(options_for(sysroot))

    def kernel(spelling):  # the host's stat of the spelling, or its errno
        try:
            return os.stat(sysroot.root + spelling)
        except OSError as exc:
            return exc.errno

    def opens(spelling):
        return not isinstance(kernel(spelling), int)

    spellings = [f"/d{j}" + "/l" * k for j in range(last + 1) for k in range(last + 1 - j)]
    spellings += [posixpath.join(s, name) for s in spellings
                  for name in ("libchain.so", "libalias.so")]
    # the walk meets exactly the spellings whose directory the kernel opens
    met = [s for s in spellings if opens(posixpath.dirname(s))]
    opened = {s for s in met if opens(s) and stat.S_ISREG(kernel(s).st_mode)}
    looping = {s for s in met if kernel(s) == errno.ELOOP}
    assert len(looping) == 7  # six 41-link directories, one 41-link libalias.so
    canonical = f"/d{last}/libchain.so"
    assert node_aliases(result) == [("/bin/app40", []), ("/bin/app41", []),
                                    (canonical, sorted(opened - {canonical}))]
    assert sorted(result.error_records) == sorted((s, "symlink loop") for s in looping)

    assert opens("/d6" + "/l" * 40 + "/libchain.so")
    assert kernel("/d6" + "/l" * 40 + "/libalias.so") == errno.ELOOP
    assert kernel("/d5" + "/l" * 41 + "/libchain.so") == errno.ELOOP
    assert edge_tuples(result) == [("/bin/app40", "libchain.so", canonical),
                                   ("/bin/app40", "libalias.so", None),
                                   ("/bin/app41", "libchain.so", None)]
