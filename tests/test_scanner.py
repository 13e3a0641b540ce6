from __future__ import annotations

import builtins
import errno
import os
import posixpath
import random
import stat
from collections import Counter

import pytest

import depex.elf
import depex.scanner
from depex.elf import DT_SYMENT, DT_SYMTAB
from depex.resolver import (NoSuchPath, Resolver, SearchConfig, SymlinkLoop,
                            canonicalize_in_sysroot)
from depex.scanner import RelativeExclude, ScanOptions, SysrootUnreadable, scan_tree
from conftest import SysrootBuilder
from elfbuild import ElfSpec, build_elf, with_dynamic_entry
from oracles import NO_SUCH_PATH, canonical_reference


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
    with pytest.raises(RelativeExclude, match="usr/lib"):
        scan_tree(options)


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
    real_open = builtins.open

    def counting_open(file, mode="r", *a, **kw):
        f = real_open(file, mode, *a, **kw)
        if isinstance(file, str) and file.startswith(demo_sysroot.root) and "b" in mode:
            full_reads[file] += 1
        return f

    monkeypatch.setattr(builtins, "open", counting_open)
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


def test_extraction_record_holds_plain_values(demo_sysroot):
    demo_sysroot.write("/usr/lib/libbad.so", build_elf(ElfSpec(soname="libbad.so"))[:60])
    options = options_for(demo_sysroot)

    def plain(value):
        if isinstance(value, tuple):
            return all(plain(v) for v in value)
        return value is None or type(value) in (str, int)

    records = []
    for dirpath, _, names in os.walk(demo_sysroot.root):
        for name in names:
            canonical = os.path.join(dirpath, name)[len(demo_sysroot.root):]
            records.append(depex.scanner._extract_one(canonical, 0, options))
    assert len(records) == 14  # 10 ELF files, 2 ld.so.conf files, a link, libbad
    assert {record.kind for record in records} == {"executable", "library", None}
    assert [record.canonical for record in records if record.error] == ["/usr/lib/libbad.so"]
    assert all(plain(record) for record in records)


def test_resolved_target_outside_graph_downgraded_to_missing(sysroot):
    # the needed name lands on a non-ELF file: a loader would choke on it,
    # so the edge records an unmet requirement rather than a bogus target
    sysroot.elf("/usr/bin/tool", ElfSpec(
        e_type=2, interpreter="/lib/ld.so", needed=["libtext.so"]))
    sysroot.write("/usr/lib/libtext.so", b"just text, not a library\n")
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
        expected = canonical_reference(sysroot.root, spelling)
        hit = shared.canonical(spelling)
        assert (hit and (NO_SUCH_PATH if hit[0] is None else hit[0])) == expected, spelling
        if expected is None:
            with pytest.raises(SymlinkLoop):
                canonicalize_in_sysroot(spelling, config)
        elif expected == NO_SUCH_PATH:
            with pytest.raises(NoSuchPath):
                canonicalize_in_sysroot(spelling, config)
        else:
            assert canonicalize_in_sysroot(spelling, config) == expected


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
