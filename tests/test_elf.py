from __future__ import annotations

import json
import os
import random
import re
import shutil
import struct
import subprocess
import sys

import pytest

import depex.elf
from depex.elf import (DT_SYMENT, DT_SYMTAB, ByteOrder, ElfError, FileKind,
                       Malformed, NotElf, ObjectType, Truncated, WordSize,
                       classify_kind, parse_elf, read_symbols)
from elfbuild import (DT_GNU_HASH, DT_HASH, GLOBAL, LOCAL, WEAK, ElfSpec, build_elf,
                      dynamic_entry, with_dynamic_entry)
from oracles import READELF, readelf_dyn_syms


def test_64le_needed_and_runpath():
    spec = ElfSpec(bits=64, little=True, e_type=3,
                   needed=["libc.so.6", "libm.so.6"], runpath="$ORIGIN/../lib")
    s = parse_elf(build_elf(spec))
    assert s.needed == ("libc.so.6", "libm.so.6")
    assert s.runpath == "$ORIGIN/../lib"
    assert s.rpath is None
    assert s.word_size is WordSize.BITS64
    assert s.byte_order is ByteOrder.LITTLE


def test_shell_script_is_not_elf():
    with pytest.raises(NotElf):
        parse_elf(b"#!/bin/sh\necho hello\n")


def test_empty_file_is_not_elf():
    with pytest.raises(NotElf):
        parse_elf(b"")


def test_32be_empty_dynamic():
    s = parse_elf(build_elf(ElfSpec(bits=32, little=False, e_type=3)))
    assert s.word_size is WordSize.BITS32
    assert s.byte_order is ByteOrder.BIG
    assert s.needed == ()
    assert s.undefined_symbols == frozenset()
    assert s.exported_symbols == frozenset()


@pytest.mark.parametrize("bits", [32, 64])
@pytest.mark.parametrize("little", [True, False])
@pytest.mark.parametrize("e_type,interp", [(2, "/lib/ld.so"), (3, "/lib/ld.so"), (3, None)])
def test_roundtrip_matrix(bits, little, e_type, interp):
    spec = ElfSpec(bits=bits, little=little, e_type=e_type, interpreter=interp,
                   needed=["liba.so.1", "libb.so.2"], soname="libself.so.3",
                   rpath="/r1:/r2", runpath="$ORIGIN",
                   defined=[("exported_one", GLOBAL), ("weak_export", WEAK)],
                   undefined=[("import_one", GLOBAL), ("weak_import", WEAK)])
    s = parse_elf(build_elf(spec))
    assert s.needed == ("liba.so.1", "libb.so.2")
    assert s.soname == "libself.so.3"
    assert s.rpath == "/r1:/r2"
    assert s.runpath == "$ORIGIN"
    assert s.has_interpreter is (interp is not None)
    assert s.undefined_symbols == spec.expect_undefined
    assert s.exported_symbols == spec.expect_exported
    assert s.weak_undefined_symbols == spec.expect_weak_undefined


def test_sectionless_twin_parses_identically():
    kw = dict(needed=["libc.so.6"], soname="libx.so", rpath="/opt/lib",
              defined=[("f", GLOBAL)], undefined=[("g", WEAK)])
    with_sections = parse_elf(build_elf(ElfSpec(**kw, with_sections=True)))
    without = parse_elf(build_elf(ElfSpec(**kw, with_sections=False)))
    assert with_sections == without


def test_local_undefined_symbols_excluded():
    s = parse_elf(build_elf(ElfSpec(undefined=[("hidden", LOCAL), ("seen", GLOBAL)])))
    assert s.undefined_symbols == {"seen"}


def test_version_suffix_stripped():
    s = parse_elf(build_elf(ElfSpec(undefined=[("memcpy@GLIBC_2.14", GLOBAL)],
                                    defined=[("mine@@V1", GLOBAL)])))
    assert s.undefined_symbols == {"memcpy"}
    assert s.exported_symbols == {"mine"}


def test_defined_and_undefined_same_name_is_satisfied_locally():
    s = parse_elf(build_elf(ElfSpec(undefined=[("dual", GLOBAL)],
                                    defined=[("dual", GLOBAL)])))
    assert s.undefined_symbols == frozenset()
    assert s.exported_symbols == {"dual"}
    assert not (s.undefined_symbols & s.exported_symbols)


def test_calibrate_reads_symbol_sets_of_demo_tree(demo_sysroot):
    # perfbench/calibrate.py counts imports and exports through the summaries'
    # symbol properties; the properties may not go while it still reads them
    script = os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench", "calibrate.py")
    proc = subprocess.run([sys.executable, script, demo_sysroot.root], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    shape = json.loads(proc.stdout)
    assert (shape["executables"], shape["libraries"]) == (3, 6)
    assert shape["exe_imports"]["n"] == shape["executables"]
    assert shape["lib_exports"]["n"] == shape["libraries"]
    assert shape["exe_imports"]["max"] > 0 and shape["lib_exports"]["max"] > 0


def test_empty_needed_entries_dropped():
    # index 0 of the string table is the empty string
    data = bytearray(build_elf(ElfSpec(bits=64, needed=["libreal.so"])))
    tag = struct.pack("<qQ", 1, 0)  # DT_NEEDED -> strtab index 0
    idx = data.find(struct.pack("<qQ", 1, 1))  # the real entry points at 1
    assert idx > 0
    data[idx:idx + 16] = tag
    s = parse_elf(bytes(data))
    assert s.needed == ()


def test_soname_empty_string_treated_as_absent():
    data = bytearray(build_elf(ElfSpec(bits=64, soname="libx.so")))
    idx = data.find(struct.pack("<qQ", 14, 1))
    assert idx > 0
    data[idx:idx + 16] = struct.pack("<qQ", 14, 0)
    assert parse_elf(bytes(data)).soname is None


def test_byte_faithful_names():
    weird = "lib\udcff\udcfe.so"  # surrogateescape of invalid UTF-8 bytes
    s = parse_elf(build_elf(ElfSpec(needed=[weird])))
    assert s.needed == (weird,)


def test_unmapped_strtab_is_malformed():
    data = bytearray(build_elf(ElfSpec(bits=64, needed=["libc.so.6"])))
    # repoint DT_STRTAB at an address no PT_LOAD covers; the entry is
    # pinned by its neighbors (DT_HASH before, DT_SYMTAB after)
    probe = None
    for i in range(0, len(data) - 32, 1):
        if (struct.unpack_from("<q", data, i)[0] == 5
                and struct.unpack_from("<q", data, i - 16)[0] == 4
                and struct.unpack_from("<q", data, i + 16)[0] == 6):
            probe = i
            break
    assert probe is not None
    struct.pack_into("<qQ", data, probe, 5, 0xDEAD0000)
    with pytest.raises(Malformed):
        parse_elf(bytes(data))


# DT_SYMTAB outside every PT_LOAD, and a DT_SYMENT below the entry size:
# the loader could use neither table, so parse_elf rejects the file even
# though it reads no symbol
BAD_SYMBOL_TABLES = [
    (DT_SYMTAB, 0xDEAD0000, "address 0xdead0000 maps into no PT_LOAD segment"),
    (DT_SYMENT, 6, "DT_SYMENT 6 smaller than symbol entry"),
]


@pytest.mark.parametrize("tag,value,message", BAD_SYMBOL_TABLES,
                         ids=["symtab-unmapped", "syment-6"])
def test_bad_symbol_table_is_malformed(tag, value, message):
    data = with_dynamic_entry(build_elf(ElfSpec(bits=64, needed=["libc.so.6"],
                                                defined=[("f", GLOBAL)])), tag, value)
    with pytest.raises(Malformed) as parse_error:
        parse_elf(data)
    with pytest.raises(Malformed) as symbols_error:
        read_symbols(data)
    assert str(parse_error.value) == str(symbols_error.value) == message


def test_symbols_read_once_on_first_access(monkeypatch):
    data = build_elf(ElfSpec(defined=[("f", GLOBAL)], undefined=[("g", WEAK)]))
    reads = []

    def counting_read_symbols(image):
        reads.append(image)
        return read_symbols(image)

    monkeypatch.setattr(depex.elf, "read_symbols", counting_read_symbols)
    s = parse_elf(data)
    assert reads == []
    for _ in range(2):
        assert s.exported_symbols == {"f"}
        assert s.undefined_symbols == s.weak_undefined_symbols == {"g"}
    assert len(reads) == 1 and reads[0] is data
    assert s.image is data


@pytest.mark.skipif(not (shutil.which("gcc") and READELF), reason="needs gcc and readelf")
@pytest.mark.parametrize("exports", [40, 100])
def test_read_symbols_of_a_gnu_hash_only_library_match_readelf(tmp_path, monkeypatch, exports):
    """A gcc-built library with DT_GNU_HASH and no DT_HASH, as Debian's gcc
    links by default: its symbol count comes from the GNU hash chains. The
    count is checked against readelf alone, as the linker lays the buckets
    out; at 100 exports GNU ld leaves the highest bucket a chain of more
    than one entry, which the count walks to its end."""
    source = tmp_path / "lib.c"
    source.write_text(
        "extern int imported(int);\n"
        "extern int weak_import(int) __attribute__((weak));\n"
        "__attribute__((weak)) int weak_export(int x) { return x; }\n"
        "static int local_helper(int x) { return imported(x); }\n"
        + "".join(f"int export_{i}(int x) {{ return local_helper(x) + {i}; }}\n"
                  for i in range(exports))
        + "int uses_weak(int x) { return weak_import ? weak_import(x) : 0; }\n")
    library = str(tmp_path / "libgnuhash.so")
    subprocess.run([shutil.which("gcc"), "-shared", "-fPIC", "-Wl,--hash-style=gnu",
                    "-o", library, str(source)], check=True, capture_output=True)
    dynamic = subprocess.run([READELF, "-d", "-W", library], capture_output=True, text=True,
                             check=True).stdout
    assert "(GNU_HASH)" in dynamic and "(HASH)" not in dynamic
    listed = subprocess.run([READELF, "--dyn-syms", "-W", library], capture_output=True,
                            text=True, check=True).stdout
    entries, = map(int, re.findall(r"Symbol table '\.dynsym' contains (\d+) entries", listed))
    counts = []
    count = depex.elf._Reader._gnu_hash_count
    monkeypatch.setattr(depex.elf._Reader, "_gnu_hash_count",
                        lambda self, off: counts.append(count(self, off)) or counts[-1])
    with open(library, "rb") as f:
        data = f.read()
    undefined, exported, weak = readelf_dyn_syms(library)
    assert read_symbols(data) == (undefined, exported, weak)
    assert counts == [entries]
    assert {"imported", "weak_import"} <= undefined and weak >= {"weak_import"}
    assert {"weak_export", "uses_weak", *(f"export_{i}" for i in range(exports))} <= exported
    assert "local_helper" not in exported | undefined


UNMAPPED = 0xDEAD0000  # an address that no PT_LOAD segment of an elfbuild image maps


def gnu_hash_offset(data: bytes) -> int:
    """File offset of the DT_GNU_HASH table: elfbuild maps offset 0 at its base address."""
    return dynamic_entry(data, DT_GNU_HASH)[1] - ElfSpec().base_vaddr


def gnu_hash_header(data: bytes, nbuckets: int) -> bytes:
    """data with the nbuckets word of its DT_GNU_HASH table replaced."""
    off = gnu_hash_offset(data)
    return data[:off] + struct.pack("<I", nbuckets) + data[off + 4:]


# (sysv or gnu hash style, the change to the image): each hash table gives
# no symbol count, so the count is the symbol table's span up to .dynstr
NO_HASH_COUNT = {
    "DT_HASH outside every segment":
        ("sysv", lambda data: with_dynamic_entry(data, DT_HASH, UNMAPPED)),
    "DT_GNU_HASH outside every segment":
        ("gnu", lambda data: with_dynamic_entry(data, DT_GNU_HASH, UNMAPPED)),
    "GNU hash bucket count past the end of the file":
        ("gnu", lambda data: gnu_hash_header(data, 0xFFFFFFFF)),
}


@pytest.mark.parametrize("case", NO_HASH_COUNT)
def test_a_hash_table_that_gives_no_count_leaves_the_count_to_the_tables_span(tmp_path,
                                                                               case):
    style, change = NO_HASH_COUNT[case]
    spec = ElfSpec(needed=["libc.so.6"], soname="libh.so", hash_style=style,
                   defined=[("f", GLOBAL), ("g", WEAK)], undefined=[("h", GLOBAL), ("k", WEAK)])
    data = change(build_elf(spec))
    declared = (spec.expect_undefined, spec.expect_exported, spec.expect_weak_undefined)
    assert read_symbols(data) == declared
    if READELF:  # it reads .dynsym by its section header, which no change touched
        path = tmp_path / "libh.so"
        path.write_bytes(data)
        assert read_symbols(data) == readelf_dyn_syms(str(path))


def test_every_gnu_hash_bucket_empty_counts_the_unhashed_symbols(tmp_path):
    # no defined symbol: symoffset, the count of symbols before the hashed
    # ones, is every symbol, as GNU ld writes it for a file that only imports
    spec = ElfSpec(needed=["libc.so.6"], hash_style="gnu",
                   undefined=[("h", GLOBAL), ("k", WEAK), ("m", GLOBAL)])
    data = build_elf(spec)
    assert depex.elf._Reader(data)._gnu_hash_count(gnu_hash_offset(data)) == 4  # not the span
    assert read_symbols(data) == ({"h", "k", "m"}, set(), {"k"})
    if READELF:
        path = tmp_path / "libimports.so"
        path.write_bytes(data)
        assert read_symbols(data) == readelf_dyn_syms(str(path))


def test_image_outside_eq_hash_and_repr():
    kw = dict(needed=["libc.so.6"], defined=[("f", GLOBAL)])
    with_sections = parse_elf(build_elf(ElfSpec(**kw, with_sections=True)))
    without = parse_elf(build_elf(ElfSpec(**kw, with_sections=False)))
    assert with_sections.image != without.image
    assert with_sections == without and hash(with_sections) == hash(without)
    assert "image" not in repr(with_sections)
    assert "\\x7fELF" not in repr(with_sections)


def test_truncation_never_crashes():
    base = build_elf(ElfSpec(bits=64, needed=["libc.so.6"], soname="libx.so",
                             defined=[("f", GLOBAL)], undefined=[("g", GLOBAL)]))
    for cut in range(0, len(base), 7):
        try:
            parse_elf(base[:cut]).undefined_symbols
        except ElfError:
            pass
        try:
            read_symbols(base[:cut])
        except ElfError:
            pass


def test_random_mutations_never_crash():
    rng = random.Random(20230711)
    base = bytearray(build_elf(ElfSpec(
        bits=64, e_type=2, interpreter="/lib/ld.so", needed=["libc.so.6"],
        soname="libx.so", rpath="/a:/b", defined=[("f", GLOBAL)],
        undefined=[("g", WEAK)])))
    for _ in range(500):
        mutated = bytearray(base)
        for _ in range(rng.randint(1, 8)):
            mutated[rng.randrange(len(mutated))] = rng.randrange(256)
        try:
            parse_elf(bytes(mutated)).undefined_symbols
        except ElfError:
            pass
        try:
            read_symbols(bytes(mutated))
        except ElfError:
            pass


def test_parse_is_deterministic():
    data = build_elf(ElfSpec(needed=["libc.so.6"], soname="libx.so",
                             defined=[("a", GLOBAL)], undefined=[("b", GLOBAL)]))
    assert parse_elf(data) == parse_elf(data)
    # symbol sets take no part in ElfSummary equality: compare them directly
    assert read_symbols(data) == read_symbols(data) == ({"b"}, {"a"}, frozenset())


@pytest.mark.parametrize("e_type,interp,expected", [
    (2, None, FileKind.EXECUTABLE_BINARY),
    (2, "/lib/ld.so", FileKind.EXECUTABLE_BINARY),
    (3, "/lib/ld.so", FileKind.EXECUTABLE_BINARY),  # PIE
    (3, None, FileKind.SHARED_LIBRARY),
    (1, None, FileKind.ELF_OTHER),
    (7, None, FileKind.ELF_OTHER),
])
def test_classification_matrix(e_type, interp, expected):
    s = parse_elf(build_elf(ElfSpec(e_type=e_type, interpreter=interp,
                                    with_dynamic=False, with_sections=False)))
    assert classify_kind(s) is expected


def test_classification_reports_object_type_code():
    s = parse_elf(build_elf(ElfSpec(e_type=7, with_dynamic=False, with_sections=False)))
    assert s.object_type is ObjectType.OTHER
    assert s.object_type_code == 7


def test_header_truncated_raises_truncated():
    # ElfSpec() puts PT_LOAD and PT_DYNAMIC right after the ELF header
    header_and_phdrs = {64: 64 + 2 * 56, 32: 52 + 2 * 32}
    for bits in (32, 64):
        for little in (True, False):
            whole = build_elf(ElfSpec(bits=bits, little=little))
            for cut in range(4):
                with pytest.raises(NotElf):
                    parse_elf(whole[:cut])
            for cut in range(4, header_and_phdrs[bits]):
                with pytest.raises(Truncated):
                    parse_elf(whole[:cut])


NAME_CHARS = "abcxyz019._-+/$\u00e9\udcff"


def random_name(rng: random.Random) -> str:
    return "".join(rng.choice(NAME_CHARS) for _ in range(rng.randint(1, 12)))


def random_spec(rng: random.Random) -> ElfSpec:
    symbols = list({random_name(rng) for _ in range(rng.randint(0, 12))})
    rng.shuffle(symbols)
    cut = rng.randint(0, len(symbols))
    return ElfSpec(
        bits=rng.choice((32, 64)), little=rng.random() < 0.5,
        e_type=rng.choice((2, 3)),
        interpreter=rng.choice((None, "/lib/ld.so", "/lib64/ld-linux-x86-64.so.2")),
        needed=[random_name(rng) for _ in range(rng.randint(0, 5))],
        soname=rng.choice((None, random_name(rng))),
        rpath=rng.choice((None, random_name(rng))),
        runpath=rng.choice((None, random_name(rng))),
        defined=[(n, rng.choice((GLOBAL, WEAK, LOCAL))) for n in symbols[:cut]],
        undefined=[(n, rng.choice((GLOBAL, WEAK, LOCAL))) for n in symbols[cut:]],
        with_sections=rng.random() < 0.5)


def test_random_specs_parse_to_their_declared_contents():
    rng = random.Random(0x5EED_E1F)
    for _ in range(400):
        spec = random_spec(rng)
        data = build_elf(spec)
        s = parse_elf(data)
        assert s.word_size == spec.bits
        assert s.byte_order is (ByteOrder.LITTLE if spec.little else ByteOrder.BIG)
        assert s.object_type_code == spec.e_type
        assert s.has_interpreter is (spec.interpreter is not None)
        assert s.needed == tuple(spec.needed)
        assert (s.soname, s.rpath, s.runpath) == (spec.soname, spec.rpath, spec.runpath)
        expected = (spec.expect_undefined, spec.expect_exported,
                    spec.expect_weak_undefined)
        assert read_symbols(data) == expected
        assert (s.undefined_symbols, s.exported_symbols,
                s.weak_undefined_symbols) == expected
