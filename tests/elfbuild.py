"""Byte-level ELF fixture writer for the test suite.

Assembles files directly from the format tables, independently of the
parser under test. Fixtures were cross-checked against readelf/nm from
binutils before their expected values were frozen into the tests; the
acceptance suite re-runs that cross-check whenever readelf is present.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

PT_LOAD, PT_DYNAMIC, PT_INTERP = 1, 2, 3
DT_NULL, DT_NEEDED, DT_HASH, DT_STRTAB, DT_SYMTAB = 0, 1, 4, 5, 6
DT_STRSZ, DT_SYMENT, DT_SONAME, DT_RPATH, DT_RUNPATH = 10, 11, 14, 15, 29
DT_GNU_HASH = 0x6FFFFEF5
SHT_HASH, SHT_STRTAB, SHT_DYNAMIC, SHT_DYNSYM, SHT_GNU_HASH = 5, 3, 6, 11, 0x6FFFFFF6

GLOBAL, WEAK, LOCAL = 1, 2, 0


@dataclass
class ElfSpec:
    """Declarative description of a fixture; doubles as its expected parse."""

    bits: int = 64
    little: bool = True
    e_type: int = 3  # ET_DYN
    interpreter: str | None = None
    needed: list[str] = field(default_factory=list)
    soname: str | None = None
    rpath: str | None = None
    runpath: str | None = None
    defined: list[tuple[str, int]] = field(default_factory=list)
    undefined: list[tuple[str, int]] = field(default_factory=list)
    with_dynamic: bool = True
    with_sections: bool = True
    base_vaddr: int = 0x400000
    # "gnu": a DT_GNU_HASH table of one bucket, which holds every defined
    # symbol (they come last), in place of the DT_HASH table
    hash_style: str = "sysv"

    @property
    def expect_undefined(self) -> set[str]:
        return {n for n, b in self.undefined if b != LOCAL}

    @property
    def expect_weak_undefined(self) -> set[str]:
        return {n for n, b in self.undefined if b == WEAK}

    @property
    def expect_exported(self) -> set[str]:
        return {n for n, b in self.defined if b in (GLOBAL, WEAK)}


def build_elf(spec: ElfSpec) -> bytes:
    en = "<" if spec.little else ">"
    bits = spec.bits
    if bits == 64:
        ehsize, phentsize, shentsize, syment, dynent = 64, 56, 64, 24, 16
    else:
        ehsize, phentsize, shentsize, syment, dynent = 52, 32, 40, 16, 8
    base = spec.base_vaddr

    strtab = bytearray(b"\x00")
    seen: dict[str, int] = {}

    def addstr(s: str) -> int:
        if s not in seen:
            seen[s] = len(strtab)
            strtab.extend(s.encode("utf-8", "surrogateescape") + b"\x00")
        return seen[s]

    needed_offs = [addstr(n) for n in spec.needed]
    soname_off = addstr(spec.soname) if spec.soname is not None else None
    rpath_off = addstr(spec.rpath) if spec.rpath is not None else None
    runpath_off = addstr(spec.runpath) if spec.runpath is not None else None

    syms = [(0, 0, 0)]  # reserved null entry
    for name, bind in spec.undefined:
        syms.append((addstr(name), (bind << 4) | 2, 0))
    for name, bind in spec.defined:
        syms.append((addstr(name), (bind << 4) | 2, 1))

    symtab = bytearray()
    for name_off, info, shndx in syms:
        if bits == 64:
            symtab += struct.pack(en + "IBBHQQ", name_off, info, 0, shndx, 0, 0)
        else:
            symtab += struct.pack(en + "IIIBBH", name_off, 0, 0, info, 0, shndx)

    nsyms = len(syms)
    gnu = spec.hash_style == "gnu"
    if gnu:  # nbuckets, symoffset, bloom_size, bloom_shift; a bloom word that lets all pass
        symoffset = 1 + len(spec.undefined)
        chains = [gnu_hash(name) & ~1 for name, _ in spec.defined]
        chains[-1:] = [c | 1 for c in chains[-1:]]  # the chain's last entry
        hashtab = (struct.pack(en + "IIII", 1, symoffset, 1, 0) + b"\xff" * (bits // 8)
                   + struct.pack(en + f"{1 + len(chains)}I", symoffset if chains else 0, *chains))
    else:
        hashtab = struct.pack(en + "II", 1, nsyms) + b"\x00" * 4 + b"\x00" * (4 * nsyms)
    interp_bytes = spec.interpreter.encode() + b"\x00" if spec.interpreter else b""

    phnum = 1 + (1 if spec.interpreter else 0) + (1 if spec.with_dynamic else 0)
    shnum = 6 if (spec.with_sections and spec.with_dynamic) else 0

    # layout: ehdr | phdrs | interp | hash | dynsym | dynstr | dynamic | shstrtab | shdrs
    off = ehsize + phnum * phentsize
    interp_off = off
    off += len(interp_bytes)
    hash_off = off
    off += len(hashtab)
    symtab_off = off
    off += len(symtab)
    strtab_off = off
    off += len(strtab)
    dyn_off = off

    def dyn_entry(tag: int, val: int) -> bytes:
        return struct.pack(en + ("qQ" if bits == 64 else "iI"), tag, val)

    dyn = bytearray()
    if spec.with_dynamic:
        for noff in needed_offs:
            dyn += dyn_entry(DT_NEEDED, noff)
        if soname_off is not None:
            dyn += dyn_entry(DT_SONAME, soname_off)
        if rpath_off is not None:
            dyn += dyn_entry(DT_RPATH, rpath_off)
        if runpath_off is not None:
            dyn += dyn_entry(DT_RUNPATH, runpath_off)
        dyn += dyn_entry(DT_GNU_HASH if gnu else DT_HASH, base + hash_off)
        dyn += dyn_entry(DT_STRTAB, base + strtab_off)
        dyn += dyn_entry(DT_SYMTAB, base + symtab_off)
        dyn += dyn_entry(DT_STRSZ, len(strtab))
        dyn += dyn_entry(DT_SYMENT, syment)
        dyn += dyn_entry(DT_NULL, 0)
    off += len(dyn)

    shstrtab = bytearray()
    sh_names: dict[str, int] = {}
    if shnum:
        shstrtab += b"\x00"
        for nm in (".gnu.hash" if gnu else ".hash", ".dynsym", ".dynstr", ".dynamic",
                   ".shstrtab"):
            sh_names[nm] = len(shstrtab)
            shstrtab += nm.encode() + b"\x00"
    shstr_off = off
    off += len(shstrtab)
    shoff = off if shnum else 0
    total = off + shnum * shentsize

    ei = bytes([0x7F, 0x45, 0x4C, 0x46, 2 if bits == 64 else 1,
                1 if spec.little else 2, 1, 0]) + b"\x00" * 8
    machine = (62 if spec.little else 21) if bits == 64 else (3 if spec.little else 8)
    common = (spec.e_type, machine, 1, base, ehsize, shoff, 0, ehsize, phentsize,
              phnum, shentsize if shnum else 0, shnum, shnum - 1 if shnum else 0)
    ehdr = ei + struct.pack(en + ("HHIQQQIHHHHHH" if bits == 64 else "HHIIIIIHHHHHH"), *common)

    def phdr(p_type: int, p_offset: int, p_filesz: int, p_flags: int = 5) -> bytes:
        vaddr = base + p_offset
        if bits == 64:
            return struct.pack(en + "IIQQQQQQ", p_type, p_flags, p_offset,
                               vaddr, vaddr, p_filesz, p_filesz, 0x1000)
        return struct.pack(en + "IIIIIIII", p_type, p_offset, vaddr, vaddr,
                           p_filesz, p_filesz, p_flags, 0x1000)

    phdrs = bytearray()
    phdrs += phdr(PT_LOAD, 0, total)
    if spec.interpreter:
        phdrs += phdr(PT_INTERP, interp_off, len(interp_bytes), p_flags=4)
    if spec.with_dynamic:
        phdrs += phdr(PT_DYNAMIC, dyn_off, len(dyn), p_flags=6)

    def shdr(name: int, sh_type: int, offset: int, size: int, entsize: int = 0,
             link: int = 0, addr: int | None = None, info: int = 0) -> bytes:
        a = base + offset if addr is None else addr
        if bits == 64:
            return struct.pack(en + "IIQQQQIIQQ", name, sh_type, 2, a, offset,
                               size, link, info, 8, entsize)
        return struct.pack(en + "IIIIIIIIII", name, sh_type, 2, a, offset,
                           size, link, info, 4, entsize)

    shdrs = bytearray()
    if shnum:
        shdrs += bytes(shentsize)  # index 0: null section
        if gnu:
            shdrs += shdr(sh_names[".gnu.hash"], SHT_GNU_HASH, hash_off, len(hashtab), link=2)
        else:
            shdrs += shdr(sh_names[".hash"], SHT_HASH, hash_off, len(hashtab), 4, link=2)
        shdrs += shdr(sh_names[".dynsym"], SHT_DYNSYM, symtab_off, len(symtab),
                      syment, link=3, info=1)
        shdrs += shdr(sh_names[".dynstr"], SHT_STRTAB, strtab_off, len(strtab))
        shdrs += shdr(sh_names[".dynamic"], SHT_DYNAMIC, dyn_off, len(dyn), dynent, link=3)
        shdrs += shdr(sh_names[".shstrtab"], SHT_STRTAB, shstr_off, len(shstrtab), addr=0)

    img = bytearray()
    for part in (ehdr, phdrs, interp_bytes, hashtab, symtab, strtab, dyn, shstrtab, shdrs):
        img += part
    assert len(img) == total
    return bytes(img)


def minimal_executable(needed: list[str] | None = None, **kw) -> bytes:
    """64-bit little-endian dynamic executable, the common case."""
    return build_elf(ElfSpec(e_type=2, interpreter="/lib64/ld-linux-x86-64.so.2",
                             needed=list(needed or []), **kw))


def minimal_library(soname: str | None = None, needed: list[str] | None = None, **kw) -> bytes:
    return build_elf(ElfSpec(e_type=3, soname=soname, needed=list(needed or []), **kw))


def gnu_hash(name: str) -> int:
    """The DT_GNU_HASH hash of a symbol name (dl_new_hash in glibc)."""
    h = 5381
    for c in name.encode("utf-8", "surrogateescape"):
        h = (h * 33 + c) & 0xFFFFFFFF
    return h


def dynamic_entry(data: bytes, tag: int) -> tuple[int, int]:
    """(file offset, value) of the first dynamic entry of `tag` in a 64-bit
    little-endian image; ValueError if it has no such entry."""
    phoff, = struct.unpack_from("<Q", data, 32)
    phentsize, phnum = struct.unpack_from("<HH", data, 54)
    dynamic = [struct.unpack_from("<Q", data, phoff + i * phentsize + 8)[0]
               for i in range(phnum)
               if struct.unpack_from("<I", data, phoff + i * phentsize)[0] == PT_DYNAMIC]
    off = dynamic[0]
    while True:
        d_tag, value = struct.unpack_from("<qQ", data, off)
        if d_tag == tag:
            return off, value
        if d_tag == DT_NULL:
            raise ValueError(f"no dynamic entry with tag {tag}")
        off += 16


def with_dynamic_entry(data: bytes, tag: int, value: int) -> bytes:
    """A 64-bit little-endian image with the value of its first dynamic
    entry of `tag` replaced; ValueError if it has no such entry."""
    img = bytearray(data)
    struct.pack_into("<qQ", img, dynamic_entry(data, tag)[0], tag, value)
    return bytes(img)
