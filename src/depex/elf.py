"""Native ELF reader: dynamic-linking facts straight from the bytes.

Everything is resolved through the ELF header, program headers and the
dynamic segment. Section headers are deliberately ignored: stripped
binaries may not have them, and the dynamic loader does not need them
either. The System V gABI record layouts (ELF header, program header,
dynamic entry, symbol) live in one table, _LAYOUTS, keyed by ELF class
and byte order; each record is unpacked whole through its struct.Struct.

parse_elf reads the link facts a dependency graph is built from: type,
interpreter, DT_NEEDED, DT_SONAME, DT_RPATH and DT_RUNPATH. It does not
walk the dynamic symbol table, which costs far more than the rest of a
parse; read_symbols does, and an ElfSummary calls it on first access to
its symbol sets.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from functools import cached_property
from typing import NamedTuple

ELF_MAGIC = b"\x7fELF"

# e_ident indexes
EI_CLASS = 4
EI_DATA = 5
ELFCLASS32, ELFCLASS64 = 1, 2
ELFDATA2LSB, ELFDATA2MSB = 1, 2

# e_type
ET_REL, ET_EXEC, ET_DYN = 1, 2, 3

# program header types
PT_LOAD, PT_DYNAMIC, PT_INTERP = 1, 2, 3

# dynamic tags
DT_NULL = 0
DT_NEEDED = 1
DT_HASH = 4
DT_STRTAB = 5
DT_SYMTAB = 6
DT_STRSZ = 10
DT_SYMENT = 11
DT_SONAME = 14
DT_RPATH = 15
DT_RUNPATH = 29
DT_GNU_HASH = 0x6FFFFEF5

# symbol bindings
STB_LOCAL, STB_GLOBAL, STB_WEAK = 0, 1, 2
SHN_UNDEF = 0


class ElfError(Exception):
    """Base for all parse failures."""


class NotElf(ElfError):
    """Magic bytes do not identify an ELF file; skip it."""


class Truncated(ElfError):
    """A header or table extends past the end of the file."""


class Malformed(ElfError):
    """Internally inconsistent structure (e.g. unmapped table address)."""


class WordSize(IntEnum):
    BITS32 = 32
    BITS64 = 64


class ByteOrder(Enum):
    LITTLE = "little"
    BIG = "big"


class ObjectType(Enum):
    EXECUTABLE = "executable"
    SHARED_OBJECT = "shared-object"
    RELOCATABLE = "relocatable"
    OTHER = "other"


class FileKind(Enum):
    EXECUTABLE_BINARY = "executable"
    SHARED_LIBRARY = "library"
    ELF_OTHER = "elf-other"


@dataclass(frozen=True)
class ElfSummary:
    """Dynamic-linking facts of one ELF file.

    String values are byte-faithful to the file's string tables
    (decoded with surrogateescape, so arbitrary bytes round-trip).

    The three symbol sets are not read by parse_elf. The first access to
    any of them reads all three from `image`, the bytes the summary was
    parsed from (see read_symbols), and caches them. `image` is a
    reference to those bytes, not a copy, and takes no part in ==, hash
    or repr; a caller that keeps many summaries also keeps their bytes.
    """

    word_size: WordSize
    byte_order: ByteOrder
    object_type: ObjectType
    object_type_code: int
    has_interpreter: bool
    soname: str | None = None
    needed: tuple[str, ...] = ()
    rpath: str | None = None
    runpath: str | None = None
    image: bytes = field(kw_only=True, repr=False, compare=False)

    @cached_property
    def _symbols(self) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
        return read_symbols(self.image)

    @property
    def undefined_symbols(self) -> frozenset[str]:
        return self._symbols[0]

    @property
    def exported_symbols(self) -> frozenset[str]:
        return self._symbols[1]

    @property
    def weak_undefined_symbols(self) -> frozenset[str]:
        """The subset of undefined_symbols whose absence the loader tolerates."""
        return self._symbols[2]


_OBJECT_TYPES = {
    ET_EXEC: ObjectType.EXECUTABLE,
    ET_DYN: ObjectType.SHARED_OBJECT,
    ET_REL: ObjectType.RELOCATABLE,
}


class _Layout(NamedTuple):
    """Record layouts of one ELF class and byte order."""

    bits: WordSize
    order: ByteOrder
    header: struct.Struct  # e_type, e_phoff, e_phentsize, e_phnum
    phdr: struct.Struct    # p_type, p_offset, p_vaddr, p_filesz
    dyn: struct.Struct     # d_tag, d_val
    sym: struct.Struct     # st_name, st_info, st_shndx
    word: struct.Struct    # one hash-table word, 32 bits in either class


# System V gABI record layouts, without the byte-order prefix. A layout
# unpacks the fields above and skips ("x") the rest; the ELF header record
# ends at e_phnum, the other records span a whole entry.
_CLASSES = {
    #            word size        ELF header       program header  dynamic symbol
    ELFCLASS64: (WordSize.BITS64, "16xH14xQ14xHH", "I4xQQ8xQ16x", "qQ", "IBxH16x"),
    ELFCLASS32: (WordSize.BITS32, "16xH10xI10xHH", "III4xI12x", "iI", "I8xBxH"),
}
_ORDERS = {ELFDATA2LSB: (ByteOrder.LITTLE, "<"), ELFDATA2MSB: (ByteOrder.BIG, ">")}
_LAYOUTS = {
    (ei_class, ei_data): _Layout(bits, order,
                                 *(struct.Struct(en + f) for f in (*formats, "I")))
    for ei_class, (bits, *formats) in _CLASSES.items()
    for ei_data, (order, en) in _ORDERS.items()
}


def _unpack(record: struct.Struct, data: bytes, off: int) -> tuple:
    if off + record.size > len(data):
        raise Truncated(f"{record.size}-byte record at {off} past end of file")
    return record.unpack_from(data, off)


class _Reader:
    """One parse pass over an in-memory ELF image.

    EI_CLASS and EI_DATA pick the image's record layouts from _LAYOUTS,
    the one table of them; every header, program header, dynamic entry
    and symbol is then unpacked as a whole record. Construction reads the
    ELF header, the program headers and the dynamic segment; summary()
    and _read_symbols() read the tables those point at.
    """

    def __init__(self, data: bytes):
        if len(data) < 4 or data[:4] != ELF_MAGIC:
            raise NotElf("bad magic")
        if len(data) < 16:
            raise Truncated("e_ident cut short")
        self.data = data
        ei_class = data[EI_CLASS]
        ei_data = data[EI_DATA]
        if ei_class not in _CLASSES:
            raise Malformed(f"unknown EI_CLASS {ei_class}")
        if ei_data not in _ORDERS:
            raise Malformed(f"unknown EI_DATA {ei_data}")
        self.layout = layout = _LAYOUTS[ei_class, ei_data]
        self.loads: list[tuple[int, int, int]] = []  # (vaddr, filesz, offset)

        self.e_type, e_phoff, e_phentsize, e_phnum = _unpack(layout.header, data, 0)
        dynamic_span = None
        self.has_interp = False
        if e_phnum:
            if e_phentsize < layout.phdr.size:
                raise Malformed(f"e_phentsize {e_phentsize} too small")
            if e_phoff + e_phnum * e_phentsize > len(data):
                raise Truncated("program header table past end of file")
            for off in range(e_phoff, e_phoff + e_phnum * e_phentsize, e_phentsize):
                p_type, p_offset, p_vaddr, p_filesz = layout.phdr.unpack_from(data, off)
                if p_type == PT_LOAD:
                    if p_offset + p_filesz > len(data):
                        raise Truncated("PT_LOAD data past end of file")
                    self.loads.append((p_vaddr, p_filesz, p_offset))
                elif p_type == PT_DYNAMIC:
                    if p_offset + p_filesz > len(data):
                        raise Truncated("PT_DYNAMIC past end of file")
                    dynamic_span = (p_offset, p_filesz)
                elif p_type == PT_INTERP:
                    self.has_interp = True

        self.tags: dict[int, int] = {}  # the first value of each tag
        self.needed: list[int] = []     # every DT_NEEDED value, in order
        self.strtab: tuple[int, int] | None = None
        if dynamic_span is not None:
            offset, filesz = dynamic_span
            end = offset + filesz - filesz % layout.dyn.size
            for d_tag, d_val in layout.dyn.iter_unpack(memoryview(data)[offset:end]):
                if d_tag == DT_NEEDED:
                    self.needed.append(d_val)
                elif d_tag == DT_NULL:
                    break
                elif d_tag not in self.tags:
                    self.tags[d_tag] = d_val
            self.strtab = self._strtab_view(self.tags)

    def summary(self) -> ElfSummary:
        tags, strtab = self.tags, self.strtab
        needed = []
        for idx in self.needed:
            name = self._string(strtab, idx)
            if name:
                needed.append(name)
        soname = rpath = runpath = None
        if DT_SONAME in tags:
            soname = self._string(strtab, tags[DT_SONAME]) or None
        if DT_RPATH in tags:
            rpath = self._string(strtab, tags[DT_RPATH])
        if DT_RUNPATH in tags:
            runpath = self._string(strtab, tags[DT_RUNPATH])
        # a symbol table the loader could not use makes the file malformed,
        # even though its entries are read only on demand
        self._symbol_table()
        return ElfSummary(
            word_size=self.layout.bits,
            byte_order=self.layout.order,
            object_type=_OBJECT_TYPES.get(self.e_type, ObjectType.OTHER),
            object_type_code=self.e_type,
            has_interpreter=self.has_interp,
            soname=soname,
            needed=tuple(needed),
            rpath=rpath,
            runpath=runpath,
            image=self.data,
        )

    def _vaddr_to_offset(self, addr: int) -> int:
        for vaddr, filesz, offset in self.loads:
            if vaddr <= addr < vaddr + filesz:
                return offset + (addr - vaddr)
        raise Malformed(f"address {addr:#x} maps into no PT_LOAD segment")

    def _strtab_view(self, tags: dict[int, int]) -> tuple[int, int] | None:
        """(file offset, byte length) of the dynamic string table, or None."""
        if DT_STRTAB not in tags:
            return None
        off = self._vaddr_to_offset(tags[DT_STRTAB])
        size = len(self.data) - off
        if DT_STRSZ in tags:
            size = min(size, tags[DT_STRSZ])
        return off, size

    def _string(self, strtab: tuple[int, int] | None, idx: int) -> str:
        if strtab is None:
            raise Malformed("string referenced but no DT_STRTAB")
        off, size = strtab
        if idx >= size:
            raise Malformed(f"string index {idx} outside string table")
        end = self.data.find(b"\x00", off + idx, off + size)
        if end < 0:
            raise Malformed("unterminated string in string table")
        return self.data[off + idx : end].decode("utf-8", "surrogateescape")

    def _symbol_count(self, sym_off: int, syment: int) -> int:
        """Number of dynamic symbol entries, bounded by what the file can hold."""
        tags = self.tags
        cap = (len(self.data) - sym_off) // syment
        count = 0
        if DT_HASH in tags:
            try:
                hash_off = self._vaddr_to_offset(tags[DT_HASH])
                count, = _unpack(self.layout.word, self.data, hash_off + 4)  # nchain
            except ElfError:
                count = 0
        if not count and DT_GNU_HASH in tags:
            try:
                count = self._gnu_hash_count(self._vaddr_to_offset(tags[DT_GNU_HASH]))
            except ElfError:
                count = 0
        if not count and DT_STRTAB in tags:
            # common layout: .dynsym immediately precedes .dynstr
            str_off = self._vaddr_to_offset(tags[DT_STRTAB])
            if str_off > sym_off:
                count = (str_off - sym_off) // syment
        return min(count, cap)

    def _gnu_hash_count(self, off: int) -> int:
        data, word = self.data, self.layout.word
        nbuckets, symoffset, bloom_size = (_unpack(word, data, off + i)[0] for i in (0, 4, 8))
        buckets_off = off + 16 + bloom_size * (self.layout.bits // 8)  # address-sized words
        if nbuckets > (len(data) - buckets_off) // 4:
            return 0
        chains_off = buckets_off + nbuckets * 4
        last = max((b for b, in word.iter_unpack(memoryview(data)[buckets_off:chains_off])),
                   default=0)
        if last < symoffset:
            return symoffset  # all buckets empty
        # walk the chain of the highest bucket to its terminator; a chain
        # that runs off the file raises Truncated, which the caller reads as 0
        idx = last
        while not _unpack(word, data, chains_off + (idx - symoffset) * 4)[0] & 1:
            idx += 1
        return idx + 1

    def _symbol_table(self) -> tuple[int, int] | None:
        """(file offset, entry size) of the dynamic symbol table, or None."""
        if DT_SYMTAB not in self.tags or self.strtab is None:
            return None
        sym_off = self._vaddr_to_offset(self.tags[DT_SYMTAB])
        default_ent = self.layout.sym.size
        syment = self.tags.get(DT_SYMENT, default_ent)
        if syment < default_ent:
            raise Malformed(f"DT_SYMENT {syment} smaller than symbol entry")
        return sym_off, syment

    def _read_symbols(self) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
        table = self._symbol_table()
        if table is None:
            return frozenset(), frozenset(), frozenset()
        sym_off, syment = table
        undefined: set[str] = set()
        exported: set[str] = set()
        weak_und: set[str] = set()
        count = self._symbol_count(sym_off, syment)
        for i in range(1, count):  # entry 0 is the reserved null symbol
            name_idx, info, shndx = _unpack(self.layout.sym, self.data, sym_off + i * syment)
            if name_idx == 0:
                continue
            try:
                name = self._string(self.strtab, name_idx)
            except Malformed:
                continue  # garbage entry; keep scanning
            name = name.split("@", 1)[0]  # version decoration is out of scope
            if not name:
                continue
            bind = info >> 4
            if shndx == SHN_UNDEF:
                if bind != STB_LOCAL:
                    undefined.add(name)
                    if bind == STB_WEAK:
                        weak_und.add(name)
            elif bind in (STB_GLOBAL, STB_WEAK):
                exported.add(name)
        # a name both defined and referenced in one file is satisfied locally
        undefined -= exported
        weak_und &= undefined
        return frozenset(undefined), frozenset(exported), frozenset(weak_und)


def parse_elf(data: bytes) -> ElfSummary:
    """Link facts of a file's full content; raises NotElf/Truncated/Malformed.

    The summary's symbol sets are read from `data` on first access.
    """
    return _Reader(data).summary()


def read_symbols(data: bytes) -> tuple[frozenset[str], frozenset[str], frozenset[str]]:
    """(undefined, exported, weak undefined) dynamic symbols of a file.

    Names lose their version decoration; a name a file both defines and
    references is satisfied locally and is not undefined. Raises what
    parse_elf raises for the headers, the dynamic segment and the symbol
    table's placement.
    """
    return _Reader(data)._read_symbols()


def classify_kind(summary: ElfSummary) -> FileKind:
    """Map parsed facts to a file kind."""
    if summary.object_type is ObjectType.EXECUTABLE:
        return FileKind.EXECUTABLE_BINARY
    if summary.object_type is ObjectType.SHARED_OBJECT:
        # position-independent executables are ET_DYN with a PT_INTERP
        if summary.has_interpreter:
            return FileKind.EXECUTABLE_BINARY
        return FileKind.SHARED_LIBRARY
    return FileKind.ELF_OTHER
