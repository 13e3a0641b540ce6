"""depex: binary-to-library dependency graph extraction and analysis for OS file trees."""

__version__ = "0.1.0"

from depex.elf import ElfSummary, FileKind, parse_elf, classify_kind, read_symbols

__all__ = [
    "__version__",
    "ElfSummary",
    "FileKind",
    "parse_elf",
    "classify_kind",
    "read_symbols",
]
