"""depex: binary-to-library dependency graph extraction and analysis for OS file trees."""

__version__ = "0.1.0"
