from __future__ import annotations

import gc
import os
import sqlite3
from pathlib import Path

import pytest

from elfbuild import ElfSpec, build_elf


class SysrootBuilder:
    """Grows a synthetic OS tree under a tmp directory."""

    def __init__(self, root: str):
        self.root = str(root)
        os.makedirs(self.root, exist_ok=True)

    def write(self, rel: str, data: bytes) -> str:
        path = self.root + rel
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as f:
            f.write(data)
        return path

    def elf(self, rel: str, spec: ElfSpec) -> str:
        return self.write(rel, build_elf(spec))

    def symlink(self, rel: str, target: str) -> str:
        path = self.root + rel
        os.makedirs(os.path.dirname(path), exist_ok=True)
        os.symlink(target, path)
        return path

    def mkdir(self, rel: str) -> str:
        path = self.root + rel
        os.makedirs(path, exist_ok=True)
        return path


@pytest.fixture
def sysroot(tmp_path) -> SysrootBuilder:
    return SysrootBuilder(str(tmp_path / "sysroot"))


def make_demo_sysroot(builder: SysrootBuilder) -> SysrootBuilder:
    """The 12-file reference tree: 3 executables, 7 libraries, one
    unresolvable reference, one symlinked directory (/bin -> /usr/bin)."""
    b = builder
    b.elf("/usr/lib/libc.so.6", ElfSpec(
        soname="libc.so.6", defined=[("malloc", 1), ("free", 1), ("printf", 1)]))
    b.elf("/usr/lib/libm.so.6", ElfSpec(
        soname="libm.so.6", needed=["libc.so.6"], defined=[("sin", 1), ("cos", 1)]))
    b.elf("/usr/lib/libz.so.1.2.13", ElfSpec(
        soname="libz.so.1", needed=["libc.so.6"], defined=[("inflate", 1)]))
    b.symlink("/usr/lib/libz.so.1", "libz.so.1.2.13")
    b.elf("/usr/lib/libspare.so", ElfSpec(soname="libspare.so", defined=[("spare", 1)]))
    b.elf("/usr/lib/gtk/libgtk.so.0", ElfSpec(
        soname="libgtk.so.0", needed=["libc.so.6"], defined=[("gtk_init", 1)]))
    b.elf("/opt/app/lib/libapp.so.1", ElfSpec(
        soname="libapp.so.1", needed=["libc.so.6"], defined=[("app_init", 1)]))
    b.elf("/usr/lib/libplugin.so", ElfSpec(
        soname="libplugin.so", needed=["libgtk.so.0"], defined=[("plug", 1)],
        rpath="/usr/lib/gtk"))
    b.elf("/usr/bin/tool", ElfSpec(
        e_type=2, interpreter="/lib/ld.so", needed=["libm.so.6", "libz.so.1"],
        undefined=[("sin", 1), ("inflate", 1)]))
    b.elf("/usr/bin/broken", ElfSpec(
        interpreter="/lib/ld.so", needed=["libghost.so.9", "libc.so.6"],
        undefined=[("ghost_fn", 1), ("malloc", 1)]))
    b.elf("/opt/app/bin/app", ElfSpec(
        interpreter="/lib/ld.so", needed=["libapp.so.1"], runpath="$ORIGIN/../lib",
        undefined=[("app_init", 1)]))
    b.write("/etc/ld.so.conf", b"include /etc/ld.so.conf.d/*.conf\n")
    b.write("/etc/ld.so.conf.d/base.conf", b"# system paths\n/usr/lib\n")
    b.symlink("/bin", "usr/bin")
    return b


@pytest.fixture
def demo_sysroot(sysroot) -> SysrootBuilder:
    return make_demo_sysroot(sysroot)


@pytest.fixture(params=[True, False], ids=["collector on", "collector off"])
def collector(request) -> bool:
    """Whether the cyclic garbage collector is on, as the test starts with
    it; the caller's own state comes back afterwards."""
    was_on = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was_on else gc.disable)()


def database_from_dump(tmp_path, name: str) -> str:
    """A database file made from tests/data/NAME.sql."""
    db = str(tmp_path / f"{name}.db")
    con = sqlite3.connect(db)
    try:
        con.executescript((Path(__file__).parent / "data" / f"{name}.sql").read_text())
    finally:
        con.close()
    return db


@pytest.fixture
def v0_db(tmp_path) -> str:
    """A version 0 database (see tests/data/v0.sql): snapshots 'demo', '1'
    and '2', of which 'demo' is the latest."""
    return database_from_dump(tmp_path, "v0")


@pytest.fixture
def v1_db(tmp_path) -> str:
    """A version 1 database (see tests/data/v1.sql): snapshots 'demo' and
    '1', of which 'demo' is the latest."""
    return database_from_dump(tmp_path, "v1")


@pytest.fixture
def v2_db(tmp_path) -> str:
    """A version 2 database (see tests/data/v2.sql): snapshots 'demo' and
    '1', of which 'demo' is the latest."""
    return database_from_dump(tmp_path, "v2")


@pytest.fixture
def v3_db(tmp_path) -> str:
    """A version 3 database (see tests/data/v3.sql): snapshots 'demo' and
    '1', of which 'demo' is the latest."""
    return database_from_dump(tmp_path, "v3")
