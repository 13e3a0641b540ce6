"""Seeded input generators, one per workload.

Every generator draws from its own `random.Random(seed)`, writes through a
`TreeWriter` and returns what it wrote; `Inputs.finish` then derives the
ground truth from that record, so the same seed gives byte-identical trees
and identical expected answers. Sonames
are unique within a tree, so every resolvable DT_NEEDED has exactly one
target; the loader model in `model.py` still decides whether that target
is on the dependent's search path.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field

from elfbuild import GLOBAL, WEAK, ElfSpec
from model import EXE, LIB, ExpectedScan, Graph, TreeWriter, expected_scan

INTERP = "/lib64/ld-linux-x86-64.so.2"
MULTIARCH = "/usr/lib/x86_64-linux-gnu"


def log_uniform(rng: random.Random, lo: float, hi: float) -> int:
    return int(round(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


@dataclass
class Inputs:
    """One workload's generated inputs and everything known about them."""

    tree: TreeWriter                 # the sysroot each scan reads
    label: str                       # snapshot label the scans use
    # later releases, stored after the tree's own snapshot in a prebuilt
    # database the read commands use; when empty they read a scan's database
    corpus: list[tuple[str, Graph]] = field(default_factory=list)
    props: dict = field(default_factory=dict)
    truth: ExpectedScan | None = None  # what a scan must store; set by finish()

    def finish(self) -> "Inputs":
        """Derive the tree's ground truth through the oracle, and its sizes."""
        self.truth = expected_scan(self.tree)
        g = self.truth.graph
        self.props.update(
            files=self.truth.files_seen, kinds=self.truth.kind_counts(),
            edges=len(self.truth.edges),
            unresolved=sum(1 for e in self.truth.edges if e[2] is None),
            depth=g.depth(), bytes_logical=self.tree.bytes_logical)
        return self

    def digest(self) -> str:
        """Fingerprint of the input, for comparing runs across commits."""
        h = hashlib.sha256()
        h.update(self.truth.node_digest().encode())
        h.update(self.truth.edge_digest().encode())
        for label, g in self.corpus:
            h.update(label.encode())
            h.update(repr((g.paths, g.kinds, g.sonames, g.out)).encode())
        return h.hexdigest()[:16]

    def snapshots(self) -> list[tuple[str, Graph]]:
        """The snapshots the read commands see, oldest first."""
        return [(self.label, self.truth.graph)] + self.corpus


def _symbols(rng: random.Random, stem: str, count: int) -> list[tuple[str, int]]:
    return [(f"{stem}_fn{j}", WEAK if rng.random() < 0.03 else GLOBAL)
            for j in range(count)]


def _imports(rng: random.Random, deps: list[tuple[str, int]],
             count: int) -> list[tuple[str, int]]:
    """`count` distinct symbols drawn from the exports of the resolvable deps."""
    count = min(count, sum(exports for _, exports in deps))
    picked: set[str] = set()
    draw = rng.random
    while len(picked) < count:
        stem, exports = deps[int(draw() * len(deps))]
        picked.add(f"{stem}_fn{int(draw() * exports)}")
    return [(name, WEAK if rng.random() < 0.05 else GLOBAL) for name in sorted(picked)]


def _ghosts(rng: random.Random, count: int, share: float) -> list[str]:
    """Unresolvable names, about `share` of the `count` real ones."""
    return [f"libghost{g}.so.{g % 3}" for g in
            sorted({rng.randrange(60) for _ in range(count) if rng.random() < share})]


def _loader_config(w: TreeWriter) -> None:
    w.write("/etc/ld.so.conf", b"include /etc/ld.so.conf.d/*.conf\n")
    w.write("/etc/ld.so.conf.d/x86_64-linux-gnu.conf",
            b"# multiarch support\n" + MULTIARCH.encode() + b"\n")
    w.write("/etc/ld.so.conf.d/zz-local.conf",
            b"include /etc/ld.so.conf.local/*.conf\n")
    w.write("/etc/ld.so.conf.local/vendor.conf", b"/usr/local/lib\n/opt/vendor/lib\n")
    w.symlink("/bin", "usr/bin")
    w.symlink("/sbin", "usr/sbin")
    w.elf(INTERP, ElfSpec(soname="ld-linux-x86-64.so.2",
                          defined=[("_dl_start", GLOBAL)]))


def _quantiles(values: list[int]) -> dict:
    s = sorted(values)
    return {"min": s[0], "p50": s[len(s) // 2], "p90": s[len(s) * 9 // 10], "max": s[-1]}


def _draw(rng: random.Random, histogram: tuple[int, ...]) -> int:
    """A count drawn with the frequencies of a measured histogram of 0, 1, 2, ..."""
    return rng.choices(range(len(histogram)), weights=histogram)[0]


# The shape below was measured with `perfbench/calibrate.py` on a Debian 12
# (bookworm) root: 555 executables in /usr/bin and /usr/sbin, 405 libraries
# in /usr/lib/x86_64-linux-gnu. Sizes, the symbol ranges, the ~5% of
# unresolvable needs and the directory set are the benchmark's own choices.

# DT_NEEDED entries per executable and per library, counts of 0, 1, 2, ...
EXE_NEEDED = (1, 212, 148, 83, 39, 46, 14, 3, 4, 3, 0, 0, 2)
LIB_NEEDED = (8, 104, 93, 64, 39, 30, 20, 15, 5, 3, 7, 5, 1, 2, 3, 2, 1, 0, 1, 1, 1)
# imported symbols: measured p10/p50/p90 of 31/71/181 per executable and
# 8/48/241 per library; log-uniform 25-200 and 6-400 give 31/71/163 and 9/49/263
EXE_IMPORTS = (25, 200)
LIB_IMPORTS = (6, 400)
# exported symbols per library: log-uniform 10-1000 (p50 100, p90 630);
# measured 73 and 671
LIB_EXPORTS = (10, 1000)
# needs concentrate on a few libraries: libc takes 34% of all needs on the
# measured root and the top 10% of needed libraries 70%. Every library and
# dynamic executable needs library 0 (libc here), and its other needs pick
# library int(n * u ** PULL), u uniform in [0, 1). PULL = 5 gives 35% and
# 70% on a generated tree. The measured root leaves 27% of its libraries
# unneeded, mostly plugins loaded with dlopen; the generator does not model
# those and leaves 15% unneeded.
PULL = 5.0
DEV_LINK_SHARE = 0.23      # libraries with a bare `lib*.so` link (measured 0.232)
NON_PIE_SHARE = 0.023      # executables of type ET_EXEC (measured 0.023)
# /usr/bin holds 440 executables and 193 non-ELF files (scripts), /usr/sbin
# 114 executables; 3.9% of the ELF files carry an RPATH or RUNPATH. So 96%
# of the executables go to /usr/bin and /usr/sbin at 440:114, and 4% to
# /opt applications with private $ORIGIN libraries
BIN_DIRS = (("/usr/bin", 440 * 96), ("/usr/sbin", 114 * 96), ("opt", 555 * 4))
SCRIPTS_PER_BIN = 193 / 440
# all 405 measured libraries sit in the multiarch directory; the other
# directories get a few percent, so that every search stage is used
LIB_DIRS = ((MULTIARCH, 90), ("/usr/lib", 4), ("/lib", 2),
            ("/usr/local/lib", 2), ("/opt/vendor/lib", 2))


def _needs(rng: random.Random, histogram: tuple[int, ...], below: int) -> list[int]:
    """Indices of the libraries a file needs, among libraries 0 .. below-1."""
    count = min(_draw(rng, histogram), below)
    if count == 0:
        return []
    picks = {0}
    while len(picks) < count:
        picks.add(int(below * rng.random() ** PULL))
    return sorted(picks)


def distro(root: str, seed: int, libraries: int = 1700,
           executables: int = 4000) -> Inputs:
    """A Debian-like root: multiarch, ld.so.conf chain, private $ORIGIN libs.

    The sizes keep a run, with its three set-ups and at least three serial
    and three parallel scans, under a minute on a 2-vCPU machine.
    """
    rng = random.Random(seed)
    w = TreeWriter(root)
    _loader_config(w)
    lib_dirs = [d for d, _ in LIB_DIRS]
    lib_weights = [weight for _, weight in LIB_DIRS]
    libs: list[tuple[str, int]] = []   # (symbol stem, export count), by index
    sonames: list[str] = []
    export_counts = []
    for i in range(libraries):
        stem = f"l{i}"
        major = rng.randint(0, 9)
        soname = f"lib{stem}.so.{major}"
        real = f"{soname}.{rng.randint(0, 30)}.{rng.randint(0, 9)}"
        deps = _needs(rng, LIB_NEEDED, i)  # a DAG: only earlier libraries
        # library 0 stands for libc, which exports about 2,400 symbols
        exports = log_uniform(rng, *LIB_EXPORTS) if i else LIB_EXPORTS[1]
        export_counts.append(exports)
        d = rng.choices(lib_dirs, weights=lib_weights)[0]
        w.elf(f"{d}/{real}", ElfSpec(
            soname=soname,
            needed=[sonames[j] for j in deps] + _ghosts(rng, len(deps), 0.05),
            defined=_symbols(rng, stem, exports),
            undefined=_imports(rng, [libs[j] for j in deps],
                               log_uniform(rng, *LIB_IMPORTS))))
        w.symlink(f"{d}/{soname}", real)
        if rng.random() < DEV_LINK_SHARE:
            w.symlink(f"{d}/lib{stem}.so", real)
        libs.append((stem, exports))
        sonames.append(soname)

    apps = [f"app{a}" for a in range(max(1, executables // 120))]
    private: dict[str, list[tuple[str, str, int]]] = {}  # app -> (soname, stem, exports)
    for app in apps:
        private[app] = []
        for k in range(rng.randint(1, 4)):
            stem = f"{app}_{k}"
            soname = f"lib{stem}.so.1"
            exports = log_uniform(rng, *LIB_EXPORTS)
            export_counts.append(exports)
            sys_deps = _needs(rng, LIB_NEEDED, libraries) or [0]
            prev = private[app][-1:]
            w.elf(f"/opt/{app}/lib/{soname}", ElfSpec(
                soname=soname,
                needed=[sonames[j] for j in sys_deps] + [p[0] for p in prev],
                runpath="$ORIGIN" if prev else None,
                defined=_symbols(rng, stem, exports),
                undefined=_imports(rng, [libs[j] for j in sys_deps],
                                   log_uniform(rng, *LIB_IMPORTS))))
            private[app].append((soname, stem, exports))

    bin_dirs = [d for d, _ in BIN_DIRS]
    bin_weights = [weight for _, weight in BIN_DIRS]
    in_usr_bin = 0
    for i in range(executables):
        where = rng.choices(bin_dirs, weights=bin_weights)[0]
        picks = _needs(rng, EXE_NEEDED, libraries)
        deps = [libs[j] for j in picks]
        needed = [sonames[j] for j in picks]
        spec = ElfSpec(e_type=2 if rng.random() < NON_PIE_SHARE else 3,
                       interpreter=INTERP)
        if where == "opt":
            app = rng.choice(apps)
            own = rng.sample(private[app], rng.randint(1, len(private[app])))
            needed += [p[0] for p in own]
            deps += [(p[1], p[2]) for p in own]
            if rng.random() < 0.8:
                spec.runpath = "$ORIGIN/../lib"
            else:
                spec.rpath = "$ORIGIN/../lib"
            where = f"/opt/{app}/bin"
        in_usr_bin += where == "/usr/bin"
        spec.needed = needed + _ghosts(rng, len(needed), 0.05)
        spec.undefined = _imports(rng, deps, log_uniform(rng, *EXE_IMPORTS))
        w.elf(f"{where}/e{i}", spec)

    # shell wrappers the ELF matcher rejects
    for i in range(int(in_usr_bin * SCRIPTS_PER_BIN)):
        w.write(f"/usr/bin/s{i}.sh", f"#!/bin/sh\nexec /usr/bin/e{i} \"$@\"\n".encode())
    for i in range(executables // 50):
        w.write(f"/usr/share/doc/pkg{i}/copyright", b"Format: 1.0\nLicense: MIT\n" * 8)
    w.write(f"{MULTIARCH}/libc.so", b"/* GNU ld script */\nGROUP ( libl0.so.0 )\n")
    for i in range(max(1, executables // 140)):  # relocatable objects: elf-other
        w.elf(f"/lib/modules/6.1.0/kernel/drivers/m{i}.ko",
              ElfSpec(e_type=1, with_dynamic=False))
    return Inputs(w, "distro", props={"exports_per_library": _quantiles(export_counts)})


def layered(rng: random.Random, nodes: int, layers: int):
    """A random layered dependency DAG: (paths, kinds, sonames, needs).

    Libraries fill `layers` layers and each needs 1-3 libraries near its
    own position one layer down, so chains are `layers` deep and closures
    widen with depth; executables need 2-11 libraries from any layer, so
    the deepest closures reach thousands of nodes.
    """
    n_lib = int(nodes * 0.4)
    per_layer = max(1, n_lib // layers)
    lib_dirs = [MULTIARCH, MULTIARCH, "/usr/lib", "/lib"]
    paths, kinds, sonames, needs = [], [], [], []
    for i in range(n_lib):
        layer = min(i // per_layer, layers - 1)
        soname = f"libn{i}.so.1"
        paths.append(f"{lib_dirs[i % len(lib_dirs)]}/{soname}")
        kinds.append(LIB)
        sonames.append(soname)
        below = range((layer - 1) * per_layer, layer * per_layer)
        needs.append(sorted({
            min(max(below.start, i - per_layer + rng.randint(-8, 8)), below.stop - 1)
            for _ in range(rng.randint(1, 3))} if layer else set()))
    for i in range(nodes - n_lib):
        paths.append(f"/usr/bin/x{i}")
        kinds.append(EXE)
        sonames.append(None)
        needs.append(sorted({rng.randrange(n_lib) for _ in range(rng.randint(2, 11))}))
    return paths, kinds, sonames, needs


def _layered_graph(rng: random.Random, n: int, depth: int) -> Graph:
    paths, kinds, sonames, needs = layered(rng, n, depth)
    nodes = {p: (k, s) for p, k, s in zip(paths, kinds, sonames)}
    edges = []
    for i in sorted(range(n), key=paths.__getitem__):
        for j in needs[i]:
            edges.append((paths[i], sonames[j], paths[j], "default-dir"))
        for ghost in _ghosts(rng, len(needs[i]), 0.03):
            edges.append((paths[i], ghost, None, None))
    return Graph.from_paths(nodes, edges)


def corpus(root: str, seed: int,
           sizes: tuple[int, ...] = (2000, 3600, 5200, 6800, 8400, 10000),
           depths: tuple[int, ...] = (6, 8, 10, 12, 14, 16)) -> Inputs:
    """A database of releases r1..rN of a growing, deepening system.

    The read commands run on the database, which set-up fills through
    depex's own writer. r1 is also written out as an ELF tree, the
    release the workload's scans read, so scans stay cheap here and the
    time goes to the read side.
    """
    rng = random.Random(seed)
    w = TreeWriter(root)
    w.symlink("/bin", "usr/bin")
    graph = _layered_graph(rng, sizes[0], depths[0])
    for i, path in enumerate(graph.paths):
        needed = [name for name, _, _ in graph.out[i]]
        if graph.kinds[i] == LIB:
            spec = ElfSpec(soname=graph.sonames[i], needed=needed,
                           defined=_symbols(rng, f"n{i}", rng.randint(3, 12)))
        else:
            spec = ElfSpec(e_type=3, interpreter=INTERP, needed=needed)
        w.elf(path, spec)
    return Inputs(w, "r1", props={
        "releases": len(sizes), "sizes": list(sizes), "layers": list(depths)}, corpus=[
        (f"r{k}", _layered_graph(rng, n, depth))
        for k, (n, depth) in enumerate(zip(sizes[1:], depths[1:]), start=2)])


GENERATORS = {"scan-distro": distro, "corpus-read": corpus}
