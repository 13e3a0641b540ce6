from __future__ import annotations

import builtins
import errno
import itertools
import os
import random
import time
from collections import Counter

import pytest

from depex.elf import parse_elf
from depex.resolver import Origin, Resolver, SearchConfig
from elfbuild import ElfSpec, build_elf
from oracles import _reference_conf


def config_for(sysroot, **kw) -> SearchConfig:
    return SearchConfig(sysroot=sysroot.root, **kw)


def summary_with(sysroot, rpath=None, runpath=None):
    return parse_elf(build_elf(ElfSpec(rpath=rpath, runpath=runpath)))


# --- Resolver.ldso_dirs and multiarch_dirs ----------------------------------

def test_ldso_conf_include_chain(sysroot):
    sysroot.write("/etc/ld.so.conf", b"include /etc/ld.so.conf.d/*.conf\n")
    sysroot.write("/etc/ld.so.conf.d/x86.conf", b"/usr/lib/x86_64-linux-gnu\n")
    assert Resolver(config_for(sysroot)).ldso_dirs() == ["/usr/lib/x86_64-linux-gnu"]


def test_ldso_conf_absent(sysroot):
    assert Resolver(config_for(sysroot)).ldso_dirs() == []


def test_ldso_conf_comments_only(sysroot):
    sysroot.write("/etc/ld.so.conf", b"# nothing here\n\n   # still nothing\n")
    assert Resolver(config_for(sysroot)).ldso_dirs() == []


def test_ldso_conf_order_preserved(sysroot):
    sysroot.write("/etc/ld.so.conf",
                  b"/first\ninclude /etc/extra.conf\n/last\n")
    sysroot.write("/etc/extra.conf", b"/middle\n")
    assert Resolver(config_for(sysroot)).ldso_dirs() == ["/first", "/middle", "/last"]


def test_ldso_conf_relative_include(sysroot):
    sysroot.write("/etc/ld.so.conf", b"include sub/*.conf\n")
    sysroot.write("/etc/sub/a.conf", b"/from-sub\n")
    assert Resolver(config_for(sysroot)).ldso_dirs() == ["/from-sub"]


def test_ldso_conf_cyclic_include_terminates(sysroot, caplog):
    sysroot.write("/etc/ld.so.conf", b"/one\ninclude /etc/other.conf\n")
    sysroot.write("/etc/other.conf", b"/two\ninclude /etc/ld.so.conf\n")
    with caplog.at_level("WARNING"):
        dirs = Resolver(config_for(sysroot)).ldso_dirs()
    assert dirs == ["/one", "/two"]
    assert any("cyclic" in r.message for r in caplog.records)


def test_ldso_conf_diamond_include_is_not_a_cycle(sysroot, caplog):
    sysroot.write("/etc/ld.so.conf",
                  b"include /etc/a.conf\ninclude /etc/b.conf\n")
    sysroot.write("/etc/a.conf", b"include /etc/shared.conf\n")
    sysroot.write("/etc/b.conf", b"include /etc/shared.conf\n")
    sysroot.write("/etc/shared.conf", b"/common\n")
    with caplog.at_level("WARNING"):
        dirs = Resolver(config_for(sysroot)).ldso_dirs()
    assert dirs == ["/common"]  # read once: a second read could find nothing new
    assert not any("cyclic" in r.message for r in caplog.records)


def test_ldso_conf_mutual_includes_read_each_file_once(sysroot, monkeypatch, caplog):
    # seven files that each include all seven: re-reading a file at every
    # include that reaches it would grow the list factorially
    sysroot.write("/etc/ld.so.conf", b"include /etc/ld.so.conf.d/*.conf\n")
    for i in range(7):
        sysroot.write(f"/etc/ld.so.conf.d/{i}.conf",
                      f"/d{i}\ninclude /etc/ld.so.conf.d/*.conf\n".encode())
    reads, real_open = Counter(), builtins.open

    def counting_open(file, *args, **kwargs):
        reads[file] += 1
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    started = time.perf_counter()
    with caplog.at_level("WARNING"):
        dirs = Resolver(config_for(sysroot)).ldso_dirs()
    assert time.perf_counter() - started < 1.0
    assert dirs == [f"/d{i}" for i in range(7)]
    assert len(reads) == 8 and set(reads.values()) == {1}
    assert any("cyclic" in r.message for r in caplog.records)


@pytest.mark.parametrize("seed", range(40))
def test_ldso_conf_random_includes_keep_first_occurrences(sysroot, seed):
    # each file read once gives the directories of reading a file at every
    # include that reaches it (cycles cut), each at its first occurrence
    rng = random.Random(seed)
    files = ["/etc/ld.so.conf"] + [f"/etc/ld.so.conf.d/{c}.conf" for c in "abcd"]
    for path in files[:rng.randint(2, len(files))]:
        sysroot.write(path, "".join(rng.choice([
            f"/d{rng.randint(0, 5)}\n", f"include {rng.choice(files)}\n",
            "include /etc/ld.so.conf.d/*.conf\n", f"include {rng.choice('abcdl')}.conf\n",
            "include ld.so.conf.d/[a-c].conf\n",
            f"include {rng.choice(files)}\t {rng.choice('abcdl')}.conf\n"])
            for _ in range(rng.randint(1, 5))).encode())
    if rng.random() < 0.5:  # a second spelling of one file
        sysroot.symlink("/etc/ld.so.conf.d/l.conf", "a.conf")
    expected = list(dict.fromkeys(_reference_conf(sysroot.root, "/etc/ld.so.conf", [])))
    assert Resolver(config_for(sysroot)).ldso_dirs() == expected


def test_ldso_conf_looping_include_skipped(sysroot, caplog):
    sysroot.write("/etc/ld.so.conf",
                  b"/first\ninclude /etc/ld.so.conf.d/*.conf\n/last\n")
    sysroot.symlink("/etc/ld.so.conf.d/a.conf", "a.conf")
    sysroot.write("/etc/ld.so.conf.d/b.conf", b"/from-b\n")
    with caplog.at_level("WARNING"):
        dirs = Resolver(config_for(sysroot)).ldso_dirs()
    assert dirs == ["/first", "/from-b", "/last"]
    assert any("symlink loop" in r.message for r in caplog.records)


def test_ldso_conf_include_of_no_regular_file_is_skipped(sysroot, monkeypatch):
    # opening a FIFO would block the scan for good; a directory is no file
    sysroot.write("/etc/ld.so.conf", b"include /etc/ld.so.conf.d/*\n")
    sysroot.write("/etc/ld.so.conf.d/b.conf", b"/from-b\n")
    pipe = sysroot.root + "/etc/ld.so.conf.d/a-pipe"
    os.mkfifo(pipe)
    sysroot.mkdir("/etc/ld.so.conf.d/c-dir")
    real_open = builtins.open

    def open_(file, *args, **kwargs):
        assert file != pipe, "a FIFO opened"
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", open_)
    assert Resolver(config_for(sysroot)).ldso_dirs() == ["/from-b"]


def test_nul_byte_in_ldso_conf_is_no_crash(sysroot):
    sysroot.write("/etc/ld.so.conf",
                  b"/usr/\0lib\ninclude /etc/a\0.conf\ninclude /etc/\0d/*.conf\n")
    sysroot.write("/usr/lib/libm.so.6", elf_bytes())
    cfg = config_for(sysroot, default_dirs=[])
    assert Resolver(cfg).ldso_dirs() == ["/usr/\0lib"]
    assert not Resolver(cfg).resolve("libm.so.6", summary_with(sysroot), "/bin/x").resolved
    assert not Resolver(cfg).resolve("", summary_with(sysroot), "/bin/x").resolved


def test_ldso_conf_include_stays_inside_sysroot(sysroot, tmp_path):
    # an absolute link names a host directory; inside the sysroot it is
    # re-rooted, so only the sysroot's copy of that path is globbed
    outside = str(tmp_path / "outside")
    os.makedirs(outside)
    with open(outside + "/host.conf", "w") as f:
        f.write("/from-host\n")
    sysroot.write(outside + "/inside.conf", b"/from-sysroot\n")
    sysroot.write("/etc/ld.so.conf", b"include /etc/ld.so.conf.d/*.conf\n")
    sysroot.symlink("/etc/ld.so.conf.d", outside)
    assert Resolver(config_for(sysroot)).ldso_dirs() == ["/from-sysroot"]


def test_multiarch_listing_stays_inside_sysroot(sysroot, tmp_path):
    outside = str(tmp_path / "outside")
    os.makedirs(outside + "/host-gnu")
    open(outside + "/host-gnu/libhost.so.1", "w").close()
    sysroot.write(outside + "/inside-gnu/libinside.so.1", b"x")
    sysroot.write("/usr/lib/x86_64-linux-gnu/libc.so.6", b"x")
    sysroot.symlink("/lib", outside)
    assert Resolver(config_for(sysroot)).multiarch_dirs() == \
        ["/lib/inside-gnu", "/usr/lib/x86_64-linux-gnu"]


# --- Resolver.canonical -----------------------------------------------------

def test_absolute_symlink_rerooted(sysroot):
    sysroot.write("/usr/bin/ls", b"x")
    sysroot.symlink("/bin", "/usr/bin")  # absolute target
    assert Resolver(config_for(sysroot)).canonical("/bin/ls")[0] == "/usr/bin/ls"


def test_identity_when_no_links(sysroot):
    sysroot.write("/usr/lib/libz.so.1", b"x")
    cfg = config_for(sysroot)
    assert Resolver(cfg).canonical("/usr/lib/libz.so.1")[0] == "/usr/lib/libz.so.1"


def test_two_cycle_is_a_loop(sysroot):
    sysroot.symlink("/a", "/b")
    sysroot.symlink("/b", "/a")
    assert Resolver(config_for(sysroot)).canonical("/a") is None


def test_relative_symlink(sysroot):
    sysroot.write("/usr/lib/libz.so.1.2.13", b"x")
    sysroot.symlink("/usr/lib/libz.so.1", "libz.so.1.2.13")
    cfg = config_for(sysroot)
    assert Resolver(cfg).canonical("/usr/lib/libz.so.1")[0] == "/usr/lib/libz.so.1.2.13"


def test_dotdot_clamped_at_sysroot(sysroot):
    sysroot.write("/etc/passwd", b"inside")
    cfg = config_for(sysroot)
    assert Resolver(cfg).canonical("/../../../etc/passwd")[0] == "/etc/passwd"


def test_adversarial_absolute_link_cannot_escape(sysroot):
    sysroot.symlink("/escape", "/../../etc")
    cfg = config_for(sysroot)
    got = Resolver(cfg).canonical("/escape/passwd")[0]
    assert got == "/etc/passwd"  # the sysroot's /etc, not the host's


def test_nonexistent_path_passes_through(sysroot):
    cfg = config_for(sysroot)
    assert Resolver(cfg).canonical("/no/such/dir/lib.so")[0] == "/no/such/dir/lib.so"


def test_dotdot_after_missing_component_is_no_such_path(sysroot):
    sysroot.write("/opt/lib/libx.so", b"x")
    cfg = config_for(sysroot)
    for spelling in ("/nope/../opt/lib", "/opt/lib/libx.so/../libx.so",
                     "/opt/nope/deeper/../../lib", "/opt/nope/../lib/libx.so"):
        assert Resolver(cfg).canonical(spelling)[0] is None, spelling
    # nothing exists below a missing component, so names after it pass through
    assert Resolver(cfg).canonical("/opt/nope/deeper")[0] == "/opt/nope/deeper"
    assert Resolver(cfg).canonical("/opt/lib/../lib/libx.so")[0] == "/opt/lib/libx.so"


# a relative-only tree: links to a directory, to a file, to nothing, through
# a missing component, through a file, and to themselves
DOTDOT_TREE = {"/opt/dlink": "lib", "/opt/flink": "lib/libx.so", "/opt/dangle": "nope",
               "/opt/via-nope": "nope/../lib", "/opt/via-file": "lib/libx.so/../lib",
               "/opt/loop": "loop"}


def kernel_spellings(names, longest):
    """Every spelling of up to `longest` components that never climbs above
    the root, so that the host's own lookup can judge it."""
    for length in range(1, longest + 1):
        for parts in itertools.product(names, repeat=length):
            depth = 0
            for part in parts:
                depth += {"..": -1, ".": 0}.get(part, 1)
                if depth < 0:
                    break
            else:
                yield "/" + "/".join(parts)


def test_lookups_past_missing_components_and_files_match_the_kernel(sysroot):
    # no link climbs, so the host's stat of the spelling is the oracle
    sysroot.write("/opt/lib/libx.so", b"x")
    for path, target in DOTDOT_TREE.items():
        sysroot.symlink(path, target)
    shared = Resolver(config_for(sysroot))
    names = ["opt", "lib", "libx.so", "nope", ".", ".."] + [
        p.rsplit("/", 1)[1] for p in DOTDOT_TREE]
    outcomes = set()
    spellings = kernel_spellings(names, 4)  # each also with a trailing "/"
    for i, spelling in enumerate(s + end for s in spellings for end in ("", "/")):
        try:
            kernel = os.stat(sysroot.root + spelling)
        except OSError as exc:
            kernel = exc.errno
        # one memo across all spellings, as in a scan, and a fresh one now and then
        for resolver in (shared, Resolver(config_for(sysroot))) if i % 17 == 0 else (shared,):
            canonical, st = resolver.canonical_file_stat(spelling)
            if isinstance(kernel, int):
                outcomes.add(kernel)
                assert st is None, spelling
                assert (canonical is None) == (kernel == errno.ELOOP), spelling
            else:
                outcomes.add("found")
                assert (st.st_dev, st.st_ino) == (kernel.st_dev, kernel.st_ino), spelling
    assert outcomes == {"found", errno.ENOENT, errno.ENOTDIR, errno.ELOOP}


def test_dot_and_trailing_slash_after_a_file_are_no_such_path(sysroot):
    # the kernel fails lib/file/. and lib/file/ with ENOTDIR, where the
    # loader finds nothing; after a directory either is a no-op
    sysroot.write("/lib/file", b"x")
    sysroot.write("/lib/libx.so", elf_bytes())
    sysroot.write("/bin/app", elf_bytes())
    resolver = Resolver(config_for(sysroot))
    for spelling in ("/lib/file/.", "/lib/file/", "/lib/file/./libx.so", "/lib/nope/.",
                     "/lib/nope/", "/lib/libx.so/."):
        assert resolver.canonical(spelling)[0] is None, spelling
    assert resolver.canonical("/lib/./libx.so") == resolver.canonical("/lib/libx.so")
    assert resolver.canonical("/lib/.")[0] == resolver.canonical("/lib/")[0] == "/lib"
    cfg = config_for(sysroot, default_dirs=["/lib/file"])
    assert not Resolver(cfg).resolve(".", summary_with(sysroot), "/bin/app").resolved
    assert not Resolver(cfg).resolve("libx.so/", summary_with(sysroot), "/lib/app").resolved
    r = Resolver(config_for(sysroot, default_dirs=["/lib/."])).resolve(
        "libx.so", summary_with(sysroot), "/bin/app")
    assert (r.path, r.origin) == ("/lib/libx.so", Origin.DEFAULT_DIR)


def test_no_such_path_is_memoised_and_not_a_loop(sysroot, monkeypatch):
    sysroot.write("/opt/lib/libx.so", elf_bytes())
    sysroot.symlink("/opt/flink", "lib/libx.so")
    resolver = Resolver(config_for(sysroot))
    for spelling in ("/nope/../opt/lib", "/opt/lib/libx.so/../lib", "/opt/flink/.."):
        canonical, links, is_dir = resolver.canonical(spelling)
        assert canonical is None and not is_dir
        assert resolver.canonical_file_stat(spelling + "/libx.so") == (
            spelling + "/libx.so", None)

    def no_syscall(*args):
        raise AssertionError("lookup not memoised")

    monkeypatch.setattr(os, "lstat", no_syscall)
    monkeypatch.setattr(os, "readlink", no_syscall)
    assert resolver.canonical("/nope/../opt/lib")[0] is None
    assert resolver.canonical("/opt/flink/../lib/libx.so")[0] is None


def test_runpath_through_missing_component_finds_nothing(sysroot):
    # the kernel fails /nope/../opt/lib/libx.so with ENOENT, so the loader
    # does not find the library in that RUNPATH element
    sysroot.write("/opt/lib/libx.so", elf_bytes())
    sysroot.write("/bin/app", elf_bytes())
    cfg = config_for(sysroot, default_dirs=[])
    for runpath in ("/nope/../opt/lib", "/opt/lib/libx.so/../../lib", "/bin/app/../../opt/lib"):
        r = Resolver(cfg).resolve("libx.so", summary_with(sysroot, runpath=runpath), "/bin/app")
        assert not r.resolved, runpath
    r = Resolver(cfg).resolve("libx.so", summary_with(sysroot, runpath="/bin/../opt/lib"),
                              "/bin/app")
    assert (r.path, r.origin) == ("/opt/lib/libx.so", Origin.RUNPATH)
    # a dependent in a directory that does not exist has no $ORIGIN/.. either
    r = Resolver(cfg).resolve("libx.so", summary_with(sysroot, runpath="$ORIGIN/../opt/lib"),
                              "/gone/app")
    assert not r.resolved


def test_relative_search_elements_are_dropped(sysroot):
    # ld.so reads a relative element against the process's working
    # directory, which a scan cannot know: it is never searched, not even
    # from the sysroot's root
    sysroot.write("/lib/libx.so", elf_bytes())
    sysroot.write("/opt/app/a", elf_bytes())
    cfg = config_for(sysroot, default_dirs=[])
    for s in (summary_with(sysroot, runpath="lib"), summary_with(sysroot, rpath="lib")):
        assert not Resolver(cfg).resolve("libx.so", s, "/opt/app/a").resolved
    r = Resolver(cfg).resolve("libx.so", summary_with(sysroot, runpath="lib:/lib"),
                              "/opt/app/a")
    assert (r.path, r.origin) == ("/lib/libx.so", Origin.RUNPATH)
    # $ORIGIN makes an element absolute, so $ORIGIN/../lib is still searched
    sysroot.write("/opt/lib/libx.so", elf_bytes())
    r = Resolver(cfg).resolve("libx.so", summary_with(sysroot, runpath="$ORIGIN/../lib"),
                              "/opt/app/a")
    assert (r.path, r.origin) == ("/opt/lib/libx.so", Origin.RUNPATH)
    sysroot.write("/etc/ld.so.conf", b"lib\n/opt/lib\n")
    resolver = Resolver(cfg)
    assert resolver.ldso_dirs() == ["/opt/lib"]
    r = resolver.resolve("libx.so", summary_with(sysroot), "/opt/app/a")
    assert (r.path, r.origin) == ("/opt/lib/libx.so", Origin.LDSO_CONF)


# --- Resolver.search_stages -------------------------------------------------

def stages_for(summary, dependent_dir, cfg, needed_name="libx.so"):
    return Resolver(cfg).search_stages(needed_name, summary, dependent_dir)


RPATH, ENV, RUNPATH, DEFAULT = (Origin.RPATH, Origin.ENV_PATH, Origin.RUNPATH,
                                Origin.DEFAULT_DIR)


def test_origin_token(sysroot):
    s = summary_with(sysroot, runpath="$ORIGIN/../lib")
    assert stages_for(s, "/opt/app/bin", config_for(sysroot, default_dirs=[])) == \
        [(RUNPATH, "/opt/app/bin/../lib")]


def test_origin_braced(sysroot):
    s = summary_with(sysroot, rpath="${ORIGIN}")
    assert stages_for(s, "/x", config_for(sysroot, default_dirs=[])) == [(RPATH, "/x")]


def test_origin_absent(sysroot):
    s = summary_with(sysroot, runpath="/usr/lib")
    assert stages_for(s, "/opt/app/bin", config_for(sysroot, default_dirs=[])) == \
        [(RUNPATH, "/usr/lib")]


def test_slash_name_is_one_direct_stage(sysroot):
    cfg = config_for(sysroot, env_library_path=["/env"])
    s = summary_with(sysroot, rpath="/rp")
    assert stages_for(s, "/opt/app", cfg, "plugins/mod.so") == [(Origin.DIRECT, "/opt/app")]


def test_whole_order_ends_in_the_tree_wide_tail(sysroot, monkeypatch):
    # the tail is read once, from the listings a walk kept: nothing is listed again
    sysroot.write("/etc/ld.so.conf", b"include /etc/ld.so.conf.d/*.conf\n")
    sysroot.write("/etc/ld.so.conf.d/a.conf", b"/conf\n")
    sysroot.write("/usr/lib/x86_64-linux-gnu/libc.so.6", b"x")
    resolver = Resolver(config_for(sysroot, env_library_path=["/env"], default_dirs=["/lib"]))
    for directory in ("/", "/etc", "/etc/ld.so.conf.d", "/usr", "/usr/lib",
                      "/usr/lib/x86_64-linux-gnu"):  # as a walk does
        resolver.scandir(directory)

    def no_listing(*args, **kwargs):
        raise AssertionError("a directory listed twice")

    monkeypatch.setattr(os, "scandir", no_listing)
    monkeypatch.setattr(os, "listdir", no_listing)
    tail = [(Origin.LDSO_CONF, "/conf"), (DEFAULT, "/lib"),
            (DEFAULT, "/usr/lib/x86_64-linux-gnu")]
    assert resolver.search_stages("libx.so", summary_with(sysroot, runpath="/r"), "/bin") == \
        [(ENV, "/env"), (RUNPATH, "/r"), *tail]
    assert resolver.search_stages("libx.so", summary_with(sysroot, rpath="/rp"), "/bin") == \
        [(RPATH, "/rp"), (ENV, "/env"), *tail]


def test_rpath_only_comes_first(sysroot):
    cfg = config_for(sysroot, default_dirs=["/lib"])
    s = summary_with(sysroot, rpath="/a:/b")
    assert stages_for(s, "/bin", cfg) == [(RPATH, "/a"), (RPATH, "/b"), (DEFAULT, "/lib")]


def test_runpath_disables_rpath(sysroot):
    cfg = config_for(sysroot, default_dirs=["/lib"])
    s = summary_with(sysroot, rpath="/a", runpath="/r")
    stages = stages_for(s, "/bin", cfg)
    assert stages == [(RUNPATH, "/r"), (DEFAULT, "/lib")]
    assert "/a" not in [d for _, d in stages]


def test_no_paths_defaults_only(sysroot):
    cfg = config_for(sysroot, default_dirs=["/lib", "/usr/lib"])
    s = summary_with(sysroot)
    assert stages_for(s, "/bin", cfg) == [(DEFAULT, "/lib"), (DEFAULT, "/usr/lib")]


def test_env_path_between_rpath_and_runpath(sysroot):
    cfg = config_for(sysroot, default_dirs=[], env_library_path=["/env"])
    s = summary_with(sysroot, runpath="/r")
    assert stages_for(s, "/bin", cfg) == [(ENV, "/env"), (RUNPATH, "/r")]
    s2 = summary_with(sysroot, rpath="/rp")
    assert stages_for(s2, "/bin", cfg) == [(RPATH, "/rp"), (ENV, "/env")]


def test_origin_expanded_and_empty_elements_dropped(sysroot):
    cfg = config_for(sysroot, default_dirs=[])
    s = summary_with(sysroot, runpath="$ORIGIN/../lib::/x")
    assert stages_for(s, "/opt/app/bin", cfg) == \
        [(RUNPATH, "/opt/app/bin/../lib"), (RUNPATH, "/x")]


def test_duplicates_kept(sysroot):
    cfg = config_for(sysroot, default_dirs=["/lib"])
    s = summary_with(sysroot, rpath="/lib:/lib")
    assert stages_for(s, "/bin", cfg) == [(RPATH, "/lib"), (RPATH, "/lib"), (DEFAULT, "/lib")]


def test_multiarch_discovered_after_defaults(sysroot):
    sysroot.write("/usr/lib/x86_64-linux-gnu/libc.so.6", b"x")
    sysroot.write("/usr/lib/nothing-here/readme.txt", b"x")
    cfg = config_for(sysroot, default_dirs=["/lib"])
    assert Resolver(cfg).multiarch_dirs() == ["/usr/lib/x86_64-linux-gnu"]
    s = summary_with(sysroot)
    assert stages_for(s, "/bin", cfg) == \
        [(DEFAULT, "/lib"), (DEFAULT, "/usr/lib/x86_64-linux-gnu")]


# --- Resolver.canonical_file_stat -------------------------------------------

def test_canonical_file_stat_follows_links_and_reports_absence(sysroot):
    sysroot.write("/usr/lib/libz.so.1.2.13", b"x")
    sysroot.symlink("/usr/lib/libz.so.1", "libz.so.1.2.13")
    sysroot.symlink("/lib", "usr/lib")
    sysroot.symlink("/usr/lib/libloop.so", "libloop.so")
    resolver = Resolver(config_for(sysroot))
    canonical, st = resolver.canonical_file_stat("/lib/libz.so.1")
    assert canonical == "/usr/lib/libz.so.1.2.13" and st.st_size == 1
    target = os.stat(sysroot.root + "/usr/lib/libz.so.1.2.13")
    assert (st.st_dev, st.st_ino) == (target.st_dev, target.st_ino)
    assert resolver.canonical_file_stat("/lib/libnone.so") == ("/usr/lib/libnone.so", None)
    assert resolver.canonical_file_stat("/lib/libloop.so") == (None, None)


# --- Resolver.resolve -------------------------------------------------------

def test_runpath_of_2000_components_is_missing(sysroot):
    # every component follows a link, so the lookup loops after 40; the
    # component loop must get there without deep recursion
    sysroot.write("/libdeep.so", elf_bytes())
    sysroot.symlink("/l", ".")
    s = summary_with(sysroot, runpath="/l" * 2000)
    cfg = config_for(sysroot, default_dirs=[])
    r = Resolver(cfg).resolve("libdeep.so", s, "/bin/x")
    assert not r.resolved
    assert Resolver(cfg).resolve("libdeep.so", summary_with(sysroot, runpath="/l" * 40),
                                 "/bin/x").path == "/libdeep.so"

def elf_bytes():
    return build_elf(ElfSpec(soname="libtarget.so"))


def test_default_dir_hit(sysroot):
    sysroot.write("/usr/lib/libm.so.6", elf_bytes())
    cfg = config_for(sysroot, default_dirs=["/lib", "/usr/lib"])
    s = summary_with(sysroot)
    r = Resolver(cfg).resolve("libm.so.6", s, "/usr/bin/tool")
    assert r.resolved and r.path == "/usr/lib/libm.so.6"
    assert r.origin is Origin.DEFAULT_DIR


def test_runpath_origin_hit(sysroot):
    sysroot.write("/opt/app/lib/liby.so", elf_bytes())
    sysroot.write("/opt/app/bin/x", elf_bytes())  # $ORIGIN/.. needs the directory
    cfg = config_for(sysroot)
    s = summary_with(sysroot, runpath="$ORIGIN/../lib")
    r = Resolver(cfg).resolve("liby.so", s, "/opt/app/bin/x")
    assert r.resolved and r.path == "/opt/app/lib/liby.so"
    assert r.origin is Origin.RUNPATH


def test_missing(sysroot):
    cfg = config_for(sysroot)
    r = Resolver(cfg).resolve("libghost.so.9", summary_with(sysroot), "/usr/bin/x")
    assert not r.resolved
    assert r.path is None and r.origin is None


def test_first_match_wins(sysroot):
    sysroot.write("/lib/libdup.so", elf_bytes())
    sysroot.write("/usr/lib/libdup.so", elf_bytes())
    cfg = config_for(sysroot, default_dirs=["/lib", "/usr/lib"])
    r = Resolver(cfg).resolve("libdup.so", summary_with(sysroot), "/bin/x")
    assert r.path == "/lib/libdup.so"
    cfg2 = config_for(sysroot, default_dirs=["/usr/lib", "/lib"])
    r2 = Resolver(cfg2).resolve("libdup.so", summary_with(sysroot), "/bin/x")
    assert r2.path == "/usr/lib/libdup.so"


def test_rpath_beats_every_later_stage(sysroot):
    sysroot.write("/rp/libdup.so", elf_bytes())
    sysroot.write("/usr/lib/libdup.so", elf_bytes())
    sysroot.write("/etc/ld.so.conf", b"/usr/lib\n")
    cfg = config_for(sysroot, default_dirs=["/usr/lib"])
    s = summary_with(sysroot, rpath="/rp")
    r = Resolver(cfg).resolve("libdup.so", s, "/bin/x")
    assert r.path == "/rp/libdup.so" and r.origin is Origin.RPATH


def test_slash_name_relative(sysroot):
    sysroot.write("/opt/app/plugins/mod.so", elf_bytes())
    cfg = config_for(sysroot)
    r = Resolver(cfg).resolve("plugins/mod.so", summary_with(sysroot), "/opt/app/host")
    assert r.resolved and r.path == "/opt/app/plugins/mod.so"
    assert r.origin is Origin.DIRECT


def test_slash_name_absolute(sysroot):
    sysroot.write("/opt/libs/libabs.so", elf_bytes())
    cfg = config_for(sysroot)
    r = Resolver(cfg).resolve("/opt/libs/libabs.so", summary_with(sysroot), "/usr/bin/x")
    assert r.resolved and r.path == "/opt/libs/libabs.so"
    assert r.origin is Origin.DIRECT


def test_resolution_follows_symlinked_library(sysroot):
    sysroot.write("/usr/lib/libz.so.1.2.13", elf_bytes())
    sysroot.symlink("/usr/lib/libz.so.1", "libz.so.1.2.13")
    cfg = config_for(sysroot, default_dirs=["/usr/lib"])
    r = Resolver(cfg).resolve("libz.so.1", summary_with(sysroot), "/bin/x")
    assert r.path == "/usr/lib/libz.so.1.2.13"


def test_symlink_loop_in_search_dir_is_skipped(sysroot):
    sysroot.symlink("/lib/libloop.so", "/lib/libloop.so")
    sysroot.write("/usr/lib/libloop.so", elf_bytes())
    cfg = config_for(sysroot, default_dirs=["/lib", "/usr/lib"])
    r = Resolver(cfg).resolve("libloop.so", summary_with(sysroot), "/bin/x")
    assert r.path == "/usr/lib/libloop.so"


def test_resolution_never_escapes_sysroot(sysroot):
    # the host certainly has /etc/passwd; the sysroot link points there
    sysroot.symlink("/lib/passwd", "/../../../../etc/passwd")
    cfg = config_for(sysroot, default_dirs=["/lib"])
    r = Resolver(cfg).resolve("passwd", summary_with(sysroot), "/bin/x")
    assert not r.resolved  # sysroot has no /etc/passwd


def test_directory_is_not_a_resolution(sysroot):
    sysroot.mkdir("/usr/lib/libdir.so")
    cfg = config_for(sysroot, default_dirs=["/usr/lib"])
    r = Resolver(cfg).resolve("libdir.so", summary_with(sysroot), "/bin/x")
    assert not r.resolved


NOT_A_FILE = {
    "directory": lambda b, path: b.mkdir(path),
    "fifo": lambda b, path: os.mkfifo(b.mkdir(os.path.dirname(path)) + "/libx.so"),
    "dangling-link": lambda b, path: b.symlink(path, "libnone.so"),
    "looping-link": lambda b, path: b.symlink(path, "libx.so"),
}


@pytest.mark.parametrize("kind", NOT_A_FILE)
def test_search_skips_what_is_no_regular_file(sysroot, kind):
    # only a regular file ends the search; anything else named like the
    # library leaves it to the later stages
    NOT_A_FILE[kind](sysroot, "/opt/early/libx.so")
    sysroot.write("/usr/lib/libx.so", elf_bytes())
    cfg = config_for(sysroot, default_dirs=["/usr/lib"])
    r = Resolver(cfg).resolve("libx.so", summary_with(sysroot, runpath="/opt/early"), "/bin/x")
    assert (r.path, r.origin) == ("/usr/lib/libx.so", Origin.DEFAULT_DIR)


def test_resolver_cache_agrees_with_pure_function(sysroot):
    sysroot.write("/usr/lib/libm.so.6", elf_bytes())
    cfg = config_for(sysroot, default_dirs=["/usr/lib"])
    s = summary_with(sysroot)
    resolver = Resolver(cfg)
    once = resolver.resolve("libm.so.6", s, "/usr/bin/tool")
    twice = resolver.resolve("libm.so.6", s, "/usr/bin/tool")
    pure = Resolver(cfg).resolve("libm.so.6", s, "/usr/bin/tool")
    assert once == twice == pure


def test_answer_shared_across_directories_unless_origin_reads_them(sysroot):
    # only $ORIGIN (and a name with '/') reads the dependent's directory,
    # so without it two dependents in different directories share an answer
    sysroot.write("/usr/lib/libm.so.6", elf_bytes())
    sysroot.write("/opt/a/lib/liby.so", elf_bytes())
    sysroot.write("/opt/b/lib/liby.so", elf_bytes())
    for where in ("/opt/a/bin/x", "/opt/b/bin/x"):
        sysroot.write(where, elf_bytes())
    resolver = Resolver(config_for(sysroot, default_dirs=["/usr/lib"]))
    plain = summary_with(sysroot, runpath="/opt/a/lib")
    first = resolver.resolve("libm.so.6", plain, "/usr/bin/tool")
    assert resolver.resolve("libm.so.6", plain, "/opt/b/bin/x") is first
    assert first.path == "/usr/lib/libm.so.6"
    origin = summary_with(sysroot, runpath="$ORIGIN/../lib")
    a = resolver.resolve("liby.so", origin, "/opt/a/bin/x")
    b = resolver.resolve("liby.so", origin, "/opt/b/bin/x")
    assert (a.path, b.path) == ("/opt/a/lib/liby.so", "/opt/b/lib/liby.so")


def test_probe_of_a_listed_directory_makes_no_lstat(sysroot, monkeypatch):
    sysroot.write("/usr/lib/libm.so.6", elf_bytes())
    sysroot.mkdir("/usr/lib/libdir.so")
    resolver = Resolver(config_for(sysroot, default_dirs=["/usr/lib"]))
    for directory in ("/", "/usr", "/usr/lib", "/usr/lib/libdir.so"):  # as a walk does
        resolver.scandir(directory)
    resolver.search_stages("libm.so.6", summary_with(sysroot), "/usr/bin")  # reads the tail once
    calls = []
    with monkeypatch.context() as patch:
        for name in ("lstat", "stat", "readlink", "scandir", "listdir"):
            patch.setattr(os, name, lambda *a, name=name, **kw: calls.append(name))
        s = summary_with(sysroot, runpath="/nope/lib:/usr/lib")
        answers = [resolver.resolve(name, s, "/usr/bin/x").path
                   for name in ("libm.so.6", "libnone.so", "libdir.so")]
    assert calls == []
    assert answers == ["/usr/lib/libm.so.6", None, None]


@pytest.mark.parametrize("denied", ["read", "search"])
def test_unlistable_search_directory_is_probed_by_name(sysroot, monkeypatch, denied):
    # the loader needs only search permission on a directory, not read; and
    # without search permission, a listing cannot say what a lookup finds
    sysroot.write("/opt/lib/libx.so.1.0", elf_bytes())
    sysroot.symlink("/opt/lib/libx.so", "libx.so.1.0")
    sysroot.mkdir("/opt/lib/libdir.so")
    real_scandir, real_access = os.scandir, os.access

    def scandir(path):
        if path.endswith("/opt/lib"):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        return real_scandir(path)

    def access(path, mode, **kw):
        return not path.endswith("/opt/lib") and real_access(path, mode, **kw)

    if denied == "read":
        monkeypatch.setattr(os, "scandir", scandir)
    else:
        monkeypatch.setattr(os, "access", access)
    real_lstat, probed = os.lstat, []

    def lstat(path, **kw):
        probed.append(path[len(sysroot.root):])
        return real_lstat(path, **kw)

    monkeypatch.setattr(os, "lstat", lstat)
    resolver = Resolver(config_for(sysroot, default_dirs=[]))
    for directory in ("/", "/opt", "/opt/lib"):  # as a walk does
        try:
            resolver.scandir(directory)
        except PermissionError:
            assert (denied, directory) == ("read", "/opt/lib")
    s = summary_with(sysroot, runpath="/opt/lib")
    assert resolver.resolve("libx.so.1.0", s, "/bin/x").path == "/opt/lib/libx.so.1.0"
    assert resolver.resolve("libx.so", s, "/bin/x").path == "/opt/lib/libx.so.1.0"
    assert not resolver.resolve("libdir.so", s, "/bin/x").resolved
    assert not resolver.resolve("libnone.so", s, "/bin/x").resolved
    for name in ("libx.so.1.0", "libx.so", "libdir.so", "libnone.so"):
        assert f"/opt/lib/{name}" in probed
