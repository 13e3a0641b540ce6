from __future__ import annotations

import random
import re

import pytest

from depex.dot import dot_chunks
from depex.metrics import health
from depex.queries import (AmbiguousName, find_node, get_all_deps, get_deps,
                           update_impact, who_uses)
from depex.store import UnknownNode
from graphbuild import EXE, LIB, build_graph, random_graph
from oracles import closure_sets


def diamond():
    return build_graph(
        [("/a", EXE), ("/b", LIB), ("/c", LIB), ("/d", LIB)],
        [(0, "b.so", 1), (0, "c.so", 2), (1, "d.so", 3), (2, "d.so", 3)])


def chain3():
    return build_graph([("/a", EXE), ("/b", LIB), ("/c", LIB)],
                       [(0, "b.so", 1), (1, "c.so", 2)])


def test_get_deps_in_import_order():
    g = build_graph([("/a", EXE), ("/b", LIB), ("/c", LIB)],
                    [(0, "zzz.so", 2), (0, "aaa.so", 1)])
    deps = get_deps(g, 0)
    assert [name for name, _ in deps] == ["zzz.so", "aaa.so"]
    assert [r.path for _, r in deps] == ["/c", "/b"]


def test_get_deps_includes_missing():
    g = build_graph([("/a", EXE), ("/b", LIB)],
                    [(0, "b.so", 1), (0, "ghost.so", None)])
    deps = get_deps(g, 0)
    assert deps[1][0] == "ghost.so"
    assert not deps[1][1].resolved


def test_get_deps_leaf_is_empty():
    assert get_deps(chain3(), 2) == []


def test_get_all_deps_diamond():
    assert get_all_deps(diamond(), 0) == {1, 2, 3}


def test_get_all_deps_leaf():
    assert get_all_deps(diamond(), 3) == set()


def test_get_all_deps_cycle_excludes_self():
    g = build_graph([("/a", LIB), ("/b", LIB), ("/c", LIB)],
                    [(0, "b", 1), (1, "c", 2), (2, "a", 0)])
    assert get_all_deps(g, 0) == {1, 2}
    assert get_all_deps(g, 1) == {0, 2}


def test_get_all_deps_unknown_node():
    with pytest.raises(UnknownNode):
        get_all_deps(diamond(), 17)


def test_who_uses_direct():
    g = build_graph([("/a", EXE), ("/b", LIB)], [(0, "b.so", 1)])
    assert who_uses(g, 1) == {0}


def test_who_uses_transitive_chain():
    assert who_uses(chain3(), 2, transitive=True) == {0, 1}
    assert who_uses(chain3(), 2, transitive=False) == {1}


def test_who_uses_unused_library():
    g = build_graph([("/a", EXE), ("/b", LIB)], [])
    assert who_uses(g, 1) == set()
    assert who_uses(g, 1, transitive=True) == set()


def test_update_impact_hub():
    g = build_graph(
        [("/e1", EXE), ("/e2", EXE), ("/l1", LIB), ("/hub", LIB)],
        [(0, "l1", 2), (2, "hub", 3), (1, "hub", 3)])
    impact = update_impact(g, 3)
    assert impact.direct == {1, 2}
    assert impact.transitive == {0, 1, 2}
    assert impact.executables_affected == {0, 1}


def test_update_impact_isolated():
    g = build_graph([("/lib", LIB)], [])
    impact = update_impact(g, 0)
    assert impact.direct == impact.transitive == impact.executables_affected == set()


def test_update_impact_two_level_chain():
    impact = update_impact(chain3(), 2)
    assert impact.direct == {1}
    assert 0 in impact.transitive
    assert impact.executables_affected == {0}


def test_transpose_consistency_on_random_graphs():
    rng = random.Random(31337)
    for _ in range(25):
        graph, n, _ = random_graph(rng, max_nodes=25)
        all_deps = {m: get_all_deps(graph, m) for m in range(n)}
        for target in range(n):
            expected = {m for m in range(n) if target in all_deps[m]}
            assert who_uses(graph, target, transitive=True) == expected


def test_get_all_deps_matches_matrix_oracle():
    rng = random.Random(2020)
    for _ in range(25):
        graph, n, pairs = random_graph(rng, max_nodes=30)
        expect = closure_sets(n, pairs)
        for node in range(n):
            assert get_all_deps(graph, node) == expect[node]


def zero_degree_case(rng: random.Random, where: str) -> tuple[list, list]:
    """Node specs and edges (source, name, target or None) of a random graph
    whose nodes with no out-edge form runs of one to three at `where`: the
    first nodes, the middle ones or the last ones; any other node has one
    to four out-edges, some of them unresolved."""
    n = rng.randint(6, 30)
    run = rng.randint(1, 3)
    first = {"first": 0, "middle": (n - run) // 2, "last": n - run}[where]
    idle = range(first, first + run)
    nodes = [(f"/n/{p:03d}", LIB if rng.random() < 0.6 else EXE) for p in range(n)]
    edges = [(p, f"ghost{rng.randrange(4)}.so.{e}", None) if rng.random() < 0.2 else
             (p, f"lib{e}.so", rng.randrange(n))
             for p in range(n) if p not in idle for e in range(rng.randint(1, 4))]
    rng.shuffle(edges)  # build_graph groups them by source, each source's in order
    return nodes, edges


@pytest.mark.parametrize("where", ["first", "middle", "last"])
def test_sources_from_out_start_match_the_edges_with_zero_degree_nodes(where):
    # each edge's source comes from out_start, whose zero-degree nodes
    # repeat an offset: every reader must still find the edge's own source
    rng = random.Random(f"zero-degree {where}")
    for _ in range(40):
        nodes, edges = zero_degree_case(rng, where)
        graph = build_graph(nodes, edges)
        n = len(nodes)
        by_source = sorted(edges, key=lambda edge: edge[0])
        for p in range(n):
            assert who_uses(graph, p) == {s for s, _, d in edges if d == p}
        assert "in_src" not in graph.__dict__  # no reverse CSR for a direct who-uses
        assert health(graph).directly_impacted == {s for s, _, d in edges if d is None}
        hidden = set(rng.sample(range(n), rng.randint(0, n // 2)))
        text = "".join(dot_chunks(graph, hide_names=[nodes[p][0] for p in hidden]))
        assert re.findall(r'^    "missing:(.*)" \[label=', text, re.M) == sorted(
            {name for s, name, d in edges if d is None and s not in hidden})
        start = graph.in_start
        for p in range(n):
            assert graph.in_src[start[p]:start[p + 1]] == [s for s, _, d in by_source if d == p]
            assert [(name, res.path) for name, res in get_deps(graph, p)] == \
                [(name, None if d is None else nodes[d][0]) for s, name, d in by_source if s == p]


# --- find_node --------------------------------------------------------------

def named_graph():
    return build_graph(
        [("/usr/lib/libz.so.1.2.13", LIB, "libz.so.1"),
         ("/usr/bin/tool", EXE),
         ("/opt/other/tool", EXE),
         ("/usr/lib/libq.so", LIB, "libq.so")],
        [])


def test_find_by_soname():
    assert find_node(named_graph(), "libz.so.1") == 0


def test_find_by_exact_path():
    assert find_node(named_graph(), "/usr/bin/tool") == 1


def test_find_by_suffix():
    assert find_node(named_graph(), "bin/tool") == 1
    assert find_node(named_graph(), "libq.so") == 3


def test_find_ambiguous_lists_candidates():
    with pytest.raises(AmbiguousName) as exc:
        find_node(named_graph(), "tool")
    assert exc.value.candidates == ["/opt/other/tool", "/usr/bin/tool"]


def test_find_unknown():
    with pytest.raises(UnknownNode):
        find_node(named_graph(), "no-such-thing")


def test_find_soname_wins_over_path():
    g = build_graph(
        [("/usr/lib/libz.so.1", LIB, None),
         ("/usr/lib/libz.so.1.2.13", LIB, "libz.so.1")],
        [])
    assert find_node(g, "libz.so.1") == 1


def find_node_oracle(graph, ref):
    """find_node as a comprehension per match kind: a node id or the error."""
    by_soname = [p for p, soname in enumerate(graph.sonames) if soname == ref]
    suffix = "/" + ref.lstrip("/")
    by_path = [p for p, path in enumerate(graph.paths) if path == ref or path.endswith(suffix)]
    by_alias = sorted({p for p, alias in zip(graph.alias_nodes, graph.alias_paths) if alias == ref})
    hits = by_soname or by_path or by_alias
    if len(hits) == 1:
        return hits[0]
    return ("ambiguous", sorted(graph.paths[p] for p in hits)) if hits else "unknown"


def test_find_node_matches_the_comprehension_oracle():
    g = build_graph(
        [("/usr/lib/a.so", LIB, "liba.so"), ("a.so", LIB), ("/lib/a.so", LIB, "liba.so"),
         ("/usr/bin/tool", EXE), ("//x/tool", EXE), ("/lib/b.so.1", LIB, "libb.so.1"),
         ("b.so.1", LIB, "libc.so")],
        [],
        [(0, "/lib64/a.so"), (0, "/usr/lib/liba.so"), (3, "/bin/tool"), (5, "/lib/b.so"),
         (6, "/lib/b.so"), (5, "/usr/lib/liba.so.0"), (6, "/usr/lib/b.so.1"), (1, "/x/tool"),
         (2, "liba.so"), (6, "/lib/b.so.1")])
    refs = ["liba.so", "libb.so.1", "libc.so", "a.so", "/a.so", "//a.so", "lib/a.so",
            "b.so.1", "tool", "bin/tool", "x/tool", "//x/tool", "/usr/bin/tool", "nothing",
            "", "/", "/lib64/a.so", "lib64/a.so", "/usr/lib/liba.so", "/bin/tool",
            "/lib/b.so", "/usr/lib/liba.so.0", "liba.so.0", "/usr/lib/b.so.1", "/x/tool",
            "/lib/b.so.1"]
    for ref in refs:
        try:
            got = find_node(g, ref)
        except AmbiguousName as exc:
            got = ("ambiguous", exc.candidates)
        except UnknownNode:
            got = "unknown"
        assert got == find_node_oracle(g, ref), ref
