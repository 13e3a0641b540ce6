from __future__ import annotations

import random

import pytest

from depex.elf import FileKind
from depex.metrics import (HealthReport, StatsSummary, closure_sizes, health,
                           popularity, stats_summary)
from depex.queries import who_uses
from depex.store import DependencyGraph, UnknownNode
from graphbuild import EXE, LIB, build_graph, edge_records, edge_sources, random_graph
from oracles import closure_sets


def chain3():
    return build_graph([("/a", EXE), ("/b", LIB), ("/c", LIB)],
                       [(0, "b", 1), (1, "c", 2)])


def diamond():
    return build_graph(
        [("/a", EXE), ("/b", LIB), ("/c", LIB), ("/d", LIB)],
        [(0, "b", 1), (0, "c", 2), (1, "d", 3), (2, "d", 3)])


def two_cycle():
    return build_graph([("/a", LIB), ("/b", LIB)],
                       [(0, "b", 1), (1, "a", 0)])


def test_direct_counts_resolved_and_missing():
    g = build_graph([("/a", EXE), ("/b", LIB), ("/c", LIB)],
                    [(0, "b", 1), (0, "c", 2), (0, "ghost", None)])
    assert g.degrees[g.require(0)] == 3


def test_direct_isolated_node_is_zero():
    g = build_graph([("/a", EXE)], [])
    assert g.degrees[g.require(0)] == 0


def test_direct_hundred_edges():
    nodes = [("/hub", EXE)] + [(f"/lib/l{i}.so", LIB) for i in range(100)]
    edges = [(0, f"l{i}.so", i + 1) for i in range(100)]
    g = build_graph(nodes, edges)
    assert g.degrees[g.require(0)] == 100


def test_unknown_node_rejected():
    g = chain3()
    with pytest.raises(UnknownNode):
        g.require(99)
    with pytest.raises(UnknownNode):
        g.reachable_from(99)


def test_recursive_chain():
    assert len(chain3().reachable_from(0)) == 2


def test_recursive_diamond_counts_shared_node_once():
    assert len(diamond().reachable_from(0)) == 3


def test_recursive_two_cycle_excludes_self():
    g = two_cycle()
    assert len(g.reachable_from(0)) == 1
    assert len(g.reachable_from(1)) == 1


def test_recursive_ignores_missing_edges():
    g = build_graph([("/a", EXE), ("/b", LIB)],
                    [(0, "b", 1), (0, "ghost", None)])
    assert len(g.reachable_from(0)) == 1


def test_popularity_counts_distinct_importers():
    g = build_graph([("/a", EXE), ("/b", LIB), ("/c", EXE)],
                    [(0, "b", 1), (2, "b", 1)])
    assert popularity(g)[1] == 2
    assert popularity(g)[0] == 0


def test_popularity_star():
    n = 50
    nodes = [("/hub.so", LIB)] + [(f"/user{i}", EXE) for i in range(n)]
    edges = [(i + 1, "hub.so", 0) for i in range(n)]
    assert popularity(build_graph(nodes, edges))[0] == n


def test_health_missing_grouped_by_name():
    g = build_graph(
        [("/a", EXE), ("/b", EXE), ("/c", EXE)],
        [(0, "ghost.so", None), (1, "ghost.so", None), (2, "ghost.so", None)])
    report = health(g)
    assert report.missing_names == {"ghost.so"}
    assert report.directly_impacted == {0, 1, 2}


def test_health_name_resolved_elsewhere_not_missing():
    # the name resolves for one file but not another: it is present in the
    # snapshot, so it does not count as a missing library
    g = build_graph([("/a", EXE), ("/b", EXE), ("/lib.so", LIB)],
                    [(0, "lib.so", 2), (1, "lib.so", None)])
    report = health(g)
    assert report.missing_names == set()
    assert report.directly_impacted == {1}


def test_health_fully_resolved():
    report = health(diamond())
    assert report.missing_names == set()
    assert report.directly_impacted == set()


def test_health_unused_libraries():
    nodes = [(f"/lib{i}.so", LIB) for i in range(7)]
    edges = [(0, "x", 1), (1, "x", 2), (2, "x", 3)]
    report = health(build_graph(nodes, edges))
    assert report.unused_libraries == {0, 4, 5, 6}


def test_health_unused_only_counts_libraries():
    g = build_graph([("/a", EXE), ("/lib.so", LIB)], [(0, "lib.so", 1)])
    assert health(g).unused_libraries == set()


def test_stats_chain_of_three():
    stats = stats_summary(chain3())
    assert stats.avg_direct == 0.67  # 2 edges over 3 files
    assert stats.max_recursive == 2


def test_stats_empty_graph():
    g = build_graph([], [])
    stats = stats_summary(g)
    assert stats.executables == stats.libraries == stats.dependencies == 0
    assert stats.avg_direct == 0.0 and stats.avg_recursive == 0.0
    assert stats.max_direct == 0 and stats.max_recursive == 0


def seven_nodes():
    return build_graph(
        [("/e1", EXE), ("/e2", EXE), ("/l1.so", LIB), ("/l2.so", LIB),
         ("/l3.so", LIB), ("/l4.so", LIB), ("/l5.so", LIB)],
        [(0, "l1", 2), (0, "l2", 3), (1, "l1", 2), (2, "l3", 4),
         (3, "l3", 4), (1, "ghost", None)])


def test_stats_hand_computed_seven_nodes():
    stats = stats_summary(seven_nodes())
    assert stats.executables == 2
    assert stats.libraries == 5
    assert stats.dependencies == 6
    assert stats.missing == 1
    assert stats.unused == 2  # l4.so never imported... l5.so also: l3 imported by l1,l2
    # direct: e1=2 e2=2 l1=1 l2=1 l3=0 l4=0 l5=0 -> avg 6/7
    assert stats.avg_direct == round(6 / 7, 2)
    # recursive: e1={l1,l2,l3}=3 e2={l1,l3}=2 l1={l3}=1 l2={l3}=1 -> avg 7/7
    assert stats.avg_recursive == 1.0
    assert stats.max_direct == 2
    assert stats.max_recursive == 3


def test_recursive_matches_matrix_oracle():
    rng = random.Random(4242)
    for _ in range(30):
        graph, n, pairs = random_graph(rng)
        expect = closure_sets(n, pairs)
        for node in range(n):
            assert len(graph.reachable_from(node)) == len(expect[node])


def with_self_loops(rng, graph, n, pairs):
    """The same graph with a self-loop added on about a tenth of the nodes."""
    loops = {(v, v) for v in range(n) if rng.random() < 0.1}
    nodes = [(node.canonical_path, node.kind) for node in graph.nodes.values()]
    edges = [(e.from_node, e.needed_name, e.to_node) for e in edge_records(graph)]
    edges += [(v, f"lib{v}.so", v) for v, _ in sorted(loops)]
    return build_graph(nodes, edges), n, pairs | loops


def test_closure_sizes_match_dfs_and_matrix_oracle():
    rng = random.Random(2718)
    for _ in range(200):
        graph, n, pairs = with_self_loops(rng, *random_graph(rng))
        sizes = closure_sizes(graph)
        assert sizes == {v: len(graph.reachable_from(v)) for v in range(n)}
        expect = closure_sets(n, pairs)
        population = [v for v, node in graph.nodes.items() if node.kind in (EXE, LIB)]
        recursives = [len(expect[v]) for v in population]
        stats = stats_summary(graph)
        assert stats.avg_recursive == round(sum(recursives) / len(recursives), 2)
        assert stats.max_recursive == max(recursives)


def corpus_shaped_graph(rng):
    """A core with cycles, self-loops and unresolved edges, and at least as
    many nodes again that nothing imports, each importing into the core;
    node ids are shuffled so the two kinds interleave."""
    core = rng.randint(1, 30)
    n = core + rng.randint(core, 40)
    ids = list(range(n))
    rng.shuffle(ids)
    pairs = {(ids[a], ids[b]) for a in range(core) for b in range(core)
             if rng.random() < 0.08}
    pairs |= {(ids[a], ids[rng.randrange(core)])
              for a in range(core, n) for _ in range(rng.randint(0, 6))}
    nodes = [(f"/n/{i:03d}", LIB if rng.random() < 0.6 else EXE) for i in range(n)]
    edges = [(a, f"lib{b}.so", b) for a, b in sorted(pairs)]
    edges += [(a, f"ghost{a}.so", None) for a in range(n) if rng.random() < 0.2]
    return build_graph(nodes, edges), n, pairs


def test_closure_sizes_with_most_nodes_never_imported():
    rng = random.Random(31337)
    for _ in range(200):
        graph, n, pairs = corpus_shaped_graph(rng)
        assert 2 * list(popularity(graph).values()).count(0) >= n
        sizes = closure_sizes(graph)
        assert sizes == {v: len(graph.reachable_from(v)) for v in range(n)}
        assert sizes == {v: len(reach) for v, reach in enumerate(closure_sets(n, pairs))}


def test_closure_sizes_with_no_resolved_edge_are_zero():
    g = build_graph([("/a", EXE), ("/b", LIB), ("/c", LIB)],
                    [(0, "ghost", None), (1, "ghost", None)])
    assert closure_sizes(g) == {0: 0, 1: 0, 2: 0}


def test_closure_sizes_node_imported_only_by_its_own_self_loop():
    # /a imports itself and /b, and nothing else imports /a
    g = build_graph([("/a", LIB), ("/b", LIB)], [(0, "a", 0), (0, "b", 1)])
    assert closure_sizes(g) == {0: 1, 1: 0}
    # the same, with a never-imported /c importing /a
    g = build_graph([("/a", LIB), ("/b", LIB), ("/c", EXE)],
                    [(0, "a", 0), (0, "b", 1), (2, "a", 0)])
    assert closure_sizes(g) == {0: 1, 1: 0, 2: 2}


def test_closure_sizes_never_imported_node_counts_a_cycle_once():
    # /x imports both members of the a <-> b cycle, which imports c
    g = build_graph([("/a", LIB), ("/x", EXE), ("/b", LIB), ("/c", LIB)],
                    [(0, "b", 2), (2, "a", 0), (2, "c", 3), (1, "a", 0), (1, "b", 2)])
    assert closure_sizes(g) == {0: 2, 1: 3, 2: 2, 3: 0}


def test_closure_sizes_all_imported_ring():
    n = 7
    g = build_graph([(f"/l{i}.so", LIB) for i in range(n)],
                    [(i, f"l{(i + 1) % n}.so", (i + 1) % n) for i in range(n)])
    assert all(popularity(g).values())
    assert closure_sizes(g) == dict.fromkeys(range(n), n - 1)


def test_stats_runs_no_per_node_dfs(monkeypatch):
    def no_dfs(self, node_id):
        raise AssertionError("stats_summary ran a per-node DFS")

    monkeypatch.setattr(DependencyGraph, "reachable_from", no_dfs)
    assert stats_summary(seven_nodes()) == StatsSummary(
        executables=2, libraries=5, dependencies=6, missing=1, unused=2,
        avg_direct=round(6 / 7, 2), avg_recursive=1.0, max_direct=2,
        max_recursive=3)


@pytest.mark.parametrize("ring", [False, True], ids=["chain", "ring"])
def test_stats_long_chain_and_ring(ring):
    # quadratic with a DFS per node, and past any recursion limit
    n = 50_000
    nodes = [(f"/lib/l{i}.so", LIB) for i in range(n)]
    edges = [(i, f"l{i + 1}.so", i + 1) for i in range(n - 1)]
    if ring:
        edges.append((n - 1, "l0.so", 0))
    assert stats_summary(build_graph(nodes, edges)).max_recursive == n - 1


def test_popularity_sum_equals_resolved_edges():
    rng = random.Random(77)
    for _ in range(30):
        graph, _, pairs = random_graph(rng)
        assert sum(popularity(graph).values()) == len(pairs)


def test_unused_disjoint_from_edge_targets():
    rng = random.Random(99)
    for _ in range(30):
        graph, _, _ = random_graph(rng)
        targets = {e.to_node for e in edge_records(graph) if e.to_node is not None}
        assert not (health(graph).unused_libraries & targets)


def test_adding_edge_never_decreases_metrics():
    rng = random.Random(1234)
    for _ in range(20):
        graph, n, pairs = random_graph(rng, max_nodes=20)
        if n < 2:
            continue
        before_rec = {v: len(graph.reachable_from(v)) for v in range(n)}
        before_pop = popularity(graph)
        choices = [(a, b) for a in range(n) for b in range(n)
                   if a != b and (a, b) not in pairs]
        if not choices:
            continue
        src, dst = rng.choice(choices)
        new_pairs = pairs | {(src, dst)}
        nodes = [(g.canonical_path, g.kind) for g in graph.nodes.values()]
        edges = [(s, f"lib{d}.so", d) for s, d in sorted(new_pairs)]
        bigger = build_graph(nodes, edges)
        after_pop = popularity(bigger)
        for v in range(n):
            assert len(bigger.reachable_from(v)) >= before_rec[v]
            assert after_pop[v] >= before_pop[v]


# health and stats_summary as one comprehension per set: the oracle for
# the mask-and-compress passes they make.

def health_oracle(graph):
    resolved_names = {name for name, d in zip(graph.names, graph.dst) if d >= 0}
    missing = {(s, name) for s, name, d in zip(edge_sources(graph), graph.names, graph.dst)
               if d < 0}
    start = graph.in_start
    unused = {p for p, kind in enumerate(graph.kinds)
              if kind is LIB and start[p] == start[p + 1]}
    return HealthReport({name for _, name in missing if name not in resolved_names},
                        {node_id for node_id, _ in missing}, unused)


def stats_oracle(graph):
    kinds, start = graph.kinds, graph.out_start
    population = [p for p, kind in enumerate(kinds) if kind in (EXE, LIB)]
    executables = sum(1 for p in population if kinds[p] is EXE)
    report = health_oracle(graph)
    directs = [start[p + 1] - start[p] for p in population]
    recursives = [len(graph.reachable_from(p)) for p in population]
    count = len(population)
    return StatsSummary(
        executables, len(population) - executables, len(edge_sources(graph)),
        len(report.missing_names), len(report.unused_libraries),
        round(sum(directs) / count, 2) if count else 0.0,
        round(sum(recursives) / count, 2) if count else 0.0,
        max(directs, default=0), max(recursives, default=0))


def with_other_kinds(rng, graph):
    """The same graph with about a quarter of its nodes made ELF_OTHER and,
    on about a fifth, one more edge left unresolved under a name that
    another edge resolves."""
    nodes = [(node.canonical_path, FileKind.ELF_OTHER if rng.random() < 0.25 else node.kind)
             for node in graph.nodes.values()]
    edges = [(e.from_node, e.needed_name, e.to_node) for e in edge_records(graph)]
    resolved = sorted({name for _, name, d in edges if d is not None})
    edges += [(p, rng.choice(resolved), None)
              for p in range(len(nodes)) if resolved and rng.random() < 0.2]
    return build_graph(nodes, edges)


def test_one_pass_forms_match_the_comprehension_oracle():
    rng = random.Random(8128)
    graphs = []
    for _ in range(60):
        graphs.append(random_graph(rng)[0])
        graphs.append(corpus_shaped_graph(rng)[0])
        graphs.append(with_other_kinds(rng, graphs[-1]))
    assert any(FileKind.ELF_OTHER in graph.kinds for graph in graphs)
    assert any({name for name, d in zip(graph.names, graph.dst) if d < 0}
               & {name for name, d in zip(graph.names, graph.dst) if d >= 0} for graph in graphs)
    for graph in graphs:
        n = len(graph.paths)
        users = [who_uses(graph, p) for p in range(n)]
        assert "in_src" not in graph.__dict__  # no reverse CSR for a direct who-uses
        start = graph.in_start
        assert users == [set(graph.in_src[start[p]:start[p + 1]]) for p in range(n)]
        assert health(graph) == health_oracle(graph)
        assert stats_summary(graph) == stats_oracle(graph)
