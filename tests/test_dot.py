from __future__ import annotations

import random
import re
import tracemalloc

import pytest

from depex.dot import DotOptions, dot_chunks
from depex.metrics import popularity
from depex.store import UnknownNode
from graphbuild import EXE, LIB, build_graph

_NODE = re.compile(r'^    (".*") \[[a-z]+=.*\];$')
_EDGE = re.compile(r'^    (".*") -> (".*");$')
_QUOTED = re.compile(r'"(\\.|[^"\\])*"')


def check_dot_grammar(text: str) -> tuple[set[str], set[tuple[str, str]]]:
    """Tiny DOT checker: header, node statements, edge statements, brace."""
    lines = text.splitlines()
    assert lines[0] == "digraph dependencies {"
    assert lines[-1] == "}"
    assert text.endswith("}\n")
    nodes, edges = set(), set()
    for line in lines[1:-1]:
        node_match = _NODE.match(line)
        edge_match = _EDGE.match(line)
        assert node_match or edge_match, f"unparseable line: {line!r}"
        if node_match:
            assert _QUOTED.fullmatch(node_match.group(1))
            nodes.add(node_match.group(1))
        else:
            src, dst = edge_match.group(1), edge_match.group(2)
            assert _QUOTED.fullmatch(src) and _QUOTED.fullmatch(dst)
            edges.add((src, dst))
    return nodes, edges


def star(n=5):
    nodes = [("/hub.so", LIB)] + [(f"/user{i}", EXE) for i in range(n)]
    edges = [(i + 1, "hub.so", 0) for i in range(n)]
    return build_graph(nodes, edges)


def demo():
    return build_graph(
        [("/bin/app", EXE), ("/lib/liba.so", LIB), ("/lib/libb.so", LIB)],
        [(0, "liba.so", 1), (0, "ghost.so", None), (1, "libb.so", 2)])


def test_output_is_valid_and_complete():
    text = "".join(dot_chunks(demo()))
    nodes, edges = check_dot_grammar(text)
    assert nodes == {'"/bin/app"', '"/lib/liba.so"', '"/lib/libb.so"',
                     '"missing:ghost.so"'}
    assert edges == {('"/bin/app"', '"/lib/liba.so"'),
                     ('"/bin/app"', '"missing:ghost.so"'),
                     ('"/lib/liba.so"', '"/lib/libb.so"')}


def test_each_node_and_edge_exactly_once():
    text = "".join(dot_chunks(demo()))
    assert text.count('"/bin/app" [') == 1
    assert text.count('"/bin/app" -> "/lib/liba.so"') == 1


def test_deterministic_output():
    assert "".join(dot_chunks(demo())) == "".join(dot_chunks(demo()))


def test_shapes_by_kind():
    text = "".join(dot_chunks(demo()))
    assert '"/bin/app" [shape=box];' in text
    assert '"/lib/liba.so" [shape=ellipse];' in text
    assert '"missing:ghost.so" [label="ghost.so", shape=ellipse, style=dashed, color=red];' in text


def test_hide_top_one_on_star_leaves_isolated_users():
    text = "".join(dot_chunks(star(), DotOptions(hide_top_k=1)))
    nodes, edges = check_dot_grammar(text)
    assert '"/hub.so"' not in nodes
    assert len(nodes) == 5
    assert edges == set()


def test_hide_top_tie_breaks_by_path():
    g = build_graph([("/a.so", LIB), ("/b.so", LIB), ("/c", EXE)],
                    [(2, "a.so", 0), (2, "b.so", 1)])
    text = "".join(dot_chunks(g, DotOptions(hide_top_k=1)))
    nodes, _ = check_dot_grammar(text)
    assert '"/a.so"' not in nodes  # equal popularity: earlier path hides first
    assert '"/b.so"' in nodes


def test_filtering_soundness_no_dangling_edges():
    text = "".join(dot_chunks(demo(), DotOptions(hide_names=["liba"])))
    nodes, edges = check_dot_grammar(text)
    assert '"/lib/liba.so"' not in nodes
    for src, dst in edges:
        assert src in nodes and (dst in nodes or dst.startswith('"missing:'))
    assert ('"/bin/app"', '"/lib/liba.so"') not in edges


def test_hidden_source_drops_its_missing_reference():
    text = "".join(dot_chunks(demo(), DotOptions(hide_names=["app"])))
    nodes, edges = check_dot_grammar(text)
    assert '"missing:ghost.so"' not in nodes
    assert edges == {('"/lib/liba.so"', '"/lib/libb.so"')}


def test_roots_restrict_to_forward_closure():
    g = build_graph(
        [("/a", EXE), ("/b", LIB), ("/c", LIB), ("/other", EXE), ("/o.so", LIB)],
        [(0, "b", 1), (1, "c", 2), (3, "o", 4)])
    text = "".join(dot_chunks(g, DotOptions(roots=[0])))
    nodes, edges = check_dot_grammar(text)
    assert nodes == {'"/a"', '"/b"', '"/c"'}
    assert len(edges) == 2


def test_bad_root_raises():
    with pytest.raises(UnknownNode):  # before the first chunk: an error yields nothing
        next(dot_chunks(demo(), DotOptions(roots=[99])))


def test_quoting_of_special_characters():
    g = build_graph([('/weird"name\\x', LIB)], [])
    text = "".join(dot_chunks(g))
    check_dot_grammar(text)
    assert '"/weird\\"name\\\\x"' in text


@pytest.mark.parametrize("seed", range(8))
def test_hide_top_hides_the_k_first_by_popularity_then_path(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 30)
    names = [f"/n/{i:02d}" for i in range(n)]
    rng.shuffle(names)  # path order is not id order
    # few targets and few users each: many nodes share a popularity
    targets = rng.sample(range(n), min(n, 4))
    edges = [(s, f"lib{d}.so", d) for s in range(n) for d in targets
             if d != s and rng.random() < 0.4]
    g = build_graph([(name, LIB) for name in names], edges)
    pop = popularity(g)
    ranked = sorted(range(n), key=lambda p: (-pop[p], names[p]))
    everything, _ = check_dot_grammar("".join(dot_chunks(g)))
    for k in range(n + 2):
        nodes, _ = check_dot_grammar("".join(dot_chunks(g, DotOptions(hide_top_k=k))))
        assert everything - nodes == {f'"{names[p]}"' for p in ranked[:k]}


def test_emission_never_holds_the_whole_output():
    n, per_source = 1000, 60
    nodes = [(f"/lib/l{i:04d}.so", LIB) for i in range(n)]
    edges = [(s, f"lib{d}.so", d) for s in range(n)
             for d in range(s + 1, s + 1 + per_source) if d < n]
    g = build_graph(nodes, edges)
    tracemalloc.start()
    try:
        size = sum(map(len, dot_chunks(g)))  # every chunk dropped once counted
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert size > 1 << 20
    assert peak < size / 4  # a joined output peaks above three times its size
