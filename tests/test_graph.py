import itertools
import random

import pytest

from alliancelib.errors import DuplicateEdge, FrozenGraph, ParseError, SelfLoop, UnknownVertex
from alliancelib.graph import (
    Graph,
    RoleKind,
    RoleTag,
    build_graph,
    components_of_induced,
    is_bipartite,
    is_star_forest_after_deletion,
    parse_graph,
    write_graph,
)


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def path(n):
    return build_graph(n, [(i, i + 1) for i in range(n - 1)])


def test_add_vertex_dense_ids():
    g = Graph()
    assert g.add_vertex() == 0
    g.add_vertices(4)
    assert g.add_vertex() == 5
    a, b = g.add_vertex(), g.add_vertex()
    assert a != b


def test_add_edge_and_errors():
    g = Graph()
    g.add_vertices(2)
    g.add_edge(0, 1)
    assert g.degree(0) == g.degree(1) == 1
    with pytest.raises(SelfLoop):
        g.add_edge(0, 0)
    with pytest.raises(DuplicateEdge):
        g.add_edge(1, 0)
    with pytest.raises(UnknownVertex):
        g.add_edge(0, 7)


def test_add_family():
    g = Graph()
    hosts = g.add_vertices(2)
    payloads = [("p", 2), "q", None]
    ids = g.add_family(RoleKind.PENDANT, payloads, join=hosts)
    assert ids == [2, 3, 4]
    assert [g.tag(v) for v in ids] == [RoleTag(RoleKind.PENDANT, p) for p in payloads]
    assert all(g.neighbors(v) == set(hosts) for v in ids)
    assert g.neighbors(0) == g.neighbors(1) == set(ids)
    assert g.add_family(RoleKind.APEX, ["a"]) == [5] and g.degree(5) == 0
    with pytest.raises(DuplicateEdge):
        g.add_family(RoleKind.SQUARE, [0], join=[0, 0])
    g.freeze()
    with pytest.raises(FrozenGraph):
        g.add_family(RoleKind.SQUARE, [0])


def test_deg_in():
    p = path(3)
    assert p.deg_in(1, {0, 2}) == 2
    assert p.deg_in(1, set()) == 0
    k4 = build_graph(4, itertools.combinations(range(4), 2))
    assert k4.deg_in(0, {1, 2}) == 2
    assert k4.degree(0) - k4.deg_in(0, {1, 2}) == 1
    # own membership never counted
    assert k4.deg_in(0, {0, 1}) == 1


def test_deg_in_split_identity():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(1, 9)
        g = build_graph(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.5]
        )
        s = {v for v in range(n) if rng.random() < 0.5}
        comp = set(range(n)) - s
        for v in range(n):
            assert g.deg_in(v, s) + g.deg_in(v, comp) == g.degree(v)


def test_adjacency_symmetry():
    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(2, 10)
        g = build_graph(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.4]
        )
        for v in range(n):
            for w in g.neighbors(v):
                assert v in g.neighbors(w)


def test_is_bipartite_c4_c3():
    assert is_bipartite(cycle(4)) == (frozenset({0, 2}), frozenset({1, 3}))
    assert is_bipartite(cycle(3)) is None


def test_is_bipartite_partition_property():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randint(1, 10)
        g = build_graph(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.3]
        )
        result = is_bipartite(g)
        if result is not None:
            side1, side2 = result
            assert side1 | side2 == set(range(n))
            assert not side1 & side2
            assert all((u in side1) != (v in side1) for u, v in g.edges())
        else:
            # odd cycle must exist: no 2-coloring at all
            ok = False
            for bits in itertools.product((0, 1), repeat=n):
                if all(bits[u] != bits[v] for u, v in g.edges()):
                    ok = True
                    break
            assert not ok


def test_components_of_induced():
    p = path(3)
    assert components_of_induced(p, {0, 2}) == [frozenset({0}), frozenset({2})]
    assert components_of_induced(p, set()) == []
    c6 = cycle(6)
    assert components_of_induced(c6, {0, 2, 4}) == [
        frozenset({0}),
        frozenset({2}),
        frozenset({4}),
    ]


def test_components_partition_and_connectivity():
    rng = random.Random(8)
    for _ in range(30):
        n = rng.randint(1, 9)
        g = build_graph(
            n, [e for e in itertools.combinations(range(n), 2) if rng.random() < 0.3]
        )
        s = {v for v in range(n) if rng.random() < 0.6}
        comps = components_of_induced(g, s)
        union = set()
        for comp in comps:
            assert not comp & union
            union |= comp
            # no edges leave the part within s
            for v in comp:
                assert g.neighbors(v) & s <= comp
        assert union == s


def test_star_forest_check():
    k4 = build_graph(4, itertools.combinations(range(4), 2))
    assert is_star_forest_after_deletion(k4, {0, 1, 2})
    assert not is_star_forest_after_deletion(cycle(4), set())
    star = build_graph(5, [(0, i) for i in range(1, 5)])
    assert is_star_forest_after_deletion(star, set())
    assert is_star_forest_after_deletion(path(2), set())
    assert is_star_forest_after_deletion(path(3), set())  # P3 is a star
    assert not is_star_forest_after_deletion(path(4), set())


def test_graph_format_roundtrip():
    g = Graph()
    g.add_vertices(3)
    g.add_vertex(RoleTag(RoleKind.SQUARE))
    g.add_edge(0, 1)
    g.add_edge(1, 3)
    g.freeze()
    text = write_graph(g)
    assert text.splitlines()[0] == "p da 4 2"
    back = parse_graph(text)
    assert back == g
    assert write_graph(back) == text


def test_graph_format_rejects():
    with pytest.raises(ParseError):
        parse_graph("p da 2 1\ne 0 2\n")  # out of range
    with pytest.raises(ParseError):
        parse_graph("p da 2 2\ne 0 1\ne 0 1\n")  # duplicate
    with pytest.raises(ParseError):
        parse_graph("p da 2 2\ne 0 1\n")  # count mismatch
    with pytest.raises(ParseError):
        parse_graph("e 0 1\n")  # no header
    with pytest.raises(ParseError):
        parse_graph("p da 2 0\nt 0 nonsense\n")


def test_graph_format_rejects_repeated_tag():
    # The writer emits at most one 't' line per vertex; a second one would
    # otherwise silently replace the first.
    assert parse_graph("p da 1 0\nt 0 square\n").tag(0).kind is RoleKind.SQUARE
    with pytest.raises(ParseError, match="repeated 't' for vertex 0"):
        parse_graph("p da 1 0\nt 0 square\nt 0 pendant\n")
    with pytest.raises(ParseError, match="repeated 't'"):
        parse_graph("p da 1 0\nt 0 original\nt 0 original\n")


def test_graph_format_ignores_comments():
    g = parse_graph("c budget 17\np da 2 1\ne 0 1\n")
    assert g.n == 2 and g.m == 1
    g = parse_graph("p da 2 1\nc after the header\ne 0 1\nc\n")
    assert g.n == 2 and g.m == 1
