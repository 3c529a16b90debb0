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
from alliancelib.harness import DEFAULT_MAX_N
from alliancelib.kinds import REDUCTIONS


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
    assert all(g.tag(v) == RoleTag(RoleKind.ORIGINAL, None) for v in g.vertices())
    square = RoleTag(RoleKind.SQUARE, ("s", 3))
    assert g.tag(g.add_vertex(square)) == square
    assert [g.tag(v) for v in g.add_vertices(2, square)] == [square, square]


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
    assert g.tag(5) == RoleTag(RoleKind.APEX, "a")
    assert [g.tag(v) for v in g.add_family(RoleKind.COPY_T0, range(2))] == [
        RoleTag(RoleKind.COPY_T0, 0),
        RoleTag(RoleKind.COPY_T0, 1),
    ]
    read = []
    gen = (read.append(p) or p for p in [("g", 1), ("g", 0)])
    ids = g.add_family(RoleKind.CYCLE_C, gen, join=[0])
    assert read == [("g", 1), ("g", 0)]  # read once, in order
    assert [g.tag(v) for v in ids] == [RoleTag(RoleKind.CYCLE_C, ("g", i)) for i in (1, 0)]
    with pytest.raises(DuplicateEdge):
        g.add_family(RoleKind.SQUARE, [0], join=[0, 0])
    g.freeze()
    with pytest.raises(FrozenGraph):
        g.add_family(RoleKind.SQUARE, [0])


def test_add_family_checks_each_host_once():
    # The errors are those add_edge raises for the first bad edge, and a
    # failed call leaves the graph exactly as it was.
    g = Graph()
    g.add_vertices(3)
    g.add_edge(0, 1)
    order = g.n  # a two-vertex family would take ids 3 and 4, one vertex id 3
    failures = [
        (SelfLoop, "^self-loop at 4$", RoleKind.SQUARE, [0, 1], (v for v in [0, 4])),
        (UnknownVertex, "^vertex -1 not in graph of order 3$", RoleKind.PENDANT, [("p", -1), None], [-1]),
        (UnknownVertex, "^vertex 5 not in graph of order 3$", RoleKind.PENDANT, [("p", 5), None], [2, 5]),
        (DuplicateEdge, "^edge \\(0,3\\) already present$", RoleKind.APEX, (p for p in "ab"), (v for v in [0, 1, 0])),
        # A one-vertex family (id 3) is joined through another path.
        (SelfLoop, "^self-loop at 3$", RoleKind.APEX, ["a"], [0, 3]),
        (UnknownVertex, "^vertex 4 not in graph of order 3$", RoleKind.APEX, ["a"], [1, 4]),
        (DuplicateEdge, "^edge \\(2,3\\) already present$", RoleKind.APEX, ["a"], (v for v in [2, 0, 2])),
    ]
    for error, message, kind, payloads, join in failures:
        before = g.clone()
        with pytest.raises(error, match=message):
            g.add_family(kind, payloads, join=join)
        assert g == before and g.n == order and g.m == 1
    assert g.add_family(RoleKind.APEX, ["a"], join=[0, 1, 2]) == [order]


def test_add_family_neighbour_sets():
    g = Graph()
    hosts = g.add_vertices(40)
    [apex] = g.add_family(RoleKind.APEX, ["a"], join=iter(hosts))
    assert g.neighbors(apex) == set(hosts)
    assert all(g.neighbors(h) == {apex} for h in hosts)
    ids = g.add_family(RoleKind.PENDANT, range(4), join=hosts[:3])
    assert all(g.neighbors(v) == set(hosts[:3]) for v in ids)
    assert all(g.neighbors(h) == {apex, *ids} for h in hosts[:3])
    # no two vertices share one set, so an edge added later touches one vertex
    assert len({id(g.neighbors(v)) for v in g.vertices()}) == g.n
    g.add_edge(ids[0], apex)
    assert g.neighbors(ids[1]) == set(hosts[:3])


def test_clone_is_independent():
    g = Graph()
    g.add_vertices(2)
    g.add_family(RoleKind.PENDANT, ["p"], join=[0, 1])
    g.freeze()
    tags = [g.tag(v) for v in g.vertices()]
    before = (g.n, tags, [set(g.neighbors(v)) for v in g.vertices()])
    h = g.clone()
    assert h == g
    h.add_family(RoleKind.APEX, ["a"], join=[0, 2])
    h.add_vertex(RoleTag(RoleKind.SQUARE, "s"))
    h.add_edge(0, 1)
    h._kinds[0], h._payloads[1] = RoleKind.OTHER, "x"
    assert h != g
    assert (g.n, [g.tag(v) for v in g.vertices()], [g.neighbors(v) for v in g.vertices()]) == before


def _twins_graph():
    """Hubs 0 and 1, then twins 2..13 on hub 0 and twins 14..22 on hubs 0 and 1."""
    g = Graph()
    g.add_vertices(2)
    g.add_family(RoleKind.PENDANT, range(12), join=[0])
    g.add_family(RoleKind.SQUARE, range(9), join=[0, 1])
    return g


def _neighbourhoods(g):
    return [set(g.neighbors(v)) for v in g.vertices()]


def _set_count(g, vertices):
    return len({id(g.neighbors(v)) for v in vertices})


def test_whole_run_join_grows_one_shared_set():
    g = _twins_graph()
    shared = g.neighbors(2)
    [t] = g.add_family(RoleKind.T_VERTEX, [0], join=range(2, 14))
    assert all(g.neighbors(v) is shared for v in range(2, 14))
    assert shared == {0, t} and g.neighbors(t) == set(range(2, 14))
    assert g.neighbors(14) == {0, 1}
    # The same hosts as a list: each twin gets a set of its own.
    g = _twins_graph()
    [t] = g.add_family(RoleKind.T_VERTEX, [0], join=list(range(13, 1, -1)))
    assert all(g.neighbors(v) == {0, t} for v in range(2, 14))
    assert _set_count(g, range(2, 14)) == 12 and _set_count(g, range(14, 23)) == 1


def test_partial_join_leaves_the_other_twins_unchanged():
    # A range that straddles the end of one run and the start of the next,
    # and a list that covers part of a run.
    for join in (range(10, 17), [3, 15]):
        g = _twins_graph()
        before = _neighbourhoods(g)
        ids = g.add_family(RoleKind.APEX, ["a", "b"], join=join)
        for v in range(23):
            assert g.neighbors(v) == (before[v] | set(ids) if v in join else before[v])
        assert all(g.neighbors(v) == set(join) for v in ids)


def test_add_edge_at_a_twin_leaves_the_other_twins_unchanged():
    g = _twins_graph()
    g.add_edge(3, 15)
    assert g.neighbors(3) == {0, 15} and g.neighbors(15) == {0, 1, 3}
    assert all(g.neighbors(v) == {0} for v in range(2, 14) if v != 3)
    assert all(g.neighbors(v) == {0, 1} for v in range(14, 23) if v != 15)
    g = _twins_graph()
    g.add_edge(14, 22)  # two twins of one run
    assert g.neighbors(14) == {0, 1, 22} and g.neighbors(22) == {0, 1, 14}
    assert all(g.neighbors(v) == {0, 1} for v in range(15, 22))
    assert all(g.neighbors(v) == {0} for v in range(2, 14))


def test_clone_of_twins_is_independent():
    g = _twins_graph()
    before = _neighbourhoods(g)
    h = g.clone()
    assert h == g and _set_count(h, h.vertices()) == h.n
    h.add_family(RoleKind.APEX, ["a"], join=range(2, 23))
    h.add_edge(2, 14)
    assert _neighbourhoods(g) == before


def test_failed_add_family_leaves_twins_as_they_were():
    # A range join fails as the list of its ids does, with the same error.
    failures = [
        (SelfLoop, "^self-loop at 23$", range(2, 24)),
        (UnknownVertex, "^vertex -1 not in graph of order 23$", range(-1, 22)),
        (UnknownVertex, "^vertex 40 not in graph of order 23$", [2, 14, 40]),
        (DuplicateEdge, "^edge \\(14,23\\) already present$", [2, 14, 15, 14]),
    ]
    for error, message, join in failures:
        for size in (1, 2, 9):
            for hosts in (join, list(join)):
                g = _twins_graph()
                before = g.clone()
                with pytest.raises(error, match=message):
                    g.add_family(RoleKind.APEX, range(size), join=hosts)
                assert g == before


def test_pendant_family_holds_one_set():
    g = Graph()
    [hub] = g.add_family(RoleKind.SQUARE, ["s"])
    pendants = g.add_family(RoleKind.PENDANT, range(500), join=[hub])
    assert _set_count(g, pendants) == 1
    assert g.neighbors(pendants[0]) == {hub} and g.neighbors(hub) == set(pendants)
    assert g.m == 500


def test_only_families_of_nine_or_more_share_a_set():
    g = Graph()
    [hub] = g.add_family(RoleKind.SQUARE, ["s"])
    small = g.add_family(RoleKind.PENDANT, range(8), join=[hub])
    large = g.add_family(RoleKind.PENDANT, range(9), join=[hub])
    hostless = g.add_family(RoleKind.OTHER, range(9))
    assert _set_count(g, small) == 8 and _set_count(g, large) == 1
    assert _set_count(g, hostless) == 9


def test_twins_match_private_sets():
    # Random families on both sides of the size cutoff, range and list joins
    # and edges, against a model with one set per vertex.
    rng = random.Random(11)
    for _ in range(200):
        g, model = Graph(), []
        for _ in range(rng.randint(1, 12)):
            n = len(model)
            if n >= 2 and rng.random() < 0.3:
                u, v = rng.sample(range(n), 2)
                if v not in model[u]:
                    g.add_edge(u, v)
                    model[u].add(v)
                    model[v].add(u)
                continue
            lo = rng.randint(0, n)
            hi = rng.randint(lo, n)
            hosts = range(lo, hi)
            if rng.random() < 0.5:
                hosts = [h for h in hosts if rng.random() < 0.6]
            ids = g.add_family(RoleKind.OTHER, range(rng.choice([1, 2, 8, 9, 12])), join=hosts)
            for h in hosts:
                model[h].update(ids)
            model.extend(set(hosts) for _ in ids)
        assert _neighbourhoods(g) == model


def test_graphs_differing_in_one_payload_are_not_equal():
    a, b = Graph(), Graph()
    a.add_family(RoleKind.SQUARE, [("s", 0), ("s", 1)])
    b.add_family(RoleKind.SQUARE, [("s", 0), ("s", 2)])
    assert a._kinds == b._kinds and a._adj == b._adj
    assert a != b
    b = Graph()
    b.add_family(RoleKind.SQUARE, [("s", 0), ("s", 1)])
    assert a == b


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


def _is_star_forest_by_components(g, deleted):
    # A star on s > 1 vertices has s - 1 edges and a vertex of degree s - 1.
    rest = [v for v in g.vertices() if v not in deleted]
    for comp in components_of_induced(g, rest):
        degrees = [g.deg_in(v, comp) for v in comp]
        size = len(comp)
        if size > 1 and (sum(degrees) // 2 != size - 1 or max(degrees) != size - 1):
            return False
    return True


def test_star_forest_check_matches_component_definition():
    rng = random.Random(12)
    answers = []
    for _ in range(600):
        n = rng.randint(0, 10)
        p = rng.choice((0.1, 0.2, 0.4))
        g = build_graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        deleted = {v for v in range(n) if rng.random() < 0.3}
        answer = _is_star_forest_by_components(g, deleted)
        assert is_star_forest_after_deletion(g, deleted) == answer
        answers.append(answer)
    assert 100 < sum(answers) < 500  # both answers are well represented


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
    assert [back.tag(v) for v in back.vertices()] == [RoleTag(RoleKind.ORIGINAL)] * 3 + [
        RoleTag(RoleKind.SQUARE, None)
    ]


@pytest.mark.parametrize("kind", sorted(REDUCTIONS))
def test_compiled_graphs_match_edge_by_edge_build(kind):
    # add_family joins whole families at once; the reference adds the same
    # vertices and edges one at a time, and the text format round-trips them.
    red, rng = REDUCTIONS[kind], random.Random(f"bulk-build-{kind}")
    for case in range(20):
        g = red.compile(red.gen(rng, DEFAULT_MAX_N[kind]))[0].graph
        ref = Graph()
        for v in g.vertices():
            ref.add_vertex(g.tag(v))
        for u, v in g.edges():
            ref.add_edge(u, v)
        assert g == ref, case
        back = parse_graph(write_graph(g))
        assert back.n == g.n, case
        assert all(back.neighbors(v) == g.neighbors(v) for v in g.vertices()), case
        assert all(back.tag(v).kind is g.tag(v).kind for v in g.vertices()), case


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
