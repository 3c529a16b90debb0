import ast
import itertools
import random
import sys
import tracemalloc
from pathlib import Path

import pytest

import alliancelib
from alliancelib import graph
from alliancelib.errors import DuplicateEdge, FrozenGraph, ParseError, SelfLoop, UnknownVertex
from alliancelib.graph import (
    Family,
    Graph,
    Indexed,
    RoleKind,
    RoleTag,
    build_graph,
    is_star_forest_after_deletion,
    parse_graph,
    write_graph,
)
from alliancelib.harness import DEFAULT_MAX_N
from alliancelib.kinds import REDUCTIONS

from graph_checks import components_of_induced, is_bipartite


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
    assert ids == range(2, 5)
    assert [g.tag(v) for v in ids] == [RoleTag(RoleKind.PENDANT, p) for p in payloads]
    assert all(g.neighbors(v) == set(hosts) for v in ids)
    assert g.neighbors(0) == g.neighbors(1) == set(ids)
    assert g.add_family(RoleKind.APEX, ["a"]) == range(5, 6) and g.degree(5) == 0
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
    assert g.add_family(RoleKind.APEX, ["a"], join=[0, 1, 2]) == range(order, order + 1)


def test_add_family_neighbour_sets():
    g = Graph()
    hosts = g.add_vertices(40)
    [apex] = g.add_family(RoleKind.APEX, ["a"], join=iter(hosts))
    assert g.neighbors(apex) == set(hosts)
    assert all(g.neighbors(h) == {apex} for h in hosts)
    ids = g.add_family(RoleKind.PENDANT, range(4), join=hosts[:3])
    assert all(g.neighbors(v) == set(hosts[:3]) for v in ids)
    assert all(g.neighbors(h) == {apex, *ids} for h in hosts[:3])
    # An edge added later touches its two ends, not the rest of the family.
    g.add_edge(ids[0], apex)
    assert g.neighbors(ids[0]) == {*hosts[:3], apex} and g.neighbors(apex) == {*hosts, ids[0]}
    assert all(g.neighbors(v) == set(hosts[:3]) for v in ids[1:])


def test_adjacency_follows_every_change():
    # `adjacency()` keeps its sets only until the graph next changes.
    g = Graph()
    g.add_vertices(3)
    assert g.adjacency() == [set(), set(), set()]
    g.add_edge(0, 1)
    assert g.adjacency() == [{1}, {0}, set()]
    [hub] = g.add_family(RoleKind.APEX, ["a"], join=range(0, 3))
    assert g.adjacency() == [{1, hub}, {0, hub}, {hub}, {0, 1, 2}]
    assert g.neighbors(2) == {hub} and g.freeze().adjacency() is g.adjacency()


def _records(g):
    return [(f.ids, f.kind, f.payloads, f.hosts, f.joined) for f in g.families()]


def test_families_record_each_add_family_call():
    g = Graph()
    g.add_vertices(3)
    assert g.add_family(RoleKind.PENDANT, [], join=[0]) == range(3, 3)  # no ids, no record
    g.add_family(RoleKind.PENDANT, Indexed(("p",), 4), join=(h for h in [2, 0]))
    [t] = g.add_family(RoleKind.T_VERTEX, [0], join=range(3, 7))
    assert _records(g) == [
        (range(0, 3), RoleKind.ORIGINAL, [None, None, None], set(), ()),
        (range(3, 7), RoleKind.PENDANT, Indexed(("p",), 4), {0, 2}, (range(t, t + 1),)),
        (range(7, 8), RoleKind.T_VERTEX, [0], range(3, 7), ()),
    ]
    # A range over part of a family is not recorded in its `joined`.
    g.add_family(RoleKind.APEX, ["a"], join=range(4, 6))
    assert g.families()[1].joined == (range(t, t + 1),)
    assert [g.degree(v) for v in range(3, 7)] == [3, 4, 4, 3]
    # The parsers make one record per run of equal kinds.
    h = parse_graph("p da 5 1\ne 0 4\nt 1 square\nt 2 square\nt 4 pendant\n")
    assert [(f.ids, f.kind) for f in h.families()] == [
        (range(0, 1), RoleKind.ORIGINAL),
        (range(1, 3), RoleKind.SQUARE),
        (range(3, 4), RoleKind.ORIGINAL),
        (range(4, 5), RoleKind.PENDANT),
    ]
    assert h.neighbors(0) == {4} and h.tag(2) == RoleTag(RoleKind.SQUARE)


def test_clone_is_independent():
    g = Graph()
    g.add_vertices(2)
    g.add_family(RoleKind.PENDANT, ["p"], join=[0, 1])
    g.freeze()
    tags = [g.tag(v) for v in g.vertices()]
    before = (g.n, tags, [set(g.neighbors(v)) for v in g.vertices()], _records(g))
    h = g.clone()
    assert h == g
    h.add_family(RoleKind.APEX, ["a"], join=[0, 2])
    h.add_family(RoleKind.APEX, ["b"], join=range(0, 4))  # joins every record of h
    h.add_vertex(RoleTag(RoleKind.SQUARE, "s"))
    h.add_edge(0, 1)
    assert h != g
    after = (g.n, [g.tag(v) for v in g.vertices()], [g.neighbors(v) for v in g.vertices()], _records(g))
    assert after == before


def _twins_graph():
    """Hubs 0 and 1, then a family 2..13 on hub 0 and a family 14..22 on hubs 0 and 1."""
    g = Graph()
    g.add_vertices(2)
    g.add_family(RoleKind.PENDANT, range(12), join=[0])
    g.add_family(RoleKind.SQUARE, range(9), join=[0, 1])
    return g


def _neighbourhoods(g):
    return [set(g.neighbors(v)) for v in g.vertices()]


def _set_count(g, vertices):
    """The number of distinct set objects `adjacency()` gives `vertices`."""
    adj = g.adjacency()
    return len({id(adj[v]) for v in vertices})


@pytest.fixture
def built(monkeypatch):
    """The kinds of the families whose shared set a read asks for, one entry
    per request.  Every neighbour set is built from its family's shared set,
    so a vertex whose family never shows up here has had no set built."""
    kinds = []
    shared = Family.shared

    def spy(fam):
        kinds.append(fam.kind)
        return shared(fam)

    monkeypatch.setattr(Family, "shared", spy)
    return kinds


def test_whole_run_join_grows_one_shared_set():
    # A range join is recorded once in each family it covers whole, and the
    # members of such a family keep one shared set.
    g = _twins_graph()
    assert g.neighbors(2) == {0}  # a set read before the join is not reused
    [t] = g.add_family(RoleKind.T_VERTEX, [0], join=range(2, 14))
    fams = g.families()
    assert fams[1].joined == (range(t, t + 1),) and fams[2].joined == ()
    assert fams[3].hosts == range(2, 14)
    g.freeze()
    assert _set_count(g, range(2, 14)) == 1 and _set_count(g, range(14, 23)) == 1
    assert g.neighbors(2) == {0, t} and g.neighbors(t) == set(range(2, 14))
    assert g.neighbors(14) == {0, 1}
    # The same hosts as a list: the new record holds them, no other record
    # changes, and every neighbourhood is the same.
    h = _twins_graph()
    [t] = h.add_family(RoleKind.T_VERTEX, [0], join=list(range(13, 1, -1)))
    assert h.families()[1].joined == () and h.families()[3].hosts == set(range(2, 14))
    assert h == g and _neighbourhoods(h) == _neighbourhoods(g)


def test_partial_join_leaves_the_other_twins_unchanged():
    # A range that straddles the end of one family and the start of the
    # next, and a list that covers part of a family.
    for join in (range(10, 17), [3, 15]):
        g = _twins_graph()
        before = _neighbourhoods(g)
        ids = g.add_family(RoleKind.APEX, ["a", "b"], join=join)
        for v in range(23):
            assert g.neighbors(v) == (before[v] | set(ids) if v in join else before[v])
        assert all(g.neighbors(v) == set(join) for v in ids)
        assert all(f.joined == () for f in g.families())


def test_add_edge_at_a_twin_leaves_the_other_twins_unchanged():
    g = _twins_graph()
    g.add_edge(3, 15)
    assert g.neighbors(3) == {0, 15} and g.neighbors(15) == {0, 1, 3}
    assert all(g.neighbors(v) == {0} for v in range(2, 14) if v != 3)
    assert all(g.neighbors(v) == {0, 1} for v in range(14, 23) if v != 15)
    g = _twins_graph()
    g.add_edge(14, 22)  # two members of one family
    assert g.neighbors(14) == {0, 1, 22} and g.neighbors(22) == {0, 1, 14}
    assert all(g.neighbors(v) == {0, 1} for v in range(15, 22))
    assert all(g.neighbors(v) == {0} for v in range(2, 14))


def test_clone_of_twins_is_independent():
    g = _twins_graph()
    before, records = _neighbourhoods(g), _records(g)
    h = g.clone()
    assert h == g
    h.add_family(RoleKind.APEX, ["a"], join=range(2, 23))
    h.add_edge(2, 14)
    assert _neighbourhoods(g) == before and _records(g) == records
    assert h.families()[1].joined == (range(23, 24),) and h.neighbors(2) == {0, 14, 23}


def test_failed_add_family_leaves_twins_as_they_were():
    # A range join fails as the list of its ids does, with the same error,
    # and changes no record.
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
                records = _records(g)
                with pytest.raises(error, match=message):
                    g.add_family(RoleKind.APEX, range(size), join=hosts)
                assert _records(g) == records
                assert g == _twins_graph()


def test_neighbors_of_an_owing_twin_leaves_the_other_twins_unchanged():
    # Members 3 and 15 host a family of nine; reading one of them builds its
    # set alone, and the rest of its family keeps the shared one.
    g = _twins_graph()
    ids = set(g.add_family(RoleKind.PENDANT, range(9), join=[3, 15]))
    assert g.degree(3) == 10 and g.degree(15) == 11
    assert g.neighbors(3) == {0} | ids and g.neighbors(15) == {0, 1} | ids
    assert all(g.neighbors(v) == {0} for v in range(2, 14) if v != 3)
    assert all(g.neighbors(v) == {0, 1} for v in range(14, 23) if v != 15)
    assert all(g.neighbors(v) == {3, 15} for v in ids)
    assert _set_count(g, range(2, 14)) == 2 and _set_count(g, range(14, 23)) == 2


def test_owed_edges_are_duplicates(built):
    # Hub 0 hosts its pendants and t is joined to the range of them, so both
    # joins live in records.  An edge a record holds is refused from either
    # end, and a new edge at t builds no set.
    g = Graph()
    [hub] = g.add_family(RoleKind.SQUARE, ["s"])
    pendants = g.add_family(RoleKind.PENDANT, range(9), join=[hub])
    [t] = g.add_family(RoleKind.T_VERTEX, [0], join=range(1, 10))
    for u, v in [(hub, 1), (5, hub), (t, 9), (2, t)]:
        with pytest.raises(DuplicateEdge, match=f"^edge \\({u},{v}\\) already present$"):
            g.add_edge(u, v)
    g.add_edge(t, hub)
    assert g.degree(t) == 10 and g.degree(hub) == 10 and g.m == 19
    assert built == []
    assert g.neighbors(t) == {hub, *pendants} and g.neighbors(hub) == {t, *pendants}
    assert built == [RoleKind.T_VERTEX, RoleKind.SQUARE]


def test_pendant_family_holds_one_set(built):
    # A family of 500 pendants holds no set until one is read: the call
    # allocates less than one set per pendant would, and no read asks for a
    # set.  The first read builds the family's one set, which every pendant
    # then shares.
    g = Graph()
    [hub] = g.add_family(RoleKind.SQUARE, ["s"])
    tracemalloc.start()
    try:
        pendants = g.add_family(RoleKind.PENDANT, Indexed(("p",), 500), join=[hub])
        grown = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert grown < 500 * sys.getsizeof(set())
    assert g.m == 500 and g.degree(hub) == 500 and g.degree(pendants[7]) == 1
    assert built == []
    g.freeze()
    first = g.neighbors(pendants[0])
    assert first == {hub} and built == [RoleKind.PENDANT]
    assert all(g.neighbors(p) is first for p in pendants)
    assert g.neighbors(hub) == set(pendants) and set(built) == {RoleKind.PENDANT, RoleKind.SQUARE}
    assert _set_count(g, pendants) == 1


def test_untouched_members_of_every_family_share_one_set():
    # Whatever its size, a family's members share one set in `adjacency()`,
    # except those with edges or hosted families of their own.
    g = Graph()
    [hub] = g.add_family(RoleKind.SQUARE, ["s"])
    small = g.add_family(RoleKind.PENDANT, range(8), join=[hub])
    large = g.add_family(RoleKind.PENDANT, range(9), join=[hub])
    hostless = g.add_family(RoleKind.OTHER, range(9))
    pair = g.add_family(RoleKind.OTHER, range(2), join=[hub, large[0]])
    g.add_edge(pair[0], small[0])
    g.freeze()
    assert _set_count(g, small[1:]) == 1 and _set_count(g, large[1:]) == 1
    assert _set_count(g, small) == _set_count(g, large) == 2
    assert _set_count(g, hostless) == 1 and not g.neighbors(hostless[0])
    assert g.neighbors(small[0]) == {hub, pair[0]} and g.neighbors(large[0]) == {hub, *pair}


def _replay(ops):
    g = Graph()
    for size, join, edge in ops:
        if edge is None:
            g.add_family(RoleKind.OTHER, range(size), join=join)
        else:
            g.add_edge(*edge)
    return g


def _record_edges(g):
    """The edges the family records hold: each member to its hosts and to
    the ids of its joined runs."""
    return {
        (min(w, x), max(w, x))
        for fam in g.families()
        for w in fam.ids
        for x in itertools.chain(fam.hosts, *fam.joined)
    }


def test_twins_match_private_sets():
    # Random families of 1 to 12 vertices, range and list joins and edges,
    # repeated edges among them (many at a host, and many of an edge that a
    # record holds), against a model with one set per vertex.  Degrees and m
    # are read after every step, before any set is built; edges(), == and
    # clone each read a fresh replay of the graph, with no set built yet.
    rng = random.Random(11)
    record_repeats = 0
    for _ in range(200):
        g, model, ops, payloads = Graph(), [], [], []
        for _ in range(rng.randint(1, 12)):
            n = len(model)
            if n >= 2 and rng.random() < 0.4:
                hosts = sorted({h for fam in g.families() for h in fam.hosts})
                u = rng.choice(hosts) if hosts and rng.random() < 0.5 else rng.randrange(n)
                if model[u] and rng.random() < 0.5:
                    v = rng.choice(sorted(model[u]))
                    record_repeats += (min(u, v), max(u, v)) in _record_edges(g)
                    with pytest.raises(DuplicateEdge):
                        g.add_edge(u, v)
                elif len(model[u]) < n - 1:
                    v = rng.choice([w for w in range(n) if w != u and w not in model[u]])
                    g.add_edge(u, v)
                    ops.append((0, (), (u, v)))
                    model[u].add(v)
                    model[v].add(u)
            else:
                lo = rng.randint(0, n)
                hi = rng.randint(lo, n)
                hosts = range(lo, hi)
                if rng.random() < 0.5:
                    hosts = [h for h in hosts if rng.random() < 0.6]
                size = rng.choice([1, 2, 8, 9, 12])
                ids = g.add_family(RoleKind.OTHER, range(size), join=hosts)
                ops.append((size, hosts, None))
                payloads.extend(range(size))
                for h in hosts:
                    model[h].update(ids)
                model.extend(set(hosts) for _ in ids)
            assert g.m == sum(map(len, model)) // 2
            assert [g.degree(v) for v in g.vertices()] == list(map(len, model))
        ref = Graph()
        ref.add_family(RoleKind.OTHER, payloads)
        for u, nb in enumerate(model):
            for v in nb:
                if u < v:
                    ref.add_edge(u, v)
        assert list(_replay(ops).edges()) == list(ref.edges())
        assert _replay(ops) == ref and ref == _replay(ops)
        assert _neighbourhoods(_replay(ops).clone()) == model
        assert _neighbourhoods(g) == model
    assert record_repeats > 20


def test_graphs_differing_in_one_payload_are_not_equal():
    a, b = Graph(), Graph()
    a.add_family(RoleKind.SQUARE, [("s", 0), ("s", 1)])
    b.add_family(RoleKind.SQUARE, [("s", 0), ("s", 2)])
    assert [f.kind for f in a.families()] == [f.kind for f in b.families()]
    assert a.adjacency() == b.adjacency()
    assert a != b
    b = Graph()
    b.add_family(RoleKind.SQUARE, [("s", 0), ("s", 1)])
    assert a == b


def _run_graph(explicit):
    """Hub 0, then three families whose payloads count up from 0 after a
    prefix (int, str, empty), each as an `Indexed` run or explicit tuples."""

    def payloads(prefix, count):
        return [(*prefix, j) for j in range(count)] if explicit else Indexed(prefix, count)

    g = Graph()
    g.add_vertex()
    g.add_family(RoleKind.PENDANT, payloads((0, 7), 12), join=[0])
    g.add_family(RoleKind.SQUARE, payloads(("u", 1), 3), join=range(1, 4))
    g.add_family(RoleKind.HUB_H, payloads((), 2))
    return g


def test_tag_over_a_run_is_the_explicit_tuple():
    g = _run_graph(explicit=False)
    assert [g.tag(v) for v in range(1, 18)] == (
        [RoleTag(RoleKind.PENDANT, (0, 7, j)) for j in range(12)]
        + [RoleTag(RoleKind.SQUARE, ("u", 1, j)) for j in range(3)]
        + [RoleTag(RoleKind.HUB_H, (j,)) for j in range(2)]
    )
    assert g.add_family(RoleKind.PENDANT, Indexed((5,), 0), join=[0]) == range(18, 18)
    assert g.n == 18 and g.degree(0) == 12
    assert g.add_vertex(RoleTag(RoleKind.APEX, "a")) == 18 and g.tag(18).payload == "a"


def test_run_built_graph_equals_tuple_built_graph():
    g, h = _run_graph(explicit=False), _run_graph(explicit=True)
    assert g == h and h == g
    assert write_graph(g.freeze()) == write_graph(h.freeze())
    # One entry off in the last run is a different graph.
    h = Graph()
    h.add_vertex()
    h.add_family(RoleKind.PENDANT, [(0, 7, j) for j in range(12)], join=[0])
    h.add_family(RoleKind.SQUARE, [("u", 1, j) for j in range(3)], join=range(1, 4))
    h.add_family(RoleKind.HUB_H, [(0,), (2,)])
    assert g != h


def test_clone_of_a_run_graph_is_independent():
    g = _run_graph(explicit=False).freeze()
    before = [g.tag(v) for v in g.vertices()]
    h = g.clone()
    assert h == g
    h.add_family(RoleKind.PENDANT, Indexed(("x",), 10), join=[0])
    h.add_edge(1, 2)
    assert [h.tag(v).payload for v in range(18, 28)] == [("x", j) for j in range(10)]
    assert [g.tag(v) for v in g.vertices()] == before and g.n == 18
    assert g == _run_graph(explicit=False) and h != g


def test_failed_add_family_with_a_run_leaves_the_graph_as_it_was():
    for count in (1, 2, 9):
        for join in ([0, 40], [0, 0], range(0, 19), (v for v in [3, 18])):
            g = _run_graph(explicit=False)
            before = g.clone()
            with pytest.raises((UnknownVertex, DuplicateEdge, SelfLoop)):
                g.add_family(RoleKind.SQUARE, Indexed(("s",), count), join=join)
            assert g == before
            # The next family numbers its payloads from its own first id.
            assert g.add_family(RoleKind.OTHER, Indexed((9,), 2)) == range(18, 20)
            assert [g.tag(v).payload for v in (17, 18, 19)] == [(1,), (9, 0), (9, 1)]


def test_runs_match_one_payload_per_vertex():
    # Random run and explicit families, edges and failing calls, against a
    # model that holds one payload per vertex.
    rng = random.Random(19)
    for _ in range(200):
        g, model = Graph(), []
        for _ in range(rng.randint(1, 10)):
            n = len(model)
            if n >= 2 and rng.random() < 0.2:
                u, v = rng.sample(range(n), 2)
                if v not in g.neighbors(u):
                    g.add_edge(u, v)
                continue
            prefix = tuple(rng.choice([0, 3, "p", -2]) for _ in range(rng.randint(0, 2)))
            count = rng.choice([0, 1, 2, 8, 9, 12])
            explicit = [(*prefix, j) for j in range(count)]
            payloads = explicit if rng.random() < 0.3 else Indexed(prefix, count)
            lo = rng.randint(0, n)
            hosts = range(lo, rng.randint(lo, n))
            if rng.random() < 0.2:
                hosts = [*hosts, rng.choice([-1, n + count, lo])]  # may fail
            try:
                ids = g.add_family(RoleKind.OTHER, payloads, join=hosts)
            except (UnknownVertex, DuplicateEdge, SelfLoop):
                continue
            assert ids == range(n, n + count)
            model.extend(explicit)
        assert [g.tag(v).payload for v in g.vertices()] == model
        ref = Graph()
        for v, payload in enumerate(model):
            ref.add_vertex(RoleTag(RoleKind.OTHER, payload))
        for u, v in g.edges():
            ref.add_edge(u, v)
        assert g == ref and g.clone() == ref


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


def _write_by_vertex(g):
    """The writer as it was before it streamed from the records: every
    vertex's sorted neighbours above it, one line at a time."""
    lines = [""]
    lines.extend([f"e {u} {v}" for u, nb in enumerate(g.adjacency()) for v in sorted(nb) if u < v])
    lines[0] = f"p da {g.n} {len(lines) - 1}"
    for fam in g.families():
        if fam.kind is not RoleKind.ORIGINAL:
            lines.extend([f"t {v} {fam.kind.value}" for v in fam.ids])
    return "\n".join(lines) + "\n"


def _assert_writes_as_by_vertex(g):
    # First with no neighbour set kept, then with `adjacency()` kept.
    text = write_graph(g)
    assert text == _write_by_vertex(g)
    assert write_graph(g) == text
    return text


_KINDS = [RoleKind.ORIGINAL, RoleKind.PENDANT, RoleKind.SQUARE, RoleKind.APEX, RoleKind.T_VERTEX]


def _seeded_graph(rng):
    """A graph built by a random mix of every construction path: list,
    generator and whole or partial `range` joins, list and `Indexed`
    payloads, added edges (at hosts and hosted members alike), isolated
    families, and a clone extended further."""
    g = Graph()
    for step in range(rng.randint(0, 14)):
        n = g.n
        if step == 7 and rng.random() < 0.5:
            g = g.clone()
        if n >= 2 and rng.random() < 0.3:
            u, v = rng.sample(range(n), 2)
            if v not in g.neighbors(u):
                g.add_edge(u, v)
            continue
        count = rng.choice([1, 2, 3, 7])
        payloads = Indexed(("p",), count) if rng.random() < 0.4 else [None] * count
        lo = rng.randint(0, n)
        hosts = range(lo, rng.randint(lo, n))
        shape = rng.random()
        if shape < 0.3:
            hosts = [h for h in hosts if rng.random() < 0.6]
        elif shape < 0.45:
            hosts = (h for h in list(hosts)[::-1])
        g.add_family(rng.choice(_KINDS), payloads, join=hosts)
    return g


def test_write_graph_matches_the_per_vertex_writer_on_seeded_graphs():
    rng = random.Random(25)
    streamed = set()
    for case in range(400):
        g = _seeded_graph(rng)
        streamed.add(any(f.joined for f in g.families()))
        text = _assert_writes_as_by_vertex(g)
        back = parse_graph(text)
        assert _assert_writes_as_by_vertex(back) == text, case
        # A comment after the header sends the text down the line-by-line path.
        lines = text.split("\n", 1)
        by_line = parse_graph(lines[0] + "\nc read line by line\n" + lines[1])
        assert by_line == back and _assert_writes_as_by_vertex(by_line) == text, case
        _assert_writes_as_by_vertex(build_graph(g.n, g.edges()))
    assert streamed == {False, True}
    assert write_graph(Graph()) == _write_by_vertex(Graph()) == "p da 0 0\n"
    assert write_graph(build_graph(3, [])) == "p da 3 0\n"


def test_degrees_in_counts_as_the_neighbour_sets(monkeypatch):
    # Built, parsed by the run, by the set and line by line: the ledger of
    # `alliance check` from the records equals the one from N(v).
    rng = random.Random(26)
    for case in range(300):
        g = _seeded_graph(rng).freeze()
        text = write_graph(g)
        by_sets = parse_graph(text)
        monkeypatch.setattr(graph, "_SHORT_RUNS", 0)
        by_runs = parse_graph(text)
        monkeypatch.undo()
        for h in (g, by_runs, by_sets, parse_graph(text.replace("\n", "\nc\n", 1))):
            s = frozenset(v for v in range(h.n) if rng.random() < 0.4)
            expected = [(v, len(h.neighbors(v)), len(h.neighbors(v) & s)) for v in sorted(s)]
            assert list(h.degrees_in(s)) == list(h.degrees_in(list(s))) == expected, case


@pytest.mark.parametrize("kind", sorted(REDUCTIONS))
def test_write_graph_matches_the_per_vertex_writer_on_compiled_targets(kind):
    red, rng = REDUCTIONS[kind], random.Random(f"writer-{kind}")
    for _ in range(8):
        inst = red.gen(rng, DEFAULT_MAX_N[kind])
        if hasattr(inst, "graph"):
            _assert_writes_as_by_vertex(inst.graph)
        _assert_writes_as_by_vertex(red.compile(inst)[0].graph)


def _roles(g):
    return [g.tag(v) for v in g.vertices()]


def _same_graph(back, g):
    """A parsed graph has the compiled graph's edges and each vertex's
    kind; the text format carries no payloads."""
    return back.adjacency() == g.adjacency() and [back.tag(v).kind for v in back.vertices()] == [
        g.tag(v).kind for v in g.vertices()
    ]


def _same_parse(text):
    """parse_graph gives what the line-by-line parser gives: an equal graph
    with the same role at every vertex, or a ParseError with the same
    message."""
    try:
        want = graph._parse_lines(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as got:
            parse_graph(text)
        assert str(got.value) == str(exc)
        return None
    g = parse_graph(text)
    assert g == want and _roles(g) == _roles(want)
    return g


def test_tag_runs_parse_as_line_by_line():
    g = Graph()
    g.add_vertices(3)
    squares = g.add_family(RoleKind.SQUARE, [None] * 3, join=[0])
    g.add_vertex()
    g.add_family(RoleKind.PENDANT, [None] * 2, join=squares[:1])
    text = write_graph(g)  # tags: squares 3..5, pendants 7..8
    head, tags = text[: text.index("t ")], text[text.index("t ") :].splitlines(keepends=True)
    assert len(tags) == 5
    variants = [
        tags,
        tags[::-1],
        [tags[1], tags[0], *tags[2:]],  # permuted within a run
        [*tags, tags[0]],  # repeated
        [tags[0], tags[2], *tags[3:]],  # a gap inside a run
        [tags[0], "t 1 original\n", *tags[1:]],
        ["t 0 original\n", "t 1 original\n", *tags],
        [*tags[:3], "t 6 original\n", *tags[3:]],  # joins two original runs
        [tags[0].replace("t 3", "t 003"), *tags[1:]],
        [*tags[:4], tags[4].replace("t 8", "t 008")],
        [*tags, "t 9 apex\n"],  # at n
        [*tags, "t 90 apex\n"],
        [tags[0].replace("square", "squares"), *tags[1:]],
        [*tags[:3], "t 6 nonsense\n", *tags[3:]],
        [*tags, "t 6 square\n"],  # a kind out of id order
        ["t 2 square\n", *tags],  # a run that meets the next one
    ]
    for lines in variants:
        _same_parse(head + "".join(lines))
    assert _same_parse(head + "".join(tags)) == g
    for n in (0, 1):
        assert _same_parse(f"p da {n} 0\n").n == n
    _same_parse("p da 1 0\nt 0 square\n")
    _same_parse("p da 1 0\nt 1 square\n")


def _refuse_parse_lines(*args):
    raise AssertionError("a written graph fell back to the line-by-line reader")


@pytest.mark.parametrize("kind", sorted(REDUCTIONS))
def test_written_targets_parse_back_by_the_run(kind, monkeypatch):
    # A written target is read in bulk, back into an equal graph with the
    # same role at every vertex, and its text round-trips byte for byte.
    monkeypatch.setattr(graph, "_parse_lines", _refuse_parse_lines)
    red, rng = REDUCTIONS[kind], random.Random(f"tag-runs-{kind}")
    for _ in range(8):
        g = red.compile(red.gen(rng, DEFAULT_MAX_N[kind]))[0].graph
        text = write_graph(g)
        back = parse_graph(text)
        assert _same_graph(back, g) and write_graph(back) == text


def test_a_tag_run_longer_than_a_bulk_step_is_one_record(monkeypatch):
    monkeypatch.setattr(graph, "_parse_lines", _refuse_parse_lines)
    g = Graph()
    hub = g.add_vertex()
    g.add_family(RoleKind.PENDANT, [None] * (2 * graph._CHUNK + 5), join=[hub])
    g.add_family(RoleKind.PENDANT, [None] * 3, join=[hub])
    g.add_family(RoleKind.APEX, [None], join=[hub])
    text = write_graph(g)
    back = parse_graph(text)
    assert [(f.ids, f.kind) for f in back.families()] == [
        (range(0, 1), RoleKind.ORIGINAL),
        (range(1, g.n - 1), RoleKind.PENDANT),
        (range(g.n - 1, g.n), RoleKind.APEX),
    ]
    assert back == g and _roles(back) == _roles(g) and write_graph(back) == text


def test_a_parsed_target_keeps_few_explicit_sets(monkeypatch):
    # FIG1's target has 51,676 vertices, almost all pendants under a few
    # hubs; read back, it holds an explicit neighbour set only for the
    # vertices with edges of their own, not one per vertex.
    monkeypatch.setattr(graph, "_parse_lines", _refuse_parse_lines)
    fig1 = REDUCTIONS["mrss"].parse("mrss 2 3 2\n3 3\n2 1\n1 1\n1 2\n")
    g = REDUCTIONS["mrss"].compile(fig1)[0].graph
    text = write_graph(g)
    back = parse_graph(text)
    assert back.n == 51676 and len(back._edges) < 1000 and len(back.families()) < 1000
    assert _same_graph(back, g) and write_graph(back) == text


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


def test_only_graph_py_reads_the_graph_store():
    # The record layout stays behind one module: no other module of the
    # package reads a private data field of `Graph` or `Family`, by
    # attribute or by name string, or imports a private name of graph.py.
    private = {name for cls in (Graph, Family) for name in cls.__slots__ if name[0] == "_"}
    found = []
    for path in sorted(Path(alliancelib.__file__).parent.glob("*.py")):
        if path.name == "graph.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in private:
                found.append(f"{path.name}:{node.lineno} reads .{node.attr}")
            elif isinstance(node, ast.Constant) and node.value in private:
                found.append(f"{path.name}:{node.lineno} names {node.value!r}")
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[-1] == "graph":
                found += [
                    f"{path.name}:{node.lineno} imports {alias.name}"
                    for alias in node.names
                    if alias.name[0] == "_"
                ]
    assert private >= {"_families", "_edges", "_links", "_adj"} and found == []
