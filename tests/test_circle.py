import itertools
import random

import pytest

from alliancelib import circle
from alliancelib.alliances import is_daf_feasible, is_defensive_alliance
from alliancelib.circle import (
    ChordDiagram,
    DSCircleInstance,
    ds_extract_certificate,
    ds_forward_certificate,
    ds_to_daf,
    intersection_graph,
    parse_diagram,
    parse_ds_instance,
    solve_ds_bruteforce,
    write_diagram,
    write_ds_instance,
)
from alliancelib.errors import MalformedDiagram, ParseError, TooLarge
from alliancelib.graph import write_graph

K3_DIAGRAM = ChordDiagram(("a", "b", "c", "a", "b", "c"))


def random_diagram(rng, n):
    toks = [f"c{i}" for i in range(n)] * 2
    rng.shuffle(toks)
    return ChordDiagram(tuple(toks))


def test_diagram_validation():
    with pytest.raises(MalformedDiagram):
        ChordDiagram(("a", "b", "a"))
    with pytest.raises(MalformedDiagram):
        ChordDiagram(("a", "a", "a", "a"))


def test_diagram_validation_names_the_first_five_bad_labels():
    # In order of first occurrence, not sorted; "e" (twice) and "g" are fine.
    labels = ("f", "e", "d", "c", "b", "a", "g", "g", "h", "h", "h", "e")
    with pytest.raises(MalformedDiagram) as exc:
        ChordDiagram(labels)
    assert str(exc.value) == "labels must occur exactly twice: ['f', 'd', 'c', 'b', 'a']"


def test_intersection_graph_examples():
    g = intersection_graph(K3_DIAGRAM)
    assert list(g.edges()) == [(0, 1), (0, 2), (1, 2)]
    assert list(intersection_graph(ChordDiagram(("a", "a", "b", "b"))).edges()) == []
    assert list(intersection_graph(ChordDiagram(("a", "b", "a", "b"))).edges()) == [
        (0, 1)
    ]


def test_intersection_graph_rotation_reversal_invariance():
    rng = random.Random(1)
    for _ in range(25):
        d = random_diagram(rng, rng.randint(1, 6))
        g = intersection_graph(d)
        for shift in range(len(d.labels)):
            rotated = ChordDiagram(d.labels[shift:] + d.labels[:shift])
            assert intersection_graph(rotated) == g
        assert intersection_graph(ChordDiagram(d.labels[::-1])) == g


def test_solve_ds_examples():
    assert solve_ds_bruteforce(DSCircleInstance(K3_DIAGRAM, 1)) == ("a",)
    edgeless = DSCircleInstance(ChordDiagram(("a", "a", "b", "b")), 1)
    assert solve_ds_bruteforce(edgeless) is None
    assert solve_ds_bruteforce(
        DSCircleInstance(ChordDiagram(("a", "a", "b", "b")), 2)
    ) == ("a", "b")


def test_solve_ds_bruteforce_guard():
    # n pairwise crossing chords; 21 is one past the brute-force guard.
    def crossing(n):
        return DSCircleInstance(ChordDiagram(tuple(range(n)) * 2), 1)

    assert solve_ds_bruteforce(crossing(20)) == (0,)
    with pytest.raises(TooLarge):
        solve_ds_bruteforce(crossing(21))


def test_ds_to_daf_k3():
    inst = DSCircleInstance(K3_DIAGRAM, 1)
    daf, diagram, gm = ds_to_daf(inst)
    n = 3
    assert daf.r == 7 * n * (4 * n + 2) + n + 1 == 298
    fam = gm.families
    tri = sum(len(fam["X"][l]) + len(fam["Y"][l]) for l in "abc") + sum(
        3 * len(fam[key][l])
        for key in ("cliques_x1", "cliques_x2", "cliques_y1", "cliques_y2")
        for l in "abc"
    )
    assert tri == 7 * n * (4 * n + 2) == 294
    # per-vertex family audit
    for lab in "abc":
        assert len(fam["X"][lab]) + len(fam["Y"][lab]) == 2 * (2 * n + 1)
        cliques = sum(
            3 * len(fam[key][lab])
            for key in ("cliques_x1", "cliques_x2", "cliques_y1", "cliques_y2")
        )
        assert cliques == 12 * (2 * n + 1)


def test_ds_to_daf_family_sizes_small_n():
    for tokens, n in ((("a", "a"), 1), (("a", "b", "a", "b"), 2)):
        daf, _, gm = ds_to_daf(DSCircleInstance(ChordDiagram(tokens), 1))
        fam = gm.families
        tri = sum(len(v) for v in fam["X"].values()) + sum(
            len(v) for v in fam["Y"].values()
        )
        tri += sum(
            3 * len(tris)
            for key in ("cliques_x1", "cliques_x2", "cliques_y1", "cliques_y2")
            for tris in fam[key].values()
        )
        assert tri == 7 * n * (4 * n + 2)
        assert daf.r == 7 * n * (4 * n + 2) + n + 1


def test_ds_to_daf_diagram_graph_coherence():
    rng = random.Random(9)
    diagrams = [K3_DIAGRAM, ChordDiagram(("a", "a"))]
    diagrams += [random_diagram(rng, rng.randint(1, 4)) for _ in range(8)]
    for d in diagrams:
        daf, diagram, gm = ds_to_daf(DSCircleInstance(d, 1))
        ig = intersection_graph(diagram)
        assert ig.n == daf.graph.n
        assert list(ig.edges()) == list(daf.graph.edges())


def _edit_last_nest(labels, edit):
    """`labels` with the two innermost pendants q, p of the last host's nest,
    the five labels q p h p q, rewritten as `edit` orders them."""
    p = max(labels)  # the last pendant is its nest's innermost
    q = p - 1  # a pendant of the same host, so not adjacent to p
    at = labels.index(q)
    window = labels[at : at + 5]
    assert window == (q, p, window[2], p, q)
    names = {"q": q, "p": p, "h": window[2]}
    return labels[:at] + tuple(names[x] for x in edit) + labels[at + 5 :]


def test_ds_to_daf_self_check_failure(monkeypatch):
    # The emitted diagram itself is edited before the check reads it.  p
    # moved off its host crosses nothing (one edge missing); p and q made to
    # interleave inside the nest add the non-edge p-q; p moved to cross q
    # alone swaps the edge p-h for that non-edge.
    real = circle.ChordDiagram
    cases = [("qhqpp", 0, 1), ("qphqp", 1, 0), ("qhpqp", 1, 1)]
    for edit, extra, missing in cases:

        def edited(labels, edit=edit):
            if isinstance(labels[0], int):  # the emitted diagram, not the source
                labels = _edit_last_nest(labels, edit)
            return real(labels)

        monkeypatch.setattr(circle, "ChordDiagram", edited)
        message = f"^diagram/graph mismatch: {extra} extra, {missing} missing crossings$"
        with pytest.raises(AssertionError, match=message):
            ds_to_daf(DSCircleInstance(K3_DIAGRAM, 1))
    monkeypatch.setattr(circle, "ChordDiagram", real)
    ds_to_daf(DSCircleInstance(K3_DIAGRAM, 1))  # the emitted diagram passes


def _crossing_count_mismatch(labels, adj):
    """(extra, missing) by enumerating every crossing pair."""
    pairs = extra = 0
    for a, b in circle.crossing_pairs(labels):
        pairs += 1
        extra += b not in adj[a]
    return extra, sum(map(len, adj)) // 2 - (pairs - extra)


def _mutate(rng, labels):
    """`labels` after one random swap, move, reversal, rotation or block move."""
    lab, size = list(labels), len(labels)
    op = rng.randrange(5)
    if op == 0:
        a, b = rng.randrange(size), rng.randrange(size)
        lab[a], lab[b] = lab[b], lab[a]
    elif op == 1:
        lab.insert(rng.randrange(size), lab.pop(rng.randrange(size)))
    elif op == 2:
        a, b = sorted(rng.sample(range(size + 1), 2))
        lab[a:b] = lab[a:b][::-1]
    elif op == 3:
        r = rng.randrange(size)
        lab = lab[r:] + lab[:r]
    else:
        a = rng.randrange(size)
        block = lab[a : a + rng.randint(1, 40)]
        del lab[a : a + len(block)]
        at = rng.randrange(len(lab) + 1)
        lab[at:at] = block
    return tuple(lab)


class _Reads(list):
    """A neighbour-set list that records which vertices' sets are read."""

    def __init__(self, adj):
        super().__init__(adj)
        self.seen = set()

    def __getitem__(self, v):
        self.seen.add(v)
        return super().__getitem__(v)


def test_diagram_mismatch_matches_full_enumeration():
    # Mutants of emitted diagrams, most of them real mismatches, some of
    # them moving whole nests or breaking one: the nest walker counts the
    # same extra and missing crossings as the full sweep.
    rng = random.Random(23)
    real = 0
    for _ in range(60):
        daf, diagram, gm = ds_to_daf(DSCircleInstance(random_diagram(rng, rng.randint(1, 4)), 1))
        adj = daf.graph.adjacency()
        nests = {host: tuple(ids) for host, ids in gm.families["pendants"].items()}
        # On the emitted diagram every nest is taken in one step: no
        # pendant's neighbour set is read.
        read = _Reads(adj)
        assert circle.diagram_mismatch(diagram.labels, read, nests) == (0, 0)
        assert read.seen and read.seen.isdisjoint(daf.forbidden)
        for _ in range(5):
            labels = ChordDiagram(_mutate(rng, diagram.labels)).labels
            want = _crossing_count_mismatch(labels, adj)
            assert circle.diagram_mismatch(labels, adj, nests) == want
            real += want != (0, 0)
    assert real > 200


def test_ds_to_daf_vertex_count_audit():
    # |V(G')| from closed-form counts, with the weld count read independently
    # off the traversal sequence
    rng = random.Random(10)
    diagrams = [K3_DIAGRAM, ChordDiagram(("a", "a"))]
    diagrams += [random_diagram(rng, rng.randint(1, 4)) for _ in range(6)]
    for d in diagrams:
        daf, _, _ = ds_to_daf(DSCircleInstance(d, 1))
        n = d.n
        seq = d.labels
        seen = set()
        occ = []
        for lab in seq:
            occ.append(1 if lab not in seen else 2)
            seen.add(lab)
        welds = sum(
            1
            for j in range(2 * n)
            if seq[j] != seq[(j + 1) % (2 * n)]
            and (occ[j], occ[(j + 1) % (2 * n)]) != (2, 1)
        )
        # one chain of 2n+1 triangles has degree sum 27(2n+1)-18; four chains
        # per source vertex; each weld adds 3 to six clique vertices
        clique_degree_sum = 4 * n * (27 * (2 * n + 1) - 18) + 18 * welds
        pendants = clique_degree_sum + 6 * n * (4 * n + 2) + 2 * n * (4 * n + 3)
        assert daf.graph.n == 2 * n + 7 * n * (4 * n + 2) + pendants
        assert len(daf.forbidden) == pendants


def test_ds_to_daf_pendant_balance():
    daf, _, gm = ds_to_daf(DSCircleInstance(K3_DIAGRAM, 1))
    g = daf.graph
    forb = daf.forbidden
    for key in ("cliques_x1", "cliques_x2", "cliques_y1", "cliques_y2"):
        for tris in gm.families[key].values():
            for tri in tris:
                for v in tri:
                    inside = len(g.neighbors(v) & forb)
                    assert inside == g.degree(v) - inside
    for fans in (gm.families["X"], gm.families["Y"]):
        for ids in fans.values():
            for z in ids:
                assert len(g.neighbors(z) & forb) == 6
    n = K3_DIAGRAM.n
    for lab in "abc":
        for v in (gm.families["v1"][lab], gm.families["v2"][lab]):
            assert len(g.neighbors(v) & forb) == 4 * n + 3


def test_ds_to_daf_clique_pendants_match_degrees():
    # A clique vertex's nest is sized from the construction (triangle, host,
    # chain neighbours, weld); it must equal the degree the vertex has
    # without it, read back from the compiled graph.
    rng = random.Random(24)
    for n in range(1, 7):
        for _ in range(3):
            daf, _, gm = ds_to_daf(DSCircleInstance(random_diagram(rng, n), 1))
            g, pendants = daf.graph, gm.families["pendants"]
            for key in ("cliques_x1", "cliques_x2", "cliques_y1", "cliques_y2"):
                for tris in gm.families[key].values():
                    for tri in tris:
                        for v in tri:
                            assert g.degree(v) - len(pendants[v]) == len(pendants[v])


def test_ds_certificates():
    for tokens in (("a", "b", "c", "a", "b", "c"), ("a", "a"), ("a", "b", "a", "b")):
        d = ChordDiagram(tokens)
        src = intersection_graph(d)
        chords = d.chords()
        for size in range(1, d.n + 1):
            for names in itertools.combinations(range(d.n), size):
                chosen = set(names)
                if not all(
                    v in chosen or src.neighbors(v) & chosen for v in src.vertices()
                ):
                    continue
                dom = [chords[i] for i in names]
                inst = DSCircleInstance(d, size)
                daf, _, gm = ds_to_daf(inst)
                cert = ds_forward_certificate(gm, dom)
                assert not cert & daf.forbidden
                assert is_daf_feasible(daf, cert)
                assert ds_extract_certificate(gm, cert) == frozenset(dom)
    # an empty pick leaves the second copies unprotected
    daf, _, gm = ds_to_daf(DSCircleInstance(K3_DIAGRAM, 1))
    assert not is_defensive_alliance(daf.graph, ds_forward_certificate(gm, ()))


def test_ds_to_daf_determinism():
    inst = DSCircleInstance(K3_DIAGRAM, 2)
    a1, d1, g1 = ds_to_daf(inst)
    a2, d2, g2 = ds_to_daf(inst)
    assert a1.graph == a2.graph and a1.r == a2.r and a1.forbidden == a2.forbidden
    assert d1 == d2
    assert write_graph(a1.graph) == write_graph(a2.graph)
    assert g1.to_json() == g2.to_json()


def test_diagram_formats():
    text = write_diagram(K3_DIAGRAM)
    assert text == "d a b c a b c\n"
    assert parse_diagram(text) == K3_DIAGRAM
    # integer tokens come back as integers (id-labelled diagrams round-trip)
    d_int = ChordDiagram((0, 1, 0, 1))
    assert parse_diagram(write_diagram(d_int)) == d_int
    inst = DSCircleInstance(K3_DIAGRAM, 2)
    assert parse_ds_instance(write_ds_instance(inst)) == inst
    with pytest.raises(ParseError):
        parse_diagram("d a b a\n")
    with pytest.raises(ParseError):
        parse_ds_instance("d a a\n")  # missing k


def test_ds_parser_hardening():
    with pytest.raises(ParseError, match="repeated 'k'"):
        parse_ds_instance("d a b a b\nk 1\nk 3\n")
    with pytest.raises(ParseError, match="repeated 'd'"):
        parse_ds_instance("d a a\nd b b\nk 1\n")
    # a token int() cannot read keeps the diagram string-labelled
    assert parse_ds_instance("d --1 --1\nk 1\n").diagram.labels == ("--1", "--1")
    assert parse_diagram("d -1 2 -1 2\n").labels == (-1, 2, -1, 2)
