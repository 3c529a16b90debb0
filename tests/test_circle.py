import itertools
import random
from functools import partial

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


def test_ds_to_daf_self_check_failure(monkeypatch):
    # Edit the crossings of the emitted diagram only: its labels are vertex
    # ids, while the source chords here are strings.  The two highest ids are
    # forbidden pendants of one twin, and pendants of one host are not
    # adjacent, so that pair is a non-edge.
    real = circle.crossing_pairs

    def drop_one(pairs, non_edge):
        next(pairs)
        return pairs

    def add_one(pairs, non_edge):
        return itertools.chain(pairs, [non_edge])

    def swap_one(pairs, non_edge):
        next(pairs)
        return itertools.chain([non_edge], pairs)

    def patched(seq, edit):
        if isinstance(seq[0], int):
            return edit(real(seq), (max(seq), max(seq) - 1))
        return real(seq)

    cases = [(drop_one, 0, 1), (add_one, 1, 0), (swap_one, 1, 1)]
    for edit, extra, missing in cases:
        monkeypatch.setattr(circle, "crossing_pairs", partial(patched, edit=edit))
        message = f"^diagram/graph mismatch: {extra} extra, {missing} missing crossings$"
        with pytest.raises(AssertionError, match=message):
            ds_to_daf(DSCircleInstance(K3_DIAGRAM, 1))


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
