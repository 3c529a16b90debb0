import random

import pytest

from alliancelib.alliances import is_defensive_alliance, solve_da
from alliancelib.errors import DegreeTooHigh, ParseError, TooLarge
from alliancelib.generators import gen_vc
from alliancelib.graph import build_graph, write_graph
from alliancelib.reductions import (
    VC3Instance,
    parse_vc,
    solve_vc_bruteforce,
    vc_extract_certificate,
    vc_forward_certificate,
    vc_to_da,
    write_vc,
)

K3 = build_graph(3, [(0, 1), (0, 2), (1, 2)])
P3 = build_graph(3, [(0, 1), (1, 2)])


def test_bruteforce_examples():
    assert solve_vc_bruteforce(VC3Instance(K3, 2)) == (0, 1)
    assert solve_vc_bruteforce(VC3Instance(P3, 1)) == (1,)
    edgeless = VC3Instance(build_graph(3, []), 0)
    assert solve_vc_bruteforce(edgeless) == ()
    assert solve_vc_bruteforce(VC3Instance(K3, 1)) is None
    with pytest.raises(TooLarge):
        solve_vc_bruteforce(VC3Instance(build_graph(21, []), 1))


def test_degree_guard():
    star4 = build_graph(5, [(0, i) for i in range(1, 5)])
    with pytest.raises(DegreeTooHigh):
        VC3Instance(star4, 1)


def test_k3_shape():
    da, gm = vc_to_da(VC3Instance(K3, 2))
    m = 3
    assert da.k == 5 * m + 2 == 17
    # |V'| = n + m + 4m + 8 + 8*4k' + 1
    assert da.graph.n == 3 + 3 + 12 + 8 + 8 * (4 * 17) + 1 == 571
    fam = gm.families
    assert len(fam["Y"]) == m and len(fam["cycles"]) == m
    assert all(len(c) == 4 for c in fam["cycles"])
    assert all(len(p) == 4 * da.k for p in fam["Vf"])
    # every edge vertex sees two flanking cycles and all eight helpers
    for y in fam["Y"]:
        assert da.graph.degree(y) == 2 + 4 + 4 + 8 == 18


def test_k3_forward_certificate():
    da, gm = vc_to_da(VC3Instance(K3, 2))
    cert = vc_forward_certificate(gm, (0, 1))
    assert len(cert) == 2 + 3 + 12 == 17 == da.k
    assert is_defensive_alliance(da.graph, cert)
    assert vc_extract_certificate(gm, cert) == frozenset({0, 1})
    # a non-cover leaves an uncovered edge vertex unprotected
    assert not is_defensive_alliance(da.graph, vc_forward_certificate(gm, (0,)))


def test_p3_forward_certificate():
    da, gm = vc_to_da(VC3Instance(P3, 1))
    assert da.k == 5 * 2 + 1 == 11
    cert = vc_forward_certificate(gm, (1,))
    assert len(cert) == 1 + 2 + 8 == 11 <= da.k
    assert is_defensive_alliance(da.graph, cert)


def test_single_edge_degenerate():
    # m = 1: the flanking rule collapses to a single adjacency; the compile
    # stays well-formed but carries no certificate (see vc_to_da docstring).
    g = build_graph(2, [(0, 1)])
    da, gm = vc_to_da(VC3Instance(g, 1))
    assert da.k == 6
    y = gm.families["Y"][0]
    assert da.graph.degree(y) == 2 + 4 + 8  # one cycle only
    da2, _ = vc_to_da(VC3Instance(g, 1))
    assert da.graph == da2.graph


def test_forward_random():
    rng = random.Random(77)
    for _ in range(40):
        inst = gen_vc(rng, 8)
        cover = solve_vc_bruteforce(inst)
        assert cover is not None  # generator budgets are tight
        da, gm = vc_to_da(inst)
        m = inst.graph.m
        assert da.k == 5 * m + inst.k
        # independent vertex-count audit
        assert da.graph.n == inst.graph.n + m + 4 * m + 8 + 8 * 4 * da.k + 1
        cert = vc_forward_certificate(gm, cover)
        assert len(cert) == 5 * m + len(cover)
        assert is_defensive_alliance(da.graph, cert)
        extracted = vc_extract_certificate(gm, cert)
        assert extracted == frozenset(cover)
        assert all(
            u in extracted or v in extracted for u, v in inst.graph.edges()
        )


def test_solver_witness_contains_cycle_block():
    # any alliance within budget on desk-scale targets contains Y and all
    # ride-along cycles
    for src, k in ((K3, 2), (P3, 1)):
        inst = VC3Instance(src, k)
        da, gm = vc_to_da(inst)
        witness = solve_da(da)
        assert witness is not None
        block = set(gm.families["Y"])
        for cyc in gm.families["cycles"]:
            block.update(cyc)
        assert block <= witness.as_set
        # and the leftover X-part is a vertex cover of the source
        cover = vc_extract_certificate(gm, witness.as_set)
        assert all(u in cover or v in cover for u, v in src.edges())


def test_determinism():
    da1, gm1 = vc_to_da(VC3Instance(K3, 2))
    da2, gm2 = vc_to_da(VC3Instance(K3, 2))
    assert da1.graph == da2.graph
    assert write_graph(da1.graph) == write_graph(da2.graph)
    assert gm1.to_json() == gm2.to_json()


def test_vc_format_roundtrip():
    inst = VC3Instance(P3, 1)
    text = write_vc(inst)
    back = parse_vc(text)
    assert back.graph == inst.graph and back.k == inst.k
    assert write_vc(back) == text
    with pytest.raises(ParseError):
        parse_vc("p da 2 1\ne 0 1\n")  # missing k line


def test_vc_parser_rejects_repeated_budget():
    with pytest.raises(ParseError, match="repeated 'k'"):
        parse_vc("p da 2 1\ne 0 1\nk 1\nk 5\n")
