import random

import pytest

from alliancelib.alliances import is_defensive_alliance
from alliancelib.errors import InvalidInstance, ParseError, TooLarge
from alliancelib.generators import gen_rbds
from alliancelib.graph import write_graph
from alliancelib.reductions import (
    RBDSInstance,
    is_vertex_cover,
    parse_rbds,
    rbds_cover_set,
    rbds_extract_certificate,
    rbds_forward_certificate,
    rbds_to_da,
    solve_rbds_bruteforce,
    write_rbds,
)

# terminals {t, t'}, sources {s, s'}, edges (t,s), (t',s), (t',s')
FIG3 = RBDSInstance(n_terminals=2, n_sources=2, edges=((0, 0), (1, 0), (1, 1)), k=1)


def test_bruteforce_examples():
    assert solve_rbds_bruteforce(FIG3) == (0,)
    no_terminals = RBDSInstance(0, 2, (), 1)
    assert solve_rbds_bruteforce(no_terminals) == ()
    isolated = RBDSInstance(1, 1, (), 1)
    assert solve_rbds_bruteforce(isolated) is None
    with pytest.raises(TooLarge):
        solve_rbds_bruteforce(RBDSInstance(1, 21, (), 1))


def test_figure3_shape():
    da, gm = rbds_to_da(FIG3)
    assert da.k == 2 + 2 + 1 + 1 == 6
    assert gm.families["ell"] == 24
    assert all(len(p) == 96 for p in gm.families["blanket"].values())
    cover = rbds_cover_set(gm)
    assert len(cover) == 3 * 2 + 4
    assert is_vertex_cover(da.graph, cover)


def test_figure3_forward_certificate():
    da, gm = rbds_to_da(FIG3)
    cert = rbds_forward_certificate(gm, (0,))
    assert len(cert) == 2 + 1 + 2 + 1 == 6 <= da.k
    assert is_defensive_alliance(da.graph, cert)
    assert rbds_extract_certificate(gm, cert) == frozenset({0})
    # empty pick leaves terminal copies unprotected
    assert not is_defensive_alliance(da.graph, rbds_forward_certificate(gm, ()))


def test_extract_edge_cases():
    _, gm = rbds_to_da(FIG3)
    assert rbds_extract_certificate(gm, ()) == frozenset()
    assert rbds_extract_certificate(gm, set(gm.families["S0"])) == frozenset({0, 1})


def test_empty_edge_set_well_formed():
    inst = RBDSInstance(2, 2, (), 1)
    da, gm = rbds_to_da(inst)
    assert da.k == 6
    # terminal copies exist and are isolated from the source copies
    for t0 in gm.families["T0"]:
        assert da.graph.neighbors(t0) == {gm.families["a"], gm.families["b"]}


def test_cover_bound_random():
    # result (2)'s parameter bound: the target has a vertex cover of size 3|T|+4
    rng = random.Random(31)
    corpus = [gen_rbds(rng, 4, 4, rng.random()) for _ in range(50)]
    rng = random.Random(2)
    corpus += [gen_rbds(rng, 5, 5) for _ in range(200)]
    for inst in corpus:
        da, gm = rbds_to_da(inst)
        assert da.k == inst.n_terminals + inst.n_sources + inst.k + 1
        cover = rbds_cover_set(gm)
        assert len(cover) == 3 * inst.n_terminals + 4
        assert is_vertex_cover(da.graph, cover)
        # independent vertex-count audit: copies + blankets + a,b,c + x*
        ell = 4 * da.k
        expected = 3 * inst.n_terminals + 2 * inst.n_sources
        expected += (2 * inst.n_terminals) * (4 * ell) + 3 + 1
        assert da.graph.n == expected


def test_forward_certificates_random():
    rng = random.Random(32)
    for _ in range(60):
        inst = gen_rbds(rng, 4, 4, rng.random())
        sol = solve_rbds_bruteforce(inst)
        if sol is None:
            continue
        da, gm = rbds_to_da(inst)
        cert = rbds_forward_certificate(gm, sol)
        assert len(cert) <= da.k
        assert is_defensive_alliance(da.graph, cert)
        assert rbds_extract_certificate(gm, cert) == frozenset(sol)


def test_instance_validation():
    with pytest.raises(InvalidInstance):
        RBDSInstance(1, 1, ((0, 0), (0, 0)), 1)
    with pytest.raises(InvalidInstance):
        RBDSInstance(1, 1, ((0, 1),), 1)
    with pytest.raises(InvalidInstance):
        RBDSInstance(1, 1, (), 0)


def test_determinism():
    da1, gm1 = rbds_to_da(FIG3)
    da2, gm2 = rbds_to_da(FIG3)
    assert da1.graph == da2.graph
    assert write_graph(da1.graph) == write_graph(da2.graph)
    assert gm1.to_json() == gm2.to_json()


def test_rbds_format_roundtrip():
    text = write_rbds(FIG3)
    assert parse_rbds(text) == FIG3
    assert write_rbds(parse_rbds(text)) == text
    with pytest.raises(ParseError):
        parse_rbds("rbds 1 1\n")
    with pytest.raises(ParseError):
        parse_rbds("rbds 1 1 1\ne 0 1\n")  # source index out of range
