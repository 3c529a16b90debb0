import pytest

from alliancelib.alliances import is_defensive_alliance
from alliancelib.errors import InvalidInstance, ParseError, TooLarge
from alliancelib.graph import RoleKind, is_star_forest_after_deletion, write_graph
from alliancelib.reductions import (
    MRSSInstance,
    mrss_extract_certificate,
    mrss_forward_certificate,
    mrss_to_da,
    parse_mrss,
    solve_mrss_bruteforce,
    write_mrss,
)

from graph_checks import is_bipartite

FIG1 = MRSSInstance(k=2, vectors=((2, 1), (1, 1), (1, 2)), target=(3, 3), kprime=2)


def deletion_set(gm):
    fam = gm.families
    return (
        set(fam["u"])
        | set(fam["F"])
        | set(fam["H_square"])
        | set(fam["a_square"])
        | set(fam["h0"])
        | {fam["t"], fam["t_prime"]}
    )


def test_bruteforce_examples():
    assert solve_mrss_bruteforce(FIG1) == (0, 2)
    zero_target = MRSSInstance(k=1, vectors=((1,),), target=(0,), kprime=1)
    assert solve_mrss_bruteforce(zero_target) == ()
    short = MRSSInstance(k=1, vectors=((1,),), target=(2,), kprime=1)
    assert solve_mrss_bruteforce(short) is None


def test_bruteforce_guard():
    big = MRSSInstance(k=1, vectors=((1,),) * 21, target=(1,), kprime=1)
    with pytest.raises(TooLarge):
        solve_mrss_bruteforce(big)


def test_figure1_compiles_to_expected_shape():
    da, gm = mrss_to_da(FIG1)
    assert gm.families["N"] == 16
    assert da.k == 100
    assert is_bipartite(da.graph) is not None
    dele = deletion_set(gm)
    assert len(dele) == 3 * FIG1.k + 16 == 22
    assert is_star_forest_after_deletion(da.graph, dele)


def test_figure1_forward_certificate():
    da, gm = mrss_to_da(FIG1)
    hub = (FIG1.k + 3) * 16 + 2 * FIG1.k + 6  # the rigid block, 90 vertices
    stars = sum(max(s) + 1 for s in FIG1.vectors)  # 8
    for subset in ([], [0], [0, 2], [1], [0, 1, 2]):
        cert = mrss_forward_certificate(gm, subset)
        assert len(cert) == hub + stars + len(subset)
        assert mrss_extract_certificate(gm, cert) == frozenset(subset)
    cert = mrss_forward_certificate(gm, (0, 2))
    assert len(cert) <= da.k
    assert is_defensive_alliance(da.graph, cert)
    # an S' that does not reach the target leaves some hub unprotected
    assert not is_defensive_alliance(da.graph, mrss_forward_certificate(gm, (1,)))
    assert not is_defensive_alliance(da.graph, mrss_forward_certificate(gm, ()))


def test_extract_edge_cases():
    _, gm = mrss_to_da(FIG1)
    assert mrss_extract_certificate(gm, set()) == frozenset()
    assert mrss_extract_certificate(gm, set(gm.families["x_center"])) == frozenset(
        {0, 1, 2}
    )


def test_single_vector_instance_formula():
    inst = MRSSInstance(k=1, vectors=((1,),), target=(1,), kprime=1)
    da, gm = mrss_to_da(inst)
    # independent re-derivation of the budget
    big_n = 2 * 1 + 2
    rederived = (1 + 3) * big_n + (2 * 1 + 6) + (1 + 1) + 1
    assert gm.families["N"] == big_n == 4
    assert da.k == rederived == 27
    sol = solve_mrss_bruteforce(inst)
    cert = mrss_forward_certificate(gm, sol)
    assert is_defensive_alliance(da.graph, cert)
    assert len(cert) <= da.k


def test_family_cardinality_audit():
    da, gm = mrss_to_da(FIG1)
    fam = gm.families
    n_vec = len(FIG1.vectors)
    k = FIG1.k
    big_n = fam["N"]
    assert len(fam["u"]) == k
    assert len(fam["F"]) == 3
    assert len(fam["pairs"]) == len(fam["H"]) == len(fam["h0"]) == k + 3
    assert all(len(hs) == big_n for hs in fam["H"])
    assert all(len(sq) == big_n for sq in fam["squares_h0"])
    assert all(len(sq) == 2 * big_n for sq in fam["squares_f"])
    for i in range(k):
        col = sum(s[i] for s in FIG1.vectors)
        assert len(fam["squares_u"][i]) == col + 2 * big_n - 2 * (col - FIG1.target[i])
    assert len(fam["H_square"]) == 3
    assert len(fam["a_square"]) == k + 5
    for si, s in enumerate(FIG1.vectors):
        assert len(fam["A"][si]) == len(fam["B"][si]) == max(s) + 1
    assert all(len(p) == 2 * da.k + 2 for p in fam["pendants"].values())
    # total vertex count two ways
    squares = (
        sum(len(sq) for sq in fam["squares_u"])
        + sum(len(sq) for sq in fam["squares_f"])
        + sum(len(sq) for sq in fam["squares_h0"])
        + len(fam["H_square"])
        + len(fam["a_square"])
    )
    hubs = k + 3 + (k + 3) * big_n + (k + 3)
    stars = sum(2 * (max(s) + 1) + 2 for s in FIG1.vectors)
    total = squares * (2 * da.k + 2 + 1) + hubs + stars + 2
    assert da.graph.n == total


def test_pendant_families_are_ranges():
    # Every pendant family is the id range `add_family` returned, and the
    # graph records that range wherever it is joined: no host holds a tuple
    # of pendant ids, so the compile made no int object per pendant.
    da, gm = mrss_to_da(FIG1)
    g, pendants = da.graph, gm.families["pendants"]
    assert all(type(p) is range and len(p) == 2 * da.k + 2 for p in pendants.values())
    runs = [run for runs in g._links.values() for run in runs]
    runs += [run for fam in g.families() for run in fam.joined]
    assert runs and all(type(run) is range for run in runs)
    assert all(any(run is pendants[x] for run in g._links[x]) for x in pendants)
    assert sum(map(len, pendants.values())) == sum(
        len(f.ids) for f in g.families() if f.kind is RoleKind.PENDANT
    )


def test_square_vertices_filtered_at_budget():
    from alliancelib.alliances import candidate_filter

    da, gm = mrss_to_da(FIG1)
    cands = candidate_filter(da.graph, da.k)
    for host in gm.families["pendants"]:  # every square vertex hosts pendants
        assert host not in cands  # degree > 2r+2 > 2r


def test_zero_vector_rejected():
    inst = MRSSInstance(k=2, vectors=((0, 0), (1, 1)), target=(1, 1), kprime=1)
    with pytest.raises(InvalidInstance):
        mrss_to_da(inst)


def test_compiler_determinism():
    da1, gm1 = mrss_to_da(FIG1)
    da2, gm2 = mrss_to_da(FIG1)
    assert da1.graph == da2.graph
    assert da1.k == da2.k
    assert write_graph(da1.graph) == write_graph(da2.graph)
    assert gm1.to_json() == gm2.to_json()


def test_mrss_format_roundtrip():
    text = write_mrss(FIG1)
    assert parse_mrss(text) == FIG1
    assert write_mrss(parse_mrss(text)) == text
    with pytest.raises(ParseError):
        parse_mrss("mrss 2 2 1\n3 3\n1 1\n")  # missing vector row
    with pytest.raises(ParseError):
        parse_mrss("mrss 1 1 1\n1\nx\n")
