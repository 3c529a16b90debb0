"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; plain `pytest` runs them silently as ordinary tests.
"""

import itertools
import random
import time

from alliancelib.alliances import (
    DAFInstance,
    DAInstance,
    brute_force_min_da,
    is_daf_feasible,
    is_defensive_alliance,
    solve_da,
)
from alliancelib.circle import (
    ChordDiagram,
    DSCircleInstance,
    ds_extract_certificate,
    ds_forward_certificate,
    ds_to_daf,
    intersection_graph,
    write_diagram,
    write_ds_instance,
)
from alliancelib.generators import gen_daf, gen_ds_circle, gen_mrss, gen_rbds, gen_vc
from alliancelib.graph import (
    build_graph,
    is_star_forest_after_deletion,
    write_graph,
)
from alliancelib.reductions import (
    MRSSInstance,
    RBDSInstance,
    VC3Instance,
    daf_to_da,
    is_vertex_cover,
    mrss_extract_certificate,
    mrss_forward_certificate,
    mrss_to_da,
    rbds_cover_set,
    rbds_extract_certificate,
    rbds_forward_certificate,
    rbds_to_da,
    solve_rbds_bruteforce,
    solve_vc_bruteforce,
    vc_extract_certificate,
    vc_forward_certificate,
    vc_to_da,
    write_daf,
    write_mrss,
    write_rbds,
    write_vc,
)

from graph_checks import is_bipartite

FIG1 = MRSSInstance(k=2, vectors=((2, 1), (1, 1), (1, 2)), target=(3, 3), kprime=2)
FIG3 = RBDSInstance(n_terminals=2, n_sources=2, edges=((0, 0), (1, 0), (1, 1)), k=1)
K3 = build_graph(3, [(0, 1), (0, 2), (1, 2)])
P3 = build_graph(3, [(0, 1), (1, 2)])


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def _connected_corpus():
    """All connected graphs on <= 7 vertices from the atlas, or 500 seeded
    random graphs n <= 12 when networkx is unavailable."""
    try:
        import networkx as nx
        from networkx.generators.atlas import graph_atlas_g
    except ImportError:
        rng = random.Random(20250810)
        corpus = []
        for _ in range(500):
            n = rng.randint(1, 12)
            edges = [
                e
                for e in itertools.combinations(range(n), 2)
                if rng.random() < rng.random()
            ]
            corpus.append(build_graph(n, edges))
        return corpus, "500 seeded random graphs n<=12"
    corpus = []
    on_seven = 0
    for ag in graph_atlas_g():
        n = ag.number_of_nodes()
        if n == 0 or n > 7 or not nx.is_connected(ag):
            continue
        nodes = sorted(ag.nodes())
        index = {u: i for i, u in enumerate(nodes)}
        corpus.append(
            build_graph(n, [(index[u], index[v]) for u, v in ag.edges()])
        )
        if n == 7:
            on_seven += 1
    assert on_seven == 853  # the full connected catalogue on 7 vertices
    return corpus, f"{len(corpus)} connected atlas graphs (853 on 7 vertices)"


def test_criterion_1_solver_oracle_agreement():
    start = time.monotonic()
    corpus, label = _connected_corpus()
    for g in corpus:
        best = brute_force_min_da(g)
        for k in range(1, 5):
            got = solve_da(DAInstance(g, k))
            want = best if best is not None and best.size <= k else None
            assert got == want
            if got is not None:
                assert is_defensive_alliance(g, got.as_set) and got.size <= k
    elapsed = time.monotonic() - start
    assert elapsed < 300.0
    print(f"criterion 1 PASS: {label}, k<=4 oracle agreement in {elapsed:.1f}s")


def test_criterion_2_definition_sanity():
    corpus, _ = _connected_corpus()
    low_degree = 0
    for g in corpus:
        if any(g.degree(v) <= 1 for v in g.vertices()):
            w = brute_force_min_da(g)
            assert w is not None and w.size == 1
            low_degree += 1
    assert low_degree > 0
    for n in range(3, 11):
        w = brute_force_min_da(cycle(n))
        assert w is not None and w.size == 2
    print(
        f"criterion 2 PASS: min=1 on {low_degree} degree<=1 graphs, min=2 on C_3..C_10"
    )


def test_criterion_3_mrss_figure1():
    start = time.monotonic()
    da, gm = mrss_to_da(FIG1)
    assert gm.families["N"] == 16
    assert da.k == 100
    assert (da.graph.n, da.graph.m) == (51_676, 103_460)
    assert is_bipartite(da.graph) is not None
    fam = gm.families
    deletion = (
        set(fam["u"])
        | set(fam["F"])
        | set(fam["H_square"])
        | set(fam["a_square"])
        | set(fam["h0"])
        | {fam["t"], fam["t_prime"]}
    )
    assert len(deletion) == 22
    assert is_star_forest_after_deletion(da.graph, deletion)
    cert = mrss_forward_certificate(gm, (0, 2))
    assert len(cert) <= 100
    assert is_defensive_alliance(da.graph, cert)
    assert mrss_extract_certificate(gm, cert) == frozenset({0, 2})
    elapsed = time.monotonic() - start
    # Some 0.2-1 s on a shared 2-vCPU host; only a pathological slowdown fails.
    assert elapsed < 10.0
    print(
        f"criterion 3 PASS: Figure-1 MRSS N=16 r=100 bipartite star-forest "
        f"cert|{len(cert)}| in {elapsed:.2f}s"
    )


def test_criterion_4_rbds():
    instances = [FIG3]
    rng = random.Random(20250810)
    instances += [gen_rbds(rng, 4, 4, rng.random()) for _ in range(100)]
    yes = 0
    for inst in instances:
        da, gm = rbds_to_da(inst)
        assert da.k == inst.n_terminals + inst.n_sources + inst.k + 1
        cover = rbds_cover_set(gm)
        assert len(cover) == 3 * inst.n_terminals + 4
        assert is_vertex_cover(da.graph, cover)
        sol = solve_rbds_bruteforce(inst)
        if sol is None:
            continue
        cert = rbds_forward_certificate(gm, sol)
        assert len(cert) <= da.k
        assert is_defensive_alliance(da.graph, cert)
        assert rbds_extract_certificate(gm, cert) == frozenset(sol)
        yes += 1
    print(
        f"criterion 4 PASS: {len(instances)} RBDS instances, {yes} forward "
        f"certificates valid, cover bound 3|T|+4 everywhere"
    )


def test_criterion_5_vc():
    instances = [VC3Instance(K3, 2), VC3Instance(P3, 1)]
    rng = random.Random(20250810)
    instances += [gen_vc(rng, 8) for _ in range(100)]
    for inst in instances:
        m = inst.graph.m
        da, gm = vc_to_da(inst)
        assert da.k == 5 * m + inst.k
        cover = solve_vc_bruteforce(inst)
        assert cover is not None
        cert = vc_forward_certificate(gm, cover)
        assert len(cert) == 5 * m + len(cover)
        assert is_defensive_alliance(da.graph, cert)
        extracted = vc_extract_certificate(gm, cert)
        assert extracted == frozenset(cover)
        assert all(u in extracted or v in extracted for u, v in inst.graph.edges())
    print(
        f"criterion 5 PASS: {len(instances)} VC instances, budget 5m+k exact, "
        f"certificates and extractions verified"
    )


def test_criterion_6_circle_pipeline():
    k3d = ChordDiagram(("a", "b", "c", "a", "b", "c"))
    g = intersection_graph(k3d)
    assert list(g.edges()) == [(0, 1), (0, 2), (1, 2)]

    rng = random.Random(20250810)
    audits = []
    for n in (1, 2, 3):
        toks = [f"c{i}" for i in range(n)] * 2
        rng.shuffle(toks)
        d = ChordDiagram(tuple(toks))
        daf, diagram, gm = ds_to_daf(DSCircleInstance(d, 1))
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
        ig = intersection_graph(diagram)
        assert ig.n == daf.graph.n
        assert list(ig.edges()) == list(daf.graph.edges())
        audits.append(tri)

    checked = 0
    diagrams = [k3d, ChordDiagram(("a", "a"))]
    diagrams += [
        ChordDiagram(tuple(rng.sample([f"c{i}" for i in range(n)] * 2, 2 * n)))
        for n in (4, 5)
        for _ in range(2)
    ]
    for d in diagrams:
        src = intersection_graph(d)
        chords = d.chords()
        base, _, gm = ds_to_daf(DSCircleInstance(d, 1))
        for size in range(1, d.n + 1):
            for names in itertools.combinations(range(d.n), size):
                chosen = set(names)
                if not all(
                    v in chosen or src.neighbors(v) & chosen for v in src.vertices()
                ):
                    continue
                dom = [chords[i] for i in names]
                budget = base.r - 1 + size  # 7n(4n+2)+n+|dom|
                inst = DAFInstance(base.graph, budget, base.forbidden)
                cert = ds_forward_certificate(gm, dom)
                assert is_daf_feasible(inst, cert)
                assert ds_extract_certificate(gm, cert) == frozenset(dom)
                checked += 1
    assert checked > 0
    print(
        f"criterion 6 PASS: K_3 intersection graph, family audits {audits}, "
        f"diagram/graph coherence, {checked} dominating-set certificates valid"
    )


def test_criterion_7_daf_full_equivalence():
    start = time.monotonic()
    cases = 0
    for n in range(1, 6):
        pairs = list(itertools.combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = build_graph(n, edges)
            for bits in range(1 << n):
                forb = frozenset(v for v in range(n) if bits >> v & 1)
                for k in (1, 2):
                    da, _ = daf_to_da(DAFInstance(g, k, forb))
                    src = brute_force_min_da(g, forbidden=forb, max_size=k)
                    tgt = brute_force_min_da(da.graph, max_size=k)
                    assert (src is None) == (tgt is None)
                    cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 600.0
    print(
        f"criterion 7 PASS: {cases} exhaustive source/target agreements in "
        f"{elapsed:.1f}s"
    )


def test_criterion_8_determinism():
    rng = random.Random(20250810)
    mrss_insts = [FIG1] + [gen_mrss(rng) for _ in range(5)]
    rbds_insts = [FIG3] + [gen_rbds(rng) for _ in range(5)]
    vc_insts = [VC3Instance(K3, 2), VC3Instance(P3, 1)] + [
        gen_vc(rng) for _ in range(5)
    ]
    ds_insts = [DSCircleInstance(ChordDiagram(("a", "b", "c", "a", "b", "c")), 1)] + [
        gen_ds_circle(rng) for _ in range(5)
    ]
    daf_insts = [gen_daf(rng) for _ in range(5)]
    outputs = []
    for _ in range(2):
        chunks = []
        for inst in mrss_insts:
            da, gm = mrss_to_da(inst)
            chunks.append(write_mrss(inst) + write_graph(da.graph) + gm.to_json())
        for inst in rbds_insts:
            da, gm = rbds_to_da(inst)
            chunks.append(write_rbds(inst) + write_graph(da.graph) + gm.to_json())
        for inst in vc_insts:
            da, gm = vc_to_da(inst)
            chunks.append(write_vc(inst) + write_graph(da.graph) + gm.to_json())
        for inst in ds_insts:
            daf, diagram, gm = ds_to_daf(inst)
            chunks.append(
                write_ds_instance(inst)
                + write_graph(daf.graph)
                + write_diagram(diagram)
                + gm.to_json()
            )
        for inst in daf_insts:
            da, gm = daf_to_da(inst)
            chunks.append(write_daf(inst) + write_graph(da.graph) + gm.to_json())
        outputs.append("".join(chunks))
    assert outputs[0] == outputs[1]
    total = len(mrss_insts) + len(rbds_insts) + len(vc_insts) + len(ds_insts) + len(
        daf_insts
    )
    print(
        f"criterion 8 PASS: byte-identical compiler and writer output across "
        f"two runs on {total} corpus instances"
    )
