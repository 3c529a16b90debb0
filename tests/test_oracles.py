"""The exhaustive oracles against a naive reference that shares none of their bounds.

`naive_first_subset` and the five `naive_*` predicates below are the
set-based search and predicates the oracles used before they took per-size
pools and bitmask covers: every subset of every size, each tested as a set.
The oracles must return exactly what they return, ties included, since
their tuples feed forward certificates and pinned digests.
"""

import itertools
import random

import pytest

from alliancelib.alliances import Witness, brute_force_min_da, first_cover, first_subset
from alliancelib.circle import (
    ChordDiagram,
    DSCircleInstance,
    intersection_graph,
    solve_ds_bruteforce,
)
from alliancelib.errors import TooLarge
from alliancelib.graph import build_graph
from alliancelib.kinds import REDUCTIONS
from alliancelib.reductions import (
    RBDSInstance,
    VC3Instance,
    solve_mrss_bruteforce,
    solve_rbds_bruteforce,
    solve_vc_bruteforce,
)

# -- the naive reference ------------------------------------------------------


def naive_first_subset(items, max_size, ok):
    """Lexicographically first subset of `items` satisfying `ok`, trying
    sizes 0..max_size in order: the search behind every exhaustive oracle."""
    for size in range(min(max_size, len(items)) + 1):
        for subset in itertools.combinations(items, size):
            if ok(set(subset)):
                return subset
    return None


def naive_mrss(inst):
    n = len(inst.vectors)
    return naive_first_subset(range(n), inst.kprime, lambda chosen: all(
        sum(inst.vectors[i][d] for i in chosen) >= t for d, t in enumerate(inst.target)
    ))


def naive_rbds(inst):
    nbrs = [set() for _ in range(inst.n_terminals)]
    for t, s in inst.edges:
        nbrs[t].add(s)
    return naive_first_subset(
        range(inst.n_sources), inst.k, lambda chosen: all(nb & chosen for nb in nbrs)
    )


def naive_vc(inst):
    g = inst.graph
    edges = list(g.edges())
    return naive_first_subset(
        range(g.n), inst.k, lambda chosen: all(u in chosen or v in chosen for u, v in edges)
    )


def naive_ds(inst):
    d = inst.diagram
    g = intersection_graph(d)
    chords, adj = d.chords(), g.adjacency()
    found = naive_first_subset(range(g.n), inst.k, lambda chosen: all(
        v in chosen or adj[v] & chosen for v in g.vertices()
    ))
    return None if found is None else tuple(chords[i] for i in found)


def naive_min_da(g, forbidden=(), max_size=None):
    banned = frozenset(forbidden)
    pool = [v for v in g.vertices() if v not in banned]
    top = len(pool) if max_size is None else min(max_size, len(pool))
    adj = g.adjacency()
    found = naive_first_subset(pool, top, lambda chosen: bool(chosen) and all(
        2 * len(adj[v] & chosen) + 1 >= len(adj[v]) for v in chosen
    ))
    return None if found is None else Witness(found)


def naive_daf(inst):
    found = naive_min_da(inst.graph, inst.forbidden, inst.r)
    return None if found is None else found.vertices


NAIVE = {
    "mrss": naive_mrss,
    "rbds": naive_rbds,
    "vc": naive_vc,
    "ds-circle": naive_ds,
    "daf": naive_daf,
}

# -- differential -------------------------------------------------------------


@pytest.mark.parametrize(
    "kind, sizes", [
        ("mrss", range(1, 6)),
        ("rbds", range(1, 9)),
        ("vc", range(3, 13)),
        ("ds-circle", range(1, 7)),
        ("daf", range(1, 9)),
    ],
)
def test_source_oracles_match_the_naive_reference(kind, sizes):
    rec = REDUCTIONS[kind]
    answers = set()
    for seed in range(100):
        for max_n in sizes:
            inst = rec.gen(random.Random(1000 * seed + max_n), max_n)
            got = rec.solve_source(inst)
            assert got == NAIVE[kind](inst), (seed, max_n, rec.write(inst))
            answers.add(got is None)
    if kind != "vc":  # gen_vc's budget is the least cover: it draws no no-instance
        assert answers == {True, False}


def test_vc_probe_matches_the_naive_reference():
    # gen_vc's probe: budget n, so the search runs up to the least cover.
    rng = random.Random(7)
    for _ in range(150):
        g = REDUCTIONS["vc"].gen(rng, rng.randint(3, 12)).graph
        probe = VC3Instance(g, g.n)
        assert solve_vc_bruteforce(probe) == naive_vc(probe)


def test_brute_force_min_da_matches_the_naive_reference():
    rng = random.Random(11)
    for case in range(4000):
        n = rng.randint(0, 10)
        p = rng.random()
        g = build_graph(n, [e for e in itertools.combinations(range(n), 2) if rng.random() < p])
        forbidden = {v for v in range(n) if rng.random() < 0.2}
        cap = rng.choice([None, 1, 2, 3, 5])
        assert brute_force_min_da(g, forbidden, cap) == naive_min_da(g, forbidden, cap), case


def test_first_subset_pools_keep_the_answer():
    # Any pool that drops only items outside every passing subset of its
    # size leaves the answer alone, the empty subset's included.
    rng = random.Random(3)
    for _ in range(300):
        items = sorted(rng.sample(range(12), rng.randint(0, 8)))
        passing = {
            s for size in range(len(items) + 1)
            for s in itertools.combinations(items, size) if rng.random() < 0.05
        }
        ok = passing.__contains__
        want = naive_first_subset(items, 8, lambda chosen: tuple(sorted(chosen)) in passing)
        assert first_subset(items, 8, ok) == want

        def pool(size):
            keep = {v for s in passing if len(s) == size for v in s}
            return [v for v in items if v in keep]

        assert first_subset(items, 8, ok, pool) == want


def test_first_cover_is_the_naive_cover():
    rng = random.Random(5)
    for _ in range(400):
        bits = rng.randint(0, 7)
        full = (1 << bits) - 1
        masks = [rng.getrandbits(bits) if bits else 0 for _ in range(rng.randint(0, 7))]
        cap = rng.randint(0, len(masks) + 1)
        want = naive_first_subset(range(len(masks)), cap, lambda chosen: all(
            any(masks[i] >> b & 1 for i in chosen) for b in range(bits)
        ))
        assert first_cover(masks, full, cap) == want


# -- explicit cases -----------------------------------------------------------


def test_edgeless_vc_is_the_empty_cover():
    for n in (0, 1, 4):
        assert solve_vc_bruteforce(VC3Instance(build_graph(n, []), 0)) == ()
        assert solve_vc_bruteforce(VC3Instance(build_graph(n, []), n)) == ()


def test_rbds_uncovered_terminal_is_no():
    # Terminal 1 has no source; every budget is a no.
    inst = RBDSInstance(2, 3, ((0, 0), (0, 1), (0, 2)), 3)
    assert solve_rbds_bruteforce(inst) is None
    assert naive_rbds(inst) is None


def test_rbds_without_terminals_is_the_empty_set():
    assert solve_rbds_bruteforce(RBDSInstance(0, 3, (), 2)) == ()
    assert solve_rbds_bruteforce(RBDSInstance(0, 0, (), 1)) == ()


def test_ds_without_chords_is_the_empty_set():
    assert solve_ds_bruteforce(DSCircleInstance(ChordDiagram(()), 1)) == ()


def test_mrss_size_bound_skips_only_short_sizes():
    # Column 0's two largest entries sum to 5: size 1 is skipped, size 2 is not.
    inst = REDUCTIONS["mrss"].parse("mrss 2 3 3\n5 1\n3 0\n2 1\n1 0\n")
    assert solve_mrss_bruteforce(inst) == naive_mrss(inst) == (0, 1)


def test_complete_graph_members_stay_admissible_at_their_size():
    # K_s with s - 1 forbidden pendants on each member: every member has
    # degree 2s - 2, so deg // 2 = s - 1 and it needs all s - 1 others.
    # The bound deg // 2 < s admits it at size s exactly, and K_s is the
    # only alliance.
    for s in range(1, 6):
        edges = list(itertools.combinations(range(s), 2))
        pendants = range(s, s * s)
        edges += [(v, s + v * (s - 1) + j) for v in range(s) for j in range(s - 1)]
        g = build_graph(s * s, edges)
        assert brute_force_min_da(g, pendants, s) == Witness(tuple(range(s)))
        assert brute_force_min_da(g, pendants, s - 1) is None
        for cap in (s - 1, s, s + 1):
            assert brute_force_min_da(g, pendants, cap) == naive_min_da(g, pendants, cap)


def test_work_guard_counts_every_subset_not_the_pools():
    with pytest.raises(TooLarge, match="would enumerate"):
        brute_force_min_da(build_graph(60, []), max_size=6)
    # K_60's members need 29 defenders, so every pool up to size 6 is
    # empty, and the guard still refuses it.
    dense = build_graph(60, itertools.combinations(range(60), 2))
    with pytest.raises(TooLarge, match="would enumerate"):
        brute_force_min_da(dense, max_size=6)
