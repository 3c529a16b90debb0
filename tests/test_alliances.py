import gc
import itertools
import random
import sys
import tracemalloc

import networkx as nx
import pytest

from alliancelib import alliances
from alliancelib.alliances import (
    DAFInstance,
    DAInstance,
    Witness,
    brute_force_min_da,
    candidate_filter,
    is_daf_feasible,
    is_defensive_alliance,
    kernel,
    solve_da,
)
from alliancelib.errors import TooLarge, UnknownVertex
from alliancelib.graph import build_graph, components_of_induced


def cycle(n):
    return build_graph(n, [(i, (i + 1) % n) for i in range(n)])


def all_labeled_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield build_graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def random_graph(rng, n, density=0.4):
    return build_graph(
        n, [e for e in itertools.combinations(range(n), 2) if rng.random() < density]
    )


# -- predicate --------------------------------------------------------------


def test_predicate_basics():
    p2 = build_graph(2, [(0, 1)])
    assert is_defensive_alliance(p2, {0})  # degree <= 1 singleton
    assert not is_defensive_alliance(p2, set())  # empty is never an alliance
    c4 = cycle(4)
    assert is_defensive_alliance(c4, {0, 1})
    assert not is_defensive_alliance(c4, {0})


def test_daf_feasibility():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    inst = DAFInstance(p3, 1, frozenset({1}))
    assert is_daf_feasible(inst, {0})
    assert not is_daf_feasible(inst, {1})  # forbidden
    assert not is_daf_feasible(inst, {0, 2})  # over budget


def test_daf_rejects_out_of_range_forbidden_at_either_end():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    for bad in (-1, 3):
        with pytest.raises(UnknownVertex, match=f"vertex {bad} not in graph of order 3"):
            DAFInstance(p3, 1, frozenset({0, bad, 2}))
    assert DAFInstance(p3, 1, frozenset({0, 2})).forbidden == {0, 2}


def test_component_closure_exhaustive():
    # every component of an alliance is an alliance (all graphs n <= 4, all S)
    for g in all_labeled_graphs(4):
        for bits in range(1, 1 << 4):
            s = {v for v in range(4) if bits >> v & 1}
            if is_defensive_alliance(g, s):
                for comp in components_of_induced(g, s):
                    assert is_defensive_alliance(g, comp)


def test_component_closure_random_n8():
    rng = random.Random(88)
    for _ in range(25):
        g = random_graph(rng, 8)
        for bits in range(1, 1 << 8):
            s = {v for v in range(8) if bits >> v & 1}
            if is_defensive_alliance(g, s):
                for comp in components_of_induced(g, s):
                    assert is_defensive_alliance(g, comp)


# -- brute-force oracle -----------------------------------------------------


def test_brute_force_examples():
    star = build_graph(4, [(0, 1), (0, 2), (0, 3)])
    w = brute_force_min_da(star)
    assert w == Witness((1,))  # first leaf, size 1
    assert brute_force_min_da(cycle(5)) == Witness((0, 1))
    k4 = build_graph(4, itertools.combinations(range(4), 2))
    assert brute_force_min_da(k4) == Witness((0, 1))


def test_brute_force_forbidden_and_absent():
    p2 = build_graph(2, [(0, 1)])
    assert brute_force_min_da(p2, forbidden={0}) == Witness((1,))
    assert brute_force_min_da(p2, forbidden={0, 1}) is None


def test_brute_force_guard():
    g = build_graph(21, [])
    with pytest.raises(TooLarge):
        brute_force_min_da(g)
    # capped enumeration lifts the vertex guard
    assert brute_force_min_da(g, max_size=1) == Witness((0,))


def test_brute_force_work_guard():
    # A capped enumeration is refused before it starts once the number of
    # subsets it would try passes the work limit: 30 choose <= 6 is ~768k,
    # 60 choose <= 6 is ~56M.
    assert brute_force_min_da(build_graph(30, []), max_size=6) == Witness((0,))
    with pytest.raises(TooLarge, match="would enumerate"):
        brute_force_min_da(build_graph(60, []), max_size=6)


def test_brute_force_rejects_unknown_forbidden():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    for bad in (99, 3, -1):
        with pytest.raises(UnknownVertex, match=f"vertex {bad} not in graph of order 3"):
            brute_force_min_da(p3, forbidden=[bad])


def test_brute_force_max_size():
    c6 = cycle(6)
    assert brute_force_min_da(c6, max_size=1) is None
    assert brute_force_min_da(c6, max_size=2) == Witness((0, 1))


# -- candidate filter -------------------------------------------------------


def test_candidate_filter_star():
    star10 = build_graph(10, [(0, i) for i in range(1, 10)])
    cands = candidate_filter(star10, 4)
    assert 0 not in cands  # degree 9 > 7
    assert cands == frozenset(range(1, 10))


def test_candidate_filter_low_degree_keeps_all():
    # A lone degree-2 vertex has no defender; a pair on the cycle defends itself.
    c8 = cycle(8)
    assert candidate_filter(c8, 1) == frozenset()
    assert candidate_filter(c8, 2) == frozenset(range(8))


def test_candidate_filter_soundness():
    # no minimum alliance intersects the excluded set at budget = min size
    rng = random.Random(99)
    for _ in range(60):
        g = random_graph(rng, rng.randint(1, 10))
        w = brute_force_min_da(g)
        if w is not None:
            assert w.as_set <= candidate_filter(g, w.size)


# -- peel kernel ------------------------------------------------------------


def atlas_cases(budgets=range(1, 5)):
    """Every graph of at most 7 vertices (the networkx atlas), with the given
    budgets and three forbidden sets: none, vertex 0, and the even vertices."""
    for nxg in nx.graph_atlas_g()[1:]:
        n = nxg.number_of_nodes()
        g = build_graph(n, nxg.edges())
        for forbidden in (frozenset(), frozenset({0}), frozenset(range(0, n, 2))):
            for k in budgets:
                yield g, k, forbidden


def test_kernel_keeps_every_small_alliance():
    # Not just the minimum witness: every alliance of size <= k that avoids
    # the forbidden set lies inside the kernel.
    for g, k, forbidden in atlas_cases():
        core = kernel(g, k, forbidden)
        w = brute_force_min_da(g, forbidden, max_size=k)
        assert w is None or w.as_set <= core
        pool = [v for v in g.vertices() if v not in forbidden]
        for size in range(1, min(k, len(pool)) + 1):
            for s in itertools.combinations(pool, size):
                if is_defensive_alliance(g, s):
                    assert set(s) <= core


def test_kernel_is_a_fixpoint():
    for g, k, forbidden in atlas_cases():
        core = kernel(g, k, forbidden)
        assert core <= candidate_filter(g, k) - forbidden
        for v in core:
            need = g.degree(v) // 2
            assert need <= k - 1 and g.deg_in(v, core) >= need


def test_kernel_peels_a_chain():
    # K4 on 0..3, then the path 3-4-5-6 with forbidden leaves 7..13 on 4, 5
    # and 6.  Vertex 6 needs two of its four neighbours but keeps only 5;
    # once it goes, 5 and then 4 fall short in turn.
    k4 = list(itertools.combinations(range(4), 2))
    leaves = [(4, 7), (4, 8), (5, 9), (5, 10), (6, 11), (6, 12), (6, 13)]
    g = build_graph(14, k4 + [(3, 4), (4, 5), (5, 6)] + leaves)
    banned = range(7, 14)
    assert kernel(g, 4) == frozenset(range(14))
    assert kernel(g, 4, banned) == frozenset(range(4))
    assert kernel(g, 2, banned) == frozenset(range(3))  # 3..6 need two defenders
    assert kernel(g, 1, banned) == frozenset()
    with pytest.raises(UnknownVertex, match="vertex 14 not in graph of order 14"):
        kernel(g, 4, [14])


def test_solve_da_matches_brute_force_on_the_atlas():
    # Budgets 5..7 make the size caps double past 4 (1, 2, 4, then k, or
    # 2, 4, 6), so a wrong stop between passes shows as a missed witness.
    for g, k, forbidden in atlas_cases(range(1, 8)):
        assert solve_da(DAInstance(g, k), forbidden) == brute_force_min_da(
            g, forbidden, max_size=k
        )


def test_solve_da_skipped_seeds_keep_the_search_going():
    # K5 on 0..4 and vertex 5 joined to 0 and 1.  Vertex 5 needs one
    # defender, so the first cap is 2: that pass skips 0..4, which need two,
    # and seed 5 dies on its free neighbours (0 and 1 are below it), not on
    # room.  Only the skips show that a larger cap may still find one.
    k5 = list(itertools.combinations(range(5), 2))
    g = build_graph(6, k5 + [(0, 5), (1, 5)])
    assert solve_da(DAInstance(g, 3)) == Witness((0, 1, 2)) == brute_force_min_da(g)


def test_solve_da_searches_small_sizes_first():
    # C30 and the isolated vertex 30: the first cap is 1, so the search
    # skips every cycle seed and grows only {30}, where a search under the
    # full budget would walk the sets of seed 0 first.
    # Each new set costs at least one popcount, so the calls count them.
    g = build_graph(31, [(i, (i + 1) % 30) for i in range(30)])
    calls = []

    def count(frame, event, arg):
        if event == "c_call" and arg.__name__ == "bit_count":
            calls.append(event)

    sys.setprofile(count)
    try:
        found = solve_da(DAInstance(g, 3))
    finally:
        sys.setprofile(None)
    assert found == Witness((30,))
    assert len(calls) == 1


def test_solve_da_calls_candidate_filter_once(monkeypatch):
    # A traced benchmark run counts one candidate_filter call per solve.
    calls = []
    original = alliances.candidate_filter

    def counted(g, k):
        calls.append(k)
        return original(g, k)

    monkeypatch.setattr(alliances, "candidate_filter", counted)
    star = build_graph(6, [(0, i) for i in range(1, 6)])
    for g, k, forbidden in [(cycle(6), 1, ()), (cycle(6), 3, [0]), (star, 2, range(6)),
                            (star, 1, [1, 2]), (build_graph(0, []), 1, ())]:
        calls.clear()
        solve_da(DAInstance(g, k), forbidden)
        assert calls == [k]


# -- exact solver -----------------------------------------------------------


def test_solve_da_examples():
    p2 = build_graph(2, [(0, 1)])
    assert solve_da(DAInstance(p2, 1)) == Witness((0,))
    c6 = cycle(6)
    assert solve_da(DAInstance(c6, 1)) is None
    assert solve_da(DAInstance(c6, 2)) == Witness((0, 1))


def test_solve_da_oracle_equivalence_exhaustive():
    for n in range(1, 5):
        for g in all_labeled_graphs(n):
            best = brute_force_min_da(g)
            for k in range(1, 5):
                got = solve_da(DAInstance(g, k))
                want = best if best is not None and best.size <= k else None
                assert got == want


def test_solve_da_oracle_equivalence_random():
    rng = random.Random(4242)
    for _ in range(500):
        n = rng.randint(1, 12)
        g = random_graph(rng, n, rng.random() * 0.5 + 0.1)
        forb = frozenset(v for v in range(n) if rng.random() < 0.2)
        best = brute_force_min_da(g, forbidden=forb)
        for k in range(1, 5):
            got = solve_da(DAInstance(g, k), forb)
            want = best if best is not None and best.size <= k else None
            assert got == want
            if got is not None:
                assert is_defensive_alliance(g, got.as_set)
                assert got.size <= k
                assert not got.as_set & forb


def test_solve_da_monotone_in_budget():
    rng = random.Random(515)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 10))
        feasible_at = [solve_da(DAInstance(g, k)) is not None for k in range(1, 7)]
        for lo, hi in itertools.combinations(range(6), 2):
            if feasible_at[lo]:
                assert feasible_at[hi]


def test_solve_da_differential_capped_oracle():
    # Exact witness against the budget-capped oracle; small n makes the
    # defender-deficit bound fire with room 0 and room 1.  Most vertices of
    # degree <= 1 are forbidden, or most answers would be singletons.
    rng = random.Random(20251018)
    for _ in range(300):
        n = rng.randint(1, 14)
        g = random_graph(rng, n, rng.uniform(0.25, 0.8))
        forb = frozenset(
            v for v in range(n) if rng.random() < (0.8 if g.degree(v) <= 1 else 0.15)
        )
        k = rng.randint(1, 6)
        assert solve_da(DAInstance(g, k), forb) == brute_force_min_da(
            g, forbidden=forb, max_size=k
        )


def test_solve_da_lexicographic_tie_break():
    # K2 {3,4} joined to the independent set {0,1,2}: no alliance of size 1
    # or 2, and six of size 3.  From seed 0 the search adds 3, then 4, so it
    # meets {0,3,4} before the lexicographically first {0,1,3}.
    g = build_graph(5, [(3, 4)] + [(a, b) for a in range(3) for b in (3, 4)])
    assert is_defensive_alliance(g, {0, 3, 4})
    assert solve_da(DAInstance(g, 4)) == Witness((0, 1, 3)) == brute_force_min_da(g)
    assert solve_da(DAInstance(g, 3), [1]) == Witness((0, 2, 3))


def test_solve_da_long_cycle_memory():
    # Nothing indexed by global id per vertex: a mask per vertex over all ids
    # would take about n**2 / 16 bytes, some 25 MB here.
    g = cycle(20_000)
    tracemalloc.start()
    try:
        found = solve_da(DAInstance(g, 3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert found == Witness((0, 1))
    assert peak < 8 * 2**20


def pendant_ring(n):
    """A cycle on 0..n-1 with two pendant leaves per cycle vertex, and the
    leaves: with them forbidden, the only alliance is the whole cycle."""
    leaves = [(i, n + 2 * i + j) for i in range(n) for j in range(2)]
    return build_graph(3 * n, [(i, (i + 1) % n) for i in range(n)] + leaves), range(n, 3 * n)


def test_solve_da_deep_alliance():
    # The search keeps its own stack, so a witness may be deeper than the
    # interpreter's recursion limit.
    for n in (200, 1100, 5000):
        g, leaves = pendant_ring(n)
        assert solve_da(DAInstance(g, n), leaves) == Witness(tuple(range(n)))


def test_solve_da_leaves_no_cycles():
    # A search that kept a closure or a frame in a cycle would leave garbage
    # for the collector on every call.
    g = cycle(6)
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        for k in (1, 2, 3):
            solve_da(DAInstance(g, k))
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_solve_da_rejects_unknown_forbidden():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    for bad in (99, 3, -1):
        with pytest.raises(UnknownVertex, match=f"vertex {bad} not in graph of order 3"):
            solve_da(DAInstance(p3, 1), [bad])
