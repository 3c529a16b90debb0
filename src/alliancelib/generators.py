"""Seeded random instance generators for the test driver and the gen command.

All generators draw from a caller-supplied random.Random so a fixed seed
reproduces the identical instance stream byte for byte.
"""

from __future__ import annotations

import random
from itertools import combinations

from .alliances import BRUTE_FORCE_LIMIT, DAFInstance
from .circle import ChordDiagram, DSCircleInstance
from .errors import BadParams
from .graph import Graph, build_graph
from .reductions import MRSSInstance, RBDSInstance, VC3Instance, solve_vc_bruteforce


def gen_graph(rng: random.Random, n: int, density: float) -> Graph:
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < density]
    return build_graph(n, edges)


def gen_mrss(
    rng: random.Random,
    max_dim: int = 2,
    max_vectors: int = 3,
    max_entry: int = 2,
) -> MRSSInstance:
    """Entries are uniform on [1, max_entry], so zero vectors never occur.

    Each target coordinate lands in [1, column sum + 1]; the +1 leaves room
    for genuine no-instances.
    """
    if max_dim < 1 or max_vectors < 1 or max_entry < 1:
        raise BadParams("mrss generator needs positive bounds")
    k = rng.randint(1, max_dim)
    n = rng.randint(1, max_vectors)
    vectors = tuple(
        tuple(rng.randint(1, max_entry) for _ in range(k)) for _ in range(n)
    )
    target = tuple(
        rng.randint(1, sum(s[i] for s in vectors) + 1) for i in range(k)
    )
    # Budgets near n keep the yes/no mix in a useful band.
    return MRSSInstance(
        k=k, vectors=vectors, target=target, kprime=rng.randint(max(1, n - 1), n)
    )


def gen_rbds(
    rng: random.Random,
    max_terminals: int = 4,
    max_sources: int = 4,
    density: float = 0.5,
) -> RBDSInstance:
    """Bipartite instances by edge density; isolated terminals are allowed
    (they make legitimate no-instances)."""
    if max_terminals < 1 or max_sources < 1:
        raise BadParams("rbds generator needs positive part bounds")
    if not 0.0 <= density <= 1.0:
        raise BadParams("density must lie in [0,1]")
    nt = rng.randint(1, max_terminals)
    ns = rng.randint(1, max_sources)
    edges = tuple(
        (t, s) for t in range(nt) for s in range(ns) if rng.random() < density
    )
    return RBDSInstance(nt, ns, edges, rng.randint(1, ns))


def gen_vc(rng: random.Random, max_n: int = 8) -> VC3Instance:
    """Degree-bounded random pairing with at least two edges, budget set to
    the exact minimum cover size.

    Two edges minimum because the alliance compilation needs each edge vertex
    flanked by two distinct ride-along cycles; the m = 1 boundary case does
    not carry certificates (see vc_to_da).
    """
    if max_n < 3:
        raise BadParams("vc generator needs max_n >= 3")
    n = rng.randint(3, max_n)
    while True:
        pairs = list(combinations(range(n), 2))
        rng.shuffle(pairs)
        want = rng.randint(2, min(3 * n // 2, len(pairs)))
        deg = [0] * n
        edges = []
        for u, v in pairs:
            if len(edges) == want:
                break
            if deg[u] < 3 and deg[v] < 3:
                edges.append((u, v))
                deg[u] += 1
                deg[v] += 1
        if len(edges) >= 2:
            g = build_graph(n, edges)
            probe = VC3Instance(g, n)
            cover = solve_vc_bruteforce(probe)
            assert cover is not None  # the full vertex set always covers
            return VC3Instance(g, max(1, len(cover)))


def gen_ds_circle(rng: random.Random, max_chords: int = 3) -> DSCircleInstance:
    """Random shuffle of the doubled chord-id multiset."""
    if max_chords < 1:
        raise BadParams("diagram generator needs max_chords >= 1")
    n = rng.randint(1, max_chords)
    tokens = [f"c{i}" for i in range(n)] * 2
    rng.shuffle(tokens)
    return DSCircleInstance(ChordDiagram(tuple(tokens)), rng.randint(1, n))


def gen_daf(rng: random.Random, max_n: int = 6) -> DAFInstance:
    """Forbidden-vertex instances whose compiled target stays within the
    brute-force guard, so the full iff check always runs."""
    if max_n < 1:
        raise BadParams("daf generator needs max_n >= 1")
    n = rng.randint(1, min(max_n, BRUTE_FORCE_LIMIT - 2))
    g = gen_graph(rng, n, 0.4)
    k = rng.randint(1, 2)
    cap = (BRUTE_FORCE_LIMIT - n) // (2 * k + 1)
    count = rng.randint(0, min(n, cap)) if cap > 0 else 0
    forbidden = frozenset(rng.sample(range(n), count))
    return DAFInstance(g, k, forbidden)
