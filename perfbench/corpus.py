"""Seeded inputs of the three benchmark workloads.

Every input is produced as text with alliancelib's own writers; the program
under test only ever sees that text.  Seeded instances come from fixed pools
(a pool entry is a pure function of its index), and the workload seed picks
entries from the pools.  That keeps the same seed giving the same inputs,
while the stored references in ``data/`` (solve verdicts, compile digests,
harness tallies) cover every input any seed can pick.
"""

from __future__ import annotations

import random
import sys
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = Path(__file__).resolve().parent / "data"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

# -- compile -----------------------------------------------------------------

# Each compile operation takes about a second, so that a run repeats every
# instance several times: on a shared host the speed of a vCPU steps by up
# to 1.5x for tens of seconds at a time, and only the best of several
# repeats spread over a run reads the same from run to run.
COMPILE_INSTANCES = ("fig1", "rbds-15", "vc-150", "ds-12")
KIND_OF = {
    "fig1": "mrss",
    "rbds-15": "rbds",
    "vc-150": "vc",
    "ds-12": "ds-circle",
}
SEEDED = ("rbds-15", "vc-150", "ds-12")
COMPILE_POOL = 32  # variants per seeded instance
RBDS_SIDE, RBDS_K, RBDS_DENSITY = 15, 4, 0.15
VC_N, VC_M = 150, 218
DS_CHORDS = 12


def compile_variants(seed: int) -> dict[str, int]:
    """Pool variant of each seeded compile instance chosen by `seed`."""
    rng = random.Random(f"compile/{seed}")
    return {name: rng.randrange(COMPILE_POOL) for name in SEEDED}


def _rbds(variant: int):
    """15x15 red-blue instance with a planted dominating set of size 4."""
    from alliancelib.reductions import RBDSInstance

    rng = random.Random(f"rbds-{RBDS_SIDE}/{variant}")
    planted = sorted(rng.sample(range(RBDS_SIDE), RBDS_K))
    edges = {(t, rng.choice(planted)) for t in range(RBDS_SIDE)}
    for t in range(RBDS_SIDE):
        for s in range(RBDS_SIDE):
            if rng.random() < RBDS_DENSITY:
                edges.add((t, s))
    inst = RBDSInstance(RBDS_SIDE, RBDS_SIDE, tuple(sorted(edges)), RBDS_K)
    return inst, tuple(planted)


def _vc(variant: int):
    """Degree-3 graph on 150 vertices and 218 edges; the budget is the
    cover made of both ends of a greedy maximal matching."""
    from alliancelib.graph import build_graph
    from alliancelib.reductions import VC3Instance

    rng = random.Random(f"vc-{VC_N}/{variant}")
    pairs = list(combinations(range(VC_N), 2))
    rng.shuffle(pairs)
    deg = [0] * VC_N
    edges = []
    for u, v in pairs:
        if deg[u] < 3 and deg[v] < 3:
            edges.append((u, v))
            deg[u] += 1
            deg[v] += 1
            if len(edges) == VC_M:
                break
    cover: set[int] = set()
    for u, v in sorted(edges):
        if u not in cover and v not in cover:
            cover.update((u, v))
    return VC3Instance(build_graph(VC_N, edges), len(cover)), tuple(sorted(cover))


def _crosses(a: tuple[int, int], b: tuple[int, int]) -> bool:
    return (a[0] < b[0] < a[1]) != (a[0] < b[1] < a[1])


def _ds(variant: int):
    """Random 12-chord diagram; the budget is a greedy dominating set."""
    from alliancelib.circle import ChordDiagram, DSCircleInstance

    rng = random.Random(f"ds-{DS_CHORDS}/{variant}")
    tokens = [f"c{i}" for i in range(DS_CHORDS)] * 2
    rng.shuffle(tokens)
    ends: dict[str, list[int]] = {}
    for pos, lab in enumerate(tokens):
        ends.setdefault(lab, []).append(pos)
    labels = sorted(ends)
    closed = {
        a: {a} | {b for b in labels if b != a and _crosses(tuple(ends[a]), tuple(ends[b]))}
        for a in labels
    }
    undominated, dom = set(labels), []
    while undominated:
        best = max(labels, key=lambda lab: (len(closed[lab] & undominated), lab))
        dom.append(best)
        undominated -= closed[best]
    return DSCircleInstance(ChordDiagram(tuple(tokens)), len(dom)), tuple(sorted(dom))


def compile_source(name: str, variant: int = 0) -> tuple[str, tuple]:
    """(source text, forward solution) of one compile instance."""
    from alliancelib.circle import write_ds_instance
    from alliancelib.reductions import MRSSInstance, write_mrss, write_rbds, write_vc

    if name == "fig1":  # the paper's worked MRSS example
        inst = MRSSInstance(k=2, vectors=((2, 1), (1, 1), (1, 2)), target=(3, 3), kprime=2)
        return write_mrss(inst), (0, 2)
    if name == "rbds-15":
        inst, sol = _rbds(variant)
        return write_rbds(inst), sol
    if name == "vc-150":
        inst, sol = _vc(variant)
        return write_vc(inst), sol
    if name == "ds-12":
        inst, sol = _ds(variant)
        return write_ds_instance(inst), sol
    raise ValueError(f"unknown compile instance {name!r}")


# -- solve -------------------------------------------------------------------

# (name, n, mean degree, budget k, forbid vertices of degree <= f; -1: none).
# The first five shapes almost always hold a small alliance, the last five
# almost never do, so each reference class gets about 200 instances a run.
SOLVE_SHAPES = (
    ("y80", 80, 3.5, 4, -1),
    ("y60f", 60, 4.0, 4, 1),
    ("y80f", 80, 5.0, 4, 2),
    ("y80k5", 80, 3.0, 5, -1),
    ("y20k6", 20, 3.0, 6, -1),
    ("n80", 80, 8.0, 4, 4),
    ("n80d9", 80, 9.0, 4, 4),
    ("n80k3", 80, 7.0, 3, 2),
    ("n80k5", 80, 10.0, 5, 6),
    ("n60", 60, 8.0, 4, 4),
)
SOLVE_POOL = 60  # pool entries per shape
SOLVE_PER_SHAPE = 40  # entries per shape in one run


def solve_entry(shape: int, index: int) -> tuple[int, list[tuple[int, int]], int, list[int]]:
    """(n, edges, k, forbidden) of pool entry `index` of shape `shape`."""
    name, n, degree, k, low = SOLVE_SHAPES[shape]
    rng = random.Random(f"solve/{name}/{index}")
    p = degree / (n - 1)
    edges = [(u, v) for u, v in combinations(range(n), 2) if rng.random() < p]
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    forbidden = [v for v in range(n) if deg[v] <= low]
    return n, edges, k, forbidden


def solve_picks(seed: int) -> list[tuple[int, int]]:
    """(shape, pool index) pairs of one run, in solve order."""
    rng = random.Random(f"solve/{seed}")
    picks = [
        (shape, index)
        for shape in range(len(SOLVE_SHAPES))
        for index in rng.sample(range(SOLVE_POOL), SOLVE_PER_SHAPE)
    ]
    rng.shuffle(picks)
    return picks


def solve_text(n: int, edges: list[tuple[int, int]]) -> str:
    from alliancelib.graph import build_graph, write_graph

    return write_graph(build_graph(n, edges))


# -- equiv -------------------------------------------------------------------

EQUIV_POOL = 16  # consecutive harness seeds from the harness's default seed


def equiv_seeds(seed: int) -> list[int]:
    """Harness seeds of one run: the whole pool but the one `seed` leaves
    out, in a seeded order.  Case costs in the default mix are heavy-tailed
    (a few large mrss targets), so one harness seed per run swings the
    totals by about 40%; fifteen of sixteen keep a run steady."""
    from alliancelib.harness import DEFAULT_SEED

    rng = random.Random(f"equiv/{seed}")
    pool = [DEFAULT_SEED + i for i in range(EQUIV_POOL)]
    pool.remove(rng.choice(pool))
    rng.shuffle(pool)
    return pool


def equiv_counts() -> dict[str, int]:
    """Cases per kind: the harness's default counts."""
    from alliancelib.harness import DEFAULT_COUNTS

    return dict(DEFAULT_COUNTS)


TALLY_KEYS = ("cases", "forward_ok", "iff_ok", "skipped", "failures")


def tally(summary) -> dict[str, int]:
    """Verdict mix of a harness summary."""
    return {key: getattr(summary, key) for key in TALLY_KEYS}
