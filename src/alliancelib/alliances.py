"""Defensive-alliance predicate, a brute-force oracle, and an exact solver.

A nonempty vertex set S is a defensive alliance when every member has, with
itself, at least as many defenders as attackers: deg_in(v,S)+1 >= deg(v) -
deg_in(v,S).  The empty set is never an alliance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Iterable

from .errors import InvalidInstance, TooLarge
from .graph import Graph

BRUTE_FORCE_LIMIT = 20  # the most vertices or items any exhaustive oracle accepts
_ORACLE_WORK_LIMIT = 10_000_000


@dataclass(frozen=True)
class DAInstance:
    """Decision instance: does `graph` contain a defensive alliance of size <= k?"""

    graph: Graph
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InvalidInstance(f"budget must be >= 1, got {self.k}")


@dataclass(frozen=True)
class DAFInstance:
    """Forbidden-vertex variant: the alliance must avoid `forbidden` entirely."""

    graph: Graph
    r: int
    forbidden: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.r < 1:
            raise InvalidInstance(f"budget must be >= 1, got {self.r}")
        for v in self.forbidden:
            self.graph._check_vertex(v)


@dataclass(frozen=True)
class Witness:
    """A concrete alliance, kept as a sorted vertex tuple for determinism."""

    vertices: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.vertices:
            raise InvalidInstance("a witness is never empty")
        object.__setattr__(self, "vertices", tuple(sorted(self.vertices)))

    @property
    def size(self) -> int:
        return len(self.vertices)

    @property
    def as_set(self) -> frozenset[int]:
        return frozenset(self.vertices)


def is_defensive_alliance(g: Graph, s: Iterable[int]) -> bool:
    ss = s if isinstance(s, (set, frozenset)) else set(s)
    if not ss:
        return False
    for v in ss:
        nbrs = g.neighbors(v)
        inside = len(nbrs & ss)
        # inside + 1 >= deg - inside
        if 2 * inside + 1 < len(nbrs):
            return False
    return True


Target = DAInstance | DAFInstance


def target_budget(target: Target) -> int:
    return target.r if isinstance(target, DAFInstance) else target.k


def target_forbidden(target: Target) -> frozenset[int]:
    return target.forbidden if isinstance(target, DAFInstance) else frozenset()


def certifies(target: Target, cert: frozenset[int]) -> bool:
    """The certificate check of every kind: within the budget, free of
    forbidden vertices, and a defensive alliance of the target graph."""
    return (
        len(cert) <= target_budget(target)
        and not cert & target_forbidden(target)
        and is_defensive_alliance(target.graph, cert)
    )


def is_daf_feasible(inst: DAFInstance, s: Iterable[int]) -> bool:
    return certifies(inst, frozenset(s))


def brute_force_min_da(
    g: Graph,
    forbidden: Iterable[int] = (),
    max_size: int | None = None,
) -> Witness | None:
    """Minimum defensive alliance disjoint from `forbidden`, by exhaustion.

    Subsets are enumerated in size order and, within a size, in lexicographic
    id order, so the returned witness is canonical.  With `max_size` the
    enumeration stops at that cardinality (a budget-capped feasibility
    oracle); without it the graph must have at most BRUTE_FORCE_LIMIT vertices.
    """
    banned = frozenset(forbidden)
    pool = [v for v in g.vertices() if v not in banned]
    top = len(pool) if max_size is None else min(max_size, len(pool))
    if max_size is None:
        if g.n > BRUTE_FORCE_LIMIT:
            raise TooLarge(f"brute force guarded at n <= {BRUTE_FORCE_LIMIT}")
    else:
        work = sum(comb(len(pool), size) for size in range(1, top + 1))
        if work > _ORACLE_WORK_LIMIT:
            raise TooLarge(f"capped brute force would enumerate {work} subsets")
    adj = g._adj
    for size in range(1, top + 1):
        for subset in combinations(pool, size):
            ss = frozenset(subset)
            if all(2 * len(adj[v] & ss) + 1 >= len(adj[v]) for v in subset):
                return Witness(subset)
    return None


def candidate_filter(g: Graph, k: int) -> frozenset[int]:
    """Vertices a size-<=k alliance could contain: degree(v) <= 2k.

    A member v of an alliance S needs deg_in(v,S) >= (deg(v)-1)/2 defenders
    drawn from the other |S|-1 <= k-1 members, so high-degree vertices are
    impossible and any search may discard them outright.
    """
    return frozenset(v for v in g.vertices() if g.degree(v) <= 2 * k)


def solve_da(inst: DAInstance, forbidden: Iterable[int] = ()) -> Witness | None:
    """Exact decision with witness for alliances of size <= k avoiding `forbidden`.

    Every connected component of a defensive alliance is itself one (members
    have all their S-neighbours inside their own component), so any minimum
    alliance is connected.  The search therefore grows connected subsets from
    each candidate seed, each connected set once (smallest-member/banned-
    extension scheme), within the degree filter and never past the budget or
    the best size found.  Ties are broken by size, then lexicographically.
    """
    g, k = inst.graph, inst.k
    allowed = candidate_filter(g, k) - frozenset(forbidden)
    adj = g._adj
    best: tuple[int, tuple[int, ...]] | None = None

    def consider(members: frozenset[int]) -> None:
        nonlocal best
        key = (len(members), tuple(sorted(members)))
        if best is not None and key >= best:
            return
        if all(2 * len(adj[v] & members) + 1 >= len(adj[v]) for v in members):
            best = key

    def grow(members: frozenset[int], ext: frozenset[int], banned: frozenset[int]) -> None:
        consider(members)
        if len(members) >= (k if best is None else best[0]):
            return
        dead = banned
        for u in sorted(ext):
            grown = members | {u}
            frontier = frozenset(
                w for w in adj[u] if w in allowed and w not in grown and w not in dead
            )
            grow(grown, (ext | frontier) - grown - dead - {u}, dead)
            dead = dead | {u}

    for seed in sorted(allowed):
        # Connected sets whose minimum vertex is `seed`: extensions stay > seed.
        above = frozenset(v for v in allowed if v > seed)
        grow(
            frozenset([seed]),
            frozenset(w for w in adj[seed] if w in above),
            frozenset(v for v in g.vertices() if v not in above),
        )
    if best is None:
        return None
    return Witness(best[1])
