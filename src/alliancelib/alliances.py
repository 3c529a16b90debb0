"""Defensive-alliance predicate, the oracles' exhaustive search, and an exact solver.

A nonempty vertex set S is a defensive alliance when every member has, with
itself, at least as many defenders as attackers: deg_in(v,S)+1 >= deg(v) -
deg_in(v,S).  The empty set is never an alliance.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Callable, ClassVar, Iterable, Sequence

from .errors import InvalidInstance, TooLarge
from .graph import Graph

BRUTE_FORCE_LIMIT = 20  # the most vertices or items any exhaustive oracle accepts
_ORACLE_WORK_LIMIT = 10_000_000


@dataclass(frozen=True)
class DAInstance:
    """Decision instance: does `graph` contain a defensive alliance of size <= k?

    A plain instance forbids nothing: `forbidden` is a class constant, not a
    field, so every target answers `.forbidden`."""

    graph: Graph
    k: int
    forbidden: ClassVar[frozenset[int]] = frozenset()

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
        _check_ids(self.graph, self.forbidden)


def _check_ids(g: Graph, ids: frozenset[int]) -> None:
    """Raise `UnknownVertex` naming an id of `ids` outside `g`: checking the
    least and the greatest id checks them all."""
    if ids:
        g._check_vertex(min(ids))
        g._check_vertex(max(ids))


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


def certifies(target: Target, cert: frozenset[int]) -> bool:
    """The certificate check of every kind: within the budget, free of
    forbidden vertices, and a defensive alliance of the target graph."""
    return (
        len(cert) <= target_budget(target)
        and not cert & target.forbidden
        and is_defensive_alliance(target.graph, cert)
    )


def is_daf_feasible(inst: DAFInstance, s: Iterable[int]) -> bool:
    return certifies(inst, frozenset(s))


def first_subset(
    items: Sequence[int], max_size: int, ok: Callable[[set[int]], bool]
) -> tuple[int, ...] | None:
    """Lexicographically first subset of `items` satisfying `ok`, trying
    sizes 0..max_size in order: the search behind every exhaustive oracle."""
    for size in range(min(max_size, len(items)) + 1):
        for subset in combinations(items, size):
            if ok(set(subset)):
                return subset
    return None


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
    A forbidden id outside the graph raises `UnknownVertex`.
    """
    banned = frozenset(forbidden)
    _check_ids(g, banned)
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
    found = first_subset(pool, top, lambda chosen: bool(chosen) and all(
        2 * len(adj[v] & chosen) + 1 >= len(adj[v]) for v in chosen
    ))
    return None if found is None else Witness(found)


def candidate_filter(g: Graph, k: int) -> frozenset[int]:
    """Vertices a size-<=k alliance could contain: degree(v) <= 2k-1.

    A member v of an alliance S needs deg_in(v,S) >= (deg(v)-1)/2 defenders
    drawn from the other |S|-1 <= k-1 members, so deg(v) <= 2k-1: every
    vertex of higher degree is impossible and any search may discard it.
    """
    limit = 2 * k - 1
    return frozenset([v for v, nb in enumerate(g._adj) if len(nb) <= limit])


def kernel(g: Graph, k: int, forbidden: Iterable[int] = ()) -> frozenset[int]:
    """Vertices a size-<=k alliance avoiding `forbidden` could contain.

    A member v needs deg(v) // 2 defenders among the other |S|-1 <= k-1
    members, all of them in the kernel too.  So, starting from
    `candidate_filter` less the forbidden ids (which already holds the degree
    bound), peel, until none is left, every vertex with fewer than
    deg(v) // 2 neighbours still in the kernel.  No member of such an
    alliance is ever dropped, and the peel visits each edge at most twice.
    A forbidden id outside the graph raises `UnknownVertex`.
    """
    banned = frozenset(forbidden)
    _check_ids(g, banned)
    adj = g._adj
    inside = set(candidate_filter(g, k) - banned)
    # spare[v]: neighbours in the kernel beyond the deg(v) // 2 that v needs.
    spare = {v: len(adj[v] & inside) - len(adj[v]) // 2 for v in inside}
    doomed = [v for v, extra in spare.items() if extra < 0]
    while doomed:
        v = doomed.pop()
        inside.discard(v)
        for w in adj[v]:
            if w in inside:
                spare[w] -= 1
                if spare[w] == -1:  # just fell short: queued once
                    doomed.append(w)
    return frozenset(inside)


def solve_da(inst: DAInstance, forbidden: Iterable[int] = ()) -> Witness | None:
    """Exact decision with witness for alliances of size <= k avoiding `forbidden`.

    Every connected component of a defensive alliance is itself one (members
    have all their S-neighbours inside their own component), so any minimum
    alliance is connected.  The search therefore grows connected subsets from
    each seed, each connected set once (smallest-member/dead-extension
    scheme), inside the peel `kernel`, which holds every member of every
    alliance the search could return, so the witness is the one a search over
    all allowed vertices would find.  Ties are broken by size, then
    lexicographically, so a later seed must beat the best size outright.

    The search runs by size first, in passes under a size cap.  An alliance
    holding v has at least deg(v) // 2 + 1 members, so the first cap is one
    more than the least deg // 2 in the kernel; a pass that finds nothing
    doubles the cap, clamped to k.  A pass skips every seed whose own need is
    at least the cap.  A pass that found nothing, skipped no seed and cut no
    branch only for room walked the tree a pass at cap k would walk, so it
    ends the search; otherwise the pass at cap k is the last.  So there are
    at most ceil(log2(k / first cap)) + 1 passes, and the first pass with an
    answer holds the minimum one.

    A member v needs deg(v) // 2 neighbours inside S, and one more vertex adds
    at most one, so a branch stops once some member's deficit exceeds the
    room left under the limit (the cap, or the best size so far) or the
    number of its neighbours still free to join.  A set that is already an
    alliance is recorded and not grown, since any superset is larger.  Within
    a seed, allowed vertices above it get local bit positions the first time
    the search meets them, and a member's neighbour mask is built once per
    seed, so sets are ints and deg_in(v, S) is one popcount; nothing is
    indexed by global id beyond the graph and the kernel.  A search deeper
    than the interpreter's recursion limit raises `TooLarge`.
    """
    g, k = inst.graph, inst.k
    allowed = kernel(g, k, forbidden)
    adj = g._adj
    best: tuple[int, tuple[int, ...]] | None = None
    partial = False  # this pass skipped a seed or cut a branch only for room

    # Per-seed state, rebound for each seed: global id -> local bit position,
    # and per position its vertex, neighbour mask (built when first added)
    # and defender need; `stack` holds the members' positions.  A member
    # with all its defenders keeps them in every superset, so `grow` checks
    # only `short`, the members that lacked some when the set was smaller.
    seed = limit = 0
    index: dict[int, int] = {}
    verts: list[int] = []
    masks: list[int | None] = []
    needs: list[int] = []
    stack: list[int] = []

    def mask_of(p: int) -> int:
        # Sets grown from `seed` have it as their minimum: no position below.
        m = masks[p]
        if m is None:
            m = 0
            for w in adj[verts[p]]:
                q = index.get(w)
                if q is None:
                    if w <= seed or w not in allowed:
                        continue
                    q = index[w] = len(verts)
                    verts.append(w)
                    masks.append(None)
                    needs.append(len(adj[w]) // 2)
                m |= 1 << q
            masks[p] = m
        return m

    def grow(members: int, ext: int, dead: int, short: list[int]) -> None:
        nonlocal best, limit, partial
        room = limit - len(stack)
        free = ~(members | dead)
        lacking = []
        for p in short:
            m = masks[p]
            deficit = needs[p] - (m & members).bit_count()
            if deficit > 0:
                # Each added member is at most one more defender, and only
                # a free neighbour can become one.
                if deficit > room:
                    if deficit <= (m & free).bit_count():
                        partial = True  # a larger cap might not cut here
                    return
                if deficit > (m & free).bit_count():
                    return
                lacking.append(p)
        if not lacking:
            key = (len(stack), tuple(sorted(verts[p] for p in stack)))
            if best is None or key < best:
                best, limit = key, key[0]
            return  # any superset is larger
        while ext:
            bit = ext & -ext
            ext ^= bit
            p = bit.bit_length() - 1
            grown = members | bit
            stack.append(p)
            lacking.append(p)
            grow(grown, (ext | mask_of(p)) & ~grown & ~dead, dead, lacking)
            stack.pop()
            lacking.pop()
            dead |= bit

    if not allowed:
        return None
    seeds = sorted(allowed)
    # The kernel keeps only vertices with deg // 2 <= k - 1, so cap <= k.
    cap = 1 + min([len(adj[v]) // 2 for v in seeds])
    while True:
        partial = False
        for seed in seeds:
            # A later seed's sets sort after the best one, so only a smaller size wins.
            limit = cap if best is None else best[0] - 1
            if limit < 1:
                break
            need = len(adj[seed]) // 2
            if need >= limit:  # its sets have more than `limit` members
                partial = True
                continue
            index, verts, masks = {seed: 0}, [seed], [None]
            needs, stack = [need], [0]
            try:
                grow(1, mask_of(0), 0, [0])
            except RecursionError:  # `grow` recurses once per member
                depth = sys.getrecursionlimit()
                raise TooLarge(f"search deeper than the recursion limit ({depth})") from None
        if best is not None:
            return Witness(best[1])
        if not partial or cap == k:
            return None
        cap = min(2 * cap, k)
