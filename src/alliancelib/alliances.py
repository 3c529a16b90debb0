"""Defensive-alliance predicate, the oracles' exhaustive search, and an exact solver.

A nonempty vertex set S is a defensive alliance when every member has, with
itself, at least as many defenders as attackers: deg_in(v,S)+1 >= deg(v) -
deg_in(v,S).  The empty set is never an alliance.

Every exhaustive oracle runs on `first_subset`, which tries sizes in order
and, within a size, subsets in lexicographic order, so it returns the
smallest passing subset, then the lexicographically first.  An oracle may
hand it, per size, the pool of items a passing subset of that size can hold;
leaving out only items that cannot pass keeps the answer.  Two exact bounds
give the pools:

- a cover (`first_cover`: vertex cover, red-blue and circle domination)
  ORs one bitmask per item, so s items cover at most the sum of the s largest
  popcounts; a size whose sum falls short of the whole mask is skipped;
- an alliance member v needs deg(v) // 2 defenders among the other s - 1
  members, so `brute_force_min_da` draws size s only from the vertices with
  deg(v) // 2 < s.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate, combinations
from math import comb
from operator import or_
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
        # A larger budget finds no more, but `daf_to_da` builds 2r guards per
        # forbidden vertex; `gen_daf` draws budget 2 on one vertex.
        if self.r > max(2, self.graph.n):
            raise InvalidInstance("budget must be <= the number of vertices, or <= 2")
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
    items: Sequence[int],
    max_size: int,
    ok: Callable[[tuple[int, ...]], bool],
    pool: Callable[[int], Sequence[int]] | None = None,
) -> tuple[int, ...] | None:
    """Lexicographically first subset of `items` satisfying `ok`, trying
    sizes 0..max_size in order: the search behind every exhaustive oracle.
    `ok` gets the subset as a tuple in `items` order.

    `pool(size)`, when given, lists the items that subsets of that size are
    drawn from, in `items` order; a pool with fewer items than the size
    skips it.  Within a size, `combinations` over such a subsequence meets
    the passing subsets in the order it would over `items`, so a pool that
    leaves out only items in no passing subset of its size changes no
    answer."""
    for size in range(min(max_size, len(items)) + 1):
        for subset in combinations(items if pool is None else pool(size), size):
            if ok(subset):
                return subset
    return None


def first_cover(masks: Sequence[int], full: int, max_size: int) -> tuple[int, ...] | None:
    """Lexicographically first of the smallest index tuples, of size at most
    `max_size`, whose `masks` OR to `full`; every mask must lie inside `full`.

    A bit that no mask holds cannot be covered.  Otherwise s masks cover at
    most the sum of the s largest popcounts, so every size whose sum is
    short of `full`'s popcount is skipped: no subset of that size can pass.
    Nothing to cover is the empty cover, found at size 0."""
    if full & ~reduce(or_, masks, 0):
        return None
    need = full.bit_count()
    reach = list(accumulate(sorted([m.bit_count() for m in masks], reverse=True), initial=0))
    items = range(len(masks))

    def covers(subset: tuple[int, ...]) -> bool:
        got = 0
        for i in subset:
            got |= masks[i]
        return got == full

    return first_subset(items, max_size, covers, lambda size: items if reach[size] >= need else ())


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
    A forbidden id outside the graph raises `UnknownVertex`.  Both guards
    count every subset of the allowed vertices, as if no pool were cut.

    Size s draws only from the allowed vertices with deg(v) // 2 < s: a
    member v of an alliance S needs deg(v) // 2 defenders (2 * deg_in + 1 >=
    deg), all among the other s - 1 members, so no other vertex is in any
    alliance of size s.
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
    adj = g.adjacency()
    need = [len(nb) // 2 for nb in adj]

    def alliance(subset: tuple[int, ...]) -> bool:
        return bool(subset) and all(len(adj[v].intersection(subset)) >= need[v] for v in subset)

    found = first_subset(pool, top, alliance, lambda size: [v for v in pool if need[v] < size])
    return None if found is None else Witness(found)


def candidate_filter(g: Graph, k: int) -> frozenset[int]:
    """Vertices a size-<=k alliance could contain: degree(v) <= 2k-1.

    A member v of an alliance S needs deg_in(v,S) >= (deg(v)-1)/2 defenders
    drawn from the other |S|-1 <= k-1 members, so deg(v) <= 2k-1: every
    vertex of higher degree is impossible and any search may discard it.
    """
    limit = 2 * k - 1
    return frozenset([v for v, nb in enumerate(g.adjacency()) if len(nb) <= limit])


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
    adj = g.adjacency()
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
    doubles the cap, clamped to k.  Each pass lists the seeds it skipped (their
    own need is at least the cap) or cut somewhere only for room, and the next
    pass searches those seeds alone: any other seed's tree does not depend on
    the cap, and it held no alliance.  The search ends with nothing once that
    list is empty or the pass at cap k is done, so there are at most
    ceil(log2(k / first cap)) + 1 passes, and the first pass with an answer
    holds the minimum one.

    A member v needs deg(v) // 2 neighbours inside S, and one more vertex adds
    at most one, so a branch stops once some member's deficit exceeds the
    room left under the limit (the cap, or the best size so far) or the
    number of its neighbours still free to join.  A set that is already an
    alliance is recorded and not grown, since any superset is larger.  Within
    a seed, allowed vertices above it get local bit positions the first time
    the search meets them, and a member's neighbour mask is built once per
    seed, so sets are ints and deg_in(v, S) is one popcount; nothing is
    indexed by global id beyond the graph and the kernel.  The search is one
    loop over an explicit stack, so a witness may be as deep as the budget.
    """
    g, k = inst.graph, inst.k
    allowed = kernel(g, k, forbidden)
    if not allowed:
        return None
    adj = g.adjacency()
    best: tuple[int, tuple[int, ...]] | None = None
    seeds = sorted(allowed)
    # The kernel keeps only vertices with deg // 2 <= k - 1, so cap <= k.
    cap = 1 + min([len(adj[v]) // 2 for v in seeds])
    while True:
        carry: list[int] = []  # seeds this pass skipped or cut for room
        for seed in seeds:
            # A later seed's sets sort after the best one, so only a smaller size wins.
            limit = cap if best is None else best[0] - 1
            if limit < 1:
                break
            need = len(adj[seed]) // 2
            if need >= limit:  # its sets have more than `limit` members
                carry.append(seed)
                continue
            # Global id -> local bit position, and per position its vertex,
            # neighbour mask (built when first added) and defender need.  A
            # frame holds a set, the extensions still to try, the positions
            # it excludes and `short`, its members still lacking defenders;
            # under an empty root frame, the frame at depth d has d members.
            # A member with all its defenders keeps them in every superset,
            # so a new set checks only its parent's `short` and itself.
            index, verts, needs = {seed: 0}, [seed], [need]
            masks: list[int | None] = [None]
            stack: list[tuple[int, int, int, list[int]]] = [(0, 1, 0, [])]
            while stack:
                members, ext, dead, short = stack[-1]
                if not ext:
                    stack.pop()
                    continue
                bit = ext & -ext
                ext ^= bit
                stack[-1] = (members, ext, dead | bit, short)
                p = bit.bit_length() - 1
                grown = members | bit
                m = masks[p]
                if m is None:
                    m = 0
                    # Sets grown from `seed` have it as their minimum: no position below.
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
                room = limit - len(stack)
                free = ~(grown | dead)
                lacking = []
                short.append(p)
                for q in short:
                    mq = masks[q]
                    deficit = needs[q] - (mq & grown).bit_count()
                    if deficit > 0:
                        # Each added member is at most one more defender, and
                        # only a free neighbour can become one.
                        if deficit > (mq & free).bit_count():
                            break
                        if deficit > room:  # a larger cap might not cut here
                            if not carry or carry[-1] != seed:
                                carry.append(seed)
                            break
                        lacking.append(q)
                else:
                    if lacking:
                        stack.append((grown, (ext | m) & ~grown & ~dead, dead, lacking))
                    else:  # an alliance: any superset is larger
                        found = sorted(v for v, q in index.items() if grown >> q & 1)
                        key = (len(stack), tuple(found))
                        if best is None or key < best:
                            best, limit = key, key[0]
                short.pop()
        if best is not None:
            return Witness(best[1])
        if not carry or cap == k:
            return None
        seeds, cap = carry, min(2 * cap, k)
