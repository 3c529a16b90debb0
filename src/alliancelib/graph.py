"""Simple undirected graphs with role-tagged vertices, stored family by family.

Vertices are dense non-negative integers handed out in construction order,
which keeps every downstream construction a pure function of its input.  A
graph is mutable while it is being built and is frozen by the code that
finishes it, after which any mutation raises.

Every vertex is made by `add_family` (`add_vertex` and `add_vertices` call
it without hosts): a run of fresh vertices of one role kind, one per
payload, each joined to the same hosts.  It returns the new ids as a
`range`, and that range is the run the graph records wherever the family
is joined, so a compile makes no int object per pendant.  The graph keeps
one `Family` record per call: the id range, the kind, the payloads (a
list, or an `Indexed` run `(*prefix, 0) ... (*prefix, count - 1)`, which
builds no tuple per vertex), the hosts (a set, or the `range` given) and
`joined`, the id ranges of later families joined to every member.  Roles
are read from these records alone (`tag`, the writer's `t` lines, `==`,
the gadget JSON), through `families()`.

Vertex v is adjacent to the hosts and `joined` runs of its family, to its
explicit neighbours `_edges[v]` (from `add_edge`, and every edge of a parsed
file) and to the id ranges `_links[v]`: the families v hosts through a list
join, and the family of a `range` join that covers v's family only in part.
A `range` join covering a family whole adds one run to its `joined`, which
is how a compiler joins a hub (`t`, `t'`, the VC apex, the RBDS helpers) to
thousands of pendants.  `add_family` checks each host (in range, not one of
the new vertices, not repeated) before it touches the graph, so a failed
call changes nothing; `add_edge` finds a repeat in u's parts, and `degree`
and `m` count the parts by length, so none of them builds a set.

A neighbour set is built when it is read, from its family's shared set:
`neighbors(v)` builds v's alone, and `adjacency()`, the accessor for
readers of the whole graph (`edges`, `==`, the solvers, the structural
checks, the circle self-check and oracle), builds them all and keeps them
until the graph next changes.  Every member of a family without
edges or links of its own gets the family's one frozenset, which the
family keeps.  Hardness targets are almost all pendants (97.3 % or more of
every harness `mrss` target), and the harness reads only the certificate
members' sets, so it never builds the sets of an `mrss` target's squares
or of `t` and `t'`.  Since ids follow creation order, a compiler must
create its families in the order that numbers them.

The text format is written and read by the run, too.  `write_graph` makes
one pass over the records and builds no neighbour set for a member with no
parts of its own: hosts are older ids, so above it are exactly its
family's `joined` runs, and a run of such members gets its edge lines from
one join over its id strings.  `parse_graph` inverts it: a tagged text of
long tag runs is read back into family records run by run (`_read_runs`);
an untagged text, or one whose tag runs are short, into one explicit set
per vertex.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from heapq import heappop, heappush
from itertools import chain, groupby, islice, repeat
from typing import Iterable, Iterator, NamedTuple

from .errors import (
    AllianceError,
    DuplicateEdge,
    FrozenGraph,
    ParseError,
    SelfLoop,
    UnknownVertex,
    reader,
)


class RoleKind(Enum):
    ORIGINAL = "original"
    SQUARE = "square"
    PENDANT = "pendant"
    HUB_H = "hub-h"
    HUB_H0 = "hub-h0"
    STAR_CENTER = "star-center"
    STAR_LEAF_A = "star-leaf-a"
    STAR_LEAF_B = "star-leaf-b"
    COPY_T0 = "copy-t0"
    COPY_T1 = "copy-t1"
    COPY_T2 = "copy-t2"
    COPY_S0 = "copy-s0"
    COPY_S1 = "copy-s1"
    APEX = "apex"
    CYCLE_C = "cycle"
    F_VERTEX = "f-vertex"
    CLIQUE_C1 = "clique-c1"
    CLIQUE_C2 = "clique-c2"
    X_SET = "x-set"
    Y_SET = "y-set"
    FORBIDDEN = "forbidden"
    T_VERTEX = "t-vertex"
    OTHER = "other"


@dataclass(frozen=True, slots=True)
class RoleTag:
    """Gadget role of a constructed vertex; payload is a source annotation."""

    kind: RoleKind = RoleKind.ORIGINAL
    payload: object = None


ORIGINAL = RoleTag(RoleKind.ORIGINAL)
_KIND_BY_NAME = {kind.value: kind for kind in RoleKind}


# A `ds-circle` compile makes thousands of these; a NamedTuple builds in
# about half the time of a frozen dataclass.
class Indexed(NamedTuple):
    """The payloads `(*prefix, 0) ... (*prefix, count - 1)` of a family, in
    order, declared to `add_family` without building one tuple per vertex."""

    prefix: tuple
    count: int


class Family:
    """The record of one `add_family` call, to be read, not changed: the
    new `ids`, their `kind`, their `payloads` (a list, or an `Indexed` run),
    the `hosts` every member is joined to (a set, or the `range` given) and
    `joined`, the id runs of later families joined to every member."""

    __slots__ = ("ids", "kind", "payloads", "hosts", "joined", "_shared")

    def __init__(self, ids: range, kind: RoleKind, payloads, hosts, joined=()) -> None:
        self.ids, self.kind, self.payloads, self.hosts = ids, kind, payloads, hosts
        self.joined: tuple[range, ...] = joined
        self._shared: frozenset[int] | None = None

    def payload(self, v: int) -> object:
        if type(self.payloads) is Indexed:
            return (*self.payloads.prefix, v - self.ids.start)
        return self.payloads[v - self.ids.start]

    def shared(self) -> frozenset[int]:
        """The neighbours every member has: the hosts and the joined runs."""
        if self._shared is None:
            hosts = frozenset(self.hosts)  # a frozenset is its own copy
            self._shared = hosts.union(*self.joined) if self.joined else hosts
        return self._shared


def _in_runs(v: int, runs: tuple[range, ...]) -> bool:
    """Whether v is in one of `runs`."""
    return any(v in run for run in runs)


class Graph:
    """Finite simple undirected graph: no self-loops, no parallel edges."""

    __slots__ = ("_families", "_bounds", "_edges", "_links", "_adj", "_frozen")

    def __init__(self) -> None:
        self._families: list[Family] = []
        # The first id of each family, then n: family i holds the ids
        # [_bounds[i], _bounds[i + 1]).
        self._bounds = [0]
        self._edges: dict[int, set[int]] = {}  # v -> its explicit neighbours
        # v -> the id ranges joined to v alone
        self._links: dict[int, tuple[range, ...]] = {}
        # Every neighbour set, as `adjacency()` built it since the graph last
        # changed, or None.
        self._adj: list[set[int] | frozenset[int]] | None = None
        self._frozen = False

    # -- construction -----------------------------------------------------

    def add_vertex(self, tag: RoleTag = ORIGINAL) -> int:
        return self.add_family(tag.kind, [tag.payload])[0]

    def add_vertices(self, count: int, tag: RoleTag = ORIGINAL) -> range:
        return self.add_family(tag.kind, repeat(tag.payload, count))

    def add_family(
        self, kind: RoleKind, payloads: Iterable[object] | Indexed, join: Iterable[int] = ()
    ) -> range:
        """One fresh vertex of role `kind` per payload, in order, each joined
        to every vertex of `join`; returns the `range` of the new ids, which
        the graph keeps as the family's run wherever it is joined, so no
        int object is made per new vertex.  `payloads` and `join` are each
        read once, so either may be a generator; an `Indexed` run is kept
        as it is.  Every host is checked, as `add_edge` would check its
        edges to the family, before the graph is touched, so a failed call
        leaves the graph as it was.  A join given as a `range` of existing
        ids skips those checks, which it cannot fail, and is recorded once
        per family it covers whole; every other host records the new range
        in its `_links`."""
        if self._frozen:
            raise FrozenGraph("graph is frozen")
        if type(payloads) is Indexed:
            count = payloads.count
        else:
            payloads = list(payloads)
            count = len(payloads)
        first = self._bounds[-1]
        ids = range(first, first + count)
        if not ids:
            return ids
        if type(join) is range and join.step == 1 and 0 <= join.start and join.stop <= first:
            hosts = join
        else:
            listed = list(join)
            hosts = frozenset(listed)
            if len(hosts) < len(listed) or listed and (min(listed) < 0 or max(listed) >= first):
                self._reject(listed, ids)
        if hosts:
            if type(hosts) is range:
                self._join_range(hosts, ids)
            else:
                links = self._links
                for host in hosts:
                    links[host] = links.get(host, ()) + (ids,)
        self._families.append(Family(ids, kind, payloads, hosts))
        self._bounds.append(ids.stop)
        self._adj = None
        return ids

    def _reject(self, hosts: list[int], ids: range) -> None:
        """Raise the error `add_edge` would raise for the first bad host."""
        seen: set[int] = set()
        for host in hosts:
            if host in ids:
                raise SelfLoop(f"self-loop at {host}")
            self._check_vertex(host)
            if host in seen:
                raise DuplicateEdge(f"edge ({host},{ids.start}) already present")
            seen.add(host)

    def _join_range(self, hosts: range, run: range) -> None:
        """Join every vertex of `hosts` to `run`: once per family it covers
        whole, and in `_links` for each member of one it covers in part."""
        fams, links = self._families, self._links
        for i in range(bisect_right(self._bounds, hosts.start) - 1, len(fams)):
            fam = fams[i]
            ids = fam.ids
            if ids.start >= hosts.stop:
                break
            if hosts.start <= ids.start and ids.stop <= hosts.stop:
                fam.joined += (run,)
                fam._shared = None
                continue
            for v in range(max(ids.start, hosts.start), min(ids.stop, hosts.stop)):
                links[v] = links.get(v, ()) + (run,)

    def add_edge(self, u: int, v: int) -> None:
        if self._frozen:
            raise FrozenGraph("graph is frozen")
        if u == v:
            raise SelfLoop(f"self-loop at {u}")
        bounds = self._bounds
        if not (0 <= u < bounds[-1] and 0 <= v < bounds[-1]):
            self._check_vertex(u)
            self._check_vertex(v)
        # u's parts hold every edge at u, as v's hold every edge at v.
        edges = self._edges
        own, other = edges.get(u), edges.get(v)
        fam = self._families[bisect_right(bounds, u) - 1]
        runs = self._links.get(u)
        if (
            (own is not None and v in own)
            or v in fam.hosts
            or (fam.joined and _in_runs(v, fam.joined))
            or (runs is not None and _in_runs(v, runs))
        ):
            # Gadget builders must be edge-exact; a repeat is a bug upstream.
            raise DuplicateEdge(f"edge ({u},{v}) already present")
        if own is None:
            edges[u] = {v}
        else:
            own.add(v)
        if other is None:
            edges[v] = {u}
        else:
            other.add(u)
        self._adj = None

    def freeze(self) -> "Graph":
        self._frozen = True
        return self

    def clone(self) -> "Graph":
        """Unfrozen deep copy, for constructions extending an existing graph;
        it shares what no call changes: payloads, hosts and id runs."""
        g = Graph()
        g._families = [Family(f.ids, f.kind, f.payloads, f.hosts, f.joined) for f in self._families]
        g._bounds = list(self._bounds)
        g._edges = {v: set(own) for v, own in self._edges.items()}
        g._links = dict(self._links)
        return g

    # -- queries ----------------------------------------------------------

    @property
    def n(self) -> int:
        return self._bounds[-1]

    @property
    def m(self) -> int:
        ends = sum([len(f.ids) * (len(f.hosts) + sum(map(len, f.joined))) for f in self._families])
        ends += sum(map(len, self._edges.values()))
        ends += sum([len(run) for runs in self._links.values() for run in runs])
        return ends // 2

    def vertices(self) -> range:
        return range(self.n)

    def families(self) -> tuple[Family, ...]:
        """Every family record, in id order."""
        return tuple(self._families)

    def _family(self, v: int) -> Family:
        return self._families[bisect_right(self._bounds, v) - 1]

    def neighbors(self, v: int) -> set[int] | frozenset[int]:
        """The neighbour set of v, to be read, not changed: the members of a
        family may share one frozenset, and a later edit of the graph may
        give v a new set, so the result need not track edits made after the
        call.  Only v's set is built, unless `adjacency()` holds it, and it
        is not kept: a reader of many sets reads `adjacency()`."""
        self._check_vertex(v)
        adj = self._adj
        return self._build(v) if adj is None else adj[v]

    def _build(self, v: int) -> set[int] | frozenset[int]:
        """v's neighbour set: its family's shared set with v's links and own
        edges added, or `_edges[v]` itself when that is all there is."""
        shared = self._families[bisect_right(self._bounds, v) - 1].shared()
        runs, own = self._links.get(v), self._edges.get(v)
        if runs is not None:
            return shared.union(own or (), *runs)
        if own is None:
            return shared
        return shared.union(own) if shared else own

    def degree(self, v: int) -> int:
        """|N(v)|, counted from v's parts without building its set."""
        self._check_vertex(v)
        fam = self._family(v)
        runs = fam.joined + self._links.get(v, ())
        return len(fam.hosts) + len(self._edges.get(v, ())) + sum(map(len, runs))

    def adjacency(self) -> list[set[int] | frozenset[int]]:
        """The neighbour set of every vertex, indexed by id, to be read, not
        changed, for a reader of the whole graph.  The members of a family
        without parts of their own share its one frozenset."""
        adj = self._adj
        if adj is None:
            adj, edges = [], self._edges
            for fam in self._families:
                shared = fam.shared()
                if shared:
                    adj.extend(repeat(shared, len(fam.ids)))
                else:  # a member's own edges, where it has any, are all its neighbours
                    adj.extend(map(edges.get, fam.ids, repeat(shared)))
            links = self._links
            for v in links:
                adj[v] = self._build(v)
            for v, own in edges.items():
                if adj[v] is not own and v not in links:
                    adj[v] = self._build(v)
            self._adj = adj
        return adj

    def tag(self, v: int) -> RoleTag:
        self._check_vertex(v)
        fam = self._family(v)
        return RoleTag(fam.kind, fam.payload(v))

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, in ascending order."""
        for u, nb in enumerate(self.adjacency()):
            for v in sorted(nb):
                if u < v:
                    yield (u, v)

    def deg_in(self, v: int, s: Iterable[int]) -> int:
        """|N(v) ∩ s|; v's own membership in s is never counted."""
        nb = self.neighbors(v)
        return len(nb & (s if isinstance(s, (set, frozenset)) else set(s)))

    def degrees_in(self, s: Iterable[int]) -> Iterator[tuple[int, int, int]]:
        """(v, deg(v), |N(v) ∩ s|) for each v of s, in ascending order,
        counted from v's parts with s sorted once: a run, or hosts given as
        a `range`, by two bisections, a host set or v's own edges by one
        set intersection.  No neighbour set is built, and no row is kept."""
        inside = s if isinstance(s, (set, frozenset)) else set(s)
        members = sorted(inside)
        for v in members[:1] + members[-1:]:
            self._check_vertex(v)

        def count(runs: Iterable[range]) -> int:
            return sum([bisect_left(members, r.stop) - bisect_left(members, r.start) for r in runs])

        bounds, edges, links = self._bounds, self._edges, self._links
        shared: dict[int, tuple[int, int]] = {}  # family index -> its counts
        for v in members:
            i = bisect_right(bounds, v) - 1
            if i not in shared:
                fam = self._families[i]
                hosts = fam.hosts
                near = count((hosts,)) if type(hosts) is range else len(inside.intersection(hosts))
                shared[i] = (len(hosts) + sum(map(len, fam.joined)), near + count(fam.joined))
            deg, near = shared[i]
            own, runs = edges.get(v), links.get(v)
            if own is not None:
                deg, near = deg + len(own), near + len(inside.intersection(own))
            if runs is not None:
                deg, near = deg + sum(map(len, runs)), near + count(runs)
            yield v, deg, near

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self._bounds[-1]:
            raise UnknownVertex(f"vertex {v} not in graph of order {self.n}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        # Roles compare vertex by vertex, however the families split them.
        a, b = ([(f.kind, f.payload(v)) for f in g._families for v in f.ids] for g in (self, other))
        return self.adjacency() == other.adjacency() and a == b

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def build_graph(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
    """Convenience constructor for untagged graphs (frozen)."""
    g = Graph()
    g.add_vertices(n)
    for u, v in edges:
        g.add_edge(u, v)
    return g.freeze()


# -- structural checks ----------------------------------------------------


def is_star_forest_after_deletion(g: Graph, deleted: Iterable[int]) -> bool:
    """True iff every component of g minus `deleted` is a star.

    Isolated vertices and single edges count as (degenerate) stars; anything
    with two branching vertices, or any cycle, does not.  That holds exactly
    when every remaining edge has an end of degree one in what remains.
    """
    del_set = set(deleted)
    adj = g.adjacency()
    deg = [len(nb - del_set) for nb in adj]
    return all(
        deg[u] == 1 or deg[v] == 1
        for u, nb in enumerate(adj)
        if u not in del_set
        for v in nb
        if u < v and v not in del_set
    )


# -- text format -----------------------------------------------------------
#
#   c <free text>            optional comment lines, anywhere in the file
#   p da <n> <m>
#   e <u> <v>                m lines, 0-based endpoints
#   t <v> <tagname>          optional role tags (vertices default to original)
#
# The writer is canonical: edges sorted ascending, one tag line for every
# vertex whose role is not "original".

# Canonical spellings of the ids of small graphs, shared by every call.
_SMALL_NAMES = list(map(str, range(1024)))
_SMALL_IDS = dict(zip(_SMALL_NAMES, range(1024)))


def _names(n: int) -> list[str]:
    """The canonical spelling of every id below n, indexed by id."""
    return _SMALL_NAMES if n <= len(_SMALL_NAMES) else list(map(str, range(n)))


def write_graph(g: Graph) -> str:
    """The canonical text of g, written in one pass over its family records.
    Hosts are older ids, so a member with no edges or links of its own has
    exactly its family's `joined` runs above it: each maximal run of such
    members gets its edge lines from one join over its id strings.  A
    member with parts of its own (a hub, a square, every vertex of a parsed
    or `build_graph` graph) gets one join of its sorted neighbours above
    it, read from its parts.  Each family that is not `original` gets its
    tag lines from one join."""
    n, edges, links = g.n, g._edges, g._links
    names = _names(n)
    name_of = names.__getitem__
    own = sorted(edges.keys() | links.keys())
    lines, tags = [""], []  # the header, once the edge lines have counted m
    m = i = 0
    for fam in g._families:
        start, stop = fam.ids.start, fam.ids.stop
        joined = fam.joined
        above = [*map(name_of, chain(*joined))]
        j = bisect_left(own, stop, i)
        for v in own[i:j] + [stop]:
            if above and start < v:
                m += len(above) * (v - start)
                lines.append(_joined_lines(names[start:v], above))
            if v == stop:
                break
            if joined or v in links:  # v's parts but its hosts, which lie below v
                nb = chain(edges.get(v, ()), *joined, *links.get(v, ()))
            else:
                nb = edges[v]
            s = sorted(nb)
            cut = bisect_right(s, v)
            if cut == len(s) - 1:
                lines.append(f"e {v} {s[cut]}\n")
            elif cut < len(s):
                lines.append(_lines(f"e {v} ", map(name_of, s[cut:]), "\n"))
            m += len(s) - cut
            start = v + 1
        i = j
        if fam.kind is not RoleKind.ORIGINAL:
            # `_value_` is the member's stored name; `.value` is a Python-level property.
            tags.append(_lines("t ", names[fam.ids.start : stop], f" {fam.kind._value_}\n"))
    lines[0] = f"p da {n} {m}\n"
    return "".join(lines + tags)


def _lines(head: str, ids: Iterable[str], tail: str) -> str:
    """One line per id, in order: `head`, the id, then `tail`."""
    return head + (tail + head).join(ids) + tail


def _joined_lines(members: list[str], above: list[str]) -> str:
    """The edge lines from each of `members` to each of `above`, in order."""
    if len(above) == 1:
        w = above[0]
        return "e " + f" {w}\ne ".join(members) + f" {w}\n"
    parts = [repeat("e ")]
    for w in above:
        parts += [members, repeat(f" {w}\ne ")]
    parts[-1] = repeat(f" {above[-1]}\n")
    return "".join(chain.from_iterable(zip(*parts)))


def parse_graph(text: str) -> Graph:
    """The graph of `text`.  A text in `write_graph`'s own layout is read in
    bulk, and any other text, and every text with an error, line by line,
    which alone raises the `line N: ...` errors.

    The bulk reader takes one of two paths, by a property of the text that
    the tag lines, which it reads first, give in O(1) steps.  A tagged
    text with at most one run of tag names per `_SHORT_RUNS` (64) vertices
    (a compiled target: pendants of a few hubs) is read back into family
    records run by run, and builds a set only for an edge outside every
    run (`_read_runs`).  A text without `t` lines (a solver input, a source
    instance; a G(n, p) graph's forms about one edge line per run) or with
    shorter tag runs (a gadget-dense target, as ds-circle's, whose clique
    vertices each have edge lines in several short runs and a tag run of
    three) is read into one explicit neighbour set per vertex, which is
    kept as its adjacency (`_read_sets`)."""
    g = _parse_written(text)
    return _parse_lines(text) if g is None else g


# `write_graph`'s layout, with optional leading comment lines: the header, the
# edge lines, then the tag lines, each with single spaces and ending in "\n".
# Comments hold only printable ASCII and tabs, so no line boundary that
# `str.splitlines` knows besides "\n" can hide in one.
_HEAD = re.compile(r"(?:c(?:[\t ][\t -~]*)?\n)*p da ([0-9]+) ([0-9]+)\n", re.ASCII)
_CHUNK = 4096  # lines per bulk step: the tokens of one step are held at once
_EDGES = re.compile(r"(?:e [0-9]+ [0-9]+\n){1,%d}" % _CHUNK, re.ASCII)
# The edge lines of one vertex, with every id in canonical form: the
# vertex's, which a backreference repeats, and the first id above it.
_GROUP = re.compile(r"e (0|[1-9][0-9]*) (0|[1-9][0-9]*)\n(?:e \1 (?:0|[1-9][0-9]*)\n)*", re.ASCII)
# Up to `_CHUNK` tag lines of one name: the first id, and the name that a
# backreference repeats.
_TAG_RUN = re.compile(r"t ([0-9]+) ([a-z0-9-]+)\n(?:t [0-9]+ \2\n){0,%d}" % (_CHUNK - 1), re.ASCII)
_NO_HOSTS: frozenset[int] = frozenset()
# `_read_runs` pays some Python steps per record, and at least one record
# per run of tag names; a text with more than one such run per this many
# vertices is read into explicit sets instead.
_SHORT_RUNS = 64


def _parse_written(text: str) -> Graph | None:
    """The graph of a text in `write_graph`'s layout, or None for any other
    text or any error, which `_parse_lines` then reads (and reports)."""
    head = _HEAD.match(text)
    if head is None:
        return None
    try:
        n, m = int(head[1]), int(head[2])
    except ValueError:  # more digits than int() reads
        return None
    names = _names(n)
    tags = text.find("\nt ", head.end() - 1) + 1 or len(text)
    kinds = _tag_runs(text, tags, n, names)
    if kinds is None:
        return None
    if tags < len(text) and len(kinds) * _SHORT_RUNS <= n:
        if text.count("\n", head.end(), tags) != m:
            return None
        return _read_runs(text, head.end(), tags, n, names, kinds)
    ids = _SMALL_IDS if names is _SMALL_NAMES else dict(zip(names, range(n)))
    del names  # the id table keeps the strings
    adj = _read_sets(text, head.end(), tags, n, m, ids)
    if adj is None:
        return None
    # The sets hold the table's int objects; the table itself goes first.
    vertex_ids = list(islice(ids.values(), n))
    del ids
    g = Graph()
    for kind, t in kinds:
        g.add_family(kind, repeat(None, t - g.n))
    g._edges = dict(zip(vertex_ids, adj))
    g._adj = adj
    return g.freeze()


def _read_sets(text: str, pos: int, stop: int, n: int, m: int, ids: dict[str, int]) -> list[set[int]] | None:
    """The neighbour set of every vertex, from the edge lines from `pos`
    to `stop`; or None.  Ids are looked up by their canonical spelling in
    `ids` ("007" misses), so every endpoint of a vertex is the same int
    object; an id >= n misses the table or fails to index the set list."""
    adj = [set() for _ in range(n)]
    edges = 0
    try:
        while block := _EDGES.match(text, pos):
            pos = block.end()
            fields = text[block.start() : pos].split()
            us = list(map(ids.__getitem__, fields[1::3]))
            vs = list(map(ids.__getitem__, fields[2::3]))
            edges += len(us)
            for u, v in zip(us, vs):
                adj[u].add(v)
                adj[v].add(u)
    except LookupError:  # an id spelled otherwise or >= n
        return None
    # Another layout or an edge count off.  A repeated edge adds nothing to
    # the degree sum and a self-loop one, not two, so with m edge lines the
    # sum is 2m only if there is neither.
    if pos != stop or edges != m or sum(map(len, adj)) != 2 * m:
        return None
    return adj


def _tag_runs(text: str, pos: int, n: int, names: list[str]) -> list[tuple[RoleKind, int]] | None:
    """The (kind, stop) runs of the tag lines from `pos` to the end of the
    text, each kind up to the id `stop`, when each run of equal tag names
    spells consecutive ids in canonical form, above the last run and below
    n, as the writer puts them; else None, and `_parse_lines` reads the
    text.  Each run costs one comparison of its text with the text the
    writer would give it."""
    runs: list[tuple[RoleKind, int]] = []
    top = 0  # the first id above the last run
    while block := _TAG_RUN.match(text, pos):
        name, stop = block[2], block.end()
        try:
            first = int(block[1])
        except ValueError:  # more digits than int() reads
            return None
        count = text.count("\n", pos, stop)
        kind = _KIND_BY_NAME.get(name)
        if first < top or first + count > n or kind is None:
            return None
        if not text.startswith(_lines("t ", names[first : first + count], f" {name}\n"), pos):
            return None
        if first > top:
            runs.append((RoleKind.ORIGINAL, first))
        if runs and runs[-1][0] is kind:
            runs.pop()
        runs.append((kind, first + count))
        top, pos = first + count, stop
    if pos != len(text):
        return None
    if top < n:
        runs.append((RoleKind.ORIGINAL, n))
    return runs


def _read_runs(
    text: str, pos: int, stop: int, n: int, names: list[str], kinds: list[tuple[RoleKind, int]]
) -> Graph | None:
    """The graph of the edge lines from `pos` to `stop` of a tagged text,
    rebuilt as family records, or None if they are not as the writer puts
    them: one group of lines per vertex u, in id order, each spelling u's
    neighbours above it in ascending order and canonical form.

    A group is read by the run: where its ids count up by one, one
    comparison of its text with the writer's join confirms it.  Vertices
    whose groups repeat one list of ids above them (pendants under a hub,
    say) are a shared block: one comparison with `_joined_lines` confirms
    it whole, and its runs become the `joined` of its record.  Any other
    group is a vertex with parts of its own (a hub, a square, a clique
    vertex): each run of two or more ids becomes a `range` in `_links[u]`,
    and an id alone an explicit edge, in `_edges` at both ends.

    The members of a run or block host it.  A sweep over the runs'
    boundaries, each known once the groups below it are read, gives every
    other vertex its hosts, and a record is split where the kind, the
    hosts or the list above change.  A vertex with parts of its own keeps
    its hub hosts in its `_edges` instead, so that it shares the record
    before it.  One record is thus read in a few Python steps, and a set
    is built only for a vertex with parts of its own or an edge alone."""
    g = Graph()
    fams, edges, links = g._families, g._edges, g._links
    owners: dict[int, list] = {}  # an id -> the hosts whose runs start or stop there
    marks: list[int] = []  # a heap of the ids in `owners`, and of some already passed
    hubs: dict[int, None] = {}  # the hosts of the current vertex: hub ids,
    blocks: dict[range, None] = {}  # and the id ranges of blocks
    above: tuple[range, ...] = ()  # the runs above the last block
    above_names: list[str] = []
    kinds_left = iter(kinds)
    kind, kind_stop = next(kinds_left)

    def host(owner, runs):
        for run in runs:
            for at in (run.start, run.stop):
                if at in owners:
                    owners[at].append(owner)
                else:
                    owners[at] = [owner]
                    heappush(marks, at)

    def toggle(v):
        # A host's runs are maximal, so none of them meets another: each id
        # toggles each of its hosts once.  Whether a block host moved.
        moved = False
        for owner in owners.pop(v):
            if type(owner) is int:
                if hubs.pop(owner, True) is not None:
                    hubs[owner] = None
            else:
                moved = True
                if blocks.pop(owner, True) is not None:
                    blocks[owner] = None
        return moved

    def record(v, t, hosts, joined):
        last = fams[-1] if fams else None
        if last is not None and last.kind is kind and last.joined == joined and last.hosts == hosts:
            last.ids = range(last.ids.start, t)
        else:
            fams.append(Family(range(v, t), kind, None, hosts, joined))

    v = 0
    group = None  # the edge lines of v, when already read
    while v < n:
        if v == kind_stop:
            kind, kind_stop = next(kinds_left)
        if v in owners:
            toggle(v)
        if group is None:
            head = f"e {names[v]} "
            if not text.startswith(head, pos):
                # No edge line above v, nor above the vertices up to the
                # next group's: members, one record per change of hosts or
                # kind.
                t = n
                if pos < stop:
                    try:
                        t = int(text[pos + 2 : text.index(" ", pos + 2)])
                    except ValueError:
                        return None
                    if t <= v:
                        return None
                while True:
                    end = _next(marks, v, min(t, kind_stop))
                    record(v, end, _hosts(hubs, blocks), ())
                    v = end
                    if v == t or v == kind_stop:
                        break
                    toggle(v)
                continue
            if above and text.startswith(f"{head}{above_names[0]}\n", pos):
                block = _block(text, pos, v, min(_next(marks, v, kind_stop), above[0].start), names, above_names)
                if block:
                    t, pos = block
                    host(range(v, t), above)
                    record(v, t, _hosts(hubs, blocks), above)
                    v = t
                    continue
            group = _group(text, pos, v, head, n, names)
            if group is None:
                return None
        runs, ids, after = group
        group = None
        if v + 1 < runs[0].start and text.startswith(f"e {names[v + 1]} {ids[0]}\n", after):
            block = _block(text, pos, v, min(_next(marks, v, kind_stop), runs[0].start), names, ids)
            if block:
                t, pos = block
                above, above_names = tuple(runs), ids
                host(range(v, t), above)
                record(v, t, _hosts(hubs, blocks), above)
                v = t
                continue
        # v and the vertices after it have parts of their own, up to the
        # next member, block or kind: one record, whose hosts are their
        # block hosts, while their hub hosts go to their own edges.
        first, own_hosts = v, _hosts({}, blocks)
        while True:
            pos = after
            spans = [run for run in runs if len(run) > 1]
            if spans:
                links[v] = tuple(spans)
                host(v, spans)
            if len(spans) < len(runs):
                _add_edges(edges, v, [run.start for run in runs if len(run) == 1])
            if hubs:
                _add_edges(edges, v, hubs, both=False)
            v += 1
            if v == n or v == kind_stop or v in owners and toggle(v):
                break
            head = f"e {names[v]} "
            if not text.startswith(head, pos) or above and text.startswith(f"{head}{above_names[0]}\n", pos):
                break
            group = _group(text, pos, v, head, n, names)
            if group is None:
                return None
            runs, ids, after = group
            if v + 1 < runs[0].start and text.startswith(f"e {names[v + 1]} {ids[0]}\n", after):
                break  # v may start a block: the outer loop reads on from its group
            group = None
        record(first, v, own_hosts, ())
    if pos != stop:
        return None
    for fam in fams:
        fam.payloads = [None] * len(fam.ids)
    g._bounds.extend([fam.ids.stop for fam in fams])
    return g.freeze()


def _next(marks: list[int], v: int, stop: int) -> int:
    """The first id in the heap `marks` above v, or `stop` if that comes
    first.  v only grows, so the ids up to v are dropped for good."""
    while marks and marks[0] <= v:
        heappop(marks)
    return marks[0] if marks and marks[0] < stop else stop


def _hosts(hubs: dict[int, None], blocks: dict[range, None]) -> range | frozenset[int]:
    """The union of the hub ids and block ranges that host a vertex: a
    `range` where it is one, else a set."""
    if not blocks:
        if len(hubs) < 2:
            return range(next(iter(hubs)), next(iter(hubs)) + 1) if hubs else _NO_HOSTS
        lo, hi = min(hubs), max(hubs)
        return range(lo, hi + 1) if hi - lo + 1 == len(hubs) else frozenset(hubs)
    spans = sorted([*[(h, h + 1) for h in hubs], *[(b.start, b.stop) for b in blocks]])
    if all(a[1] == b[0] for a, b in zip(spans, spans[1:])):
        return range(spans[0][0], spans[-1][1])
    return frozenset(chain.from_iterable([range(*span) for span in spans]))


def _group(text: str, pos: int, v: int, head: str, n: int, names: list[str]) -> tuple | None:
    """The runs of v's edge lines at `pos`, their ids' spellings and the
    position after them, if the lines spell ascending canonical ids above
    v and below n; else None.  A group whose ids count up by one is
    confirmed by one comparison, without splitting its lines."""
    group = _GROUP.match(text, pos)
    if group is None:
        return None
    after = group.end()
    try:
        first = int(group[2])
        last = int(text[text.rfind(" ", pos, after - 1) + 1 : after - 1])
    except ValueError:  # more digits than int() reads
        return None
    if not v < first <= last < n:
        return None
    if last - first + 1 == text.count("\n", pos, after):
        ids = names[first : last + 1]
        if not text.startswith(_lines(head, ids, "\n"), pos):
            return None
        return [range(first, last + 1)], ids, after
    ids = text[pos:after].split()[2::3]
    ws = list(map(int, ids))
    runs, start = [], first
    for w, up in zip(ws, islice(ws, 1, None)):
        if up != w + 1:
            if up <= w:
                return None
            runs.append(range(start, w + 1))
            start = up
    runs.append(range(start, last + 1))
    return runs, ids, after


def _block(
    text: str, pos: int, v: int, cap: int, names: list[str], above: list[str]
) -> tuple[int, int] | None:
    """The end t <= cap of the block of vertices from v whose edge lines at
    `pos` are `_joined_lines(names[v:t], above)`, and the position after
    them; None when t would be v.  Only the last member's group can go on
    past `above`, and then that member is not in the block."""
    if cap <= v:
        return None
    t, length = _longest(text, pos, v, cap, lambda t: _joined_lines(names[v:t], above))
    if t > v and text.startswith(f"e {names[t - 1]} ", pos + length):
        t -= 1
        length = len(_joined_lines(names[v:t], above)) if t > v else 0
    return (t, pos + length) if t > v else None


def _longest(text: str, pos: int, good: int, bad: int, lines_of) -> tuple[int, int]:
    """The largest t <= bad such that the text at `pos` starts with
    `lines_of(t)`, given that it does for `good`, and the length of those
    lines (0 for `good`).  `bad` itself is tried first, as the writer's runs
    mostly end where a record or a section does; a shorter run is found by
    doubling from `good` and then halving."""
    lines = lines_of(bad)
    if text.startswith(lines, pos):
        return bad, len(lines)
    first, length, t = good, 0, good + 1
    while t < bad:
        lines = lines_of(t)
        if not text.startswith(lines, pos):
            bad = t
            break
        good, length, t = t, len(lines), first + 2 * (t - first)
    while good + 1 < bad:
        t = (good + bad) // 2
        lines = lines_of(t)
        if text.startswith(lines, pos):
            good, length = t, len(lines)
        else:
            bad = t
    return good, length


def _add_edges(edges: dict[int, set[int]], v: int, ws: Iterable[int], both: bool = True) -> None:
    """Add explicit edges from v to each of `ws`: at both ends, or at v alone
    where each w has the edge in its parts already."""
    own = edges.get(v)
    if own is None:
        edges[v] = set(ws)
    else:
        own.update(ws)
    if both:
        for w in ws:
            other = edges.get(w)
            if other is None:
                edges[w] = {v}
            else:
                other.add(v)


def _parse_lines(text: str) -> Graph:
    g = Graph()
    add_edge = g.add_edge
    n = m = None
    edge_lines = 0
    tagged: set[int] = set()
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            fields = raw.split()
            if not fields:
                continue
            head = fields[0]
            if head == "e" and n is not None:
                if len(fields) != 3:
                    raise ParseError("expected 'e <u> <v>'")
                add_edge(int(fields[1]), int(fields[2]))
                edge_lines += 1
            elif head == "c":
                continue
            elif n is None and head != "p":
                raise ParseError(f"'{head}' record before header")
            elif head == "p":
                if n is not None:
                    raise ParseError("repeated header")
                if len(fields) != 4 or fields[1] != "da":
                    raise ParseError("expected 'p da <n> <m>'")
                n, m = int(fields[2]), int(fields[3])
                if n < 0 or m < 0:
                    raise ParseError("negative counts")
                g.add_vertices(n)
                kinds = [RoleKind.ORIGINAL] * n
            elif head == "t":
                if len(fields) != 3:
                    raise ParseError("expected 't <v> <tagname>'")
                v = int(fields[1])
                if not 0 <= v < n:
                    raise ParseError(f"vertex {v} out of range")
                if v in tagged:
                    raise ParseError(f"repeated 't' for vertex {v}")
                tagged.add(v)
                kind = _KIND_BY_NAME.get(fields[2])
                if kind is None:
                    raise ParseError(f"unknown tag '{fields[2]}'")
                kinds[v] = kind
            else:
                raise ParseError(f"unknown record '{head}'")
    except (ValueError, AllianceError) as exc:
        raise ParseError(f"line {lineno}: {exc}") from exc
    if n is None:
        raise ParseError("missing 'p da' header")
    if edge_lines != m:
        raise ParseError(f"header promises {m} edges, file has {edge_lines}")
    # One record per run of equal kinds, every edge explicit.
    g._families, g._bounds = [], [0]
    for kind, run in groupby(kinds):
        first, count = g._bounds[-1], len(list(run))
        g._families.append(Family(range(first, first + count), kind, [None] * count, _NO_HOSTS))
        g._bounds.append(first + count)
    return g.freeze()


@reader
def parse_id_list(spec: str | None, n: int) -> frozenset[int]:
    """Comma- or space-separated ids, each in range(n): vertices of an n-vertex
    graph, or the items of a source instance."""
    ids = frozenset(int(tok) for tok in (spec or "").replace(",", " ").split())
    bad = sorted(v for v in ids if not 0 <= v < n)
    if bad:
        raise ParseError(f"ids {bad} out of range (expected 0 <= id < {n})")
    return ids


def read_rows(text: str) -> list[list[str]]:
    """The fields of every nonblank line of `text`."""
    return [line.split() for line in text.splitlines() if line.strip()]
