"""Simple undirected graphs with role-tagged vertices, stored family by family.

Vertices are dense non-negative integers handed out in construction order,
which keeps every downstream construction a pure function of its input.  A
graph is mutable while it is being built and is frozen by the code that
finishes it, after which any mutation raises.

Every vertex is made by `add_family` (`add_vertex` and `add_vertices` call
it without hosts): a run of fresh vertices of one role kind, one per
payload, each joined to the same hosts.  The graph keeps one `Family`
record per call: the id range, the kind, the payloads (a list, or an
`Indexed` run `(*prefix, 0) ... (*prefix, count - 1)`, which builds no
tuple per vertex), the hosts (a set, or the `range` given) and `joined`,
the id runs of later families joined to every member.  Roles are read from
these records alone (`tag`, the writer's `t` lines, `==`, the gadget JSON),
through `families()`; the parsers make one record per run of equal kinds.

Vertex v is adjacent to the hosts and `joined` runs of its family, to its
explicit neighbours `_edges[v]` (from `add_edge`, and every edge of a parsed
file) and to the id runs `_links[v]`: the families v hosts through a list
join, and the family of a `range` join that covers v's family only in part.
A `range` join covering a family whole adds one run to its `joined`, which
is how a compiler joins a hub (`t`, `t'`, the VC apex, the RBDS helpers) to
thousands of pendants.  `add_family` checks each host (in range, not one of
the new vertices, not repeated) before it touches the graph, so a failed
call changes nothing; `add_edge` finds a repeat in u's parts, and `degree`
and `m` count the parts by length, so none of them builds a set.

A neighbour set is built when it is read, from its family's shared set:
`neighbors(v)` builds v's alone, and `adjacency()`, the accessor for
readers of the whole graph (`edges`, `==`, the writer, the solvers, the
structural checks, the circle self-check and oracle), builds them all and
keeps them until the graph next changes.  Every member of a family without
edges or links of its own gets the family's one frozenset, which the
family keeps.  Hardness targets are almost all pendants (97.3 % or more of
every harness `mrss` target), and the harness reads only the certificate
members' sets, so it never builds the sets of an `mrss` target's squares
or of `t` and `t'`.  Since ids follow creation order, a compiler must
create its families in the order that numbers them.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import groupby, islice, repeat
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
        self.joined: tuple[tuple[int, ...], ...] = joined
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


def _in_runs(v: int, runs: tuple[tuple[int, ...], ...]) -> bool:
    """Whether v is in one of `runs`, each a run of consecutive ids."""
    return any(run[0] <= v <= run[-1] for run in runs)


class Graph:
    """Finite simple undirected graph: no self-loops, no parallel edges."""

    __slots__ = ("_families", "_bounds", "_edges", "_links", "_adj", "_frozen")

    def __init__(self) -> None:
        self._families: list[Family] = []
        # The first id of each family, then n: family i holds the ids
        # [_bounds[i], _bounds[i + 1]).
        self._bounds = [0]
        self._edges: dict[int, set[int]] = {}  # v -> its explicit neighbours
        # v -> the id runs joined to v alone
        self._links: dict[int, tuple[tuple[int, ...], ...]] = {}
        # Every neighbour set, as `adjacency()` built it since the graph last
        # changed, or None.
        self._adj: list[set[int] | frozenset[int]] | None = None
        self._frozen = False

    # -- construction -----------------------------------------------------

    def add_vertex(self, tag: RoleTag = ORIGINAL) -> int:
        return self.add_family(tag.kind, [tag.payload])[0]

    def add_vertices(self, count: int, tag: RoleTag = ORIGINAL) -> list[int]:
        return self.add_family(tag.kind, repeat(tag.payload, count))

    def add_family(
        self, kind: RoleKind, payloads: Iterable[object] | Indexed, join: Iterable[int] = ()
    ) -> list[int]:
        """One fresh vertex of role `kind` per payload, in order, each joined
        to every vertex of `join`; returns the new ids.  `payloads` and `join`
        are each read once, so either may be a generator; an `Indexed` run is
        kept as it is.  Every host is checked, as `add_edge` would check its
        edges to the family, before the graph is touched, so a failed call
        leaves the graph as it was.  A join given as a `range` of existing
        ids skips those checks, which it cannot fail, and is recorded once
        per family it covers whole; every other host records the new run in
        its `_links`."""
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
            return []
        if type(join) is range and join.step == 1 and 0 <= join.start and join.stop <= first:
            hosts = join
        else:
            listed = list(join)
            hosts = frozenset(listed)
            if len(hosts) < len(listed) or listed and (min(listed) < 0 or max(listed) >= first):
                self._reject(listed, ids)
        new = list(ids)
        if hosts:
            # The hosts' sets, once built, hold the same int objects as `new`.
            run = tuple(new)
            if type(hosts) is range:
                self._join_range(hosts, run)
            else:
                links = self._links
                for host in hosts:
                    links[host] = links.get(host, ()) + (run,)
        self._families.append(Family(ids, kind, payloads, hosts))
        self._bounds.append(ids.stop)
        self._adj = None
        return new

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

    def _join_range(self, hosts: range, run: tuple[int, ...]) -> None:
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


def is_bipartite(g: Graph) -> tuple[frozenset[int], frozenset[int]] | None:
    """2-coloring of g, or None if an odd cycle exists.

    Components are colored independently; side one contains each component's
    lowest-id vertex, which makes the returned partition canonical.
    """
    color: list[int] = [-1] * g.n
    adj = g.adjacency()
    for start in g.vertices():
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if color[w] == -1:
                    color[w] = 1 - color[u]
                    queue.append(w)
                elif color[w] == color[u]:
                    return None
    side1 = frozenset(v for v in g.vertices() if color[v] == 0)
    side2 = frozenset(v for v in g.vertices() if color[v] == 1)
    return side1, side2


def components_of_induced(g: Graph, s: Iterable[int]) -> list[frozenset[int]]:
    """Connected components of g[s], ordered by ascending minimum id."""
    ss = set(s)
    for v in ss:
        g._check_vertex(v)
    seen: set[int] = set()
    comps: list[frozenset[int]] = []
    for start in sorted(ss):
        if start in seen:
            continue
        comp = {start}
        queue = deque([start])
        seen.add(start)
        while queue:
            u = queue.popleft()
            for w in g.neighbors(u):
                if w in ss and w not in seen:
                    seen.add(w)
                    comp.add(w)
                    queue.append(w)
        comps.append(frozenset(comp))
    return comps


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


def write_graph(g: Graph) -> str:
    lines = [""]  # the header, once the edge lines have counted m
    lines.extend([f"e {u} {v}" for u, nb in enumerate(g.adjacency()) for v in sorted(nb) if u < v])
    lines[0] = f"p da {g.n} {len(lines) - 1}"
    for fam in g.families():
        if fam.kind is not RoleKind.ORIGINAL:
            # `_value_` is the member's stored name; `.value` is a Python-level property.
            lines.extend([f"t {v} {fam.kind._value_}" for v in fam.ids])
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    """The graph of `text`.  A file in `write_graph`'s own layout is read in
    bulk; any other text, and every text with an error, is read line by
    line, which alone raises the `line N: ...` errors."""
    g = _parse_written(text)
    return _parse_lines(text) if g is None else g


# `write_graph`'s layout, with optional leading comment lines: the header, the
# edge lines, then the tag lines, each with single spaces and ending in "\n".
# Comments hold only printable ASCII and tabs, so no line boundary that
# `str.splitlines` knows besides "\n" can hide in one.
_HEAD = re.compile(r"(?:c(?:[\t ][\t -~]*)?\n)*p da ([0-9]+) ([0-9]+)\n", re.ASCII)
_CHUNK = 4096  # lines per bulk step: the tokens of one step are held at once
_EDGES = re.compile(r"(?:e [0-9]+ [0-9]+\n){1,%d}" % _CHUNK, re.ASCII)
_TAGS = re.compile(r"(?:t [0-9]+ [a-z0-9-]+\n){1,%d}" % _CHUNK, re.ASCII)
# Canonical spellings of the ids of small graphs, shared by every call.
_SMALL_IDS = {str(v): v for v in range(1024)}


def _parse_written(text: str) -> Graph | None:
    """The graph of a text in `write_graph`'s layout, or None for any other
    text or any error, which `_parse_lines` then reads (and reports).  Ids
    are looked up by their canonical spelling ("007" misses), so every
    endpoint of a vertex is the same int object; an id >= n misses the table
    or fails to index the adjacency list."""
    head = _HEAD.match(text)
    if head is None:
        return None
    try:
        n, m = int(head[1]), int(head[2])
    except ValueError:  # more digits than int() reads
        return None
    ids = _SMALL_IDS if n <= len(_SMALL_IDS) else dict(zip(map(str, range(n)), range(n)))
    adj = [set() for _ in range(n)]
    kinds = [RoleKind.ORIGINAL] * n
    pos = head.end()
    edges = tag_lines = 0
    tagged: set[int] = set()
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
        while block := _TAGS.match(text, pos):
            pos = block.end()
            fields = text[block.start() : pos].split()
            vs = list(map(ids.__getitem__, fields[1::3]))
            tag_lines += len(vs)
            tagged.update(vs)
            for v, name in zip(vs, fields[2::3]):
                kinds[v] = _KIND_BY_NAME[name]
    except LookupError:  # an id spelled otherwise or >= n, or an unknown tag
        return None
    # Another layout, an edge count off, or a repeated tag.  A repeated edge
    # adds nothing to the degree sum and a self-loop one, not two, so with m
    # edge lines the sum is 2m only if there is neither.
    if pos != len(text) or edges != m or sum(map(len, adj)) != 2 * m or len(tagged) != tag_lines:
        return None
    # The sets hold the table's int objects; the table itself goes first.
    vertex_ids = list(islice(ids.values(), n))
    del ids
    return _parsed(vertex_ids, adj, kinds)


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
    return _parsed(range(n), [g._edges.get(v) or set() for v in range(n)], kinds)


def _parsed(ids: Iterable[int], adj: list[set[int]], kinds: list[RoleKind]) -> Graph:
    """The frozen graph of a parsed file, from its vertex ids and the
    neighbour set and kind of each: one record per run of equal kinds, and
    every edge explicit, so each vertex's set is its own `_edges` set."""
    g = Graph()
    for kind, run in groupby(kinds):
        first = g._bounds[-1]
        count = len(list(run))
        g._families.append(Family(range(first, first + count), kind, [None] * count, frozenset()))
        g._bounds.append(first + count)
    g._edges = dict(zip(ids, adj))
    g._adj = adj
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
