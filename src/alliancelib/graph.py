"""Simple undirected graphs with role-tagged vertices.

Vertices are dense non-negative integers handed out in construction order,
which keeps every downstream construction a pure function of its input.
Adjacency is a list of sets; a graph is mutable while it is being built and
is frozen by the code that finishes it, after which any mutation raises.
Roles are two flat lists indexed by vertex, the kinds and the payloads;
`tag(v)` builds the `RoleTag(kind, payload)` view of one vertex on demand,
so construction makes no object per vertex beyond its neighbour set.

Every vertex is made by `add_family` (`add_vertex` and `add_vertices` call
it without hosts): a run of fresh vertices, one per payload, of one kind and
joined to the same hosts.  It checks each host (in range, not one of the new
vertices, not repeated) before it touches the graph, so a failed call
changes nothing, then joins the family to each host with set operations
rather than one `add_edge` per edge.  A family of nine or more vertices
with hosts is a run of twins: its vertices hold one shared neighbour set,
which records their id run [first, stop).  Hardness targets are almost all
pendants (97.3 % or more of every harness `mrss` target), so this saves a
set per pendant.  A join given as a `range` walks the graph run by run, not
host by host, and adds to the shared set of each run it covers once; this
is how a compiler joins a hub (`t`, `t'`, the VC apex, the RBDS helpers) to
thousands of pendants.  Anything else that reaches a twin (a list join, a
range over part of its run, or `add_edge` at it) first gives every holder
of the run its own copy.  A shared set equals each holder's neighbourhood,
so no reader tells twins apart; `clone` gives every vertex its own set.  A
smaller family (a triangle, a 4-cycle, an apex), or one without hosts as
the parsers make, gets one set per vertex.  Since ids follow creation
order, a compiler must create its families in the order that numbers them;
the order in which edges are added does not matter, as adjacency is a set
and the writer sorts edges.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from typing import Iterable, Iterator

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


class _Shared(Exception):
    """Raised by `add` on the neighbour set of a run of twins."""


class _Twins(set):
    """The one neighbour set of the twins with ids in [first, stop).  Its
    `add` raises `_Shared`: an edge at one twin is not an edge at the others,
    so `add_edge` gives the run private sets first."""

    __slots__ = ("first", "stop")

    def add(self, v: int) -> None:
        raise _Shared


# The fewest new vertices that share one set.  A smaller family saves too
# little to pay for its run, and less still when an edge inside it follows
# at once and splits it (a triangle, a 4-cycle).  On the harness cases a
# cutoff of 5, 9 or 17 timed alike, while 2 left `ds-circle` slower.
_MIN_TWINS = 9


class Graph:
    """Finite simple undirected graph: no self-loops, no parallel edges."""

    __slots__ = ("_adj", "_kinds", "_payloads", "_frozen")

    def __init__(self) -> None:
        self._adj: list[set[int]] = []
        self._kinds: list[RoleKind] = []
        self._payloads: list[object] = []
        self._frozen = False

    # -- construction -----------------------------------------------------

    def add_vertex(self, tag: RoleTag = ORIGINAL) -> int:
        return self.add_family(tag.kind, [tag.payload])[0]

    def add_vertices(self, count: int, tag: RoleTag = ORIGINAL) -> list[int]:
        return self.add_family(tag.kind, repeat(tag.payload, count))

    def add_family(
        self, kind: RoleKind, payloads: Iterable[object], join: Iterable[int] = ()
    ) -> list[int]:
        """One fresh vertex of role `kind` per payload, in order, each joined
        to every vertex of `join`; returns the new ids.  `payloads` and `join`
        are each read once, so either may be a generator.  Every host is
        checked, as `add_edge` would check its edges to the family, before
        the graph is touched, so a failed call leaves the graph as it was.

        Nine or more new vertices with hosts are twins: they hold one shared
        neighbour set.  A join given as a `range` of existing ids skips the
        per-host checks, which it cannot fail, and walks the graph run by
        run, so a run of twins it covers takes the new ids in one step.  A
        list join gives each twin among its hosts a set of its own first."""
        if self._frozen:
            raise FrozenGraph("graph is frozen")
        payloads = list(payloads)
        adj = self._adj
        first = len(adj)
        # One list of ids: every neighbour set then holds the same int objects.
        ids = list(range(first, first + len(payloads)))
        if not ids:
            return ids
        if type(join) is range and join.step == 1 and 0 <= join.start and join.stop <= first:
            hosts = set(join)
            self._join_run(join.start, join.stop, ids)
        else:
            hosts = set()
            for host in join:
                if not 0 <= host < first or host in hosts:
                    if first <= host < first + len(ids):
                        raise SelfLoop(f"self-loop at {host}")
                    self._check_vertex(host)
                    raise DuplicateEdge(f"edge ({host},{first}) already present")
                hosts.add(host)
            for host in hosts:
                nb = adj[host]
                if type(nb) is not set:
                    # Twins joined one by one get their own sets first.
                    self._split(nb)
                    nb = adj[host]
                nb.update(ids)
        if len(ids) == 1:
            adj.append(hosts)
        elif hosts and len(ids) >= _MIN_TWINS:
            twins = _Twins(hosts)
            twins.first, twins.stop = first, first + len(ids)
            adj.extend(repeat(twins, len(ids)))
        else:
            # Each vertex but the last gets a copy of `hosts`, the last the
            # set itself: one set per vertex, and no empty set filled later.
            adj.extend(map(set, repeat(hosts, len(ids) - 1)))
            adj.append(hosts)
        self._kinds.extend(repeat(kind, len(ids)))
        self._payloads.extend(payloads)
        return ids

    def _join_run(self, start: int, stop: int, ids: list[int]) -> None:
        """Add `ids` to the neighbour set of every vertex of [start, stop),
        once per run of twins that lies inside it; a run that straddles
        either end is split first."""
        adj = self._adj
        # A one-vertex family (a hub over thousands of pendants) joins with
        # `set.add`, which costs about half a `set.update` with a one-element
        # list.
        grow, arg = (set.add, ids[0]) if len(ids) == 1 else (set.update, ids)
        v = start
        while v < stop:
            nb = adj[v]
            if type(nb) is set:
                grow(nb, arg)
                v += 1
            elif start <= nb.first and nb.stop <= stop:
                grow(nb, arg)
                v = nb.stop
            else:
                self._split(nb)

    def _split(self, twins: "_Twins") -> None:
        """Give every holder of a run of twins its own copy of the set."""
        adj = self._adj
        for v in range(twins.first, twins.stop):
            adj[v] = set(twins)

    def add_edge(self, u: int, v: int) -> None:
        if self._frozen:
            raise FrozenGraph("graph is frozen")
        if u == v:
            raise SelfLoop(f"self-loop at {u}")
        adj = self._adj
        n = len(adj)
        if not (0 <= u < n and 0 <= v < n):
            self._check_vertex(u)
            self._check_vertex(v)
        nu = adj[u]
        if v in nu:
            # Gadget builders must be edge-exact; a repeat is a bug upstream.
            raise DuplicateEdge(f"edge ({u},{v}) already present")
        # Plain sets take the edge with no type check; a twin's shared set
        # refuses it, so its run gets private sets and both ends are added
        # again, which is harmless for an end that already took it.
        try:
            nu.add(v)
            adj[v].add(u)
        except _Shared:
            for w in (u, v):
                if type(adj[w]) is not set:
                    self._split(adj[w])
            adj[u].add(v)
            adj[v].add(u)

    def freeze(self) -> "Graph":
        self._frozen = True
        return self

    def clone(self) -> "Graph":
        """Unfrozen deep copy, for constructions extending an existing graph."""
        g = Graph()
        g._adj = [set(nb) for nb in self._adj]
        g._kinds = list(self._kinds)
        g._payloads = list(self._payloads)
        return g

    # -- queries ----------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return sum(map(len, self._adj)) // 2

    def vertices(self) -> range:
        return range(len(self._adj))

    def neighbors(self, v: int) -> set[int]:
        """The neighbour set of v, to be read, not changed: twins share one
        set object, and a later edit of the graph may give v a new one, so
        the result need not track edits made after the call."""
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    def tag(self, v: int) -> RoleTag:
        self._check_vertex(v)
        return RoleTag(self._kinds[v], self._payloads[v])

    def edges(self) -> Iterator[tuple[int, int]]:
        """All edges as (u, v) with u < v, in ascending order."""
        for u, nb in enumerate(self._adj):
            for v in sorted(nb):
                if u < v:
                    yield (u, v)

    def deg_in(self, v: int, s: Iterable[int]) -> int:
        """|N(v) ∩ s|; v's own membership in s is never counted."""
        self._check_vertex(v)
        ss = s if isinstance(s, (set, frozenset)) else set(s)
        return len(self._adj[v] & ss)

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < len(self._adj):
            raise UnknownVertex(f"vertex {v} not in graph of order {len(self._adj)}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._adj == other._adj
            and self._kinds == other._kinds
            and self._payloads == other._payloads
        )

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
    for start in g.vertices():
        if color[start] != -1:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for w in g.neighbors(u):
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
    adj = g._adj
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
    lines.extend([f"e {u} {v}" for u, nb in enumerate(g._adj) for v in sorted(nb) if u < v])
    lines[0] = f"p da {g.n} {len(lines) - 1}"
    original = RoleKind.ORIGINAL
    # `_value_` is the member's stored name; `.value` is a Python-level property.
    lines.extend([f"t {v} {k._value_}" for v, k in enumerate(g._kinds) if k is not original])
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
    g = Graph()
    g.add_vertices(n)
    adj, kinds = g._adj, g._kinds
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
    return g.freeze()


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
                g._kinds[v] = kind
            else:
                raise ParseError(f"unknown record '{head}'")
    except (ValueError, AllianceError) as exc:
        raise ParseError(f"line {lineno}: {exc}") from exc
    if n is None:
        raise ParseError("missing 'p da' header")
    if edge_lines != m:
        raise ParseError(f"header promises {m} edges, file has {edge_lines}")
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
