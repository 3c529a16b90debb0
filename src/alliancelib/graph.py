"""Simple undirected graphs with role-tagged vertices.

Vertices are dense non-negative integers handed out in construction order,
which keeps every downstream construction a pure function of its input.
Adjacency is a list of sets; a graph is mutable while it is being built and
is frozen by the code that finishes it, after which any mutation raises.

The compilers build every gadget family with one call, `add_family`: a run of
fresh vertices, one per payload, each tagged with the family's role and joined
to the same host vertices.  Since ids follow creation order, a compiler must
create its families in the order that numbers them; the order in which edges
are added does not matter, as adjacency is a set and the writer sorts edges.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from enum import Enum
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


_KIND_BY_NAME = {kind.value: kind for kind in RoleKind}


@dataclass(frozen=True)
class RoleTag:
    """Gadget role of a constructed vertex; payload is a source annotation."""

    kind: RoleKind = RoleKind.ORIGINAL
    payload: object = None


ORIGINAL = RoleTag(RoleKind.ORIGINAL)


class Graph:
    """Finite simple undirected graph: no self-loops, no parallel edges."""

    __slots__ = ("_adj", "_tags", "_frozen")

    def __init__(self) -> None:
        self._adj: list[set[int]] = []
        self._tags: list[RoleTag] = []
        self._frozen = False

    # -- construction -----------------------------------------------------

    def add_vertex(self, tag: RoleTag = ORIGINAL) -> int:
        if self._frozen:
            raise FrozenGraph("graph is frozen")
        self._adj.append(set())
        self._tags.append(tag)
        return len(self._adj) - 1

    def add_vertices(self, count: int, tag: RoleTag = ORIGINAL) -> list[int]:
        return [self.add_vertex(tag) for _ in range(count)]

    def add_family(
        self, kind: RoleKind, payloads: Iterable[object], join: Iterable[int] = ()
    ) -> list[int]:
        """One fresh vertex tagged RoleTag(kind, payload) per payload, in
        order, each joined to every vertex of `join`; returns the new ids.
        `join` is read once, so it may be a generator."""
        ids = [self.add_vertex(RoleTag(kind, payload)) for payload in payloads]
        for host in join:
            for v in ids:
                self.add_edge(host, v)
        return ids

    def add_edge(self, u: int, v: int) -> None:
        if self._frozen:
            raise FrozenGraph("graph is frozen")
        if u == v:
            raise SelfLoop(f"self-loop at {u}")
        self._check_vertex(u)
        self._check_vertex(v)
        if v in self._adj[u]:
            # Gadget builders must be edge-exact; a repeat is a bug upstream.
            raise DuplicateEdge(f"edge ({u},{v}) already present")
        self._adj[u].add(v)
        self._adj[v].add(u)

    def freeze(self) -> "Graph":
        self._frozen = True
        return self

    def clone(self) -> "Graph":
        """Unfrozen deep copy, for constructions extending an existing graph."""
        g = Graph()
        g._adj = [set(nb) for nb in self._adj]
        g._tags = list(self._tags)
        return g

    # -- queries ----------------------------------------------------------

    @property
    def n(self) -> int:
        return len(self._adj)

    @property
    def m(self) -> int:
        return sum(len(nb) for nb in self._adj) // 2

    def vertices(self) -> range:
        return range(len(self._adj))

    def neighbors(self, v: int) -> set[int]:
        self._check_vertex(v)
        return self._adj[v]

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self._adj[v])

    def tag(self, v: int) -> RoleTag:
        self._check_vertex(v)
        return self._tags[v]

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
        return self._adj == other._adj and self._tags == other._tags

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
    with two branching vertices, or any cycle, does not.
    """
    del_set = set(deleted)
    remaining = [v for v in g.vertices() if v not in del_set]
    for comp in components_of_induced(g, remaining):
        size = len(comp)
        if size == 1:
            continue
        edge_count = sum(g.deg_in(v, comp) for v in comp) // 2
        max_deg = max(g.deg_in(v, comp) for v in comp)
        if edge_count != size - 1 or max_deg != size - 1:
            return False
    return True


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
    lines = [f"p da {g.n} {g.m}"]
    for u, v in g.edges():
        lines.append(f"e {u} {v}")
    for v in g.vertices():
        tag = g.tag(v)
        if tag.kind is not RoleKind.ORIGINAL:
            lines.append(f"t {v} {tag.kind.value}")
    return "\n".join(lines) + "\n"


def parse_graph(text: str) -> Graph:
    g = Graph()
    n = m = None
    edge_lines = 0
    tagged: set[int] = set()
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            fields = raw.split()
            if not fields or fields[0] == "c":
                continue
            if n is None and fields[0] != "p":
                raise ParseError(f"'{fields[0]}' record before header")
            if fields[0] == "e":
                if len(fields) != 3:
                    raise ParseError("expected 'e <u> <v>'")
                g.add_edge(int(fields[1]), int(fields[2]))
                edge_lines += 1
            elif fields[0] == "p":
                if n is not None:
                    raise ParseError("repeated header")
                if len(fields) != 4 or fields[1] != "da":
                    raise ParseError("expected 'p da <n> <m>'")
                n, m = int(fields[2]), int(fields[3])
                if n < 0 or m < 0:
                    raise ParseError("negative counts")
                g.add_vertices(n)
            elif fields[0] == "t":
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
                g._tags[v] = RoleTag(kind)
            else:
                raise ParseError(f"unknown record '{fields[0]}'")
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
