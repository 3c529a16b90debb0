"""Structural checks that only the tests use: a 2-colouring and the
components of an induced subgraph, both read from the public `Graph` API."""

from collections import deque
from typing import Iterable

from alliancelib.errors import UnknownVertex
from alliancelib.graph import Graph


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
        if not 0 <= v < g.n:
            raise UnknownVertex(f"vertex {v} not in graph of order {g.n}")
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
