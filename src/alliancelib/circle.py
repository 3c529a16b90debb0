"""Chord diagrams, circle-graph operations, and the dominating-set reduction.

A chord diagram is a circular sequence of chord labels, each appearing exactly
twice; two chords are adjacent in the intersection graph iff their endpoint
pairs interleave around the circle.  The reduction from dominating set on
circle graphs to the forbidden-vertex alliance problem is carried out on both
representations at once: ds_to_daf emits the target graph *and* a chord
diagram realizing it, and checks that the two agree edge-for-edge.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Sequence

from .alliances import BRUTE_FORCE_LIMIT, DAFInstance, first_subset
from .errors import (
    InvalidInstance,
    MalformedDiagram,
    ParseError,
    TooLarge,
    reader,
)
from .graph import Graph, Indexed, RoleKind, read_rows
from .reductions import (
    GadgetMap,
    read_budget,
    read_records,
)

Label = Hashable


@dataclass(frozen=True)
class ChordDiagram:
    """Endpoint sequence of a chord diagram; positions are implicit."""

    labels: tuple[Label, ...]

    def __post_init__(self) -> None:
        # Counter counts in C and keeps first-occurrence order, so `bad`
        # lists labels as they first appear.
        counts = Counter(self.labels)
        bad = [lab for lab, c in counts.items() if c != 2]
        if bad:
            raise MalformedDiagram(f"labels must occur exactly twice: {bad[:5]}")
        try:
            sorted(counts)
        except TypeError as exc:
            raise MalformedDiagram("chord labels must be mutually sortable") from exc

    @property
    def n(self) -> int:
        return len(self.labels) // 2

    def chords(self) -> list[Label]:
        return sorted(set(self.labels))


def crossing_pairs(seq: Sequence[Label]) -> Iterator[tuple[Label, Label]]:
    """All crossing chord pairs of an endpoint sequence, each pair once.

    Sweep the sequence once keeping the open chords ordered by opening
    position; when a chord closes, every chord opened after it and still open
    crosses it.
    """
    open_pos: dict[Label, int] = {}
    active_pos: list[int] = []
    active_lab: list[Label] = []
    for pos, lab in enumerate(seq):
        if lab not in open_pos:
            open_pos[lab] = pos
            active_pos.append(pos)
            active_lab.append(lab)
        else:
            idx = bisect_left(active_pos, open_pos[lab])
            for other in active_lab[idx + 1 :]:
                yield (lab, other)
            del active_pos[idx]
            del active_lab[idx]


def intersection_graph(d: ChordDiagram) -> Graph:
    """The intersection graph of `d`; each chord's vertex id is its rank in
    sorted label order.  Sorting (rather than first occurrence) makes the
    graph invariant under rotation and reversal of the endpoint sequence,
    and maps an integer-labelled diagram onto exactly those integers."""
    chords = d.chords()
    ids = {lab: i for i, lab in enumerate(chords)}
    g = Graph()
    g.add_family(RoleKind.ORIGINAL, chords)
    for a, b in crossing_pairs(d.labels):
        g.add_edge(ids[a], ids[b])
    return g.freeze()


@dataclass(frozen=True)
class DSCircleInstance:
    diagram: ChordDiagram
    k: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InvalidInstance("budget must be >= 1")


def solve_ds_bruteforce(inst: DSCircleInstance) -> tuple[Label, ...] | None:
    """Lexicographically first dominating set (as chord labels) of size <= k."""
    d = inst.diagram
    if d.n > BRUTE_FORCE_LIMIT:
        raise TooLarge(f"DS brute force guarded at n <= {BRUTE_FORCE_LIMIT}")
    g = intersection_graph(d)
    chords, adj = d.chords(), g.adjacency()
    found = first_subset(range(g.n), inst.k, lambda chosen: all(
        v in chosen or adj[v] & chosen for v in g.vertices()
    ))
    return None if found is None else tuple(chords[i] for i in found)


# ---------------------------------------------------------------------------
# Dominating set on circle graphs -> forbidden-vertex alliance
# ---------------------------------------------------------------------------


def ds_to_daf(
    inst: DSCircleInstance,
) -> tuple[DAFInstance, ChordDiagram, GadgetMap]:
    """Compile dominating set (with circle representation) into DA^F.

    Graph side: every source chord v becomes a crossing twin pair v_1, v_2;
    each pair picks up two fans X^v, Y^v of 2n+1 chords; every fan member
    carries two 3-cliques chained along the fan; the chain ends of adjacent
    endpoint regions are welded following the circle traversal (x-cliques at
    first occurrences, y-cliques at second); finally every gadget vertex gets
    a nest of degree-one forbidden pendants sized to pin it: clique vertices
    get as many pendants as their current degree, fan members six, twins
    4n+3.  Budget 7n(4n+2)+n+k.

    Diagram side: the same construction is laid out region by region around
    the original circle, and the emitted diagram's crossing pairs are checked
    to equal the emitted graph's edges exactly (labels are the vertex ids).
    """
    d = inst.diagram
    n = d.n
    if n < 1:
        raise MalformedDiagram("reduction needs at least one chord")
    seq = d.labels
    labels = d.chords()
    m_per_fan = 2 * n + 1
    top = m_per_fan - 1

    # Per-chord tables.  twins[lab] is [v_1, v_2]; fans, c1 and c2 are
    # indexed by endpoint, 0 for the chord's first occurrence along the
    # circle (the X side) and 1 for its second (the Y side).
    g = Graph()
    twins = {lab: g.add_family(RoleKind.ORIGINAL, [(lab, 1), (lab, 2)]) for lab in labels}
    for lab in labels:
        g.add_edge(*twins[lab])
    for a, b in crossing_pairs(seq):
        for p in twins[a]:
            for q in twins[b]:
                g.add_edge(p, q)

    fans = {
        lab: [
            g.add_family(kind, Indexed((lab,), m_per_fan), join=twins[lab])
            for kind in (RoleKind.X_SET, RoleKind.Y_SET)
        ]
        for lab in labels
    }

    # Every fan member hosts two triangles, one of each clique chain, each
    # joined to its host and to its chain's previous triangle; the clique
    # vertices take the id range [first_clique, last_clique).
    first_clique = g.n
    c1: dict[Label, list[list[list[int]]]] = {}
    c2: dict[Label, list[list[list[int]]]] = {}
    for lab in labels:
        c1[lab], c2[lab] = [[], []], [[], []]
        for side, note in enumerate("xy"):
            chains = ((RoleKind.CLIQUE_C1, c1[lab][side]), (RoleKind.CLIQUE_C2, c2[lab][side]))
            for i, host in enumerate(fans[lab][side]):
                payloads = [(lab, note, i, j) for j in range(3)]
                for kind, tris in chains:
                    a, b, c = g.add_family(kind, payloads, join=[host, *(tris[-1] if tris else ())])
                    g.add_edge(a, b)
                    g.add_edge(a, c)
                    g.add_edge(b, c)
                    tris.append([a, b, c])
    last_clique = g.n

    # Chain-end welds along the traversal sequence.  A pair contributes when
    # its occurrence pattern is (first,first), (second,second) or
    # (first,second); the leftover (second,first) pattern -- which is always
    # what the wrap-around pair shows -- and same-chord pairs contribute
    # nothing.
    side_of: list[int] = []
    seen: set[Label] = set()
    for lab in seq:
        side_of.append(int(lab in seen))
        seen.add(lab)
    wire_out: list[list[int] | None] = [None] * len(seq)
    for j in range(len(seq)):
        jn = (j + 1) % len(seq)
        u, w = seq[j], seq[jn]
        if u == w or (side_of[j], side_of[jn]) == (1, 0):
            continue
        in_tri = c1[w][side_of[jn]][top]
        for p in c2[u][side_of[j]][top]:
            for q in in_tri:
                g.add_edge(p, q)
        wire_out[j] = in_tri

    # Forbidden pendants, counted against pre-pendant degrees.
    pendant_counts = [(w, g.degree(w)) for w in range(first_clique, last_clique)]
    pendant_counts += [(z, 6) for lab in labels for fan in fans[lab] for z in fan]
    pendant_counts += [(v, 4 * n + 3) for lab in labels for v in twins[lab]]
    pend_of = {
        host: g.add_family(RoleKind.FORBIDDEN, Indexed((host,), count), join=[host])
        for host, count in pendant_counts
    }
    forbidden = [p for pend in pend_of.values() for p in pend]

    budget = 7 * n * (4 * n + 2) + n + inst.k
    g.freeze()

    # -- diagram emission, region by region -------------------------------
    core: list[int] = []
    for j, lab in enumerate(seq):
        side = side_of[j]
        nest, cone, ctwo = fans[lab][side], c1[lab][side], c2[lab][side]
        if wire_out[j - 1] is None:  # j = 0 wraps; that wire is always absent
            core.extend(cone[top])
        core.append(nest[top])
        for ti in range(top - 1, -1, -1):
            core.extend(cone[ti])
            core.extend(cone[ti + 1])
            core.append(nest[ti])
        core.extend(cone[0])
        core.extend(twins[lab])
        core.extend(ctwo[0])
        core.append(nest[0])
        for ti in range(1, m_per_fan):
            core.extend(ctwo[ti])
            core.extend(ctwo[ti - 1])
            core.append(nest[ti])
        if wire_out[j] is not None:
            core.extend(wire_out[j])
        core.extend(ctwo[top])

    tokens: list[int] = []
    opened: set[int] = set()
    for tok in core:
        if tok not in opened:
            opened.add(tok)
            nest_ids = pend_of.get(tok)
            if nest_ids:
                tokens.extend(nest_ids)
                tokens.append(tok)
                tokens.extend(reversed(nest_ids))
                continue
        tokens.append(tok)
    diagram = ChordDiagram(tuple(tokens))

    # The sweep yields each crossing once and neither side has a self-pair,
    # so the crossings that are edges number pairs - extra.
    adj = g.adjacency()
    pairs = extra = 0
    for a, b in crossing_pairs(diagram.labels):
        pairs += 1
        extra += b not in adj[a]
    missing = g.m - (pairs - extra)
    if extra or missing:
        raise AssertionError(
            f"diagram/graph mismatch: {extra} extra, {missing} missing crossings"
        )

    gm = GadgetMap(
        kind="ds-circle",
        graph=g,
        families={
            "v1": {lab: twins[lab][0] for lab in labels},
            "v2": {lab: twins[lab][1] for lab in labels},
            "X": {lab: fans[lab][0] for lab in labels},
            "Y": {lab: fans[lab][1] for lab in labels},
            "cliques_x1": {lab: c1[lab][0] for lab in labels},
            "cliques_x2": {lab: c2[lab][0] for lab in labels},
            "cliques_y1": {lab: c1[lab][1] for lab in labels},
            "cliques_y2": {lab: c2[lab][1] for lab in labels},
            "pendants": pend_of,
            "forbidden": forbidden,
        },
    )
    return DAFInstance(g, budget, frozenset(forbidden)), diagram, gm


def ds_forward_certificate(gm: GadgetMap, dom: Iterable[Label]) -> frozenset[int]:
    """Alliance for a dominating set: picked first-copies, all second-copies,
    every fan vertex, every clique vertex."""
    fam = gm.families
    members: set[int] = set(fam["v2"].values())
    for lab in dom:
        members.add(fam["v1"][lab])
    for fans in (fam["X"], fam["Y"]):
        for ids in fans.values():
            members.update(ids)
    for key in ("cliques_x1", "cliques_x2", "cliques_y1", "cliques_y2"):
        for tris in fam[key].values():
            for tri in tris:
                members.update(tri)
    return frozenset(members)


def ds_extract_certificate(gm: GadgetMap, d_set: Iterable[int]) -> frozenset[Label]:
    ds = set(d_set)
    return frozenset(lab for lab, vid in gm.families["v1"].items() if vid in ds)


# ---------------------------------------------------------------------------
# Text formats: "d <2n tokens>" and the DS instance variant with a k line.
# ---------------------------------------------------------------------------


def write_diagram(d: ChordDiagram) -> str:
    return "d " + " ".join(str(lab) for lab in d.labels) + "\n"


def _parse_tokens(tokens: list[str]) -> tuple[Label, ...]:
    # Integer labels only when every token is a plain, optionally negative
    # decimal, so int() cannot fail; a token such as "--1" stays a string.
    if all(tok.removeprefix("-").isdecimal() for tok in tokens):
        return tuple(int(tok) for tok in tokens)
    return tuple(tokens)


@reader
def parse_diagram(text: str) -> ChordDiagram:
    rows = read_rows(text)
    if len(rows) != 1 or rows[0][:1] != ["d"]:
        raise ParseError("expected a single 'd <tokens>' line")
    return ChordDiagram(_parse_tokens(rows[0][1:]))


def write_ds_instance(inst: DSCircleInstance) -> str:
    return write_diagram(inst.diagram) + f"k {inst.k}\n"


@reader
def parse_ds_instance(text: str) -> DSCircleInstance:
    records, rest = read_records(text, ("d", "k"))
    if "d" not in records or any(raw.strip() for raw in rest):
        raise ParseError("expected one 'd <tokens>' line and one 'k <int>' line")
    return DSCircleInstance(ChordDiagram(_parse_tokens(records["d"])), read_budget(records))
