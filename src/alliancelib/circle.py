"""Chord diagrams, circle-graph operations, and the dominating-set reduction.

A chord diagram is a circular sequence of chord labels, each appearing exactly
twice; two chords are adjacent in the intersection graph iff their endpoint
pairs interleave around the circle.  The reduction from dominating set on
circle graphs to the forbidden-vertex alliance problem is carried out on both
representations at once: ds_to_daf emits the target graph *and* a chord
diagram realizing it, and checks that the two agree edge-for-edge.

Almost every chord of such a diagram is a degree-one pendant, emitted in
its host's nest: the block p1 ... pc h pc ... p1.  Since every label occurs
exactly twice, each p_i of such a block crosses h and nothing else, and
deleting the p's leaves every other crossing as it was (the nest lemma).
`diagram_mismatch` takes each such block in one step and hands every other
position to `crossing_pairs`, so the self-check still decides, for the
whole emitted diagram, whether its crossings are exactly the target's edges.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Sequence

from .alliances import BRUTE_FORCE_LIMIT, DAFInstance, first_cover
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
        # Counter counts in C; twice as many labels as chords, none more
        # than twice, is every chord exactly twice.  Counter keeps
        # first-occurrence order, so `bad` lists labels as they first appear.
        counts = Counter(self.labels)
        if len(self.labels) != 2 * len(counts) or max(counts.values(), default=2) != 2:
            bad = [lab for lab, c in counts.items() if c != 2]
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


def diagram_mismatch(
    seq: Sequence[int],
    adj: Sequence[set[int] | frozenset[int]],
    nests: dict[int, tuple[int, ...]],
) -> tuple[int, int]:
    """(extra, missing): the crossings of the endpoint sequence `seq` that
    are not edges of `adj`, and the edges of `adj` that are not crossings.
    `seq` must label each chord exactly twice, as a `ChordDiagram` does.

    `nests` maps a host h to its pendants p1 ... pc, a tuple.  Where `seq`
    holds the block p1 ... pc h pc ... p1, both endpoints of every p_i lie
    inside it, so p_i crosses h and nothing else, and taking the p's out
    leaves every other crossing as it was.  Such a block, confirmed by slice
    comparisons on `seq` itself, counts c crossings, checked against h's
    neighbours at once, and leaves only h for `crossing_pairs`.  Every other
    position, a pendant of a broken block too, goes to `crossing_pairs` as
    it is, so the count is exact for any `seq`.
    """
    lead = {nest[0]: host for host, nest in nests.items() if nest}
    rest: list[int] = []
    pairs = extra = 0
    i, end = 0, len(seq)
    while i < end:
        lab = seq[i]
        host = lead.get(lab)
        if host is not None:
            nest = nests[host]
            c = len(nest)
            j = i + c  # h's place in a block
            if j < end and seq[j] == host and seq[i:j] == nest and seq[j + c : j : -1] == nest:
                pairs += c
                nb = adj[host]
                if not nb.issuperset(nest):
                    extra += c - len(nb.intersection(nest))
                rest.append(host)
                i = j + c + 1
                continue
        rest.append(lab)
        i += 1
    for a, b in crossing_pairs(rest):
        pairs += 1
        extra += b not in adj[a]
    return extra, sum(map(len, adj)) // 2 - (pairs - extra)


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
    """Lexicographically first of the smallest dominating sets (as chord
    labels) of size <= k: a cover (`first_cover`) of the chords by each
    chord's closed neighbourhood in `intersection_graph`'s numbering, as a
    bitmask."""
    d = inst.diagram
    if d.n > BRUTE_FORCE_LIMIT:
        raise TooLarge(f"DS brute force guarded at n <= {BRUTE_FORCE_LIMIT}")
    chords = d.chords()
    ids = {lab: i for i, lab in enumerate(chords)}
    masks = [1 << i for i in range(len(chords))]
    for a, b in crossing_pairs(d.labels):
        i, j = ids[a], ids[b]
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    found = first_cover(masks, (1 << len(chords)) - 1, inst.k)
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
    get as many pendants as their degree so far (counted from the
    construction, not read back from the graph), fan members six, twins
    4n+3.  Budget 7n(4n+2)+n+k.

    Diagram side: the same construction is laid out region by region around
    the original circle, each gadget vertex's pendants nested around its
    first endpoint, and the emitted diagram's crossing pairs are checked to
    equal the emitted graph's edges exactly (labels are the vertex ids).
    The check walks every position of the emitted labels; a pendant nest it
    confirms there counts as one step (the nest lemma, module docstring).
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
    # joined to its host and to its chain's previous triangle.
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
    welded: set[int] = set()  # the first vertex of every welded triangle
    for j in range(len(seq)):
        jn = (j + 1) % len(seq)
        u, w = seq[j], seq[jn]
        if u == w or (side_of[j], side_of[jn]) == (1, 0):
            continue
        out_tri, in_tri = c2[u][side_of[j]][top], c1[w][side_of[jn]][top]
        for p in out_tri:
            for q in in_tri:
                g.add_edge(p, q)
        wire_out[j] = in_tri
        welded.update((out_tri[0], in_tri[0]))

    # Forbidden pendants, counted against pre-pendant degrees.  They take the
    # ids from first_forbidden to n; their ints are made once, here, and
    # shared by the target's forbidden set, the diagram and its check.  A
    # clique vertex's degree is fixed by the construction: 2 in its triangle,
    # 1 for its host, 3 for its chain's previous triangle, 3 for the next,
    # and 3 for a weld (a chain's top triangle has at most one).  The
    # triangles are listed in id order.
    pendant_counts = [
        (w, 3 + 3 * (i > 0) + 3 * (i < top) + 3 * (tri[0] in welded))
        for lab in labels
        for side in (0, 1)
        for i in range(m_per_fan)
        for tri in (c1[lab][side][i], c2[lab][side][i])
        for w in tri
    ]
    pendant_counts += [(z, 6) for lab in labels for fan in fans[lab] for z in fan]
    pendant_counts += [(v, 4 * n + 3) for lab in labels for v in twins[lab]]
    first_forbidden = g.n
    pend_of = {
        host: g.add_family(RoleKind.FORBIDDEN, Indexed((host,), count), join=[host])
        for host, count in pendant_counts
    }
    forbidden = tuple(range(first_forbidden, g.n))
    nests = {
        host: forbidden[ids.start - first_forbidden : ids.stop - first_forbidden]
        for host, ids in pend_of.items()
    }

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

    # Every core token is a host: its nest wraps its first endpoint.
    tokens: list[int] = []
    opened: set[int] = set()
    for tok in core:
        if tok in opened:
            tokens.append(tok)
        else:
            opened.add(tok)
            pend = nests[tok]
            tokens.extend(pend)
            tokens.append(tok)
            tokens.extend(reversed(pend))
    diagram = ChordDiagram(tuple(tokens))
    extra, missing = diagram_mismatch(diagram.labels, g.adjacency(), nests)
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
    return "d " + " ".join(map(str, d.labels)) + "\n"


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
