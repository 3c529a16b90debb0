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
from dataclasses import dataclass
from typing import Hashable, Iterable, Iterator, Sequence

from .alliances import DAFInstance
from .errors import (
    BadParams,
    ChordsDoNotCross,
    InvalidInstance,
    MalformedDiagram,
    ParseError,
    TooLarge,
    UnknownChord,
)
from .graph import Graph, RoleKind, RoleTag
from .reductions import (
    _ORACLE_LIMIT,
    GadgetMap,
    _roles_of,
    first_subset,
    read_budget,
    read_records,
)

Label = Hashable


@dataclass(frozen=True)
class ChordDiagram:
    """Endpoint sequence of a chord diagram; positions are implicit."""

    labels: tuple[Label, ...]

    def __post_init__(self) -> None:
        counts: dict[Label, int] = {}
        for lab in self.labels:
            counts[lab] = counts.get(lab, 0) + 1
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

    def occurrences(self) -> dict[Label, tuple[int, int]]:
        occ: dict[Label, list[int]] = {}
        for pos, lab in enumerate(self.labels):
            occ.setdefault(lab, []).append(pos)
        return {lab: (p[0], p[1]) for lab, p in occ.items()}


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


def chord_ids(d: ChordDiagram) -> dict[Label, int]:
    """Vertex id of each chord: rank in sorted label order.

    Sorting (rather than first occurrence) makes the intersection graph
    invariant under rotation and reversal of the endpoint sequence, and maps
    an integer-labelled diagram onto exactly those integers.
    """
    return {lab: i for i, lab in enumerate(d.chords())}


def intersection_graph(d: ChordDiagram) -> Graph:
    ids = chord_ids(d)
    g = Graph()
    for lab in d.chords():
        g.add_vertex(RoleTag(RoleKind.ORIGINAL, lab))
    for a, b in crossing_pairs(d.labels):
        g.add_edge(ids[a], ids[b])
    return g.freeze()


def split_chord(d: ChordDiagram, v: Label) -> ChordDiagram:
    """Replace chord v by a crossing twin pair v_1, v_2.

    Both twins inherit exactly v's crossings and additionally cross each
    other: each occurrence of v becomes the adjacent pair (v_1, v_2), so the
    twins interleave with one another and shadow v against every other chord.
    New labels are strings, so the diagram must be string-labelled.
    """
    if v not in d.labels:
        raise UnknownChord(f"no chord {v!r}")
    if not all(isinstance(lab, str) for lab in d.labels):
        raise MalformedDiagram("split_chord requires string chord labels")
    a, b = f"{v}_1", f"{v}_2"
    if a in d.labels or b in d.labels:
        raise MalformedDiagram(f"labels {a}/{b} already taken")
    out: list[Label] = []
    for lab in d.labels:
        if lab == v:
            out.extend((a, b))
        else:
            out.append(lab)
    return ChordDiagram(tuple(out))


def add_parallel_chords(
    d: ChordDiagram,
    v1: Label,
    v2: Label,
    count: int,
    side: str = "first",
    names: Sequence[Label] | None = None,
) -> ChordDiagram:
    """Insert `count` mutually parallel chords crossing exactly v1 and v2.

    The chords are nested around the chosen occurrence pair of v1 and v2
    (side "first" or "second"), which must be circularly adjacent so the new
    chords cannot pick up third-party crossings.  Chord pairs produced by
    split_chord always qualify.
    """
    if count < 0:
        raise BadParams("count must be >= 0")
    if side not in ("first", "second"):
        raise BadParams(f"side must be 'first' or 'second', not {side!r}")
    occ = d.occurrences()
    if v1 not in occ or v2 not in occ:
        raise UnknownChord(f"missing chord {v1!r} or {v2!r}")
    p1, p2 = occ[v1]
    q1, q2 = occ[v2]
    if (p1 < q1 < p2) == (p1 < q2 < p2):
        raise ChordsDoNotCross(f"{v1!r} and {v2!r} do not cross")
    if count == 0:
        return d
    length = len(d.labels)
    filler = (p1, q1) if side == "first" else (p2, q2)
    if (filler[0] + 1) % length == filler[1]:
        earlier, later = filler
    elif (filler[1] + 1) % length == filler[0]:
        earlier, later = filler[1], filler[0]
    else:
        raise MalformedDiagram(
            f"{side} occurrences of {v1!r}/{v2!r} are not adjacent; "
            "parallel chords there would cross other chords"
        )
    if names is None:
        names = [f"{v1}.{v2}.{side}.{i + 1}" for i in range(count)]
    if len(names) != count or len(set(names)) != count:
        raise BadParams("need exactly `count` distinct names")
    if set(names) & set(d.labels):
        raise BadParams("new chord names collide with existing labels")
    out: list[Label] = []
    for idx, lab in enumerate(d.labels):
        if idx == earlier:
            out.extend(names)
        out.append(lab)
        if idx == later:
            out.extend(reversed(names))
    return ChordDiagram(tuple(out))


def traversal_sequence(d: ChordDiagram, start: int = 0) -> tuple[Label, ...]:
    """Chord labels in endpoint order counterclockwise from `start`."""
    if d.labels and not 0 <= start < len(d.labels):
        raise BadParams(f"start {start} out of range")
    return d.labels[start:] + d.labels[:start]


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
    if d.n > _ORACLE_LIMIT:
        raise TooLarge(f"DS brute force guarded at n <= {_ORACLE_LIMIT}")
    g = intersection_graph(d)
    chords = d.chords()
    found = first_subset(g.n, inst.k, lambda chosen: all(
        v in chosen or g.neighbors(v) & chosen for v in g.vertices()
    ))
    return None if found is None else tuple(chords[i] for i in found)


# ---------------------------------------------------------------------------
# Dominating set on circle graphs -> forbidden-vertex alliance
# ---------------------------------------------------------------------------


def _triangle_chain_edges(g: Graph, triangles: list[list[int]]) -> None:
    """Intra-clique triangles plus full adjacency between consecutive ones."""
    for tri in triangles:
        g.add_edge(tri[0], tri[1])
        g.add_edge(tri[0], tri[2])
        g.add_edge(tri[1], tri[2])
    for prev, nxt in zip(triangles, triangles[1:]):
        for p in prev:
            for q in nxt:
                g.add_edge(p, q)


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
    seq = traversal_sequence(d, 0)
    labels = d.chords()
    m_per_fan = 2 * n + 1

    g = Graph()
    v1: dict[Label, int] = {}
    v2: dict[Label, int] = {}
    for lab in labels:
        v1[lab] = g.add_vertex(RoleTag(RoleKind.ORIGINAL, (lab, 1)))
        v2[lab] = g.add_vertex(RoleTag(RoleKind.ORIGINAL, (lab, 2)))
    for lab in labels:
        g.add_edge(v1[lab], v2[lab])
    src_edges = sorted(
        (min(a, b), max(a, b)) for a, b in crossing_pairs(d.labels)
    )
    for a, b in src_edges:
        g.add_edge(v1[a], v1[b])
        g.add_edge(v1[a], v2[b])
        g.add_edge(v2[a], v1[b])
        g.add_edge(v2[a], v2[b])

    xfan: dict[Label, list[int]] = {}
    yfan: dict[Label, list[int]] = {}
    for lab in labels:
        xfan[lab] = [
            g.add_vertex(RoleTag(RoleKind.X_SET, (lab, i))) for i in range(m_per_fan)
        ]
        yfan[lab] = [
            g.add_vertex(RoleTag(RoleKind.Y_SET, (lab, i))) for i in range(m_per_fan)
        ]
        for z in xfan[lab] + yfan[lab]:
            g.add_edge(v1[lab], z)
            g.add_edge(v2[lab], z)

    def make_cliques(hosts: list[int], note: str, lab: Label) -> tuple[list[list[int]], list[list[int]]]:
        one: list[list[int]] = []
        two: list[list[int]] = []
        for i, host in enumerate(hosts):
            tri1 = [
                g.add_vertex(RoleTag(RoleKind.CLIQUE_C1, (lab, note, i, j)))
                for j in range(3)
            ]
            tri2 = [
                g.add_vertex(RoleTag(RoleKind.CLIQUE_C2, (lab, note, i, j)))
                for j in range(3)
            ]
            for w in tri1 + tri2:
                g.add_edge(host, w)
            one.append(tri1)
            two.append(tri2)
        return one, two

    c1x: dict[Label, list[list[int]]] = {}
    c2x: dict[Label, list[list[int]]] = {}
    c1y: dict[Label, list[list[int]]] = {}
    c2y: dict[Label, list[list[int]]] = {}
    for lab in labels:
        c1x[lab], c2x[lab] = make_cliques(xfan[lab], "x", lab)
        c1y[lab], c2y[lab] = make_cliques(yfan[lab], "y", lab)
        _triangle_chain_edges(g, c1x[lab])
        _triangle_chain_edges(g, c2x[lab])
        _triangle_chain_edges(g, c1y[lab])
        _triangle_chain_edges(g, c2y[lab])

    # Chain-end welds along the traversal sequence.  A pair contributes when
    # its occurrence pattern is (first,first), (second,second) or
    # (first,second); the leftover (second,first) pattern -- which is always
    # what the wrap-around pair shows -- and same-chord pairs contribute
    # nothing.
    occ_index: list[int] = []
    seen: set[Label] = set()
    for lab in seq:
        occ_index.append(1 if lab not in seen else 2)
        seen.add(lab)
    wire_out: list[list[int] | None] = [None] * len(seq)
    for j in range(len(seq)):
        jn = (j + 1) % len(seq)
        u, w = seq[j], seq[jn]
        if u == w:
            continue
        ou, ow = occ_index[j], occ_index[jn]
        if ou == 2 and ow == 1:
            continue
        out_tri = (c2x if ou == 1 else c2y)[u][m_per_fan - 1]
        in_tri = (c1x if ow == 1 else c1y)[w][m_per_fan - 1]
        for p in out_tri:
            for q in in_tri:
                g.add_edge(p, q)
        wire_out[j] = in_tri

    # Forbidden pendants, counted against pre-pendant degrees.
    clique_members = [
        w
        for lab in labels
        for block in (c1x[lab], c2x[lab], c1y[lab], c2y[lab])
        for tri in block
        for w in tri
    ]
    pendant_counts: list[tuple[int, int]] = []
    for w in sorted(clique_members):
        pendant_counts.append((w, g.degree(w)))
    for lab in labels:
        for z in xfan[lab] + yfan[lab]:
            pendant_counts.append((z, 6))
    for lab in labels:
        pendant_counts.append((v1[lab], 4 * n + 3))
        pendant_counts.append((v2[lab], 4 * n + 3))

    pend_of: dict[int, list[int]] = {}
    forbidden: list[int] = []
    for host, count in pendant_counts:
        pend = [
            g.add_vertex(RoleTag(RoleKind.FORBIDDEN, (host, j))) for j in range(count)
        ]
        for p in pend:
            g.add_edge(host, p)
        pend_of[host] = pend
        forbidden.extend(pend)

    budget = 7 * n * (4 * n + 2) + n + inst.k
    g.freeze()

    # -- diagram emission, region by region -------------------------------
    core: list[int] = []
    for j, lab in enumerate(seq):
        first = occ_index[j] == 1
        nest = xfan[lab] if first else yfan[lab]
        cone = (c1x if first else c1y)[lab]
        ctwo = (c2x if first else c2y)[lab]
        top = m_per_fan - 1
        if wire_out[j - 1] is None:  # j = 0 wraps; that wire is always absent
            core.extend(cone[top])
        core.append(nest[top])
        for ti in range(top - 1, -1, -1):
            core.extend(cone[ti])
            core.extend(cone[ti + 1])
            core.append(nest[ti])
        core.extend(cone[0])
        core.append(v1[lab])
        core.append(v2[lab])
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

    got = {(min(a, b), max(a, b)) for a, b in crossing_pairs(diagram.labels)}
    want = set(g.edges())
    if got != want:
        raise AssertionError(
            f"diagram/graph mismatch: {len(got - want)} extra, {len(want - got)} missing crossings"
        )

    gm = GadgetMap(
        kind="ds-circle",
        roles=_roles_of(g),
        families={
            "v1": dict(v1),
            "v2": dict(v2),
            "X": dict(xfan),
            "Y": dict(yfan),
            "cliques_x1": dict(c1x),
            "cliques_x2": dict(c2x),
            "cliques_y1": dict(c1y),
            "cliques_y2": dict(c2y),
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


def parse_diagram(text: str) -> ChordDiagram:
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if len(rows) != 1 or rows[0][:1] != ["d"]:
        raise ParseError("expected a single 'd <tokens>' line")
    try:
        return ChordDiagram(_parse_tokens(rows[0][1:]))
    except MalformedDiagram as exc:
        raise ParseError(str(exc)) from exc


def write_ds_instance(inst: DSCircleInstance) -> str:
    return write_diagram(inst.diagram) + f"k {inst.k}\n"


def parse_ds_instance(text: str) -> DSCircleInstance:
    records, rest = read_records(text, ("d", "k"))
    stray = [raw.split()[0] for raw in rest if raw.strip()]
    if stray:
        raise ParseError(f"unknown record '{stray[0]}'")
    if "d" not in records or "k" not in records:
        raise ParseError("DS instance needs a 'd' line and a 'k' line")
    try:
        return DSCircleInstance(ChordDiagram(_parse_tokens(records["d"])), read_budget(records))
    except (MalformedDiagram, InvalidInstance) as exc:
        raise ParseError(str(exc)) from exc
