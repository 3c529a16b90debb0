"""Deterministic compilers for four hardness reductions into defensive alliance.

Each compiler turns a source instance (multidimensional relaxed subset sum,
red-blue dominating set, degree-3 vertex cover, or forbidden-vertex alliance)
into an alliance instance plus a GadgetMap recording which constructed vertex
plays which role.  The gadget map powers the two certificate directions: a
forward map translating a source solution into a target alliance, and an
extraction map reading a source solution back out of a target alliance.

Every "arbitrary" adjacency choice is made lowest-index-first so a compiler is
a pure function of its input; tests rely on byte-identical reruns.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import accumulate
from json.encoder import encode_basestring_ascii as _quote
from typing import Iterable

from .alliances import BRUTE_FORCE_LIMIT, DAFInstance, DAInstance, first_cover, first_subset
from .errors import DegreeTooHigh, InvalidInstance, ParseError, TooLarge, reader
from .graph import Graph, Indexed, RoleKind, parse_graph, read_rows, write_graph


def _json(obj: object, depth: int) -> str:
    """`obj` as `json.dumps(..., sort_keys=True, indent=1)` writes it `depth`
    levels deep, with every dict key passed through `str()` first (so a
    later key wins when two collide)."""
    if isinstance(obj, str):
        return _quote(obj)
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if type(obj) is int:
        return int.__repr__(obj)
    sep = ",\n" + " " * (depth + 1)
    if isinstance(obj, (list, tuple, range)):  # a range is written as the list it spells
        if not obj:
            return "[]"
        if type(obj) is range or all(type(x) is int for x in obj):
            body = sep.join(map(int.__repr__, obj))
        else:
            body = sep.join([_json(x, depth + 1) for x in obj])
        return f"[{sep[1:]}{body}{sep[1:-1]}]"
    if isinstance(obj, dict):
        items = {str(k): v for k, v in obj.items()}
        if not items:
            return "{}"
        body = sep.join([f"{_quote(k)}: {_json(items[k], depth + 1)}" for k in sorted(items)])
        return f"{{{sep[1:]}{body}{sep[1:-1]}}}"
    return json.dumps(obj)  # floats, and json's own error for an unsupported type


@dataclass(frozen=True)
class GadgetMap:
    """Provenance of a compiled graph: the graph itself plus named gadget families.

    `graph` is the compiled target graph, whose vertex tags are the roles;
    `families` maps family names (as used by the construction, e.g. "H",
    "x_center", "cycles") to JSON-like values indexed the same way as the
    source instance: single ids, id ranges (as `Graph.add_family` returns
    them, written as lists), id lists and nested lists of these, dicts keyed
    by source label (`ds-circle`), integer parameters (`N`, `ell`) and
    lists of id pairs (`pairs`, `source_edges`).
    """

    kind: str
    graph: Graph
    families: dict[str, object]

    def to_json(self) -> str:
        """The `.gadgets.json` text: `{"families", "kind", "roles"}`, keys
        sorted, one-space indent, dict keys as strings, tuples and ranges as lists;
        `roles` maps each vertex id, in string order, to its tag's kind and
        payload.  Byte-equal to `json.dumps` of that object with
        `sort_keys=True, indent=1`, plus a newline, written family by family
        from the graph's records."""
        heads = {
            role: f'": {{\n   "kind": {_quote(role.value)},\n   "payload": ' for role in RoleKind
        }
        roles: list[str] = []  # each vertex's entry, by id
        for fam in self.graph.families():
            head, payloads = heads[fam.kind], fam.payloads
            if type(payloads) is Indexed:
                # A list is written one item per line, so every vertex of the
                # run reads the same up to its last entry, v - first.
                items = "".join([f"{_json(x, 4)},\n    " for x in payloads.prefix])
                head = f"{head}[\n    {items}"
                first = fam.ids.start
                roles.extend([f"{v}{head}{v - first}\n   ]" for v in fam.ids])
                continue
            for v, payload in zip(fam.ids, payloads):
                # Most other payloads are flat int tuples: write them without a call.
                if type(payload) is tuple and payload and all(type(x) is int for x in payload):
                    text = "[\n    " + ",\n    ".join(map(int.__repr__, payload)) + "\n   ]"
                else:
                    text = _json(payload, 3)
                roles.append(f"{v}{head}{text}")
        families, kind = _json(self.families, 1), _json(self.kind, 1)
        top = f'{{\n "families": {families},\n "kind": {kind},\n "roles": '
        if not roles:
            return top + "{}\n}\n"
        # An entry is its id, then '"', which sorts before every digit: the
        # entries sort as their ids do as strings.
        roles.sort()
        # The text before the first entry and after the last rides on them,
        # so the entries are copied once, by the join.
        roles[0] = top + '{\n  "' + roles[0]
        roles[-1] += "\n  }\n }\n}\n"
        return '\n  },\n  "'.join(roles)


# ---------------------------------------------------------------------------
# MRSS: multidimensional relaxed subset sum
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MRSSInstance:
    """Choose at most kprime of the vectors so the coordinatewise sum covers target."""

    k: int
    vectors: tuple[tuple[int, ...], ...]
    target: tuple[int, ...]
    kprime: int

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InvalidInstance("dimension must be >= 1")
        if not self.vectors:
            raise InvalidInstance("at least one vector required")
        if self.kprime < 0:
            raise InvalidInstance("kprime must be >= 0")
        # A larger budget selects nothing more, but the compiler would build
        # 2*budget+2 pendants per square from it.
        if self.kprime > len(self.vectors):
            raise InvalidInstance("kprime must be <= the number of vectors")
        if len(self.target) != self.k:
            raise InvalidInstance("target dimension mismatch")
        for s in self.vectors:
            if len(s) != self.k:
                raise InvalidInstance("vector dimension mismatch")
            if any(x < 0 for x in s):
                raise InvalidInstance("vector entries must be non-negative")
        if any(x < 0 for x in self.target):
            raise InvalidInstance("target entries must be non-negative")


def solve_mrss_bruteforce(inst: MRSSInstance) -> tuple[int, ...] | None:
    """Lexicographically first of the smallest subsets of size <= kprime
    with sum >= target.

    Entries are non-negative, so in each dimension s vectors sum to at most
    its s largest entries; a size at which some dimension's s largest
    entries fall short of the target is skipped, since no subset of it
    passes."""
    n = len(inst.vectors)
    if n > BRUTE_FORCE_LIMIT:
        raise TooLarge(f"MRSS brute force guarded at n <= {BRUTE_FORCE_LIMIT}")
    cols = [(col, t) for col, t in zip(zip(*inst.vectors), inst.target) if t]
    tops = [(list(accumulate(sorted(col, reverse=True), initial=0)), t) for col, t in cols]
    items = range(n)
    return first_subset(
        items,
        inst.kprime,
        lambda subset: all(sum(map(col.__getitem__, subset)) >= t for col, t in cols),
        lambda size: items if all(top[size] >= t for top, t in tops) else (),
    )


def mrss_to_da(inst: MRSSInstance) -> tuple[DAInstance, GadgetMap]:
    """Compile an MRSS instance into a defensive-alliance instance.

    Layout: one hub u_i per dimension weighted by a square-vertex set whose
    size encodes the target's slack in that dimension; three helper hubs F;
    a cyclic chain of N-vertex connector sets H_xy (one per consecutive hub
    pair) that welds all hubs into one rigid block; per-vector twin stars
    (centers x_s / y_s with max(s)+1 leaves each) whose A-side leaves wire
    into the dimension hubs; guard squares throughout, each carrying a
    pendant set of 2r+2 fresh vertices so no small alliance can touch it.
    Vector s is "selected" exactly when the A_s star joins the alliance.
    """
    k, vecs, target, kprime = inst.k, inst.vectors, inst.target, inst.kprime
    if any(max(s) < 1 for s in vecs):
        # The star gadget needs max(s)+1 >= 2 leaves; a zero vector is
        # pointless for the source problem anyway.
        raise InvalidInstance("zero vector not supported by the star gadget")
    big_n = sum(2 * max(s) + 2 for s in vecs)
    budget = (
        (k + 3) * big_n
        + 2 * k
        + 6
        + sum(max(s) + 1 for s in vecs)
        + kprime
    )

    g = Graph()
    u = g.add_family(RoleKind.OTHER, [("u", i) for i in range(k)])
    squares_u: list[range] = []
    for i in range(k):
        col = sum(s[i] for s in vecs)
        size = col + 2 * big_n - 2 * (col - target[i])
        squares_u.append(
            g.add_family(RoleKind.SQUARE, Indexed(("u", i), size), join=[u[i]])
        )

    f = g.add_family(RoleKind.F_VERTEX, range(3))
    squares_f = [
        g.add_family(RoleKind.SQUARE, Indexed(("f", i), 2 * big_n), join=[f[i]])
        for i in range(3)
    ]

    # Consecutive pairs in the cyclic order u_1..u_k, f_1, f_2, f_3, u_1.
    ring = [*u, *f]
    pairs = [(ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))]
    hub_h: list[range] = []
    hub_h0: list[int] = []
    squares_h0: list[range] = []
    for p, pair in enumerate(pairs):
        hs = g.add_family(RoleKind.HUB_H, Indexed((p,), big_n), join=pair)
        [h0] = g.add_family(RoleKind.HUB_H0, [p], join=hs)
        squares_h0.append(
            g.add_family(RoleKind.SQUARE, Indexed(("h0", p), big_n), join=[h0])
        )
        hub_h.append(hs)
        hub_h0.append(h0)

    h_square = g.add_family(
        RoleKind.SQUARE, Indexed(("H",), 3), join=(h for hs in hub_h for h in hs)
    )

    x_center: list[int] = []
    a_leaves: list[range] = []
    y_center: list[int] = []
    b_leaves: list[range] = []
    for si, s in enumerate(vecs):
        width = max(s) + 1
        [xc] = g.add_family(RoleKind.STAR_CENTER, [("x", si)])
        al = g.add_family(RoleKind.STAR_LEAF_A, Indexed((si,), width), join=[xc, *f])
        [yc] = g.add_family(RoleKind.STAR_CENTER, [("y", si)])
        bl = g.add_family(RoleKind.STAR_LEAF_B, Indexed((si,), width), join=[yc, *f])
        for i in range(k):
            for j in range(s[i]):  # the s(i) lowest-index leaves
                g.add_edge(u[i], al[j])
        x_center.append(xc)
        a_leaves.append(al)
        y_center.append(yc)
        b_leaves.append(bl)

    # Leaf j of star A_s joins the first 5 + |{i : s(i) > j}| a-squares.
    picks = {
        leaf: 5 + sum(x > j for x in s)
        for s, al in zip(vecs, a_leaves)
        for j, leaf in enumerate(al)
    }
    a_square = [
        g.add_family(RoleKind.SQUARE, [("a", t)], join=(v for v, w in picks.items() if w > t))[0]
        for t in range(k + 5)
    ]

    # Every square carries a pendant set; the pendants of squares_u, squares_f
    # and squares_h0 (the t side) drain into t, those of the H and a squares
    # into t'.  The squares are listed in ascending id order, the t side
    # first, so the pendants of each side take one id run.
    t_side = [x for sq in squares_u + squares_f + squares_h0 for x in sq]
    first_pendant = g.n
    pendants = {
        x: g.add_family(RoleKind.PENDANT, Indexed((x,), 2 * budget + 2), join=[x])
        for x in [*t_side, *h_square, *a_square]
    }
    t_prime_side = range(pendants[h_square[0]][0], g.n)
    [t] = g.add_family(RoleKind.T_VERTEX, [0], join=range(first_pendant, t_prime_side.start))
    [t_prime] = g.add_family(RoleKind.T_VERTEX, [1], join=t_prime_side)

    g.freeze()
    gm = GadgetMap(
        kind="mrss",
        graph=g,
        families={
            "u": u,
            "squares_u": squares_u,
            "F": f,
            "squares_f": squares_f,
            "pairs": pairs,
            "H": hub_h,
            "h0": hub_h0,
            "squares_h0": squares_h0,
            "H_square": h_square,
            "a_square": a_square,
            "x_center": x_center,
            "A": a_leaves,
            "y_center": y_center,
            "B": b_leaves,
            "pendants": pendants,
            "t": t,
            "t_prime": t_prime,
            "N": big_n,
        },
    )
    return DAInstance(g, budget), gm


def mrss_forward_certificate(gm: GadgetMap, subset: Iterable[int]) -> frozenset[int]:
    """Alliance asserted by a yes-certificate: the rigid hub block, the A-star
    of every selected vector, and the B-leaves of every unselected one."""
    fam = gm.families
    chosen = set(subset)
    members: set[int] = set(fam["u"]) | set(fam["F"]) | set(fam["h0"])
    for hs in fam["H"]:
        members.update(hs)
    for si in range(len(fam["A"])):
        if si in chosen:
            members.update(fam["A"][si])
            members.add(fam["x_center"][si])
        else:
            members.update(fam["B"][si])
    return frozenset(members)


def mrss_extract_certificate(gm: GadgetMap, r_set: Iterable[int]) -> frozenset[int]:
    rs = set(r_set)
    return frozenset(
        si for si, xc in enumerate(gm.families["x_center"]) if xc in rs
    )


# ---------------------------------------------------------------------------
# RBDS: red-blue dominating set
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RBDSInstance:
    """Pick at most k sources so every terminal has a picked neighbour."""

    n_terminals: int
    n_sources: int
    edges: tuple[tuple[int, int], ...]  # (terminal, source) pairs
    k: int

    def __post_init__(self) -> None:
        if self.n_terminals < 0 or self.n_sources < 0:
            raise InvalidInstance("negative part sizes")
        if self.k < 1:
            raise InvalidInstance("budget must be >= 1")
        # Budget 1 stays legal with no sources, since k >= 1 is required.
        if self.k > max(1, self.n_sources):
            raise InvalidInstance("budget must be <= the number of sources")
        seen = set()
        for t, s in self.edges:
            if not (0 <= t < self.n_terminals and 0 <= s < self.n_sources):
                raise InvalidInstance(f"edge ({t},{s}) out of range")
            if (t, s) in seen:
                raise InvalidInstance(f"duplicate edge ({t},{s})")
            seen.add((t, s))


def solve_rbds_bruteforce(inst: RBDSInstance) -> tuple[int, ...] | None:
    """Lexicographically first of the smallest source subsets of size <= k
    dominating all terminals: a cover (`first_cover`) of the terminals by
    each source's bitmask of neighbours.  A terminal with no source leaves
    no answer; zero terminals give the empty set."""
    if inst.n_sources > BRUTE_FORCE_LIMIT:
        raise TooLarge(f"RBDS brute force guarded at |S| <= {BRUTE_FORCE_LIMIT}")
    masks = [0] * inst.n_sources
    for t, s in inst.edges:
        masks[s] |= 1 << t
    return first_cover(masks, (1 << inst.n_terminals) - 1, inst.k)


def rbds_to_da(inst: RBDSInstance) -> tuple[DAInstance, GadgetMap]:
    """Compile RBDS into defensive alliance (the polynomial parameter transform).

    Three terminal copies and two source copies; every T1/T2 copy gets a 4l
    pendant blanket (l = 4k') watched by helpers a, b, c that price those
    copies out of any small alliance; source edges fan out into the four-copy
    pattern; the apex x* ties the S1 layer together.  Budget |T|+|S|+k+1.
    """
    nt, ns = inst.n_terminals, inst.n_sources
    budget = nt + ns + inst.k + 1
    ell = 4 * budget

    g = Graph()
    t0 = g.add_family(RoleKind.COPY_T0, range(nt))
    t1 = g.add_family(RoleKind.COPY_T1, range(nt))
    t2 = g.add_family(RoleKind.COPY_T2, range(nt))
    s0 = g.add_family(RoleKind.COPY_S0, range(ns))
    s1 = g.add_family(RoleKind.COPY_S1, range(ns))

    first_blanket = g.n
    blanket = {
        host: g.add_family(RoleKind.PENDANT, Indexed((host,), 4 * ell), join=[host])
        for host in [*t1, *t2]
    }
    blanketed = range(first_blanket, g.n)
    # a also watches S1, the ns ids just before the blanket; a and b watch T0.
    [a] = g.add_family(RoleKind.APEX, ["a"], join=range(first_blanket - ns, blanketed.stop))
    [b] = g.add_family(RoleKind.APEX, ["b"], join=blanketed)
    [c] = g.add_family(RoleKind.APEX, ["c"], join=blanketed)
    for apex in (a, b):
        for v in t0:
            g.add_edge(apex, v)

    for t, s in sorted(inst.edges):
        g.add_edge(t0[t], s0[s])
        g.add_edge(t0[t], s1[s])
        g.add_edge(t1[t], s1[s])
        g.add_edge(t2[t], s0[s])

    # x* also takes the |S| lowest-index blanket vertices of the first T1 copy.
    [xstar] = g.add_family(
        RoleKind.OTHER, ["xstar"], join=[*s1, *(blanket[t1[0]][:ns] if t1 else ())]
    )

    g.freeze()
    gm = GadgetMap(
        kind="rbds",
        graph=g,
        families={
            "T0": t0,
            "T1": t1,
            "T2": t2,
            "S0": s0,
            "S1": s1,
            "blanket": blanket,
            "a": a,
            "b": b,
            "c": c,
            "xstar": xstar,
            "ell": ell,
        },
    )
    return DAInstance(g, budget), gm


def rbds_forward_certificate(gm: GadgetMap, x_set: Iterable[int]) -> frozenset[int]:
    fam = gm.families
    members = set(fam["S1"]) | set(fam["T0"]) | {fam["xstar"]}
    members.update(fam["S0"][s] for s in x_set)
    return frozenset(members)


def rbds_extract_certificate(gm: GadgetMap, r_set: Iterable[int]) -> frozenset[int]:
    rs = set(r_set)
    return frozenset(s for s, v in enumerate(gm.families["S0"]) if v in rs)


def rbds_cover_set(gm: GadgetMap) -> frozenset[int]:
    """The vertex set T0 u T1 u T2 u {a,b,c,x*} of size 3|T|+4 that covers G'."""
    fam = gm.families
    return frozenset(
        [*fam["T0"], *fam["T1"], *fam["T2"], fam["a"], fam["b"], fam["c"], fam["xstar"]]
    )


def is_vertex_cover(g: Graph, cover: Iterable[int]) -> bool:
    cs = set(cover)
    return all(u in cs or v in cs for u, v in g.edges())


# ---------------------------------------------------------------------------
# Vertex cover in graphs of maximum degree 3
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VC3Instance:
    graph: Graph
    k: int

    def __post_init__(self) -> None:
        if self.k < 0:
            raise InvalidInstance("budget must be >= 0")
        if self.k > self.graph.n:
            raise InvalidInstance("budget must be <= the number of vertices")
        for v, nb in enumerate(self.graph.adjacency()):
            if len(nb) > 3:
                raise DegreeTooHigh(f"vertex {v} has degree {len(nb)} > 3")


def solve_vc_bruteforce(inst: VC3Instance) -> tuple[int, ...] | None:
    """Lexicographically first of the smallest vertex covers of size <= k
    (the empty cover is legitimate on an edgeless graph): a cover
    (`first_cover`) of the edges, numbered in `edges()` order, by each
    vertex's bitmask of incident edges."""
    g = inst.graph
    if g.n > BRUTE_FORCE_LIMIT:
        raise TooLarge(f"VC brute force guarded at n <= {BRUTE_FORCE_LIMIT}")
    masks = [0] * g.n
    bit = 1
    for u, v in g.edges():
        masks[u] |= bit
        masks[v] |= bit
        bit <<= 1
    return first_cover(masks, bit - 1, inst.k)


def vc_to_da(inst: VC3Instance) -> tuple[DAInstance, GadgetMap]:
    """Compile degree-3 vertex cover into defensive alliance (linear blowup).

    X mirrors the source vertices, Y the source edges (with incidence edges);
    a 4-cycle rides between each pair of consecutive edge vertices; eight
    helpers F with 4k' pendants each press Y into the alliance; an apex over
    X and the pendants keeps X optional.  Budget 5m+k.

    For m = 1 the flanking rule degenerates: the single cycle attaches to e_1
    once only (simple graphs have no parallel edges).  The compiled graph is
    well-formed but the forward certificate needs the two-cycle flank, so
    certificate validity is only promised for m >= 2.
    """
    src = inst.graph
    k = inst.k
    if k < 1:
        raise InvalidInstance("compilation needs budget >= 1")
    edges = list(src.edges())
    m = len(edges)
    budget = 5 * m + k

    g = Graph()
    xs = g.add_family(RoleKind.X_SET, src.vertices())
    ys = [
        g.add_family(RoleKind.Y_SET, [i], join=[xs[a], xs[b]])[0]
        for i, (a, b) in enumerate(edges)
    ]

    cycles: list[range] = []
    for i in range(m):
        flanks = {i, (i + 1) % m}
        cyc = g.add_family(
            RoleKind.CYCLE_C, [(i, j) for j in range(4)], join=[ys[j] for j in flanks]
        )
        for j in range(4):
            g.add_edge(cyc[j], cyc[(j + 1) % 4])
        cycles.append(cyc)

    # Five of the eight helpers F also watch every cycle vertex.
    fs = g.add_family(RoleKind.F_VERTEX, range(5), join=ys + [v for cyc in cycles for v in cyc])
    fs = [*fs, *g.add_family(RoleKind.F_VERTEX, range(5, 8), join=ys)]
    first_pendant = g.n
    vf = [
        g.add_family(RoleKind.PENDANT, Indexed((fv,), 4 * budget), join=[fv])
        for fv in fs
    ]
    [apex] = g.add_family(RoleKind.APEX, ["a"], join=range(first_pendant, g.n))
    for x in xs:
        g.add_edge(apex, x)

    g.freeze()
    gm = GadgetMap(
        kind="vc",
        graph=g,
        families={
            "X": xs,
            "Y": ys,
            "cycles": cycles,
            "F": fs,
            "Vf": vf,
            "apex": apex,
            "source_edges": edges,
        },
    )
    return DAInstance(g, budget), gm


def vc_forward_certificate(gm: GadgetMap, cover: Iterable[int]) -> frozenset[int]:
    fam = gm.families
    members = set(fam["Y"])
    for cyc in fam["cycles"]:
        members.update(cyc)
    members.update(fam["X"][v] for v in cover)
    return frozenset(members)


def vc_extract_certificate(gm: GadgetMap, d_set: Iterable[int]) -> frozenset[int]:
    ds = set(d_set)
    return frozenset(v for v, x in enumerate(gm.families["X"]) if x in ds)


# ---------------------------------------------------------------------------
# Forbidden-vertex alliance -> plain alliance
# ---------------------------------------------------------------------------


def daf_to_da(inst: DAFInstance) -> tuple[DAInstance, GadgetMap]:
    """Eliminate forbidden vertices: each gets a mirror twin plus 2k shared
    guard vertices, raising its degree past what a size-<=k alliance can
    protect.  Budget unchanged."""
    g = inst.graph.clone()
    mirrors: dict[int, int] = {}
    guards: dict[int, list[int]] = {}
    for x in sorted(inst.forbidden):
        [mirrors[x]] = g.add_family(RoleKind.OTHER, [("mirror", x)])
        guards[x] = g.add_family(
            RoleKind.SQUARE, Indexed(("guard", x), 2 * inst.r), join=[x, mirrors[x]]
        )
    g.freeze()
    gm = GadgetMap(
        kind="daf",
        graph=g,
        families={"mirror": mirrors, "guards": guards, "forbidden": sorted(inst.forbidden)},
    )
    return DAInstance(g, inst.r), gm


# ---------------------------------------------------------------------------
# Instance text formats
# ---------------------------------------------------------------------------
#
#   MRSS:  "mrss <k> <n> <k'>", target line of k ints, n vector lines.
#   RBDS:  "rbds <|T|> <|S|> <k>", then "e <t> <s>" lines (0-based).
#   VC:    the graph text format followed by one "k <int>" line.
#   DAF:   the graph format, "k <int>", optional "f <v> <v> ..." line.


def write_mrss(inst: MRSSInstance) -> str:
    lines = [f"mrss {inst.k} {len(inst.vectors)} {inst.kprime}"]
    lines.append(" ".join(str(x) for x in inst.target))
    for s in inst.vectors:
        lines.append(" ".join(str(x) for x in s))
    return "\n".join(lines) + "\n"


@reader
def parse_mrss(text: str) -> MRSSInstance:
    rows = read_rows(text)
    if not rows or rows[0][:1] != ["mrss"] or len(rows[0]) != 4:
        raise ParseError("expected 'mrss <k> <n> <k\\'>' header")
    k, n, kprime = (int(x) for x in rows[0][1:])
    numbers = [tuple(int(x) for x in row) for row in rows[1:]]
    if n < 0 or len(numbers) != n + 1:
        raise ParseError(f"expected target plus {n} vectors, got {len(numbers)} rows")
    return MRSSInstance(k=k, vectors=tuple(numbers[1:]), target=numbers[0], kprime=kprime)


def write_rbds(inst: RBDSInstance) -> str:
    lines = [f"rbds {inst.n_terminals} {inst.n_sources} {inst.k}"]
    for t, s in sorted(inst.edges):
        lines.append(f"e {t} {s}")
    return "\n".join(lines) + "\n"


@reader
def parse_rbds(text: str) -> RBDSInstance:
    rows = read_rows(text)
    if not rows or rows[0][:1] != ["rbds"] or len(rows[0]) != 4:
        raise ParseError("expected 'rbds <|T|> <|S|> <k>' header")
    nt, ns, k = (int(x) for x in rows[0][1:])
    edges = []
    for row in rows[1:]:
        if row[0] != "e" or len(row) != 3:
            raise ParseError(f"expected 'e <t> <s>', got {' '.join(row)}")
        edges.append((int(row[1]), int(row[2])))
    return RBDSInstance(nt, ns, tuple(edges), k)


def read_records(text: str, tags: tuple[str, ...]) -> tuple[dict[str, list[str]], list[str]]:
    """Pull the once-per-file records whose first field is in `tags` out of
    `text`: their remaining fields by tag, and every line with those records
    blanked, so line numbers hold.  A repeated record is an error."""
    records: dict[str, list[str]] = {}
    rest: list[str] = []
    for raw in text.splitlines():
        fields = raw.split()
        if fields and fields[0] in tags:
            if fields[0] in records:
                raise ParseError(f"repeated '{fields[0]}' record")
            records[fields[0]] = fields[1:]
            raw = ""
        rest.append(raw)
    return records, rest


def read_budget(records: dict[str, list[str]]) -> int:
    """The budget held by the 'k <int>' record of `read_records`."""
    if len(records.get("k", ())) != 1:
        raise ParseError("expected one 'k <int>' line")
    return int(records["k"][0])


def _read_budgeted_graph(text: str, tags: tuple[str, ...]) -> tuple[Graph, int, dict]:
    """Graph, 'k' budget and `tags` records of a graph file with a budget.
    Trailing blank lines are cut, so records written after the graph leave
    `write_graph`'s own text, and every other line keeps its number."""
    records, graph_lines = read_records(text, tags)
    graph_text = "\n".join(graph_lines).rstrip("\n") + "\n"
    return parse_graph(graph_text), read_budget(records), records


def write_vc(inst: VC3Instance) -> str:
    return write_graph(inst.graph) + f"k {inst.k}\n"


@reader
def parse_vc(text: str) -> VC3Instance:
    graph, k, _ = _read_budgeted_graph(text, ("k",))
    return VC3Instance(graph, k)


def write_daf(inst: DAFInstance) -> str:
    out = write_graph(inst.graph) + f"k {inst.r}\n"
    if inst.forbidden:
        out += "f " + " ".join(str(v) for v in sorted(inst.forbidden)) + "\n"
    return out


@reader
def parse_daf(text: str) -> DAFInstance:
    graph, k, records = _read_budgeted_graph(text, ("k", "f"))
    return DAFInstance(graph, k, frozenset(int(v) for v in records.get("f", ())))
