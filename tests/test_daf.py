import itertools

import pytest

from alliancelib.alliances import DAFInstance, brute_force_min_da, solve_da
from alliancelib.errors import ParseError
from alliancelib.graph import build_graph, write_graph
from alliancelib.reductions import daf_to_da, parse_daf, write_daf


def all_labeled_graphs(n):
    pairs = list(itertools.combinations(range(n), 2))
    for mask in range(1 << len(pairs)):
        yield build_graph(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def test_p3_middle_forbidden():
    p3 = build_graph(3, [(0, 1), (1, 2)])
    inst = DAFInstance(p3, 1, frozenset({1}))
    da, gm = daf_to_da(inst)
    assert da.graph.n == 6  # 3 + mirror + 2 guards
    assert da.k == 1
    src = brute_force_min_da(p3, forbidden={1}, max_size=1)
    tgt = brute_force_min_da(da.graph, max_size=1)
    assert src is not None and tgt is not None
    assert tgt.vertices == (0,)
    assert solve_da(da) == tgt  # the exact solver finds the same leaf


def test_no_forbidden_is_identity():
    g = build_graph(3, [(0, 1), (1, 2)])
    inst = DAFInstance(g, 2)
    da, gm = daf_to_da(inst)
    assert da.graph == g.clone().freeze()
    assert da.k == 2
    assert gm.families["mirror"] == {}


def test_all_forbidden_triangle():
    k3 = build_graph(3, [(0, 1), (0, 2), (1, 2)])
    inst = DAFInstance(k3, 2, frozenset({0, 1, 2}))
    da, _ = daf_to_da(inst)
    assert brute_force_min_da(k3, forbidden={0, 1, 2}, max_size=2) is None
    assert brute_force_min_da(da.graph, max_size=2) is None


def test_gadget_degrees():
    # Vertex 2 is isolated: it only makes budget 3 legal (r <= max(2, n)).
    g = build_graph(3, [(0, 1)])
    inst = DAFInstance(g, 3, frozenset({0}))
    da, gm = daf_to_da(inst)
    mirror = gm.families["mirror"][0]
    guards = gm.families["guards"][0]
    assert len(guards) == 2 * 3
    assert da.graph.degree(mirror) == 2 * 3  # exactly 2k', unprotectable
    assert da.graph.degree(0) == 1 + 2 * 3
    for w in guards:
        assert da.graph.neighbors(w) == {0, mirror}


def test_full_equivalence_small():
    # exhaustive n <= 4 here; the acceptance suite pushes to n <= 5
    for n in range(1, 5):
        for g in all_labeled_graphs(n):
            for bits in range(1 << n):
                forb = frozenset(v for v in range(n) if bits >> v & 1)
                for k in (1, 2):
                    inst = DAFInstance(g, k, forb)
                    da, _ = daf_to_da(inst)
                    src = brute_force_min_da(g, forbidden=forb, max_size=k)
                    tgt = brute_force_min_da(da.graph, max_size=k)
                    assert (src is None) == (tgt is None)


def test_determinism():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    inst = DAFInstance(g, 2, frozenset({1, 3}))
    da1, gm1 = daf_to_da(inst)
    da2, gm2 = daf_to_da(inst)
    assert da1.graph == da2.graph
    assert write_graph(da1.graph) == write_graph(da2.graph)
    assert gm1.to_json() == gm2.to_json()


def test_daf_format_roundtrip():
    g = build_graph(3, [(0, 1), (1, 2)])
    inst = DAFInstance(g, 2, frozenset({1}))
    text = write_daf(inst)
    back = parse_daf(text)
    assert back.graph == g and back.r == 2 and back.forbidden == frozenset({1})
    assert write_daf(back) == text
    with pytest.raises(ParseError):
        parse_daf("p da 1 0\n")  # no budget line


def test_daf_parser_rejects_bad_records():
    with pytest.raises(ParseError, match="not in graph"):
        parse_daf("p da 2 0\nk 1\nf 7\n")  # forbidden id beyond the graph
    with pytest.raises(ParseError, match="repeated 'k'"):
        parse_daf("p da 2 0\nk 1\nk 5\n")
    with pytest.raises(ParseError, match="repeated 'f'"):
        parse_daf("p da 2 0\nk 1\nf 0\nf 1\n")
