"""Every input check raises its own error class with a message naming the
rule, and the command line turns the ones it can reach into exit 2."""

import random

import pytest

from alliancelib import generators, harness
from alliancelib.alliances import DAFInstance, DAInstance, Witness
from alliancelib.circle import ChordDiagram, DSCircleInstance, ds_to_daf
from alliancelib.cli import main
from alliancelib.errors import BadParams, FrozenGraph, InvalidInstance, MalformedDiagram
from alliancelib.graph import build_graph
from alliancelib.reductions import MRSSInstance, RBDSInstance, VC3Instance, vc_to_da

P2 = build_graph(2, [(0, 1)])  # frozen, as build_graph leaves every graph
P2_TEXT = "p da 2 1\ne 0 1\n"


def rng():
    return random.Random(0)


# (id, call, error class, message fragment, argv reaching it or None);
# "GRAPH" in argv stands for a file holding P2.
CHECKS = [
    ("gen-mrss", lambda: generators.gen_mrss(rng(), 2, 0, 2), BadParams,
     "positive bounds", ["gen", "mrss", "--max-n", "0"]),
    ("gen-mrss-dim", lambda: generators.gen_mrss(rng(), 0, 3, 2), BadParams,
     "positive bounds", ["gen", "mrss", "--dim", "0"]),
    ("gen-rbds-parts", lambda: generators.gen_rbds(rng(), 0, 4), BadParams,
     "positive part bounds", ["gen", "rbds", "--max-n", "0"]),
    ("gen-rbds-density", lambda: generators.gen_rbds(rng(), 4, 4, 1.5), BadParams,
     "density must lie in [0,1]", ["gen", "rbds", "--density", "1.5"]),
    ("gen-vc", lambda: generators.gen_vc(rng(), 2), BadParams,
     "max_n >= 3", ["gen", "vc", "--max-n", "2"]),
    ("gen-ds-circle", lambda: generators.gen_ds_circle(rng(), 0), BadParams,
     "max_chords >= 1", ["gen", "ds-circle", "--max-n", "0"]),
    ("gen-daf", lambda: generators.gen_daf(rng(), 0), BadParams,
     "max_n >= 1", ["gen", "daf", "--max-n", "0"]),
    ("mrss-dimension", lambda: MRSSInstance(0, ((),), (), 1), InvalidInstance,
     "dimension must be >= 1", None),
    ("mrss-no-vectors", lambda: MRSSInstance(1, (), (1,), 1), InvalidInstance,
     "at least one vector", None),
    ("mrss-kprime", lambda: MRSSInstance(1, ((1,),), (1,), -1), InvalidInstance,
     "kprime must be >= 0", None),
    ("mrss-kprime-above-n", lambda: MRSSInstance(1, ((1,),), (1,), 2), InvalidInstance,
     "kprime must be <= the number of vectors", None),
    ("mrss-target-dim", lambda: MRSSInstance(2, ((1, 1),), (1,), 1), InvalidInstance,
     "target dimension mismatch", None),
    ("mrss-vector-dim", lambda: MRSSInstance(1, ((1, 1),), (1,), 1), InvalidInstance,
     "vector dimension mismatch", None),
    ("mrss-vector-sign", lambda: MRSSInstance(1, ((-1,),), (1,), 1), InvalidInstance,
     "vector entries must be non-negative", None),
    ("mrss-target-sign", lambda: MRSSInstance(1, ((1,),), (-1,), 1), InvalidInstance,
     "target entries must be non-negative", None),
    ("rbds-parts", lambda: RBDSInstance(-1, 1, (), 1), InvalidInstance,
     "negative part sizes", None),
    ("rbds-budget-above-sources", lambda: RBDSInstance(1, 2, (), 3), InvalidInstance,
     "budget must be <= the number of sources", None),
    ("vc-budget", lambda: VC3Instance(P2, -1), InvalidInstance,
     "budget must be >= 0", None),
    ("vc-budget-above-n", lambda: VC3Instance(P2, 3), InvalidInstance,
     "budget must be <= the number of vertices", None),
    ("daf-budget-above-n", lambda: DAFInstance(P2, 3), InvalidInstance,
     "budget must be <= the number of vertices, or <= 2", None),
    ("vc-compile-budget", lambda: vc_to_da(VC3Instance(P2, 0)), InvalidInstance,
     "compilation needs budget >= 1", None),
    ("da-budget", lambda: DAInstance(P2, 0), InvalidInstance,
     "budget must be >= 1", ["solve", "GRAPH", "--budget", "0"]),
    ("empty-witness", lambda: Witness(()), InvalidInstance,
     "a witness is never empty", None),
    ("frozen-graph", lambda: P2.add_edge(0, 1), FrozenGraph,
     "graph is frozen", None),
    ("ds-no-chords", lambda: ds_to_daf(DSCircleInstance(ChordDiagram(()), 1)), MalformedDiagram,
     "at least one chord", None),
    ("unsortable-chords", lambda: ChordDiagram((1, "a", 1, "a")), MalformedDiagram,
     "mutually sortable", None),
    ("harness-kind", lambda: harness.run_equiv_test("nope"), BadParams,
     "unknown kind 'nope'", None),
    ("harness-case-kind", lambda: harness.run_equiv_case("nope", 0, rng(), 3), BadParams,
     "unknown kind 'nope'", None),
    ("harness-count", lambda: harness.run_equiv_test("mrss", count=-1), BadParams,
     "count must be >= 0", ["equiv-test", "mrss", "--count", "-1"]),
]


@pytest.mark.parametrize(
    "call, error, fragment, argv", [c[1:] for c in CHECKS], ids=[c[0] for c in CHECKS]
)
def test_input_check(call, error, fragment, argv, tmp_path, capsys):
    with pytest.raises(error) as info:
        call()
    assert fragment in str(info.value)
    if argv is None:
        return
    graph = tmp_path / "p2.graph"
    graph.write_text(P2_TEXT)
    code = main([str(graph) if arg == "GRAPH" else arg for arg in argv])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == f"error: {info.value}\n"
