"""`GadgetMap.to_json` writes exactly what `json.dumps` writes.

The `.gadgets.json` layout is pinned: it is what `json.dumps(..., sort_keys=
True, indent=1)` makes of `{"kind", "roles", "families"}`, with the family
dict keys passed through `str()` and tuples written as lists.  `reference_json`
builds that object and calls the standard encoder; every test here compares
`to_json()` with it, on drawn maps and on compiled targets.
"""

import hashlib
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_cli import GOLDEN_REDUCE

from alliancelib.graph import Graph, Indexed, RoleKind, RoleTag
from alliancelib.harness import DEFAULT_MAX_N
from alliancelib.kinds import REDUCTIONS
from alliancelib.reductions import GadgetMap


def reference_json(gm: GadgetMap) -> str:
    """The gadget map through the standard library's encoder (the oracle)."""

    def encode(obj: object) -> object:
        if isinstance(obj, (list, tuple)):
            return [encode(x) for x in obj]
        if isinstance(obj, dict):
            return {str(k): encode(v) for k, v in obj.items()}
        return obj

    tags = enumerate(map(gm.graph.tag, gm.graph.vertices()))
    roles = {str(v): {"kind": t.kind.value, "payload": t.payload} for v, t in tags}
    payload = {"kind": gm.kind, "roles": roles, "families": encode(gm.families)}
    return json.dumps(payload, sort_keys=True, indent=1) + "\n"


def assert_same_text(got: str, want: str, note: object = None) -> None:
    """Fail unless `got == want`, naming the first differing offset with a
    little context: a plain `assert` would have pytest diff texts of
    several megabytes, which took tens of minutes on a broken writer."""
    if got == want:
        return
    at = next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))
    lo = max(0, at - 40)

    def digest(text: str) -> str:
        return hashlib.sha256(text.encode()).hexdigest()[:12]

    pytest.fail(
        f"{'' if note is None else f'case {note}: '}texts differ at offset {at}: "
        f"got {len(got)} chars (sha256 {digest(got)}), {got[lo:at + 40]!r}; "
        f"want {len(want)} chars (sha256 {digest(want)}), {want[lo:at + 40]!r}"
    )


TEXT = st.text(st.sampled_from('ab1"\\/\n\t\x00é€😀 '), max_size=5)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**20), 10**20), st.floats(), TEXT
)
# Mixed int, bool and str keys, some of which collide once passed through str().
KEYS = st.one_of(st.integers(-2, 12), st.booleans(), st.sampled_from(["1", "-1", "True"]), TEXT)


def sequences(children):
    return st.one_of(st.lists(children, max_size=4), st.lists(children, max_size=4).map(tuple))


FAMILIES = st.dictionaries(
    KEYS,
    st.recursive(
        SCALARS, lambda c: sequences(c) | st.dictionaries(KEYS, c, max_size=4), max_leaves=20
    ),
    max_size=5,
)
# Role payloads are source annotations: scalars and nested tuples or lists,
# and dicts only with str keys (the standard encoder sorts a payload's keys
# before it converts them, so it raises on mixed int and str keys).
PAYLOADS = st.recursive(
    SCALARS, lambda c: sequences(c) | st.dictionaries(TEXT, c, max_size=3), max_leaves=8
)
# A role is one vertex with its payload, or a family declared as a run.
RUNS = st.builds(Indexed, st.lists(PAYLOADS, max_size=3).map(tuple), st.integers(0, 12))
ROLES = st.lists(st.tuples(st.sampled_from(list(RoleKind)), PAYLOADS | RUNS), max_size=24)


def gadget_map(kind: str, roles: list, families: dict) -> GadgetMap:
    g = Graph()
    for role, payload in roles:
        if type(payload) is Indexed:
            g.add_family(role, payload)
        else:
            g.add_vertex(RoleTag(role, payload))
    return GadgetMap(kind, g, families)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(TEXT, ROLES, FAMILIES)
@example("mrss", [], {})
@example("x", [(RoleKind.OTHER, ("x", (1, 2), []))] * 12, {1: "int", "1": "str", (): 0})
@example("y", [(RoleKind.PENDANT, (-3, True, 0))], {"d": {2: [], "10": {}, "2": [[]]}})
@example("z", [(RoleKind.SQUARE, Indexed(("u", 1.5, True, [], ()), 11))], {})
def test_to_json_matches_json_dumps(kind, roles, families):
    gm = gadget_map(kind, roles, families)
    assert_same_text(gm.to_json(), reference_json(gm))


def test_unsupported_value_raises_as_json_does():
    gm = gadget_map("mrss", [(RoleKind.OTHER, {1, 2})], {})
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        reference_json(gm)
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        gm.to_json()


@pytest.mark.parametrize("kind", sorted(REDUCTIONS))
def test_seeded_compiles_match_json_dumps(kind):
    red, rng = REDUCTIONS[kind], random.Random(f"gadget-json-{kind}")
    for case in range(30):
        _, gm, _ = red.compile(red.gen(rng, DEFAULT_MAX_N[kind]))
        assert_same_text(gm.to_json(), reference_json(gm), case)


SOURCES = {name: (kind, text) for name, (kind, text, _, _) in GOLDEN_REDUCE.items()}
SOURCES["rbds-empty"] = ("rbds", "rbds 0 0 1\n")  # every id family is empty


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_golden_sources_match_json_dumps(name):
    kind, text = SOURCES[name]
    red = REDUCTIONS[kind]
    _, gm, _ = red.compile(red.parse(text))
    assert_same_text(gm.to_json(), reference_json(gm))
