"""Every text reader fails only with ParseError.

A table of rejected texts, one row per rejection branch that the per-module
tests do not reach, and property tests that mutate each kind's written
instances token by token and feed the result to its reader and to the CLI.
"""

import contextlib
import io
import random
import re
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alliancelib.circle import parse_diagram, parse_ds_instance, write_diagram
from alliancelib.cli import main
from alliancelib.errors import ParseError
from alliancelib.generators import gen_daf, gen_ds_circle
from alliancelib.graph import parse_graph, parse_id_list, write_graph
from alliancelib.kinds import REDUCTIONS
from alliancelib.reductions import daf_to_da, parse_daf, parse_mrss, parse_rbds, parse_vc

# (reader, text, line): `line` is the line number a graph error must name.
REJECTED = [
    pytest.param(parse_graph, "p da 1 0\np da 1 0\n", 2, id="graph-repeated-header"),
    pytest.param(parse_graph, "p dag 1 0\n", 1, id="graph-bad-p-line"),
    pytest.param(parse_graph, "p da 1 x\n", 1, id="graph-non-integer-count"),
    pytest.param(parse_graph, "p da -1 0\n", 1, id="graph-negative-count"),
    pytest.param(parse_graph, "p da 2 1\ne 0\n", 2, id="graph-e-arity"),
    pytest.param(parse_graph, "p da 1 0\nt 0 square x\n", 2, id="graph-t-arity"),
    pytest.param(parse_graph, "p da 2 1\ne 0 x\n", 2, id="graph-non-integer-endpoint"),
    pytest.param(parse_graph, "p da 1 0\nt x square\n", 2, id="graph-non-integer-tag-id"),
    pytest.param(parse_graph, "t 0 square\np da 1 0\n", 1, id="graph-t-before-header"),
    pytest.param(parse_graph, "p da 1 0\nt 1 square\n", 2, id="graph-t-out-of-range"),
    pytest.param(parse_graph, "p da 1 0\nq 0\n", 2, id="graph-unknown-record"),
    pytest.param(parse_graph, "c no header\n", None, id="graph-missing-header"),
    pytest.param(parse_graph, "p da 2 1\ne 1 1\n", 2, id="graph-self-loop"),
    pytest.param(parse_graph, "p da 2 1\ne -1 0\n", 2, id="graph-negative-endpoint"),
    pytest.param(parse_graph, "p da 2 1\ne 0 1\ncrap\n", 3, id="graph-c-prefixed-record"),
    pytest.param(parse_graph, "cx 0 0\np da 1 0\n", 1, id="graph-c-prefixed-before-header"),
    pytest.param(parse_mrss, "mrss 1 1\n1\n1\n", None, id="mrss-short-header"),
    pytest.param(parse_mrss, "rbds 1 1 1\n1\n1\n", None, id="mrss-wrong-header"),
    pytest.param(parse_rbds, "rbds 1 x 1\n", None, id="rbds-non-integer-header"),
    pytest.param(parse_rbds, "rbds 1 1 1\ne 0 x\n", None, id="rbds-non-integer-endpoint"),
    pytest.param(parse_rbds, "rbds 1 1 1\nf 0 0\n", None, id="rbds-bad-e-row"),
    pytest.param(parse_vc, "p da 1 0\nk x\n", None, id="vc-k-x"),
    pytest.param(parse_daf, "p da 1 0\nk 1 2\n", None, id="daf-k-1-2"),
    pytest.param(parse_daf, "p da 1 0\nk 1\nf x\n", None, id="daf-f-x"),
    pytest.param(parse_vc, "p da 1 0\nk 1\nf 0\n", None, id="vc-f-line"),
    pytest.param(parse_ds_instance, "d a b a\nk 1\n", None, id="ds-malformed-diagram"),
    pytest.param(parse_ds_instance, "d a a\nk 0\n", None, id="ds-zero-budget"),
    pytest.param(partial(parse_id_list, n=3), "0,x", None, id="id-list-non-integer"),
]


@pytest.mark.parametrize("reader, text, line", REJECTED)
def test_reader_rejects(reader, text, line):
    with pytest.raises(ParseError) as info:
        reader(text)
    message = str(info.value)
    if line is not None:
        assert message.startswith(f"line {line}: ")
        assert message.count("line ") == 1


def test_mrss_negative_vector_count_is_a_parse_error():
    # "n = -1" once asked for zero rows and then indexed the missing target.
    with pytest.raises(ParseError):
        parse_mrss("mrss 1 -1 1\n")


def test_graph_errors_in_budget_files_name_the_file_line():
    # The 'k' and 'f' records are cut out before the graph is read; the graph
    # lines after them keep their numbers.
    with pytest.raises(ParseError, match="^line 3: "):
        parse_vc("p da 1 0\nk 1\ne 0\n")
    with pytest.raises(ParseError, match="^line 4: "):
        parse_daf("p da 2 0\nk 1\nf 0\ne 0 0\n")


# -- property tests: mutated texts ------------------------------------------

# Tokens an edit may write: small ints, every format keyword, and spellings
# that int() or str.isdecimal() treat in surprising ways.  Numbers stay small,
# as a header such as "p da 999999999 0" is a valid file of a billion vertices.
TOKENS = st.one_of(
    st.integers(-1, 9).map(str),
    st.sampled_from(
        ["p", "da", "e", "t", "c", "k", "f", "d", "mrss", "rbds", "square", "pendant",
         "--1", "+2", "1_0", "٣", "\n"]
    ),
)
EDITS = st.lists(
    st.tuples(st.sampled_from(["replace", "duplicate", "delete", "insert"]), st.integers(0, 99), TOKENS),
    max_size=3,
)


def _graph_text(seed):
    # A daf gadget graph: a few tagged vertices besides the original ones.
    return write_graph(daf_to_da(gen_daf(random.Random(seed), 4))[0].graph)


# name -> (reader, writer, seeded source text)
FORMATS = {
    kind: (red.parse, red.write, lambda seed, red=red: red.write(red.gen(random.Random(seed), 4)))
    for kind, red in REDUCTIONS.items()
}
FORMATS["graph"] = (parse_graph, write_graph, _graph_text)
FORMATS["diagram"] = (
    parse_diagram,
    write_diagram,
    lambda seed: write_diagram(gen_ds_circle(random.Random(seed), 4).diagram),
)


def mutate(text, edits):
    """Apply token edits to `text`; newlines are tokens too, so an edit can
    join or split lines."""
    tokens = re.findall(r"\S+|\n", text)
    for op, pos, tok in edits:
        if op == "insert" or not tokens:
            tokens.insert(pos % (len(tokens) + 1), tok)
        elif op == "replace":
            tokens[pos % len(tokens)] = tok
        elif op == "duplicate":
            i = pos % len(tokens)
            tokens.insert(i, tokens[i])
        else:
            del tokens[pos % len(tokens)]
    return " ".join(tokens)


@st.composite
def fuzzed(draw, name):
    return mutate(FORMATS[name][2](draw(st.integers(0, 30))), draw(EDITS))


FUZZ = settings(derandomize=True, deadline=None, max_examples=150, database=None)


@pytest.mark.parametrize("name", sorted(FORMATS))
def test_mutated_text_parses_or_raises_parse_error(name):
    parse, write, _ = FORMATS[name]

    @FUZZ
    @given(fuzzed(name))
    def check(text):
        try:
            inst = parse(text)
        except ParseError:
            return
        canonical = write(inst)
        assert parse(canonical) == inst
        assert write(parse(canonical)) == canonical

    check()


@FUZZ
@given(st.lists(TOKENS, max_size=5), st.integers(0, 5))
def test_id_list_parses_or_raises_parse_error(tokens, n):
    try:
        ids = parse_id_list(",".join(tokens), n)
    except ParseError:
        return
    assert all(0 <= v < n for v in ids)


def test_cli_on_mutated_graph_files_exits_0_1_or_2(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "mutated.graph"

    @settings(FUZZ, max_examples=60)
    @given(fuzzed("graph"))
    def check(text):
        path.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            assert main(["check", str(path), "--set", "0"]) in (0, 1, 2)
            assert main(["solve", str(path), "--budget", "2"]) in (0, 1, 2)

    check()
