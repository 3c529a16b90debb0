"""Every text reader fails only with ParseError.

A table of rejected texts, one row per rejection branch that the per-module
tests do not reach, property tests that mutate each kind's written instances
token by token and feed the result to its reader and to the CLI, and a
differential test of the graph reader's bulk path against its line reader on
texts that keep the writer's layout.
"""

import contextlib
import io
import random
import re
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from alliancelib import graph
from alliancelib.circle import parse_diagram, parse_ds_instance, write_diagram
from alliancelib.cli import main
from alliancelib.errors import ParseError
from alliancelib.generators import gen_daf, gen_ds_circle, gen_vc
from alliancelib.graph import (
    Graph,
    RoleKind,
    RoleTag,
    _parse_lines,
    _parse_written,
    build_graph,
    parse_graph,
    parse_id_list,
    write_graph,
)
from alliancelib.kinds import REDUCTIONS
from alliancelib.reductions import (
    daf_to_da,
    parse_daf,
    parse_mrss,
    parse_rbds,
    parse_vc,
    write_daf,
    write_vc,
)

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
    pytest.param(parse_graph, "p da 2 1\ne 0 2\n", 2, id="graph-endpoint-too-large"),
    pytest.param(parse_graph, "p da 2 2\ne 0 1\ne 1 0\n", 3, id="graph-duplicate-edge"),
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


def test_budget_files_take_the_bulk_reader(monkeypatch):
    # Blanking the 'k' and 'f' records that follow the graph leaves only
    # trailing blank lines, which must not turn the writer's own layout away.
    results = []

    def spy(text):
        results.append(_parse_written(text))
        return results[-1]

    monkeypatch.setattr(graph, "_parse_written", spy)
    daf_texts = [write_daf(gen_daf(random.Random(seed), 4)) for seed in range(1, 6)]
    assert {"\nf " in text for text in daf_texts} == {True, False}
    for text in daf_texts:
        results.clear()
        assert write_daf(parse_daf(text)) == text
        assert len(results) == 1 and results[0] is not None
    text = write_vc(gen_vc(random.Random(1), 6))
    results.clear()
    assert write_vc(parse_vc(text)) == text
    assert len(results) == 1 and results[0] is not None


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


# -- differential: the bulk graph reader against the line reader -------------

TAG_KINDS = [kind for kind in RoleKind if kind is not RoleKind.ORIGINAL]


@st.composite
def written_graphs(draw):
    """The lines of `write_graph` for a small random graph with some tags."""
    rng = random.Random(draw(st.integers(0, 10**6)))
    n = draw(st.integers(1, 30))
    g = Graph()
    for _ in range(n):
        g.add_vertex(RoleTag(rng.choice(TAG_KINDS)) if rng.random() < 0.3 else RoleTag())
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < 0.35:
                g.add_edge(u, v)
    return write_graph(g.freeze()).splitlines()


def _edit(lines, op, i):
    """One edit of written graph lines that keeps the writer's layout: every
    line still a 'c', 'p', 'e' or 't' record with single spaces, in that
    order."""
    edges = [j for j, line in enumerate(lines) if line.startswith("e ")]
    tags = [j for j, line in enumerate(lines) if line.startswith("t ")]
    head = next(j for j, line in enumerate(lines) if line.startswith("p "))
    n, m = map(int, lines[head].split()[2:])
    if op == "comments":
        return ["c"] * (i % 3) + [f"c written by test {i}"] + lines
    if op in ("n+1", "n-1", "m+1", "m-1"):
        n += (op[0] == "n") * (1 if op[1] == "+" else -1)
        m += (op[0] == "m") * (1 if op[1] == "+" else -1)
        return lines[:head] + [f"p da {n} {m}"] + lines[head + 1 :]
    if op.startswith("t"):
        if not tags:
            return lines
        j = tags[i % len(tags)]
        v = lines[j].split()[1]
        new = {"t-repeat": [lines[j], f"t {v} square"], "t-unknown": [f"t {v} bogus"]}[op]
        return lines[:j] + new + lines[j + 1 :]
    if not edges:
        return lines
    j = edges[i % len(edges)]
    _, u, v = lines[j].split()
    if op == "drop":
        return lines[:j] + lines[j + 1 :]
    if op == "duplicate":
        return lines[:j] + [lines[j]] + lines[j:]
    if op == "swap":
        k = edges[(i + 1) % len(edges)]
        lines = list(lines)
        lines[j], lines[k] = lines[k], lines[j]
        return lines
    new = {"reverse": f"e {v} {u}", "self-loop": f"e {u} {u}", "id-n": f"e {u} {n}",
           "zeros": f"e 00{u} {v}"}[op]
    return lines[:j] + [new] + lines[j + 1 :]


LAYOUT_OPS = ["drop", "duplicate", "swap", "reverse", "self-loop", "id-n", "zeros",
              "t-repeat", "t-unknown", "n+1", "n-1", "m+1", "m-1", "comments"]
LAYOUT_EDITS = st.lists(st.tuples(st.sampled_from(LAYOUT_OPS), st.integers(0, 99)), max_size=2)


def _line_reader_result(text):
    try:
        return _parse_lines(text)
    except ParseError as exc:
        return str(exc)


def _assert_same_as_line_reader(text):
    expected = _line_reader_result(text)
    bulk = _parse_written(text)
    if bulk is not None:
        assert bulk == expected  # the bulk path never accepts a text the line reader rejects
    try:
        got = parse_graph(text)
    except ParseError as exc:
        got = str(exc)
    assert got == expected
    return bulk is not None


@pytest.mark.parametrize("op", LAYOUT_OPS)
def test_bulk_reader_matches_line_reader(op):
    # Each edit in turn, alone or with up to two more, so none is left out.
    @settings(FUZZ, max_examples=40)
    @given(written_graphs(), st.integers(0, 99), LAYOUT_EDITS)
    def check(lines, i, edits):
        for op_, i_ in [(op, i)] + edits:
            lines = _edit(lines, op_, i_)
        _assert_same_as_line_reader("\n".join(lines) + "\n")

    check()


def test_bulk_reader_takes_the_writers_layout():
    # Untouched written files, with or without leading comments, never fall
    # back to the line reader.
    for seed in range(30):
        text = _graph_text(seed)
        assert _assert_same_as_line_reader(text)
        assert _assert_same_as_line_reader("c\nc\tcomment ~\n" + text)
    for text in ("p da 0 0\n", "p da 3 0\nt 2 apex\n", "p da 02 1\ne 0 1\n"):
        assert _assert_same_as_line_reader(text)
    # Other layouts are left to the line reader.
    for text in ("p da 2 1\r\ne 0 1\r\n", "p da 2 1\ne 0 1", "p da 2 1\n\ne 0 1\n",
                 "p da 2 1\ne  0 1\n", "p da 2 1\nc late\ne 0 1\n", "c \x85e 0 1\np da 2 0\n",
                 "p da 3 1\nt 2 apex\ne 0 1\n"):
        assert not _assert_same_as_line_reader(text)


def test_bulk_reader_across_chunks():
    # Over 4096 edge lines, so the bulk path reads several chunks, and over
    # 1024 vertices, so it builds its own id table; each error sits in a
    # later chunk than the first.
    rng = random.Random(11)
    n = 1500
    pairs = sorted({tuple(sorted(rng.sample(range(n), 2))) for _ in range(9000)})
    text = write_graph(build_graph(n, pairs))
    lines = text.splitlines()
    assert len(lines) > 2 * 4096
    assert _assert_same_as_line_reader(text)
    u = pairs[0][0]
    for bad in (
        lines[:8000] + [lines[1]] + lines[8001:],  # the first edge again
        lines[:5000] + [f"e {u} {u}"] + lines[5001:],
        lines[:8500] + [f"e {u} {n}"] + lines[8501:],
        lines[:-1],
    ):
        assert not _assert_same_as_line_reader("\n".join(bad) + "\n")


# -- differential: the run reader on written targets --------------------------

KINDS = [RoleKind.ORIGINAL, RoleKind.PENDANT, RoleKind.SQUARE, RoleKind.APEX, RoleKind.HUB_H]


@pytest.fixture(params=["runs", "sets"])
def tagged_path(request, monkeypatch):
    """Send every tagged text in `write_graph`'s layout down one bulk path:
    `_read_runs`, or the explicit sets that `parse_graph` keeps for texts
    of short tag runs."""
    monkeypatch.setattr(graph, "_SHORT_RUNS", 0 if request.param == "runs" else 1 << 62)
    return request.param


def _record_graph(rng):
    """A tagged graph built family by family: list joins and whole or
    partial `range` joins (hub runs and shared blocks), families of up to
    40 members, edges added at hosts and hosted members alike, and tags."""
    g = Graph()
    for _ in range(rng.randint(1, 12)):
        n = g.n
        if n >= 2 and rng.random() < 0.25:
            for _ in range(rng.randint(1, 4)):
                u, v = rng.sample(range(n), 2)
                if v not in g.neighbors(u):
                    g.add_edge(u, v)
            continue
        count = rng.choice([1, 2, 3, 7, 40])
        lo = rng.randint(0, n)
        hosts = range(lo, rng.randint(lo, min(n, lo + 6)))
        if rng.random() < 0.4:
            hosts = [h for h in range(n) if rng.random() < 0.2]
        g.add_family(rng.choice(KINDS), [None] * count, join=hosts)
    g.add_family(RoleKind.APEX, [None], join=range(rng.randint(0, g.n), g.n))
    return g.freeze()


def _one_name_apart(text):
    """Whether two tag lines in a row share a name but not consecutive ids,
    as where two families of one kind have an `original` one between them;
    the bulk reader leaves such texts to the line reader."""
    tags = [line.split()[1:] for line in text.splitlines() if line.startswith("t ")]
    return any(a[1] == b[1] and int(a[0]) + 1 != int(b[0]) for a, b in zip(tags, tags[1:]))


def test_run_reader_reads_record_built_graphs(tagged_path):
    rng = random.Random(26)
    bulk = 0
    for case in range(300):
        text = write_graph(_record_graph(rng))
        taken = _assert_same_as_line_reader(text)
        assert taken or _one_name_apart(text), case
        assert write_graph(parse_graph(text)) == text, case
        bulk += taken
    assert bulk >= 150


@pytest.mark.parametrize("kind", sorted(REDUCTIONS))
def test_run_reader_reads_compiled_targets(kind, tagged_path):
    red, rng = REDUCTIONS[kind], random.Random(f"run-reader-{kind}")
    for case in range(6):
        text = write_graph(red.compile(red.gen(rng, 4))[0].graph)
        assert _assert_same_as_line_reader(text), case
        assert write_graph(parse_graph(text)) == text, case


def test_run_reader_reads_runs_longer_than_a_bulk_step(tagged_path):
    # A hub run, a shared block and a tag run, each of more than `_CHUNK`
    # lines, and a second hub joined to part of the block.
    big = 2 * graph._CHUNK + 3
    g = Graph()
    hub = g.add_vertex()
    pendants = g.add_family(RoleKind.PENDANT, [None] * big, join=[hub])
    g.add_family(RoleKind.APEX, [None], join=pendants)
    g.add_family(RoleKind.APEX, [None], join=pendants[: graph._CHUNK + 1])
    text = write_graph(g.freeze())
    back = parse_graph(text)
    assert _assert_same_as_line_reader(text) and write_graph(back) == text
    if tagged_path == "runs":
        assert len(back.families()) <= 5 and not back._edges


def _edge_runs(lines):
    """The runs of `e` lines: (first line index, length, u) of each maximal
    stretch of one vertex's lines whose ids count up by one."""
    runs = []
    for i, line in enumerate(lines):
        if not line.startswith("e "):
            continue
        u, w = map(int, line.split()[1:])
        if runs and runs[-1][2] == u and i == runs[-1][0] + runs[-1][1] and w == runs[-1][3] + 1:
            first, length, _, _ = runs[-1]
            runs[-1] = (first, length + 1, u, w)
        else:
            runs.append((i, 1, u, w))
    return [(first, length, u) for first, length, u, _ in runs]


def _with_header(lines, dn=0, dm=0):
    _, _, n, m = lines[0].split()
    return [f"p da {int(n) + dn} {int(m) + dm}", *lines[1:]]


def _mutants(text, rng):
    """Edits of a written text at its runs and shared blocks."""
    lines = text.splitlines()
    n = int(lines[0].split()[2])
    runs = _edge_runs(lines)
    long_runs = [r for r in runs if r[1] >= 3] or [r for r in runs if r[1] >= 2]
    out = []
    for first, length, u in rng.sample(long_runs, min(3, len(long_runs))):
        i = first + rng.randrange(1, length)  # a line inside the run
        w = int(lines[i].split()[2])
        for new in (w - 1, w + 1, w + length, n - 1, n):  # one id changed inside a run
            out.append(lines[:i] + [f"e {u} {new}"] + lines[i + 1 :])
        out.append(lines[:i] + [f"e {u} 0{w}"] + lines[i + 1 :])  # a zero-padded id
        out.append(lines[:i] + [f"e 0{u} {w}"] + lines[i + 1 :])
        dropped = lines[:i] + lines[i + 1 :]  # a line dropped inside a run
        out += [dropped, _with_header(dropped, dm=-1)]
        repeated = lines[: i + 1] + lines[i:]  # a line repeated inside a run
        out += [repeated, _with_header(repeated, dm=1)]
        last = first + length  # the run pushed past n
        pushed = lines[:last] + [f"e {u} {w + length - (i - first) + k}" for k in range(3)] + lines[last:]
        out += [_with_header(pushed, dm=3), _with_header(lines, dn=-1)]
    for (a, la, u), (b, lb, v) in zip(runs, runs[1:]):
        if u == v and la >= 2 and lb >= 2:  # a hub's two runs merged
            start = int(lines[a + la - 1].split()[2]) + 1
            merged = [f"e {u} {start + k}" for k in range(lb)]
            out.append(lines[:b] + merged + lines[b + lb :])
            break
    groups = {}
    for i, line in enumerate(lines):
        if line.startswith("e "):
            groups.setdefault(line.split()[1], []).append(i)
    for u, rows in groups.items():
        w_list = [lines[i].split()[2] for i in rows]
        nxt = groups.get(str(int(u) + 1))
        if nxt and [lines[i].split()[2] for i in nxt] == w_list:  # a shared block
            i, j = rows[0], nxt[-1]
            swapped = list(lines)
            swapped[i], swapped[j] = swapped[j], swapped[i]  # lines of one block swapped
            out.append(swapped)
            if len(rows) > 1:
                swapped = list(lines)
                swapped[rows[0]], swapped[rows[1]] = swapped[rows[1]], swapped[rows[0]]
                out.append(swapped)
            break
    return ["\n".join(lines) + "\n" for lines in out]


@pytest.mark.parametrize("kind", sorted(REDUCTIONS))
def test_mutated_targets_read_as_line_by_line(kind, tagged_path):
    red, rng = REDUCTIONS[kind], random.Random(f"run-mutants-{kind}")
    # One or two vectors already give an mrss target of thousands of vertices.
    texts, max_n = (2, 2) if kind == "mrss" else (4, 4)
    taken = 0
    for _ in range(texts):
        text = write_graph(red.compile(red.gen(rng, max_n))[0].graph)
        for mutant in _mutants(text, rng):
            taken += _assert_same_as_line_reader(mutant)
    assert taken  # some edits keep the writer's layout and stay on the run reader


def test_mutated_record_built_graphs_read_as_line_by_line(tagged_path):
    rng = random.Random(2026)
    for _ in range(60):
        for mutant in _mutants(write_graph(_record_graph(rng)), rng):
            _assert_same_as_line_reader(mutant)


def test_texts_of_short_tag_runs_are_read_into_sets():
    # One tag run per `_SHORT_RUNS` vertices stays on the run reader; one
    # more run sends the text to explicit sets, one per vertex.
    for runs, sets in ((4, False), (5, True)):
        g = Graph()
        hub = g.add_vertex()
        for i in range(runs - 2):
            g.add_family(RoleKind.PENDANT if i % 2 else RoleKind.SQUARE, [None] * 64, join=[hub])
        g.add_family(RoleKind.APEX, [None] * (4 * 64 - g.n), join=[hub])
        text = write_graph(g.freeze())
        back = parse_graph(text)
        assert back == _parse_lines(text) and write_graph(back) == text
        assert (len(back._edges) == back.n) is sets


def test_run_reader_reads_runs_that_start_ever_lower():
    # Each vertex v below n/3 hosts the run n-2v-2, n-2v-1, so every new run
    # boundary lies below all the boundaries read before it.
    n = 3000
    lines = [f"e {v} {w}" for v in range((n - 2) // 3) for w in (n - 2 * v - 2, n - 2 * v - 1)]
    text = "\n".join([f"p da {n} {len(lines)}", *lines, f"t {n - 1} apex"]) + "\n"
    assert _assert_same_as_line_reader(text)
    assert write_graph(parse_graph(text)) == text
