import hashlib
import json

import pytest

from alliancelib.cli import main
from alliancelib.graph import parse_graph
from alliancelib.kinds import REDUCTIONS


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


C4 = "p da 4 4\ne 0 1\ne 0 3\ne 1 2\ne 2 3\n"


def test_check_alliance(tmp_path, capsys):
    f = tmp_path / "c4.graph"
    f.write_text(C4)
    code, out, _ = run(capsys, "check", str(f), "--set", "0,1")
    assert code == 0
    assert "defensive alliance" in out
    assert "v=0" in out and "protected" in out


def test_check_rejections(tmp_path, capsys):
    f = tmp_path / "c4.graph"
    f.write_text(C4)
    code, out, _ = run(capsys, "check", str(f), "--set", "")
    assert code == 1
    code, _, _ = run(capsys, "check", str(f), "--set", "0,1", "--forbidden", "1")
    assert code == 1
    bad = tmp_path / "bad.graph"
    bad.write_text("p da 1 5\n")
    code, _, err = run(capsys, "check", str(bad), "--set", "0")
    assert code == 2
    assert "error" in err


def test_solve(tmp_path, capsys):
    f = tmp_path / "c4.graph"
    f.write_text(C4)
    code, out, _ = run(capsys, "solve", str(f), "--budget", "2")
    assert code == 0 and "witness size=2" in out
    code, out, _ = run(capsys, "solve", str(f), "--budget", "1")
    assert code == 1 and "infeasible" in out
    code, out, _ = run(capsys, "solve", str(f), "--budget", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["witness"] == [0, 1]


def test_solve_deep_ring(tmp_path, capsys):
    # A ring of 1,100 vertices with two forbidden leaves each: the only
    # alliance is the ring, deeper than the interpreter's recursion limit.
    n = 1100
    edges = [(i, (i + 1) % n) for i in range(n)]
    edges += [(i, n + 2 * i + j) for i in range(n) for j in range(2)]
    f = tmp_path / "ring.graph"
    f.write_text(f"p da {3 * n} {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges))
    leaves = ",".join(map(str, range(n, 3 * n)))
    code, out, err = run(capsys, "solve", str(f), "--budget", str(n), "--forbidden", leaves)
    assert code == 0 and "witness size=1100" in out and err == ""


def test_reduce_and_certify_mrss(tmp_path, capsys):
    src = tmp_path / "fig1.mrss"
    src.write_text("mrss 2 3 2\n3 3\n2 1\n1 1\n1 2\n")
    out_prefix = tmp_path / "fig1"
    code, out, _ = run(capsys, "reduce", "mrss", str(src), "--out", str(out_prefix))
    assert code == 0
    graph_text = (tmp_path / "fig1.graph").read_text()
    assert graph_text.startswith("c budget 100\n")
    assert (tmp_path / "fig1.budget").read_text() == "100\n"
    parse_graph(graph_text)  # sanity: well-formed output
    code, out, _ = run(capsys, "certify", "mrss", str(src))
    assert code == 0 and "valid=yes" in out
    code, out, _ = run(capsys, "certify", "mrss", str(src), "--solution", "1")
    assert code == 1  # {s_2} does not reach the target


def test_reduce_ds_circle_writes_diagram_and_forbidden(tmp_path, capsys):
    src = tmp_path / "tri.ds"
    src.write_text("d a b c a b c\nk 1\n")
    code, out, _ = run(capsys, "reduce", "ds-circle", str(src), "--out", str(tmp_path / "tri"))
    assert code == 0
    assert (tmp_path / "tri.diagram").exists()
    assert (tmp_path / "tri.forbidden").exists()
    assert (tmp_path / "tri.budget").read_text() == "298\n"
    code, out, _ = run(capsys, "certify", "ds-circle", str(src))
    assert code == 0 and "valid=yes" in out


def test_reduce_determinism(tmp_path, capsys):
    src = tmp_path / "g.rbds"
    src.write_text("rbds 2 2 1\ne 0 0\ne 1 0\ne 1 1\n")
    run(capsys, "reduce", "rbds", str(src), "--out", str(tmp_path / "one"))
    run(capsys, "reduce", "rbds", str(src), "--out", str(tmp_path / "two"))
    for suffix in (".graph", ".budget", ".gadgets.json"):
        assert (tmp_path / f"one{suffix}").read_bytes() == (
            tmp_path / f"two{suffix}"
        ).read_bytes()


def test_certify_daf(tmp_path, capsys):
    src = tmp_path / "p3.daf"
    src.write_text("p da 3 2\ne 0 1\ne 1 2\nk 1\nf 1\n")
    code, out, _ = run(capsys, "certify", "daf", str(src))
    assert code == 0 and "valid=yes" in out


def test_equiv_test_cli(capsys):
    code, out, _ = run(
        capsys, "equiv-test", "daf", "--count", "25", "--seed", "5", "--max-n", "5"
    )
    assert code == 0
    assert "failures=0" in out
    code, out, _ = run(
        capsys, "equiv-test", "vc", "--count", "10", "--format", "json"
    )
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["failures"] == 0 and summary["cases"] == 10


def test_gen_cli_deterministic(tmp_path, capsys):
    code, out1, _ = run(capsys, "gen", "vc", "--seed", "77")
    assert code == 0
    code, out2, _ = run(capsys, "gen", "vc", "--seed", "77")
    assert out1 == out2
    f = tmp_path / "inst.vc"
    code, _, _ = run(capsys, "gen", "vc", "--seed", "77", "--out", str(f))
    assert code == 0 and f.read_text() == out1


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as info:
        main(["solve"])  # missing required arguments
    assert info.value.code == 2


# gen --seed 7 text, then certify on it: brute-forced, and with a given
# solution.  Recorded before the kinds moved into one registry; the outputs
# must stay byte-identical.
GOLDEN_SEED_7 = {
    "mrss": (
        "mrss 2 2 1\n3 3\n2 1\n1 1\n",
        (1, "source infeasible: nothing to certify\n"),
        ("0,1", 1, "mrss: solution=[0, 1] certificate size=67 budget=66 valid=NO\n"),
    ),
    "rbds": (
        "rbds 3 2 1\ne 0 0\ne 0 1\ne 1 1\n",
        (1, "source infeasible: nothing to certify\n"),
        ("0,1", 1, "rbds: solution=[0, 1] certificate size=8 budget=7 valid=NO\n"),
    ),
    "vc": (
        "p da 4 4\ne 0 1\ne 0 3\ne 1 3\ne 2 3\nk 2\n",
        (0, "vc: solution=[0, 3] certificate size=22 budget=22 valid=yes\n"),
        ("0,3", 0, "vc: solution=[0, 3] certificate size=22 budget=22 valid=yes\n"),
    ),
    "ds-circle": (
        "d c2 c2 c1 c0 c0 c1\nk 2\n",
        (1, "source infeasible: nothing to certify\n"),
        (
            "c0,c1,c2",
            1,
            "ds-circle: solution=['c0', 'c1', 'c2'] certificate size=300 budget=299 valid=NO\n",
        ),
    ),
    "daf": (
        "p da 3 2\ne 0 2\ne 1 2\nk 1\nf 0 2\n",
        (0, "daf: solution=[1] certificate size=1 budget=1 valid=yes\n"),
        ("1", 0, "daf: solution=[1] certificate size=1 budget=1 valid=yes\n"),
    ),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_SEED_7))
def test_gen_and_certify_stdout_pinned(kind, tmp_path, capsys):
    text, brute, (solution, code_given, out_given) = GOLDEN_SEED_7[kind]
    assert run(capsys, "gen", kind, "--seed", "7")[:2] == (0, text)
    src = tmp_path / "inst"
    src.write_text(text)
    assert run(capsys, "certify", kind, str(src))[:2] == brute
    got = run(capsys, "certify", kind, str(src), "--solution", solution)
    assert got[:2] == (code_given, out_given)


# reduce on each GOLDEN_SEED_7 source, plus two sources seed 7 does not
# cover: stdout and the sha256 of every file written, recorded while the gadget
# map still kept its own copy of the roles (the five seed-7 rows) and before the
# compilers built their gadget families through `Graph.add_family` (the last
# two).  The files must stay byte-identical.  The mrss map has more than ten
# int keys in its `pendants` family, so its key order (string, not numeric) is
# pinned too.  `ds-circle-int` has integer chord labels and shows every weld
# pattern, (first, first), (first, second) and (second, second);
# `rbds-isolated` has an isolated terminal and isolated sources.
GOLDEN_REDUCE = {
    "mrss": (
        "mrss",
        GOLDEN_SEED_7["mrss"][0],
        "mrss: n=22621 m=45288 budget=66 -> out.graph, out.budget, out.gadgets.json\n",
        {
            ".graph": "2c817f806c976f58ca110d6880ccebe695626920e6c5499b9e91b2dfae91d4fd",
            ".budget": "8e37bed9dff3949ffd23ae638260dff869f5cc26e551f2a9e5e289a8888949fa",
            ".gadgets.json": "0c833fb4cf36131e31b7418b9e45e3ea2c08ca13d1bba0d2a32f65a35a43030b",
        },
    ),
    "rbds": (
        "rbds",
        GOLDEN_SEED_7["rbds"][0],
        "rbds: n=689 m=2712 budget=7 -> out.graph, out.budget, out.gadgets.json\n",
        {
            ".graph": "625c44c4a7d4c1e4e4d953467836fa9c92701433cb92145963766b4b7907f930",
            ".budget": "10159baf262b43a92d95db59dae1f72c645127301661e0a3ce4e38b295a97c58",
            ".gadgets.json": "bd74316c04e3690ec22b6ba395f0c54b5926975b5e8d1396e79e74a28409be16",
        },
    ),
    "vc": (
        "vc",
        GOLDEN_SEED_7["vc"][0],
        "vc: n=737 m=1580 budget=22 -> out.graph, out.budget, out.gadgets.json\n",
        {
            ".graph": "68ac5b4fe5cea0e3f60657412f32c76d49cdacdb80557c7a86d6d0a72fa7a4b0",
            ".budget": "f14b4987904bcb5814e4459a057ed4d20f58a633152288a761214dcd28780b56",
            ".gadgets.json": "b78508f0084464671d9c95caff90c4ef21f129b775a7af5489accd02375b9cb4",
        },
    ),
    "ds-circle": (
        "ds-circle",
        GOLDEN_SEED_7["ds-circle"][0],
        "ds-circle: n=2730 m=3687 budget=299 -> "
        "out.graph, out.budget, out.gadgets.json, out.forbidden, out.diagram\n",
        {
            ".graph": "e75431729cba0a4d693db77d82423c2465c92a17e2cb5edc0e09590a41b75f4e",
            ".budget": "0f3d5add13e3e2b7d1387d7790fe16545c72cdd3d4d27dd5175de4322fae192b",
            ".gadgets.json": "fdb67bfa18fcee727d92e6faebdd92e21383452105b907a0a699de5e99336ceb",
            ".forbidden": "82ea18d13ac646e276d126b34075cd2dcc662e64ac19e74d4e3010d185fa9a26",
            ".diagram": "52f59e277eb89b584d71491319a135b8a92fd68ca118b521f39123293b320821",
        },
    ),
    "daf": (
        "daf",
        GOLDEN_SEED_7["daf"][0],
        "daf: n=9 m=10 budget=1 -> out.graph, out.budget, out.gadgets.json\n",
        {
            ".graph": "4bf87358f64b6d5b56a39f0ecf8b570493f2050599d7409b32b30c1d79dc0e30",
            ".budget": "4355a46b19d348dc2f57c046f8ef63d4538ebb936000f3c9ee954a27460dd865",
            ".gadgets.json": "4f11b95c5ba572273e74a890225ce45504d42a97b284469f1ae66471fa34aa93",
        },
    ),
    "ds-circle-int": (
        "ds-circle",
        "d 0 1 0 2 1 2\nk 1\n",
        "ds-circle: n=2766 m=3749 budget=298 -> "
        "out.graph, out.budget, out.gadgets.json, out.forbidden, out.diagram\n",
        {
            ".graph": "25465e983653047e325682758711ab86036586c3bc2a84c8dbde077fdbf0e770",
            ".budget": "b68cad9cd8e420a3e041a1b00ea41d0b5ae935301d48473a5636b9d1decebee8",
            ".gadgets.json": "ea2c1e4a1e7f1175fe35709013e9512c13b7beea6b171c4c42e8e3609f2ddc7d",
            ".forbidden": "1aae4f7c6359b4b44c0e5327a6e21501989cefb48205a7a860aa0cded5282a01",
            ".diagram": "eb2ad54dacf8f64c348a0ff54e1a97677f4d3a5259c1321bd0944b18222e3d2b",
        },
    ),
    "rbds-isolated": (
        "rbds",
        "rbds 3 3 1\ne 0 0\ne 1 0\n",
        "rbds: n=787 m=3095 budget=8 -> out.graph, out.budget, out.gadgets.json\n",
        {
            ".graph": "e127912017e3bbdd75ef82a132e558fa6ead9ff7fe00b35f741ff76927bbcc07",
            ".budget": "aa67a169b0bba217aa0aa88a65346920c84c42447c36ba5f7ea65f422c1fe5d8",
            ".gadgets.json": "5c8d1ada3ef7f680c188dfdc401566db84c2842898abd03c7f41e6de7b742b2c",
        },
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_REDUCE))
def test_reduce_files_pinned(case, tmp_path, capsys):
    kind, text, out, digests = GOLDEN_REDUCE[case]
    src = tmp_path / "inst"
    src.write_text(text)
    assert run(capsys, "reduce", kind, str(src), "--out", str(tmp_path / "out"))[:2] == (0, out)
    written = {p.name[len("out"):]: p for p in tmp_path.glob("out.*")}
    assert set(written) == set(digests)
    for suffix, path in written.items():
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digests[suffix], suffix


@pytest.mark.parametrize("kind", sorted(GOLDEN_SEED_7))
def test_gadget_map_holds_the_target_graph(kind):
    red = REDUCTIONS[kind]
    target, gm, _ = red.compile(red.parse(GOLDEN_SEED_7[kind][0]))
    assert gm.graph is target.graph
    roles = json.loads(gm.to_json())["roles"]
    assert len(roles) == target.graph.n
    assert roles["0"]["kind"] == target.graph.tag(0).kind.value


# One bad --solution per kind: out of range, negative, unknown id or label.
BAD_SOLUTIONS = {"mrss": "7", "rbds": "-1", "vc": "9", "ds-circle": "zz", "daf": "0,3"}


@pytest.mark.parametrize("kind", sorted(BAD_SOLUTIONS))
def test_certify_rejects_bad_solution(kind, tmp_path, capsys):
    src = tmp_path / "inst"
    src.write_text(GOLDEN_SEED_7[kind][0])
    code, out, err = run(capsys, "certify", kind, str(src), "--solution", BAD_SOLUTIONS[kind])
    assert code == 2
    assert out == "" and err.startswith("error: ")


def test_forbidden_ids_out_of_range(tmp_path, capsys):
    f = tmp_path / "c4.graph"
    f.write_text(C4)
    code, _, err = run(capsys, "solve", str(f), "--budget", "2", "--forbidden", "9")
    assert code == 2 and "out of range" in err
    code, _, err = run(capsys, "check", str(f), "--set", "0,1", "--forbidden", "9")
    assert code == 2 and "out of range" in err
    code, _, _ = run(capsys, "check", str(f), "--set", "0,-1")
    assert code == 2


# A 24-digit budget: the compilers would size gadget families from it.  A
# budget this large cannot be represented as a list length, so a regression
# fails fast instead of allocating.
HUGE = "1" + "0" * 23
HUGE_BUDGETS = {
    "mrss": f"mrss 2 3 {HUGE}\n3 3\n2 1\n1 1\n1 2\n",
    "rbds": f"rbds 2 2 {HUGE}\ne 0 0\ne 1 0\ne 1 1\n",
    "vc": f"p da 3 2\ne 0 1\ne 1 2\nk {HUGE}\n",
    "daf": f"p da 2 0\nk {HUGE}\nf 0\n",
}


@pytest.mark.parametrize("command", ["reduce", "certify"])
@pytest.mark.parametrize("kind", sorted(HUGE_BUDGETS))
def test_budget_above_the_item_count_exits_2(kind, command, tmp_path, capsys):
    src = tmp_path / "inst"
    src.write_text(HUGE_BUDGETS[kind])
    extra = ["--out", str(tmp_path / "t")] if command == "reduce" else []
    code, out, err = run(capsys, command, kind, str(src), *extra)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "must be <= the number of" in err


def test_reduce_to_missing_directory_exits_2(tmp_path, capsys):
    src = tmp_path / "fig1.mrss"
    src.write_text("mrss 2 3 2\n3 3\n2 1\n1 1\n1 2\n")
    code, out, err = run(capsys, "reduce", "mrss", str(src), "--out", str(tmp_path / "nodir" / "x"))
    assert code == 2 and out == "" and err.startswith("error: cannot write ")


def test_gen_to_missing_directory_exits_2(tmp_path, capsys):
    code, out, err = run(capsys, "gen", "vc", "--out", str(tmp_path / "nodir" / "x"))
    assert code == 2 and out == "" and err.startswith("error: cannot write ")


def test_check_non_utf8_file_exits_2(tmp_path, capsys):
    f = tmp_path / "bad.graph"
    f.write_bytes(b"p da 1 0\n\xff\n")
    code, out, err = run(capsys, "check", str(f), "--set", "0")
    assert code == 2 and out == "" and err.startswith("error: cannot read ")


def test_reduce_ds_circle_double_dash_token_is_a_label(tmp_path, capsys):
    src = tmp_path / "dash.ds"
    src.write_text("d --1 --1\nk 1\n")
    code, out, _ = run(capsys, "reduce", "ds-circle", str(src), "--out", str(tmp_path / "dash"))
    assert code == 0 and out.startswith("ds-circle: ")


def test_kind_choices_come_from_the_registry():
    from alliancelib.cli import build_parser
    from alliancelib.harness import KINDS
    from alliancelib.kinds import REDUCTIONS

    assert KINDS == ("mrss", "rbds", "vc", "ds-circle", "daf") == tuple(REDUCTIONS)
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    for name in ("reduce", "certify", "equiv-test", "gen"):
        kind = next(a for a in sub.choices[name]._actions if a.dest == "kind")
        assert tuple(kind.choices) == KINDS
