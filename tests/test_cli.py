import json

import pytest

from alliancelib.cli import main
from alliancelib.graph import parse_graph


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
