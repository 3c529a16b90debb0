"""Tests of the benchmark itself: its checks catch what they must.

    python3 -m pytest perfbench/tests -q

The short passes below take about a minute; they run every workload once on
a seed other than the one used while the benchmark was written.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402

from alliancelib.alliances import DAInstance, solve_da  # noqa: E402
from alliancelib.graph import build_graph  # noqa: E402


def test_flipped_byte_in_an_emitted_graph_fails_the_operation(monkeypatch):
    write_graph = worker.cli.write_graph

    def flipped(g):
        text = write_graph(g)
        i = text.index("\ne ") + 3  # first digit of the first edge
        return text[:i] + ("2" if text[i] == "1" else "1") + text[i + 1 :]

    monkeypatch.setattr(worker.cli, "write_graph", flipped)
    job = {"workload": "compile", "instance": "fig1", "variant": 0, "verify": True,
           "t0": time.monotonic()}
    res = worker.run_compile(job, None)
    r = run.Run(0)
    run.check_compile_unit(r, run._load("compile_digests.json"), {}, job, res)
    assert (r.attempted, r.failed) == (1, 1)
    assert "differ from the stored digests" in r.problems[0]


def _solved(picks):
    entries = [corpus.solve_entry(s, i) for s, i in picks]
    witnesses = []
    for n, edges, k, forbidden in entries:
        found = solve_da(DAInstance(build_graph(n, edges), k), forbidden)
        witnesses.append(None if found is None else list(found.vertices))
    return entries, witnesses


def test_wrong_reference_verdict_fails_the_operation():
    picks = corpus.solve_picks(7)[:8]
    entries, witnesses = _solved(picks)
    stored = run._load("solve_reference.json")["optimum"]
    optimum = [stored[s][i] for s, i in picks]
    r = run.Run(0)
    run.check_solve_unit(r, entries, optimum, witnesses)
    assert r.failed == 0
    optimum[0] = 1 if optimum[0] is None else None
    r = run.Run(0)
    run.check_solve_unit(r, entries, optimum, witnesses)
    assert r.failed == 1


def test_stored_solve_reference_matches_the_milp():
    stored = run._load("solve_reference.json")["optimum"]
    for shape in range(len(corpus.SOLVE_SHAPES)):
        for index in (0, corpus.SOLVE_POOL - 1):
            n, edges, k, forbidden = corpus.solve_entry(shape, index)
            assert reference.milp_min_alliance(n, edges, k, forbidden) == stored[shape][index]


CHECKS = {
    "compile": {"reduce exit code", "check verdict", "certificate budget", "reference predicate",
                "parsed-back graph", "stored digests", "repeat digests"},
    "solve": {"verdict", "optimum and witness"},
    "equiv": {"harness failures", "verdict mix", "run_equiv_test tallies"},
}


def test_short_pass_on_a_second_seed_runs_every_check(capsys):
    for workload, checks in CHECKS.items():
        assert run.main(["--workload", workload, "--seed", "2", "--seconds", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        result = json.loads(out[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) == {name for name, _ in run.END_TO_END}
        counted = {line.split()[0] for line in out if line.startswith("checks.")}
        assert counted == {"checks." + c.replace(" ", "_") for c in checks}, workload


def test_workloads_record_why_and_input_properties():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert all(w["why"] and "\n" not in w["why"] for w in bench["workloads"])
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == run.per_layer_metrics()
    recorded = json.loads((corpus.DATA / "workloads.json").read_text())
    assert recorded == json.loads(json.dumps(reference.workload_properties()))
    assert set(recorded) == set(run.WORKLOADS)
