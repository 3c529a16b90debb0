import dataclasses
import gc
import hashlib
import json
import random

import pytest

from alliancelib import harness
from alliancelib.alliances import certifies
from alliancelib.cli import main
from alliancelib.graph import Family, RoleKind
from alliancelib.harness import (
    DEFAULT_MAX_N,
    DEFAULT_SEED,
    KINDS,
    render_reports,
    run_equiv_case,
    run_equiv_test,
)
from alliancelib.kinds import REDUCTIONS


@pytest.fixture(autouse=True)
def cold_memo():
    # Every test starts with no decided source, so none reads another's.
    harness._memo.clear()
    yield
    harness._memo.clear()


def test_all_kinds_zero_failures_small():
    for kind in KINDS:
        reports, summary = run_equiv_test(kind, count=15)
        assert summary.failures == 0, kind
        assert summary.cases == 15
        assert all(r.kind == kind for r in reports)


# sha256 of the default-seed JSON stream of each kind, recorded before the
# kinds moved into one registry: the stream must stay byte-identical.
DEFAULT_STREAM_SHA256 = {
    "mrss": "c23c39a53eae40ff8d16139f282379f5e13e5e0a6140b9701edf56cd341e57fc",
    "rbds": "895f00ec8adf4778cc097adbcb3e73236b907172e6c824ab4fa094ca0b1809a2",
    "vc": "4ef448f7c1883c2592cc6b7e7ff3adbdf2027c12c9ee82a7e2c70bed3d9d129b",
    "ds-circle": "159935fc47b4d9c20756c3a460b4a4596e068bd3ac3280462db5afda8c0ccf49",
    "daf": "fc978282b57a5a0b3c8ad25fa3a66c83f86d01ce221fe4a91ee04131dc670cab",
}


def test_headline_gate_default_seeds_zero_failures():
    # the shipped defaults (seed, counts, bounds) must come back clean
    for kind in KINDS:
        reports, summary = run_equiv_test(kind)
        stream = render_reports(reports, summary, "json").encode()
        assert hashlib.sha256(stream).hexdigest() == DEFAULT_STREAM_SHA256[kind], kind
        assert summary.seed == DEFAULT_SEED
        assert summary.failures == 0, summary.text()
        if kind == "daf":
            assert summary.iff_ok == summary.cases == 200
        if kind == "vc":
            assert summary.forward_ok == summary.cases == 100


def test_daf_kind_runs_full_iff():
    reports, summary = run_equiv_test("daf", count=60)
    assert summary.failures == 0
    # generator keeps targets inside the brute-force guard, so every case
    # resolves to a full iff verdict
    assert summary.iff_ok == 60
    assert any(r.source_answer for r in reports)
    assert any(not r.source_answer for r in reports)


def test_report_stream_is_deterministic():
    one = run_equiv_test("rbds", count=20, seed=123)
    harness._memo.clear()
    two = run_equiv_test("rbds", count=20, seed=123)
    assert one == two
    # a warm rerun reads every report from the memo and must agree too
    assert run_equiv_test("rbds", count=20, seed=123) == one
    other = run_equiv_test("rbds", count=20, seed=124)
    assert other != one


def test_render_formats():
    reports, summary = run_equiv_test("vc", count=5)
    text = render_reports(reports, summary, "text")
    assert text.count("case=") == 5
    assert "failures=0" in text
    blob = render_reports(reports, summary, "json")
    lines = blob.strip().splitlines()
    assert len(lines) == 6
    assert json.loads(lines[-1])["seed"] == DEFAULT_SEED


def _cli_verdicts(capsys, kind, count):
    code = main(["equiv-test", kind, "--count", str(count)])
    lines = capsys.readouterr().out.splitlines()
    return code, [line.rsplit("verdict=", 1)[1] for line in lines[:-1]], lines[-1]


def test_forward_fail_verdict(monkeypatch, capsys):
    # A forward map that returns the empty set certifies nothing, so every
    # source yes-instance fails forward; source no-instances are still skipped.
    broken = dataclasses.replace(REDUCTIONS["rbds"], forward=lambda gm, sol: frozenset())
    monkeypatch.setitem(REDUCTIONS, "rbds", broken)
    reports, summary = run_equiv_test("rbds", count=30)
    yes = [r for r in reports if r.source_answer]
    assert yes and len(yes) < len(reports)
    for r in reports:
        want = "forward-fail" if r.source_answer else "skipped-too-large"
        assert r.verdict == want and f"verdict={want}" in r.text()
    assert all(r.certificate_valid is False for r in yes)
    assert summary.failures == len(yes) and summary.forward_ok == 0
    code, verdicts, last = _cli_verdicts(capsys, "rbds", 30)
    assert code == 1 and verdicts == [r.verdict for r in reports]
    assert last == summary.text()


def test_iff_fail_verdict(monkeypatch, capsys):
    # A source oracle that always answers no disagrees with the target on
    # every case whose target has an alliance.
    broken = dataclasses.replace(REDUCTIONS["daf"], solve_source=lambda inst: None)
    monkeypatch.setitem(REDUCTIONS, "daf", broken)
    reports, summary = run_equiv_test("daf", count=40)
    assert any(r.target_answer for r in reports) and not all(r.target_answer for r in reports)
    for r in reports:
        want = "iff-fail" if r.target_answer else "iff-ok"
        assert r.verdict == want and f"verdict={want}" in r.text()
    assert summary.failures == sum(r.target_answer for r in reports)
    code, verdicts, last = _cli_verdicts(capsys, "daf", 40)
    assert code == 1 and verdicts == [r.verdict for r in reports]
    assert last == summary.text()


def _boom(inst):
    raise RuntimeError("compile failed")


@pytest.mark.parametrize("enabled", [True, False])
def test_case_restores_collector(monkeypatch, enabled):
    # A case pauses the cyclic collector only if it was on, and leaves it as
    # it found it, also when the case raises.
    broken = dataclasses.replace(REDUCTIONS["vc"], compile=_boom)
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        run_equiv_case("vc", 0, random.Random(DEFAULT_SEED), DEFAULT_MAX_N["vc"])
        assert gc.isenabled() is enabled
        monkeypatch.setitem(REDUCTIONS, "vc", broken)
        with pytest.raises(RuntimeError, match="compile failed"):
            run_equiv_case("vc", 0, random.Random(DEFAULT_SEED), DEFAULT_MAX_N["vc"])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_paused_cases_leave_no_cycles():
    # The pause is sound only while targets and gadget maps hold no reference
    # cycle: reference counting must free everything a case made.  A cycle
    # added later would pile up under the pause and fail here first.
    was = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for kind in KINDS:
            rng = random.Random(DEFAULT_SEED)
            for case in range(5):
                harness._memo.clear()  # so every case builds its target
                run_equiv_case(kind, case, rng, DEFAULT_MAX_N[kind])
        assert gc.collect() == 0
    finally:
        if was:
            gc.enable()


def test_mrss_cases_leave_the_pendant_joins_owed(monkeypatch):
    # A case's forward check reads only the certificate members' neighbour
    # sets, and no member hosts a pendant: no square's set, and neither t's
    # nor t''s, is built in the whole run, and their pendant joins stay in
    # the records.  Every set is built from its family's shared set, so a
    # spy on `Family.shared` sees the family of every set built; a step that
    # reads the whole graph builds the squares' sets and fails here.
    targets, built = [], []
    shared = Family.shared

    def spy_certifies(target, cert):
        targets.append(target.graph)
        return certifies(target, cert)

    def spy_shared(fam):
        built.append(fam.kind)
        return shared(fam)

    monkeypatch.setattr(harness, "certifies", spy_certifies)
    monkeypatch.setattr(Family, "shared", spy_shared)
    monkeypatch.setattr(harness, "_memo", {})
    _, summary = run_equiv_test("mrss")
    assert summary.forward_ok == 10 and len(targets) == 7  # 3 repeat a source
    assert RoleKind.HUB_H in built  # the spy sees the members' sets
    assert not {RoleKind.SQUARE, RoleKind.T_VERTEX} & set(built)
    for g in targets:
        hubs = [f.hosts for f in g.families() if f.kind is RoleKind.T_VERTEX]
        assert len(hubs) == 2 and all(type(hosts) is range for hosts in hubs)


def _counting(kind):
    """`kind`'s record, built once, with a compile that counts its calls."""
    calls = []
    red = REDUCTIONS[kind]

    def compile_(inst):
        calls.append(inst)
        return red.compile(inst)

    return dataclasses.replace(red, compile=compile_), calls


def test_memo_repeated_source_decided_once(monkeypatch):
    # Two cases drawn from equal rng states draw the same source: the second
    # gets the first report with its own case number, and nothing compiles.
    counted, calls = _counting("daf")
    monkeypatch.setitem(REDUCTIONS, "daf", counted)
    first = run_equiv_case("daf", 0, random.Random(DEFAULT_SEED), DEFAULT_MAX_N["daf"])
    again = run_equiv_case("daf", 7, random.Random(DEFAULT_SEED), DEFAULT_MAX_N["daf"])
    assert len(calls) == 1
    assert again.case == 7 and again == dataclasses.replace(first, case=7)
    assert first.verdict == "iff-ok"


def _first_yes(kind):
    rng = random.Random(DEFAULT_SEED)
    while not (report := run_equiv_case(kind, 0, rng, DEFAULT_MAX_N[kind])).source_answer:
        pass
    return report


def test_memo_keyed_on_the_record(monkeypatch):
    # A record swapped in for a kind decides its sources itself, though the
    # registered record already decided the same texts.
    good = _first_yes("rbds")
    assert good.verdict == "forward-ok"
    counted, calls = _counting("rbds")
    broken = dataclasses.replace(counted, forward=lambda gm, sol: frozenset())
    monkeypatch.setitem(REDUCTIONS, "rbds", broken)
    bad = _first_yes("rbds")
    assert bad.digest == good.digest and bad.verdict == "forward-fail"
    assert len(calls) == 1


def test_memo_stores_nothing_when_a_case_raises(monkeypatch):
    broken = dataclasses.replace(REDUCTIONS["vc"], compile=_boom)
    monkeypatch.setitem(REDUCTIONS, "vc", broken)
    for _ in range(2):
        with pytest.raises(RuntimeError, match="compile failed"):
            run_equiv_case("vc", 0, random.Random(DEFAULT_SEED), DEFAULT_MAX_N["vc"])
    assert not harness._memo


def test_memo_stays_under_its_cap(monkeypatch):
    monkeypatch.setattr(harness, "MEMO_CAP", 3)
    seen = set()
    for seed in range(10):
        report = run_equiv_case("daf", 0, random.Random(seed), DEFAULT_MAX_N["daf"])
        seen.add(report.digest)
        assert 1 <= len(harness._memo) <= 3
    assert len(seen) == 10


def test_memo_keeps_the_rng_stream():
    # Draw runs on every case, hit or miss, so the rng ends where a cold
    # run leaves it and later cases draw the same sources.
    for kind in KINDS:
        states = []
        for _ in range(2):  # cold, then warm
            rng = random.Random(DEFAULT_SEED)
            for case in range(20):
                run_equiv_case(kind, case, rng, DEFAULT_MAX_N[kind])
            states.append(rng.getstate())
        assert states[0] == states[1], kind
