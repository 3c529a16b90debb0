import hashlib
import json

from alliancelib.harness import (
    DEFAULT_SEED,
    KINDS,
    render_reports,
    run_equiv_test,
)


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
    two = run_equiv_test("rbds", count=20, seed=123)
    assert one == two
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
