"""One benchmark unit in a fresh process, so no unit inherits another's heap.

Run by ``run.py`` as ``python3 perfbench/worker.py`` with a JSON job on
stdin; prints one JSON result line.  A unit is one compile instance, one pass
over the solve instances, or one pass of the harness over all five kinds.
With ``"trace": true`` the unit records spans around its calls into
alliancelib; such a unit is never used for end-to-end numbers.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import shutil
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import calib
import corpus  # noqa: E402  (puts src/ on sys.path)
import reference
from spans import Tracer

from alliancelib import alliances, circle, cli, generators, harness, reductions
from alliancelib.alliances import DAInstance, brute_force_min_da, is_defensive_alliance
from alliancelib.graph import parse_graph

WORK = corpus.ROOT / ".perfbench_work"
TARGET_BRUTE_LIMIT = 20  # the harness brute-forces daf targets up to this order
SEGMENT_S = 2.0  # seconds of short operations between calibrations


def _maxrss_mb() -> float:
    """Peak resident memory less the file-backed pages (interpreter and
    library text): on a shared host their share of RSS flips by megabytes
    from run to run, which is noise, not memory the workload uses."""
    try:
        status = dict(
            line.split(":", 1) for line in Path("/proc/self/status").read_text().splitlines()
        )
        return (int(status["VmHWM"].split()[0]) - int(status["RssFile"].split()[0])) / 1024
    except (OSError, KeyError, ValueError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _no_span(name: str, item: str | None = None):
    return nullcontext()


def _cli(argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


# -- compile -----------------------------------------------------------------

PARSE = {
    "mrss": reductions.parse_mrss,
    "rbds": reductions.parse_rbds,
    "vc": reductions.parse_vc,
    "ds-circle": circle.parse_ds_instance,
}
COMPILE = {
    "mrss": reductions.mrss_to_da,
    "rbds": reductions.rbds_to_da,
    "vc": reductions.vc_to_da,
    "ds-circle": lambda inst: (lambda daf, _, gm: (daf, gm))(*circle.ds_to_daf(inst)),
}
FORWARD = {
    "mrss": reductions.mrss_forward_certificate,
    "rbds": reductions.rbds_forward_certificate,
    "vc": reductions.vc_forward_certificate,
    "ds-circle": circle.ds_forward_certificate,
}
CLI_LAYERS = (
    ("parse_mrss", "reductions.parse_source"),
    ("parse_rbds", "reductions.parse_source"),
    ("parse_vc", "reductions.parse_source"),
    ("parse_ds_instance", "reductions.parse_source"),
    ("mrss_to_da", "reductions.compile"),
    ("rbds_to_da", "reductions.compile"),
    ("vc_to_da", "reductions.compile"),
    ("ds_to_daf", "circle.ds_to_daf"),
    ("write_graph", "graph.write_graph"),
    ("write_diagram", "circle.write_diagram"),
    ("parse_graph", "graph.parse_graph"),
    ("is_defensive_alliance", "alliances.is_defensive_alliance"),
)


def _budget(inst) -> int:
    return inst.r if hasattr(inst, "r") else inst.k


def _verify_compile(kind, text, parsed, cert, forbidden, budget) -> list[str]:
    """Checks beyond the digests: the graph `check` parsed back equals a fresh
    in-process compile, and the certificate is an alliance in it by the
    benchmark's own predicate."""
    problems = []
    inst = COMPILE[kind](PARSE[kind](text))[0]
    g = inst.graph
    if _budget(inst) != budget:
        problems.append(f"emitted budget {budget} != compiled {_budget(inst)}")
    if parsed.n != g.n or any(
        parsed.neighbors(v) != g.neighbors(v) or parsed.tag(v).kind is not g.tag(v).kind
        for v in g.vertices()
    ):
        problems.append("parsed-back graph differs from the compiled graph")
    elif not reference.is_alliance([g.neighbors(v) for v in g.vertices()], cert):
        problems.append("certificate fails the reference predicate")
    if set(cert) & set(forbidden):
        problems.append("certificate holds a forbidden vertex")
    return problems


def run_compile(job: dict, tracer: Tracer | None) -> dict:
    name, verify = job["instance"], job["verify"]
    kind = corpus.KIND_OF[name]
    text, solution = corpus.compile_source(name, job["variant"])
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=WORK))
    src, prefix = work / "source", work / "out"
    src.write_text(text)
    span = tracer.span if tracer else _no_span
    original_to_json = reductions.GadgetMap.to_json
    parsed = []
    if verify:  # keep the graph `check` parses, for the parse-back check
        parse = cli.parse_graph
        cli.parse_graph = lambda text: parsed.append(parse(text)) or parsed[-1]
    if tracer:
        for attr, layer in CLI_LAYERS:
            tracer.wrap(cli, attr, layer)
        tracer.wrap(reductions.GadgetMap, "to_json", "reductions.gadget_json")
    result: dict = {"setup_s": time.monotonic() - job["t0"], "failures": []}
    fail = result["failures"].append
    result["checks"] = ["reduce exit code", "check verdict", "certificate budget"]
    clock = calib.Clock()
    try:
        start = perf_counter()
        with span("cli.reduce", name):
            rc, _ = _cli(["reduce", kind, str(src), "--out", str(prefix)])
        result["reduce_s"] = perf_counter() - start
        if rc != 0:
            fail(f"reduce exited {rc}")
            return result
        result["digests"] = reference.emitted_digests(prefix)
        files = {suffix: Path(str(prefix) + suffix) for suffix in result["digests"]}
        result["out_bytes"] = sum(path.stat().st_size for path in files.values())
        result["graph_bytes"] = files[".graph"].stat().st_size
        result["gadget_json_bytes"] = files[".gadgets.json"].stat().st_size
        budget = int(files[".budget"].read_text())
        forbidden = files[".forbidden"].read_text().split() if ".forbidden" in files else []
        families = json.loads(files[".gadgets.json"].read_text())["families"]
        with span("reductions.forward_certificate", name):
            cert = FORWARD[kind](reductions.GadgetMap(kind, {}, families), solution)
        argv = ["check", str(files[".graph"]), "--set", ",".join(map(str, sorted(cert)))]
        if forbidden:
            argv += ["--forbidden", ",".join(forbidden)]
        start = perf_counter()
        with span("cli.check", name):
            rc, out = _cli(argv)
        result["check_s"] = perf_counter() - start
        clock.tick()
        result["kernel_s"] = clock.kernel_s
        if rc != 0 or not out.rstrip().endswith("verdict: defensive alliance"):
            fail(f"check rejected the forward certificate (exit {rc})")
        if len(cert) > budget:
            fail(f"certificate size {len(cert)} over budget {budget}")
        result["maxrss_mb"] = _maxrss_mb()
        if tracer:
            if kind == "ds-circle":
                diagram = circle.parse_diagram(files[".diagram"].read_text())
                with span("circle.crossing_pairs", name):
                    sum(1 for _ in circle.crossing_pairs(diagram.labels))
            _memory_pass(kind, text, original_to_json, result)
        if verify and rc == 0:
            result["checks"] += ["reference predicate", "parsed-back graph"]
            result["failures"] += _verify_compile(
                kind, text, parsed[0], cert, map(int, forbidden), budget
            )
    finally:
        shutil.rmtree(work)
    return result


def _memory_pass(kind, text, to_json, result) -> None:
    """tracemalloc peaks of the compiler and of the gadget JSON encoder."""
    import tracemalloc

    inst = PARSE[kind](text)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        target, gm = COMPILE[kind](inst)
        result["compile_peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        to_json(gm)
        result["gadget_json_peak_mb"] = (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()
    result["target_n"], result["target_m"] = target.graph.n, target.graph.m


# -- solve -------------------------------------------------------------------


def run_solve(job: dict, tracer: Tracer | None) -> dict:
    cases = []
    for shape, index, cls in job["picks"]:
        n, edges, k, forbidden = corpus.solve_entry(shape, index)
        cases.append((corpus.solve_text(n, edges), k, forbidden, cls, n))
    candidates: list[int] = []
    if tracer:
        tracer.wrap(alliances, "candidate_filter", "alliances.candidate_filter",
                    lambda found: candidates.append(len(found)))
    span = tracer.span if tracer else _no_span
    result: dict = {"setup_s": time.monotonic() - job["t0"], "failures": []}
    clock = calib.Clock(SEGMENT_S)
    ms, witnesses, filtered = [], [], {}
    for text, k, forbidden, cls, n in cases:
        start = perf_counter()
        with span("op", cls):
            with span("graph.parse_graph"):
                g = parse_graph(text)
            with span("alliances.solve_da"):
                found = alliances.solve_da(DAInstance(g, k), forbidden)
        ms.append((perf_counter() - start) * 1000)
        clock.tick()
        witnesses.append(None if found is None else list(found.vertices))
        if tracer:
            row = filtered.setdefault(cls, [0, 0])
            row[0] += candidates.pop()
            row[1] += n
    clock.close()
    result.update(ms=ms, kernel_s=clock.kernel_s, witnesses=witnesses, candidates=filtered)
    return result


# -- equiv -------------------------------------------------------------------


def _timed_cases(seed: int, counts: dict[str, int], clock: calib.Clock) -> tuple[dict, dict]:
    """Every harness case through harness.run_equiv_case, timed one by one."""
    ms, verdicts = {}, {}
    for kind in harness.KINDS:
        rng = random.Random(seed)
        max_n = harness.DEFAULT_MAX_N[kind]
        ms[kind], verdicts[kind] = [], []
        for case in range(counts[kind]):
            start = perf_counter()
            report = harness.run_equiv_case(kind, case, rng, max_n)
            ms[kind].append((perf_counter() - start) * 1000)
            clock.tick()
            verdicts[kind].append(report.verdict)
    clock.close()
    return ms, verdicts


def _tally(verdicts: list[str]) -> dict[str, int]:
    return {
        "cases": len(verdicts),
        "forward_ok": verdicts.count("forward-ok"),
        "iff_ok": verdicts.count("iff-ok"),
        "skipped": verdicts.count("skipped-too-large"),
        "failures": verdicts.count("forward-fail") + verdicts.count("iff-fail"),
    }


SOURCE = {
    "mrss": (lambda rng, n: generators.gen_mrss(rng, max_vectors=n),
             reductions.write_mrss, reductions.solve_mrss_bruteforce),
    "rbds": (lambda rng, n: generators.gen_rbds(rng, max_terminals=n, max_sources=n),
             reductions.write_rbds, reductions.solve_rbds_bruteforce),
    "vc": (lambda rng, n: generators.gen_vc(rng, max_n=n),
           reductions.write_vc, reductions.solve_vc_bruteforce),
    "ds-circle": (lambda rng, n: generators.gen_ds_circle(rng, max_chords=n),
                  circle.write_ds_instance, circle.solve_ds_bruteforce),
}


def _rewalk_case(kind: str, rng: random.Random, max_n: int, span) -> str:
    """One harness case again, through the public functions it calls."""
    if kind == "daf":
        with span("generators.gen"):
            inst = generators.gen_daf(rng, max_n=max_n)
        with span("reductions.write_source"):
            reductions.write_daf(inst)
        with span("reductions.source_bruteforce"):
            src = brute_force_min_da(inst.graph, forbidden=inst.forbidden, max_size=inst.r)
        with span("reductions.compile"):
            da, _ = reductions.daf_to_da(inst)
        valid = None
        if src is not None:
            with span("alliances.is_defensive_alliance"):
                valid = len(src.vertices) <= da.k and is_defensive_alliance(da.graph, src.as_set)
            if not valid:
                return "forward-fail"
        if da.graph.n > TARGET_BRUTE_LIMIT:
            return "skipped-too-large" if src is None else "forward-ok"
        with span("alliances.brute_force_min_da"):
            tgt = brute_force_min_da(da.graph, max_size=da.k)
        return "iff-ok" if (src is None) == (tgt is None) else "iff-fail"

    gen, write, solve = SOURCE[kind]
    with span("generators.gen"):
        inst = gen(rng, max_n)
    with span("reductions.write_source"):
        write(inst)
    with span("reductions.source_bruteforce"):
        sol = solve(inst)
    if sol is None:
        return "skipped-too-large"
    if kind == "ds-circle":
        with span("circle.ds_to_daf"):
            daf, _, gm = circle.ds_to_daf(inst)
        with span("reductions.forward_certificate"):
            cert = circle.ds_forward_certificate(gm, sol)
        with span("alliances.is_defensive_alliance"):
            valid = alliances.is_daf_feasible(daf, cert)
    else:
        with span("reductions.compile"):
            da, gm = COMPILE[kind](inst)
        with span("reductions.forward_certificate"):
            cert = FORWARD[kind](gm, sol)
        with span("alliances.is_defensive_alliance"):
            valid = len(cert) <= da.k and is_defensive_alliance(da.graph, cert)
    return "forward-ok" if valid else "forward-fail"


def run_equiv(job: dict, tracer: Tracer | None) -> dict:
    seed, counts = job["harness_seed"], job["counts"]
    result: dict = {"setup_s": time.monotonic() - job["t0"], "failures": []}
    if tracer:
        rewalk = {}
        for kind in harness.KINDS:
            rng = random.Random(seed)
            found = []
            for _ in range(counts[kind]):
                with tracer.span("op", kind):
                    found.append(_rewalk_case(kind, rng, harness.DEFAULT_MAX_N[kind], tracer.span))
            rewalk[kind] = _tally(found)
        result["rewalk_tallies"] = rewalk
    else:
        clock = calib.Clock(SEGMENT_S)
        ms, verdicts = _timed_cases(seed, counts, clock)
        result["ms"] = ms
        result["kernel_s"] = clock.kernel_s
        result["tallies"] = {kind: _tally(v) for kind, v in verdicts.items()}
    if tracer or job["crosscheck"]:
        result["harness_tallies"] = {
            kind: corpus.tally(harness.run_equiv_test(kind, count=counts[kind], seed=seed)[1])
            for kind in harness.KINDS
        }
    return result


def main() -> int:
    job = json.loads(sys.stdin.read())
    tracer = Tracer() if job["trace"] else None
    run = {"compile": run_compile, "solve": run_solve, "equiv": run_equiv}[job["workload"]]
    result = run(job, tracer)
    result.setdefault("maxrss_mb", _maxrss_mb())
    if tracer:
        result["totals"] = tracer.totals()
        result["spans"] = tracer.spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
