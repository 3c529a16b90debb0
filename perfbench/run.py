"""alliancelib benchmark: runs one workload and prints its checked metrics.

    python3 perfbench/run.py --workload {compile,solve,equiv} --seed N \
        --seconds S --trace {0,1}

Each workload is a closed loop: one process at a time runs one unit of work
(``worker.py``) and the next unit starts when it has ended, so no unit
inherits another's heap.  Units run until ``--seconds`` have passed and a
workload's minimum of units is done.  Every output is checked; the last
stdout line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  ``--trace 0`` reports the end-to-end metrics, with times
scaled to a reference host speed (``calib.py``), ``--trace 1`` the per-layer
metrics of a run that pairs each unit with a traced twin.
"""

from __future__ import annotations

import argparse
import itertools
import json
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import calib
import corpus  # puts src/ on sys.path
import reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".perfbench_out"
RUN_LIMIT_S = 170  # every run must end within 180 s
START_LIMIT_S = 120  # no unit starts after this

END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p90_ms", "ms"),
    ("ops_per_s", "1/s"),
)
COMPILE_ITEMS = corpus.COMPILE_INSTANCES
CLASSES = ("yes", "no")
KINDS = ("mrss", "rbds", "vc", "ds-circle", "daf")


def per_layer_metrics() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit); each traced run reports all of
    them, with 0 for layers its workload leaves idle."""
    out = []
    for i in COMPILE_ITEMS:
        layers = ["reductions.parse_source"]
        if corpus.KIND_OF[i] == "ds-circle":
            layers += ["circle.ds_to_daf", "circle.write_diagram", "circle.crossing_pairs"]
        else:
            layers.append("reductions.compile")
        layers += ["graph.write_graph", "reductions.gadget_json", "cli.reduce_self",
                   "graph.parse_graph", "reductions.forward_certificate",
                   "alliances.is_defensive_alliance"]
        out += [(f"{layer}_pct.{i}", "%") for layer in layers]
        out += [(f"graph.graph_bytes.{i}", "bytes"),
                (f"reductions.gadget_json_bytes.{i}", "bytes"),
                (f"reductions.gadget_json_peak_mb.{i}", "MB"),
                (f"reductions.compile_peak_mb.{i}", "MB"),
                (f"graph.target_n.{i}", "count"),
                (f"graph.target_m.{i}", "count")]
    for c in CLASSES:
        out += [(f"{layer}_pct.{c}", "%") for layer in
                ("graph.parse_graph", "alliances.solve_da", "alliances.candidate_filter")]
        out.append((f"alliances.candidate_share.{c}", "ratio"))
    out.append(("alliances.optimum_over_budget.yes", "ratio"))
    for k in KINDS:
        compile_layer = "circle.ds_to_daf" if k == "ds-circle" else "reductions.compile"
        layers = ["harness.case", "generators.gen", "reductions.source_bruteforce", compile_layer]
        if k != "daf":
            layers.append("reductions.forward_certificate")
        layers.append("alliances.is_defensive_alliance")
        out += [(f"{layer}_pct.{k}", "%") for layer in layers]
        out += [(f"harness.{v}.{k}", "count") for v in ("forward_ok", "iff_ok", "skipped")]
    out.append(("alliances.brute_force_min_da_pct.daf-target", "%"))
    out.append(("trace.overhead_pct", "%"))
    return out


def quantile(values: list[float], q: int) -> float:
    """q-th percentile, linear between order statistics."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    """Spawns units one after another and collects their checked results."""

    def __init__(self, seconds: int) -> None:
        self.started = time.monotonic()
        self.deadline = self.started + seconds
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.checks: Counter[str] = Counter()

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        self.problems.append(problem)

    def spawn(self, job: dict) -> dict:
        job["t0"] = time.monotonic()
        timeout = max(1.0, RUN_LIMIT_S - (job["t0"] - self.started))
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER)], input=json.dumps(job), capture_output=True,
                text=True, cwd=ROOT, timeout=timeout,
            )
        except subprocess.TimeoutExpired:
            return {"failures": [f"{job['workload']} unit timed out"], "crashed": True}
        if proc.returncode != 0:
            tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
            return {"failures": [f"unit exited {proc.returncode}: {tail[0]}"], "crashed": True}
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def units(self, jobs, at_least: int, step: int = 1) -> list[tuple[dict, dict]]:
        """Run jobs until the deadline has passed and `at_least` have run,
        stopping only between groups of `step` jobs."""
        done = []
        for i, job in enumerate(jobs):
            now = time.monotonic()
            if i >= at_least and i % step == 0 and (
                now >= self.deadline or now - self.started > START_LIMIT_S
            ):
                break
            done.append((job, self.spawn(job)))
        return done


def _median_by(rows: list[tuple[object, float]]) -> dict:
    """Per key, the median of its repeats."""
    groups: dict = defaultdict(list)
    for key, value in rows:
        groups[key].append(value)
    return {key: statistics.median(values) for key, values in groups.items()}


def _end_to_end(units: list[dict], latencies: list[float]):
    """The end-to-end metrics, with times scaled to the reference speed (see
    calib.py), and the measured times for the report."""
    measured = {
        "setup_s": statistics.median(u["setup_s"] for u in units),
        "p90_ms": quantile(latencies, 90),
        "ops_per_s": len(latencies) * 1000 / sum(latencies),
    }
    scale = calib.scale(units)
    metrics = {
        "setup_s": measured["setup_s"] * scale,
        "peak_rss_mb": max(u["maxrss_mb"] for u in units),
        "p90_ms": measured["p90_ms"] * scale,
        "ops_per_s": measured["ops_per_s"] / scale,
    }
    report = [("measured.setup_s", measured["setup_s"], "s"),
              ("measured.p90_ms", measured["p90_ms"], "ms"),
              ("measured.ops_per_s", measured["ops_per_s"], "1/s"),
              ("speed_vs_reference", scale, "ratio"),
              ("operations", len(latencies), "count")]
    return metrics, scale, report


def _load(name: str) -> dict:
    return json.loads((HERE / "data" / name).read_text())


def _pairs(jobs, trace: bool):
    """With tracing, each job runs twice: plain, then traced."""
    for job in jobs:
        yield dict(job, trace=False)
        if trace:
            yield dict(job, trace=True)


# -- compile -----------------------------------------------------------------


def check_compile_unit(run: Run, stored: dict, first: dict, job: dict, res: dict) -> None:
    """Count one compile unit; it fails on any problem the unit reports and
    on emitted files that differ from the stored digests or an earlier unit."""
    name = job["instance"]
    run.attempted += 1
    problems = list(res["failures"])
    run.checks.update(res.get("checks", ()))
    if "digests" in res:
        run.checks.update(("stored digests", "repeat digests"))
        if res["digests"] != stored[name][str(job["variant"])]["digests"]:
            problems.append("emitted files differ from the stored digests")
        if first.setdefault(name, res["digests"]) != res["digests"]:
            problems.append("emitted files differ between runs")
    if problems:
        run.fail(1, f"{name}: " + "; ".join(problems))


def run_compile(run: Run, seed: int, trace: bool):
    variants = corpus.compile_variants(seed)
    stored = _load("compile_digests.json")
    jobs = (
        {"workload": "compile", "instance": name, "variant": variants.get(name, 0),
         "verify": rnd == 0 and not trace}
        for rnd in itertools.count()
        for name in COMPILE_ITEMS
    )
    # Untraced: two rounds at least, as one sample per instance is too noisy
    # on a shared machine.  Traced: one plain and one traced unit per instance.
    done = run.units(_pairs(jobs, trace), 2 * len(COMPILE_ITEMS), 2 if trace else 1)
    first_digests: dict[str, dict] = {}
    plain, traced = [], []
    for job, res in done:
        check_compile_unit(run, stored, first_digests, job, res)
        if "check_s" in res:
            (traced if job["trace"] else plain).append((job["instance"], res))

    measured = _median_by([(n, r["reduce_s"] + r["check_s"]) for n, r in plain])
    if set(measured) != set(COMPILE_ITEMS):
        return None, [], []
    if not trace:
        metrics, scale, report = _end_to_end([r for _, r in plain],
                                             [measured[i] * 1000 for i in COMPILE_ITEMS])
        reduce_s = _median_by([(n, r["reduce_s"] * scale) for n, r in plain])
        check_s = _median_by([(n, r["check_s"] * scale) for n, r in plain])
        out_b = _median_by([(n, r["out_bytes"]) for n, r in plain])
        report += [(f"reduce_s.{i}", reduce_s[i], "s") for i in COMPILE_ITEMS]
        report += [("reduce_out_mb", sum(out_b.values()) / 2**20, "MB"),
                   ("check_s", sum(check_s.values()), "s"),
                   ("repeats_per_instance", len(plain) // len(COMPILE_ITEMS), "count")]
        return metrics, report, []

    layers: dict[str, float] = {}
    base: dict[str, float] = defaultdict(float)
    sums: dict[tuple[str, str], float] = defaultdict(float)
    for name, res in traced:
        base[name] += res["reduce_s"] + res["check_s"]
        for layer, (incl, self_s, _) in res["totals"][name].items():
            sums[name, layer] += self_s if layer == "cli.reduce" else incl
        layers[f"graph.graph_bytes.{name}"] = res["graph_bytes"]
        layers[f"reductions.gadget_json_bytes.{name}"] = res["gadget_json_bytes"]
        layers[f"reductions.gadget_json_peak_mb.{name}"] = res["gadget_json_peak_mb"]
        layers[f"reductions.compile_peak_mb.{name}"] = res["compile_peak_mb"]
        layers[f"graph.target_n.{name}"] = res["target_n"]
        layers[f"graph.target_m.{name}"] = res["target_m"]
    report = []
    for (name, layer), secs in sorted(sums.items()):
        key = "cli.reduce_self" if layer == "cli.reduce" else layer
        layers[f"{key}_pct.{name}"] = 100 * secs / base[name]
        report.append((f"{key}_s.{name}", secs / sum(1 for n, _ in traced if n == name), "s"))
    traced_s = sum(base.values())
    plain_s = sum(measured[n] for n, _ in traced)
    layers["trace.overhead_pct"] = 100 * (traced_s - plain_s) / plain_s
    return layers, report, [r["spans"] for _, r in traced]


# -- solve -------------------------------------------------------------------


def check_solve_unit(run: Run, entries: list, optimum: list, witnesses: list) -> None:
    """Each witness against the reference: the verdict, the optimum size, and
    validity by the benchmark's own predicate, budget and forbidden set."""
    run.checks.update({"verdict": len(entries), "optimum and witness": len(entries)})
    for (n, edges, k, forbidden), opt, got in zip(entries, optimum, witnesses):
        if (got is None) != (opt is None):
            run.fail(1, f"verdict {'no' if got is None else 'yes'} != reference")
        elif got is not None and (
            len(got) != opt or len(got) > k or set(got) & set(forbidden)
            or not reference.is_alliance(reference.adjacency(n, edges), got)
        ):
            run.fail(1, f"witness {got} invalid or not of optimum size {opt}")


def run_solve(run: Run, seed: int, trace: bool):
    stored = _load("solve_reference.json")
    if stored["shapes"] != [list(s) for s in corpus.SOLVE_SHAPES]:
        raise SystemExit("error: stored solve reference does not match the solve shapes")
    picks = corpus.solve_picks(seed)
    optimum = [stored["optimum"][s][i] for s, i in picks]
    classes = ["no" if opt is None else "yes" for opt in optimum]
    entries = [corpus.solve_entry(s, i) for s, i in picks]
    job = {"workload": "solve", "picks": [[s, i, c] for (s, i), c in zip(picks, classes)]}
    done = run.units(_pairs(itertools.repeat(job), trace), 2 if trace else 1, 2 if trace else 1)
    plain, traced = [], []
    for job_, res in done:
        run.attempted += len(picks)
        if res.get("crashed"):
            run.fail(len(picks), res["failures"][0])
            continue
        check_solve_unit(run, entries, optimum, res["witnesses"])
        (traced if job_["trace"] else plain).append(res)

    if not trace:
        per_instance = [statistics.median(ms) for ms in zip(*(r["ms"] for r in plain))]
        metrics, scale, report = _end_to_end(plain, per_instance)
        report += [(f"solve_{c}.instances", classes.count(c), "count") for c in CLASSES]
        for c in CLASSES:
            mine = [ms * scale for ms, cls in zip(per_instance, classes) if cls == c]
            report += [(f"solve_{c}_p50_ms", quantile(mine, 50), "ms"),
                       (f"solve_{c}_p90_ms", quantile(mine, 90), "ms")]
        return metrics, report, []

    layers: dict[str, float] = {}
    report = []
    for c in CLASSES:
        totals = [r["totals"][c] for r in traced]
        base = sum(t["op"][0] for t in totals)
        for layer in ("graph.parse_graph", "alliances.solve_da", "alliances.candidate_filter"):
            secs = sum(t[layer][0] for t in totals)
            layers[f"{layer}_pct.{c}"] = 100 * secs / base
            report.append((f"{layer}_s.{c}", secs / len(traced), "s"))
        cand, verts = (sum(r["candidates"][c][j] for r in traced) for j in (0, 1))
        layers[f"alliances.candidate_share.{c}"] = cand / verts
    yes = [(opt, k) for opt, (_, _, k, _) in zip(optimum, entries) if opt is not None]
    layers["alliances.optimum_over_budget.yes"] = sum(o for o, _ in yes) / sum(k for _, k in yes)
    traced_s = sum(sum(r["ms"]) for r in traced)
    plain_s = sum(sum(r["ms"]) for r in plain) * len(traced) / len(plain)
    layers["trace.overhead_pct"] = 100 * (traced_s - plain_s) / plain_s
    return layers, report, [r["spans"] for r in traced]


# -- equiv -------------------------------------------------------------------


def run_equiv(run: Run, seed: int, trace: bool):
    stored = _load("equiv_tallies.json")
    counts = corpus.equiv_counts()
    if stored["counts"] != counts:
        raise SystemExit("error: stored harness tallies do not match the harness counts")
    hseeds = corpus.equiv_seeds(seed)
    jobs = ({"workload": "equiv", "harness_seed": h, "counts": counts, "crosscheck": i == 0}
            for i, h in enumerate(itertools.cycle(hseeds)))
    # Untraced: every harness seed once.  Traced: plain and traced pairs.
    done = run.units(_pairs(jobs, trace), 2 if trace else len(hseeds), 2 if trace else 1)
    rows, plain, traced, mixes = [], [], [], {}
    for job, res in done:
        run.attempted += sum(counts.values())
        if res.get("crashed"):
            run.fail(sum(counts.values()), res["failures"][0])
            continue
        want = stored["tallies"][str(job["harness_seed"])]
        found = res["rewalk_tallies" if job["trace"] else "tallies"]
        run.checks.update({"harness failures": 5, "verdict mix": 5})
        if "harness_tallies" in res:
            run.checks["run_equiv_test tallies"] += 5
        for kind in KINDS:
            if found[kind]["failures"]:
                run.fail(found[kind]["failures"], f"{kind}: harness reports failures")
            if found[kind] != want[kind]:
                run.fail(1, f"{kind}: verdict mix {found[kind]} != recorded {want[kind]}")
            checked = res.get("harness_tallies", {}).get(kind)
            if checked is not None and checked != found[kind]:
                run.fail(1, f"{kind}: run_equiv_test tallies {checked} != {found[kind]}")
        if job["trace"]:
            traced.append(res)
        else:
            plain.append(res)
            mixes[job["harness_seed"]] = found
            rows += [((job["harness_seed"], k, i), ms)
                     for k in KINDS for i, ms in enumerate(res["ms"][k])]

    per_case = _median_by(rows)
    if not trace:
        metrics, _, report = _end_to_end(plain, list(per_case.values()))
        report += [("equiv_cases_per_s", metrics["ops_per_s"], "1/s"),
                  ("harness_seeds", " ".join(map(str, sorted(mixes))), "")]
        for k in KINDS:
            mix = {v: sum(m[k][v] for m in mixes.values()) for v in corpus.TALLY_KEYS}
            report.append((f"verdicts.{k}", json.dumps(mix), ""))
        return metrics, report, []

    layers: dict[str, float] = {}
    report = []
    all_ms = sum(per_case.values())
    for k in KINDS:
        mine = [ms for (_, kind, _), ms in per_case.items() if kind == k]
        layers[f"harness.case_pct.{k}"] = 100 * sum(mine) / all_ms
        report.append((f"harness.case_ms.{k}", statistics.mean(mine), "ms"))
        totals = [r["totals"][k] for r in traced]
        base = sum(t["op"][0] for t in totals)
        for layer in ("generators.gen", "reductions.source_bruteforce", "reductions.compile",
                      "circle.ds_to_daf", "reductions.forward_certificate",
                      "alliances.is_defensive_alliance", "alliances.brute_force_min_da"):
            secs = sum(t.get(layer, (0.0,))[0] for t in totals)
            target = "-target" if layer == "alliances.brute_force_min_da" else ""
            layers[f"{layer}_pct.{k}{target}"] = 100 * secs / base
            if secs:
                report.append((f"{layer}_s.{k}", secs / len(traced), "s"))
        for v in ("forward_ok", "iff_ok", "skipped"):
            layers[f"harness.{v}.{k}"] = sum(r["rewalk_tallies"][k][v] for r in traced)
    traced_s = sum(t["op"][0] for r in traced for t in r["totals"].values())
    plain_s = all_ms / 1000
    layers["trace.overhead_pct"] = 100 * (traced_s - plain_s) / plain_s
    return layers, report, [r["spans"] for r in traced]


PER_LAYER = dict(per_layer_metrics())
WORKLOADS = {"compile": run_compile, "solve": run_solve, "equiv": run_equiv}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "alliancelib" / "__init__.py").is_file():
        print(f"error: no alliancelib sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run = Run(args.seconds)
    values, report, spans = WORKLOADS[args.workload](run, args.seed, bool(args.trace))
    for problem in run.problems[:20]:
        print(f"FAILED: {problem}", file=sys.stderr)
    if values is None:
        print("error: not every compile instance produced a timing", file=sys.stderr)
        return 1
    names = PER_LAYER if args.trace else dict(END_TO_END)
    metrics = {name: {"value": values.get(name, 0), "unit": unit} for name, unit in names.items()}
    if args.trace:
        OUT.mkdir(exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-{args.seed}.json"
        trace_file.write_text(json.dumps({"span_fields": ["name", "start", "end", "parent", "item"],
                                          "units": spans}))
        report.append(("trace_file", str(trace_file.relative_to(ROOT)), ""))
    report.append(("fail_share", run.failed / max(run.attempted, 1), "ratio"))
    report += [(f"checks.{name.replace(' ', '_')}", count, "count")
               for name, count in sorted(run.checks.items())]
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    for name, value, unit in report:
        shown = f"{value:.6g}" if isinstance(value, float) else value
        print(f"{name} {shown} {unit}".rstrip())
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
