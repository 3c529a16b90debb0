"""`.graph` files by the layer: write, parse and `alliance check` per item.

    python3 bench/bench_files.py --label change   # add or replace row "change" in BENCH_files.json
    python3 bench/bench_files.py --check          # one repeat, no file written; exit 1 unless
                                                  # every item's text reads back to the same bytes

Items: the four compile instances of perfbench (`fig1`, variant 0 of
`rbds-15`, `vc-150` and `ds-12`) and `mrss-616k`, the MRSS target of five
copies of (4,3,2) with target (6,6,6), k = 3 and k' = 3 (616,440 vertices).
Per item it records n, m, the best of `--repeats` seconds of `write_graph`,
`parse_graph` and an in-process `alliance check` of the forward certificate,
the tracemalloc peak of one `parse_graph`, and how the parsed graph is
stored: its explicit neighbour sets and its family records.  Write and parse
run with the cyclic collector paused, as every `alliance` command runs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import platform
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import corpus  # noqa: E402
from alliancelib import cli  # noqa: E402
from alliancelib.graph import parse_graph, write_graph  # noqa: E402
from alliancelib.kinds import REDUCTIONS  # noqa: E402

MRSS_616K = "mrss 3 5 3\n6 6 6\n" + "4 3 2\n" * 5
ITEMS = (*corpus.COMPILE_INSTANCES, "mrss-616k")
OUT = ROOT / "BENCH_files.json"


def _target(name: str):
    """The compiled target of an item and the forward certificate of its
    source solution."""
    if name == "mrss-616k":
        kind, text, solution = "mrss", MRSS_616K, None
    else:
        kind = corpus.KIND_OF[name]
        text, solution = corpus.compile_source(name, 0)
    red = REDUCTIONS[kind]
    inst = red.parse(text)
    if solution is None:
        solution = red.solve_source(inst)
    target, gm, _ = red.compile(inst)
    return target, red.forward(gm, solution)


def _best(repeats: int, call) -> float:
    """The least wall time of `repeats` calls, with the collector paused."""
    times = []
    for _ in range(repeats):
        gc.disable()
        try:
            start = time.perf_counter()
            call()
            times.append(time.perf_counter() - start)
        finally:
            gc.enable()
    return min(times)


def _parse_peak_mb(text: str) -> float:
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        parse_graph(text)
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        tracemalloc.stop()


def measure(name: str, repeats: int, work: Path) -> dict:
    target, cert = _target(name)
    g = target.graph
    text = write_graph(g)
    back = parse_graph(text)
    path = work / f"{name}.graph"
    path.write_text(f"c budget {len(cert)}\n" + text)
    argv = ["check", str(path), "--set", ",".join(map(str, sorted(cert)))]
    if target.forbidden:
        argv += ["--forbidden", ",".join(map(str, sorted(target.forbidden)))]

    def check() -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise SystemExit(f"{name}: check rejected the forward certificate")

    return {
        "n": g.n,
        "m": g.m,
        "round_trip": write_graph(back) == text,
        "write_graph_s": round(_best(repeats, lambda: write_graph(g)), 4),
        "parse_graph_s": round(_best(repeats, lambda: parse_graph(text)), 4),
        "check_s": round(_best(repeats, check), 4),
        "parse_graph_peak_mb": round(_parse_peak_mb(text), 1),
        "explicit_sets": len(back._edges),
        "records": len(back.families()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", help="row name in BENCH_files.json (replaced if present)")
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--check", action="store_true", help="one repeat, no file written")
    args = parser.parse_args(argv)
    if not args.check and not args.label:
        parser.error("--label is required unless --check is given")
    repeats = 1 if args.check else args.repeats
    items = {}
    with tempfile.TemporaryDirectory() as work:
        for name in ITEMS:
            items[name] = row = measure(name, repeats, Path(work))
            print(name, json.dumps(row), flush=True)
    failed = [name for name, row in items.items() if not row["round_trip"]]
    if failed:
        print(f"write_graph(parse_graph(t)) != t for {', '.join(failed)}", file=sys.stderr)
        return 1
    if args.check:
        return 0
    bench = json.loads(OUT.read_text()) if OUT.exists() else {"rows": []}
    bench["rows"] = [row for row in bench["rows"] if row["label"] != args.label]
    bench["rows"].append(
        {
            "label": args.label,
            "repeats": repeats,
            "python": platform.python_version(),
            "machine": platform.machine(),
            "items": items,
        }
    )
    OUT.write_text(json.dumps(bench, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
