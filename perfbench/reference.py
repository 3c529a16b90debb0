"""Reference answers the benchmark checks the program against.

The solve reference is an exact MILP on HiGHS (``scipy.optimize.milp``) and
never calls ``solve_da``.  ``python3 perfbench/reference.py`` rebuilds every
stored file under ``perfbench/data``: the solve verdicts and optimum sizes of
the whole solve pool (cross-checked against the capped brute-force oracle
wherever its work guard allows), the sha256 digests of every file ``reduce``
emits for every compile pool variant, the harness tallies of every harness
seed a run can pick, and the input properties of each workload.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Iterable

import corpus


def is_alliance(adj: list[set[int]], members: Iterable[int]) -> bool:
    """Defensive-alliance predicate on a plain adjacency list."""
    s = set(members)
    return bool(s) and all(2 * len(adj[v] & s) + 1 >= len(adj[v]) for v in s)


def adjacency(n: int, edges: Iterable[tuple[int, int]]) -> list[set[int]]:
    adj: list[set[int]] = [set() for _ in range(n)]
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return adj


def milp_min_alliance(
    n: int, edges: list[tuple[int, int]], k: int, forbidden: Iterable[int]
) -> int | None:
    """Size of a minimum defensive alliance of size <= k avoiding `forbidden`.

    Binary x_v; 2*sum_{u in N(v)} x_u >= (deg v - 1) * x_v; 1 <= sum x <= k.
    """
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import lil_matrix

    adj = adjacency(n, edges)
    rows = lil_matrix((n + 1, n))
    for v in range(n):
        for u in adj[v]:
            rows[v, u] = 2
        rows[v, v] = -(len(adj[v]) - 1)
        rows[n, v] = 1
    lower = np.zeros(n + 1)
    upper = np.full(n + 1, np.inf)
    lower[n], upper[n] = 1, k
    top = np.ones(n)
    top[list(forbidden)] = 0
    res = milp(
        np.ones(n),
        constraints=LinearConstraint(rows.tocsr(), lower, upper),
        integrality=np.ones(n),
        bounds=Bounds(np.zeros(n), top),
    )
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"MILP ended with status {res.status}: {res.message}")
    return int(round(res.fun))


def _brute_force_optimum(n, edges, k, forbidden) -> int | None | str:
    """Optimum by the library's capped brute force, or "guarded"."""
    from alliancelib.alliances import brute_force_min_da
    from alliancelib.errors import TooLarge
    from alliancelib.graph import build_graph

    try:
        found = brute_force_min_da(build_graph(n, edges), forbidden, max_size=k)
    except TooLarge:
        return "guarded"
    return None if found is None else found.size


def build_solve_reference() -> dict:
    entries, checked = [], 0
    for shape in range(len(corpus.SOLVE_SHAPES)):
        row = []
        for index in range(corpus.SOLVE_POOL):
            n, edges, k, forbidden = corpus.solve_entry(shape, index)
            opt = milp_min_alliance(n, edges, k, forbidden)
            brute = _brute_force_optimum(n, edges, k, forbidden)
            if brute != "guarded":
                checked += 1
                if brute != opt:
                    raise RuntimeError(f"MILP {opt} != brute force {brute} at {shape}/{index}")
            row.append(opt)
        entries.append(row)
        print(f"solve shape {corpus.SOLVE_SHAPES[shape][0]}: done", file=sys.stderr)
    return {
        "shapes": [list(s) for s in corpus.SOLVE_SHAPES],
        "optimum": entries,
        "brute_force_checked": checked,
    }


def emitted_digests(prefix: Path) -> dict[str, str]:
    """sha256 of every file `reduce` wrote under `prefix`, by suffix."""
    out = {}
    for path in sorted(prefix.parent.glob(prefix.name + ".*")):
        out[path.name[len(prefix.name) :]] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


def build_compile_digests(work: Path) -> dict:
    import contextlib
    import io

    from alliancelib import cli

    def digests(name: str, variant: int) -> dict:
        text, _ = corpus.compile_source(name, variant)
        src = work / f"{name}.{variant}.src"
        src.write_text(text)
        prefix = work / f"{name}.{variant}"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["reduce", corpus.KIND_OF[name], str(src), "--out", str(prefix)])
        if rc != 0:
            raise RuntimeError(f"reduce {name}/{variant} exited {rc}")
        src.unlink()
        out = {"digests": emitted_digests(prefix)}
        header = Path(str(prefix) + ".graph").read_text().split("p da ", 1)[1].split()
        out["n"], out["m"] = int(header[0]), int(header[1])
        out["budget"] = int(Path(str(prefix) + ".budget").read_text())
        for suffix in out["digests"]:
            Path(str(prefix) + suffix).unlink()
        return out

    table: dict[str, dict[str, dict]] = {}
    for name in corpus.COMPILE_INSTANCES:
        variants = range(corpus.COMPILE_POOL) if name in corpus.SEEDED else [0]
        table[name] = {str(v): digests(name, v) for v in variants}
        print(f"compile {name}: done", file=sys.stderr)
    return table


def build_equiv_tallies() -> dict:
    from alliancelib.harness import DEFAULT_SEED, KINDS, run_equiv_test

    counts = corpus.equiv_counts()
    table = {}
    for seed in range(DEFAULT_SEED, DEFAULT_SEED + corpus.EQUIV_POOL):
        table[str(seed)] = {
            kind: corpus.tally(run_equiv_test(kind, count=counts[kind], seed=seed)[1])
            for kind in KINDS
        }
    return {"counts": counts, "tallies": table}


def workload_properties() -> dict:
    """Input properties of each workload, read off the stored references."""
    from alliancelib.harness import DEFAULT_MAX_N

    def load(name: str) -> dict:
        return json.loads((corpus.DATA / name).read_text())

    def bounds(values) -> list:
        values = list(values)
        return [min(values), max(values)]

    compiled = load("compile_digests.json")
    solve = load("solve_reference.json")["optimum"]
    equiv = load("equiv_tallies.json")
    yes = [
        sum(solve[s][i] is not None for s, i in corpus.solve_picks(seed)) for seed in range(200)
    ]
    per_run = len(corpus.SOLVE_SHAPES) * corpus.SOLVE_PER_SHAPE
    return {
        "compile": {
            name: {key: bounds(v[key] for v in variants.values()) for key in ("n", "m", "budget")}
            | {"variants": len(variants)}
            for name, variants in compiled.items()
        },
        "solve": {
            "instances_per_run": per_run,
            "yes_per_run": bounds(yes),
            "no_per_run": bounds(per_run - y for y in yes),
            "shapes": [
                {"name": name, "n": n, "mean_degree": deg, "k": k, "forbid_degree_at_most": low,
                 "pool_yes": sum(opt is not None for opt in solve[j]),
                 "pool_no": sum(opt is None for opt in solve[j])}
                for j, (name, n, deg, k, low) in enumerate(corpus.SOLVE_SHAPES)
            ],
        },
        "equiv": {
            "counts": equiv["counts"],
            "max_n": dict(DEFAULT_MAX_N),
            "harness_seeds": bounds(map(int, equiv["tallies"])),
            "verdict_mix": {
                kind: {key: bounds(t[kind][key] for t in equiv["tallies"].values())
                       for key in corpus.TALLY_KEYS}
                for kind in equiv["counts"]
            },
        },
    }


def main(argv: list[str]) -> int:
    import shutil
    import tempfile

    which = set(argv) or {"solve", "compile", "equiv"}
    corpus.DATA.mkdir(exist_ok=True)

    def dump(name: str, obj: dict) -> None:
        (corpus.DATA / name).write_text(json.dumps(obj, indent=1, sort_keys=True) + "\n")

    if "solve" in which:
        dump("solve_reference.json", build_solve_reference())
    if "compile" in which:
        work = Path(tempfile.mkdtemp(dir=corpus.ROOT, prefix=".perfbench_ref_"))
        try:
            dump("compile_digests.json", build_compile_digests(work))
        finally:
            shutil.rmtree(work)
    if "equiv" in which:
        dump("equiv_tallies.json", build_equiv_tallies())
    dump("workloads.json", workload_properties())
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
