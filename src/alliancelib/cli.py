"""Command-line front end.

Exit codes: 0 feasible / valid / all checks passed, 1 infeasible / invalid /
failures, 2 usage or parse errors.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

from . import harness
from .alliances import DAInstance, certifies, solve_da, target_budget, target_forbidden
from .circle import write_diagram
from .errors import AllianceError, BadParams, ParseError
from .graph import parse_graph, parse_id_list, write_graph
from .kinds import REDUCTIONS

# The commands reach every compiler through REDUCTIONS and `check` reads its
# verdict off its ledger; these names stay bound here because perfbench's
# traced mode wraps them on this module by attribute.
from .alliances import is_defensive_alliance  # noqa: F401
from .circle import ds_to_daf, parse_ds_instance  # noqa: F401
from .reductions import mrss_to_da, parse_mrss, parse_rbds, parse_vc, rbds_to_da, vc_to_da  # noqa: F401


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _write(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise BadParams(f"cannot write {path}: {exc}") from exc


def cmd_check(args: argparse.Namespace) -> int:
    g = parse_graph(_read(args.graph))
    members = parse_id_list(args.set, g.n)
    forbidden = parse_id_list(args.forbidden, g.n)
    protected = []
    for v in sorted(members):
        inside = g.deg_in(v, members)
        outside = g.degree(v) - inside
        protected.append(inside + 1 >= outside)
        status = "protected" if protected[-1] else "UNPROTECTED"
        print(f"v={v} deg={g.degree(v)} in={inside} out={outside} {status}")
    clash = sorted(members & forbidden)
    if clash:
        print(f"forbidden members: {clash}")
    # An empty ledger is the empty set, which is never an alliance.
    ok = bool(protected) and all(protected) and not clash
    print(f"verdict: {'defensive alliance' if ok else 'not a defensive alliance'}")
    return 0 if ok else 1


def cmd_solve(args: argparse.Namespace) -> int:
    g = parse_graph(_read(args.graph))
    forbidden = parse_id_list(args.forbidden, g.n)
    witness = solve_da(DAInstance(g, args.budget), forbidden)
    if args.format == "json":
        payload = {
            "feasible": witness is not None,
            "budget": args.budget,
            "witness": sorted(witness.vertices) if witness else None,
        }
        print(json.dumps(payload, sort_keys=True))
    elif witness is None:
        print(f"infeasible at budget {args.budget}")
    else:
        print(f"witness size={witness.size}: {' '.join(map(str, witness.vertices))}")
    return 0 if witness is not None else 1


def cmd_reduce(args: argparse.Namespace) -> int:
    red = REDUCTIONS[args.kind]
    target, gm, diagram = red.compile(red.parse(_read(args.input)))
    budget = target_budget(target)
    forbidden = target_forbidden(target)

    def emit(suffix: str, text: str) -> str:
        path = args.out + suffix
        _write(path, text)
        return Path(path).name

    graph_text = f"c budget {budget}\n" + write_graph(target.graph)
    written = [
        emit(".graph", graph_text),
        emit(".budget", f"{budget}\n"),
        emit(".gadgets.json", gm.to_json()),
    ]
    if forbidden:
        written.append(emit(".forbidden", " ".join(map(str, sorted(forbidden))) + "\n"))
    if diagram is not None:
        written.append(emit(".diagram", write_diagram(diagram)))
    print(
        f"{args.kind}: n={target.graph.n} m={target.graph.m} budget={budget} -> "
        + ", ".join(written)
    )
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    red = REDUCTIONS[args.kind]
    inst = red.parse(_read(args.input))
    if args.solution is None:
        sol = red.solve_source(inst)
    else:
        sol = red.parse_solution(inst, args.solution)
    if sol is None:
        print("source infeasible: nothing to certify")
        return 1
    target, gm, _ = red.compile(inst)
    cert = red.forward(gm, sol)
    valid = certifies(target, cert)
    print(
        f"{args.kind}: solution={list(sol)} certificate size={len(cert)} "
        f"budget={target_budget(target)} valid={'yes' if valid else 'NO'}"
    )
    return 0 if valid else 1


def cmd_equiv_test(args: argparse.Namespace) -> int:
    reports, summary = harness.run_equiv_test(
        args.kind, count=args.count, max_n=args.max_n, seed=args.seed
    )
    sys.stdout.write(harness.render_reports(reports, summary, args.format))
    return 0 if summary.failures == 0 else 1


def cmd_gen(args: argparse.Namespace) -> int:
    red = REDUCTIONS[args.kind]
    rng = random.Random(args.seed)
    inst = red.gen(rng, args.max_n, dim=args.dim, max_entry=args.max_entry, density=args.density)
    text = red.write(inst)
    if args.out:
        _write(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="alliance",
        description="Defensive alliances: check, solve, compile reductions, verify certificates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify a vertex set against the alliance predicate")
    p.add_argument("graph")
    p.add_argument("--set", required=True, help="comma-separated vertex ids")
    p.add_argument("--forbidden", help="comma-separated vertex ids")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("solve", help="exact minimum alliance within a budget")
    p.add_argument("graph")
    p.add_argument("--budget", type=int, required=True)
    p.add_argument("--forbidden", help="comma-separated vertex ids")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("reduce", help="compile a source instance into an alliance instance")
    p.add_argument("kind", choices=REDUCTIONS)
    p.add_argument("input")
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("certify", help="build and verify a forward certificate")
    p.add_argument("kind", choices=REDUCTIONS)
    p.add_argument("input")
    p.add_argument("--solution", help="source solution (ids/labels); brute-forced if omitted")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("equiv-test", help="randomized forward/iff verification stream")
    p.add_argument("kind", choices=REDUCTIONS)
    p.add_argument("--count", type=int, default=None)
    p.add_argument("--max-n", type=int, default=None)
    p.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_equiv_test)

    p = sub.add_parser("gen", help="write a reproducible random instance")
    p.add_argument("kind", choices=REDUCTIONS)
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    p.add_argument("--max-n", type=int, default=4, help="size bound (vectors/parts/vertices/chords)")
    p.add_argument("--density", type=float, default=0.5, help="rbds edge density")
    p.add_argument("--dim", type=int, default=2, help="mrss dimension bound")
    p.add_argument("--max-entry", type=int, default=2, help="mrss entry bound")
    p.set_defaults(func=cmd_gen)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AllianceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
