"""Equivalence test driver: random sources, forward certificates, iff checks.

For each generated source instance the driver solves the source by brute
force; on a yes it compiles the reduction, builds the proof's forward
certificate and checks it against the alliance predicate within the budget.
Only the kinds whose record says `small_targets` (their generated targets
fit the brute-force guard: today daf) have the target decided, on every
case, and the full iff asserted; that fact alone decides it.  Every other
kind reports a source no-instance as skipped without compiling it (the
reverse direction of those reductions lives in the extraction maps,
exercised by the test suite, not here).

`run_equiv_case` turns the cyclic collector off for the whole case, when it
was on, and back on when the case ends (`call_paused`, which `cli.main`
uses for a whole command).  A target holds only ints, ranges, the `Family`
records of its graph (each an id range, a role kind, payload tuples or an
`Indexed` run, hosts and tuples of id ranges), the sets built from them,
and dicts, lists and tuples of these (a gadget map keeps an id family as
the range `add_family` returned).  No record refers back to the graph, so
it forms no cycle and reference counting frees it when the case returns;
with the collector on, its passes walked the live target again and again
(about a quarter of an `mrss` case's time).  Over the harness seeds
20250810-20250825 at default counts, the largest `mrss` target has 65,956
vertices (19,855 for the default seed), and at least 97.3 % of every `mrss`
target's vertices are pendants.  The pause spans the case, not the compile
alone: the first collection after a compile would still walk the target
while it is checked.  Nothing is deferred by it, since a collection after
many paused cases finds no unreachable object (a test asserts this).

A case has two steps: *draw* (the record's `gen`, then its `write`) and
*decide* (solve the source, compile, map forward, certify and, for
`small_targets` kinds, brute-force the target).  Draw runs on every case, so
the random stream and every later instance are the same as without a memo.
Decide is memoised per process: the key is the `Reduction` record object
and the full source text, the value the case's `EquivReport`, and a repeated
source returns that report with its own case number.  This is sound because
every compiler and oracle is a pure function of the source, whose text
`write` spells out in full (reruns are byte-identical).  Keying on the
record rather than the kind name keeps a record swapped into `REDUCTIONS`
from reading another record's verdicts; a patch of a module function that a
record calls by name changes no key, so clear `_memo` around one.  Only
reports are stored, never a target or gadget map, and nothing is stored for
a case that raises.  The memo is cleared when it reaches `MEMO_CAP` entries
(one default seed of all five kinds is 475 cases); at default counts about
one case in eight repeats an earlier source of its seed.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
from dataclasses import asdict, dataclass, replace
from typing import Callable, TypeVar

from .alliances import brute_force_min_da, certifies, target_budget
from .errors import BadParams
from .kinds import REDUCTIONS, Reduction

DEFAULT_SEED = 20250810
KINDS = tuple(REDUCTIONS)
DEFAULT_COUNTS = {"mrss": 25, "rbds": 100, "vc": 100, "ds-circle": 50, "daf": 200}
DEFAULT_MAX_N = {"mrss": 3, "rbds": 4, "vc": 8, "ds-circle": 3, "daf": 6}
MEMO_CAP = 1024
T = TypeVar("T")


@dataclass(frozen=True)
class EquivReport:
    case: int
    kind: str
    digest: str
    source_answer: bool
    certificate_valid: bool | None
    budget: int | None
    target_answer: bool | None
    verdict: str  # forward-ok | forward-fail | iff-ok | iff-fail | skipped-too-large

    def text(self) -> str:
        cert = "-" if self.certificate_valid is None else ("ok" if self.certificate_valid else "BAD")
        tgt = "-" if self.target_answer is None else ("yes" if self.target_answer else "no")
        return (
            f"case={self.case:04d} kind={self.kind} digest={self.digest} "
            f"source={'yes' if self.source_answer else 'no'} cert={cert} "
            f"budget={self.budget if self.budget is not None else '-'} "
            f"target={tgt} verdict={self.verdict}"
        )


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _check_kind(kind: str) -> None:
    if kind not in REDUCTIONS:
        raise BadParams(f"unknown kind {kind!r}; choose from {', '.join(KINDS)}")


def call_paused(fn: Callable[..., T], *args: object) -> T:
    """`fn(*args)` with the cyclic collector off; it is turned back on
    after, also on an error, only if it was on before.  A plain call: a
    generator context manager costs about 1 us more per use, 2-5 % of the
    harness's `daf` time."""
    paused = gc.isenabled()
    gc.disable()
    try:
        return fn(*args)
    finally:
        if paused:
            gc.enable()


def run_equiv_case(kind: str, case: int, rng: random.Random, max_n: int) -> EquivReport:
    """One case of `kind`, with the cyclic collector paused while its target
    is built, checked and dropped.  The source is drawn from `rng` on every
    call; a source this process already decided for the same record returns
    the stored report with `case` replaced, without compiling anything."""
    _check_kind(kind)
    # The target is a local of `_decide`, so it is dropped inside the pause.
    return call_paused(_case, kind, case, rng, max_n)


# (record, source text) -> the report of the first case that drew it.
_memo: dict[tuple[Reduction, str], EquivReport] = {}


def _case(kind: str, case: int, rng: random.Random, max_n: int) -> EquivReport:
    red = REDUCTIONS[kind]
    inst = red.gen(rng, max_n)
    text = red.write(inst)
    key = (red, text)
    hit = _memo.get(key)
    if hit is not None:
        return replace(hit, case=case)
    report = _decide(red, kind, case, _digest(text), inst)
    if len(_memo) >= MEMO_CAP:
        _memo.clear()
    _memo[key] = report
    return report


def _decide(red: Reduction, kind: str, case: int, digest: str, inst) -> EquivReport:
    sol = red.solve_source(inst)
    yes = sol is not None
    if not yes and not red.small_targets:
        return EquivReport(case, kind, digest, False, None, None, None, "skipped-too-large")
    target, gm, _ = red.compile(inst)
    budget = target_budget(target)
    valid = certifies(target, red.forward(gm, sol)) if yes else None
    if valid is False:
        return EquivReport(case, kind, digest, True, False, budget, None, "forward-fail")
    if not red.small_targets:  # only a source yes-instance gets this far
        return EquivReport(case, kind, digest, True, True, budget, None, "forward-ok")
    found = brute_force_min_da(target.graph, forbidden=target.forbidden, max_size=budget)
    verdict = "iff-ok" if yes == (found is not None) else "iff-fail"
    return EquivReport(case, kind, digest, yes, valid, budget, found is not None, verdict)


@dataclass(frozen=True)
class EquivSummary:
    kind: str
    seed: int
    cases: int
    forward_ok: int
    iff_ok: int
    skipped: int
    failures: int

    def text(self) -> str:
        return (
            f"kind={self.kind} seed={self.seed} cases={self.cases} "
            f"forward-ok={self.forward_ok} iff-ok={self.iff_ok} "
            f"skipped={self.skipped} failures={self.failures}"
        )


def run_equiv_test(
    kind: str,
    count: int | None = None,
    max_n: int | None = None,
    seed: int = DEFAULT_SEED,
) -> tuple[list[EquivReport], EquivSummary]:
    _check_kind(kind)
    count = DEFAULT_COUNTS[kind] if count is None else count
    max_n = DEFAULT_MAX_N[kind] if max_n is None else max_n
    if count < 0:
        raise BadParams("count must be >= 0")
    rng = random.Random(seed)
    reports = [run_equiv_case(kind, case, rng, max_n) for case in range(count)]
    summary = EquivSummary(
        kind=kind,
        seed=seed,
        cases=len(reports),
        forward_ok=sum(r.verdict == "forward-ok" for r in reports),
        iff_ok=sum(r.verdict == "iff-ok" for r in reports),
        skipped=sum(r.verdict == "skipped-too-large" for r in reports),
        failures=sum(r.verdict in ("forward-fail", "iff-fail") for r in reports),
    )
    return reports, summary


def render_reports(
    reports: list[EquivReport], summary: EquivSummary, fmt: str = "text"
) -> str:
    if fmt == "json":
        lines = [json.dumps(asdict(r), sort_keys=True) for r in reports]
        lines.append(json.dumps(asdict(summary), sort_keys=True))
        return "\n".join(lines) + "\n"
    lines = [r.text() for r in reports]
    lines.append(summary.text())
    return "\n".join(lines) + "\n"
