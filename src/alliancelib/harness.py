"""Equivalence test driver: random sources, forward certificates, iff checks.

For each generated source instance the driver solves the source by brute
force; on a yes it compiles the reduction, builds the proof's forward
certificate and checks it against the alliance predicate within the budget.
Where the target fits the brute-force guard it is decided too and the full
iff is asserted.  Only kinds whose generated targets are that small (the
`small_targets` fact on their record: today daf) are compiled on a source
no-instance; everywhere else such a case is reported as skipped (the reverse
direction of those reductions lives in the extraction maps, exercised by the
test suite, not here).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass

from .alliances import brute_force_min_da
from .errors import BadParams
from .kinds import REDUCTIONS, certifies, target_budget, target_forbidden

DEFAULT_SEED = 20250810
KINDS = tuple(REDUCTIONS)
DEFAULT_COUNTS = {"mrss": 25, "rbds": 100, "vc": 100, "ds-circle": 50, "daf": 200}
DEFAULT_MAX_N = {"mrss": 3, "rbds": 4, "vc": 8, "ds-circle": 3, "daf": 6}

_TARGET_BRUTE_LIMIT = 20


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


def run_equiv_case(kind: str, case: int, rng: random.Random, max_n: int) -> EquivReport:
    _check_kind(kind)
    red = REDUCTIONS[kind]
    inst = red.gen(rng, max_n)
    digest = _digest(red.write(inst))
    sol = red.solve_source(inst)
    yes = sol is not None
    if not yes and not red.small_targets:
        return EquivReport(case, kind, digest, False, None, None, None, "skipped-too-large")
    target, gm, _ = red.compile(inst)
    budget = target_budget(target)
    valid = certifies(target, red.forward(gm, sol)) if yes else None
    if valid is False:
        return EquivReport(case, kind, digest, True, False, budget, None, "forward-fail")
    if target.graph.n > _TARGET_BRUTE_LIMIT:
        verdict = "forward-ok" if yes else "skipped-too-large"
        return EquivReport(case, kind, digest, yes, valid, budget, None, verdict)
    found = brute_force_min_da(
        target.graph, forbidden=target_forbidden(target), max_size=budget
    )
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
