"""The five reductions as records: one `Reduction` per source kind.

A record names everything the command line and the equivalence harness do
with one kind of source instance: read and write its text, draw a seeded
random one, solve it by brute force, read a solution given on the command
line, compile it into an alliance target and map a source solution forward.
Every site that handles a kind looks it up in `REDUCTIONS` instead of
branching on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Sequence

from . import circle, generators, reductions
from .alliances import DAFInstance, Target, brute_force_min_da
from .errors import ParseError
from .graph import parse_id_list
from .reductions import GadgetMap


@dataclass(frozen=True)
class Reduction:
    """One source problem and its certificate-preserving compiler.

    `gen(rng, max_n, **knobs)` takes the size bound plus the `gen` command's
    knobs (`dim`, `max_entry`, `density`) and ignores those it has no use
    for.  `compile` returns the target, its gadget map, and the chord diagram
    realising the target (ds-circle only, else None).  `small_targets` holds
    when the targets of generated sources fit the target brute force, so the
    harness decides the target of every case; for the other kinds it decides
    no target and does not compile a source no-instance at all.
    """

    parse: Callable[[str], Any]
    write: Callable[[Any], str]
    gen: Callable[..., Any]
    compile: Callable[[Any], tuple[Target, GadgetMap, circle.ChordDiagram | None]]
    solve_source: Callable[[Any], Sequence | None]
    parse_solution: Callable[[Any, str], list]
    forward: Callable[[GadgetMap, Sequence], frozenset[int]]
    small_targets: bool = False


def _id_solution(size: Callable[[Any], int]) -> Callable[[Any, str], list[int]]:
    """Solutions that are ids of the source's items, range(size(inst))."""
    return lambda inst, spec: sorted(parse_id_list(spec, size(inst)))


def _chord_solution(inst, spec: str) -> list:
    labels = inst.diagram.chords()
    tokens = set(spec.replace(",", " ").split())
    unknown = sorted(tokens - {str(lab) for lab in labels})
    if unknown:
        raise ParseError(f"unknown chord labels {unknown}")
    return [lab for lab in labels if str(lab) in tokens]


def _compile_ds(inst: circle.DSCircleInstance):
    daf, diagram, gm = circle.ds_to_daf(inst)
    return daf, gm, diagram


def _solve_daf(inst: DAFInstance) -> tuple[int, ...] | None:
    found = brute_force_min_da(inst.graph, forbidden=inst.forbidden, max_size=inst.r)
    return None if found is None else found.vertices


REDUCTIONS: dict[str, Reduction] = {
    "mrss": Reduction(
        parse=reductions.parse_mrss,
        write=reductions.write_mrss,
        gen=lambda rng, n, dim=2, max_entry=2, **_: generators.gen_mrss(rng, dim, n, max_entry),
        compile=lambda inst: (*reductions.mrss_to_da(inst), None),
        solve_source=reductions.solve_mrss_bruteforce,
        parse_solution=_id_solution(lambda inst: len(inst.vectors)),
        forward=reductions.mrss_forward_certificate,
    ),
    "rbds": Reduction(
        parse=reductions.parse_rbds,
        write=reductions.write_rbds,
        gen=lambda rng, n, density=0.5, **_: generators.gen_rbds(rng, n, n, density),
        compile=lambda inst: (*reductions.rbds_to_da(inst), None),
        solve_source=reductions.solve_rbds_bruteforce,
        parse_solution=_id_solution(lambda inst: inst.n_sources),
        forward=reductions.rbds_forward_certificate,
    ),
    "vc": Reduction(
        parse=reductions.parse_vc,
        write=reductions.write_vc,
        gen=lambda rng, n, **_: generators.gen_vc(rng, n),
        compile=lambda inst: (*reductions.vc_to_da(inst), None),
        solve_source=reductions.solve_vc_bruteforce,
        parse_solution=_id_solution(lambda inst: inst.graph.n),
        forward=reductions.vc_forward_certificate,
    ),
    "ds-circle": Reduction(
        parse=circle.parse_ds_instance,
        write=circle.write_ds_instance,
        gen=lambda rng, n, **_: generators.gen_ds_circle(rng, n),
        compile=_compile_ds,
        solve_source=circle.solve_ds_bruteforce,
        parse_solution=_chord_solution,
        forward=circle.ds_forward_certificate,
    ),
    "daf": Reduction(
        parse=reductions.parse_daf,
        write=reductions.write_daf,
        gen=lambda rng, n, **_: generators.gen_daf(rng, n),
        compile=lambda inst: (*reductions.daf_to_da(inst), None),
        solve_source=_solve_daf,
        parse_solution=_id_solution(lambda inst: inst.graph.n),
        forward=lambda gm, sol: frozenset(sol),  # the gadget keeps every original id
        small_targets=True,
    ),
}
