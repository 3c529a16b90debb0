"""Defensive alliances: predicate, exact solvers, reduction compilers, CLI."""

from .alliances import (
    DAFInstance,
    DAInstance,
    Witness,
    brute_force_min_da,
    candidate_filter,
    is_daf_feasible,
    is_defensive_alliance,
    kernel,
    solve_da,
)
from .circle import (
    ChordDiagram,
    DSCircleInstance,
    crossing_pairs,
    ds_extract_certificate,
    ds_forward_certificate,
    ds_to_daf,
    intersection_graph,
    parse_diagram,
    solve_ds_bruteforce,
    write_diagram,
)
from .graph import (
    Graph,
    RoleKind,
    RoleTag,
    build_graph,
    is_star_forest_after_deletion,
    parse_graph,
    write_graph,
)
from .kinds import REDUCTIONS, Reduction
from .reductions import (
    GadgetMap,
    MRSSInstance,
    RBDSInstance,
    VC3Instance,
    daf_to_da,
    is_vertex_cover,
    mrss_extract_certificate,
    mrss_forward_certificate,
    mrss_to_da,
    parse_daf,
    parse_mrss,
    parse_rbds,
    parse_vc,
    rbds_cover_set,
    rbds_extract_certificate,
    rbds_forward_certificate,
    rbds_to_da,
    solve_mrss_bruteforce,
    solve_rbds_bruteforce,
    solve_vc_bruteforce,
    vc_extract_certificate,
    vc_forward_certificate,
    vc_to_da,
    write_daf,
    write_mrss,
    write_rbds,
    write_vc,
)

__all__ = [name for name in dir() if not name.startswith("_")]
