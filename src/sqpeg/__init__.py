"""Discrete curve geometry: total curvature, pi-distance, curve
approximation, and numerical search for inscribed square-like quadrilaterals."""

from .approx import (
    ConvergenceReport,
    SmoothedCurve,
    convergence_report,
    discrete_frechet,
    fillet_smooth,
    inscribe_polygon,
    verify_length_bound,
)
from .curve import PolyCurve, angle_between
from .pidist import (
    CurvatureWindow,
    PiDistanceResult,
    pi_distance,
    scan_windows,
    sidelength_bound_report,
    verify_quad_arc_curvature,
)
from .quad import Quad, QuadMetrics, make_square_like
from .solver import (
    QuadSolution,
    SolutionSet,
    SolverConfig,
    brute_force_oracle,
    find_quads,
    find_quads_many,
    parity_report,
    refine,
    seed_grid,
)

__version__ = "0.1.0"

__all__ = [
    "PolyCurve",
    "angle_between",
    "Quad",
    "QuadMetrics",
    "make_square_like",
    "CurvatureWindow",
    "PiDistanceResult",
    "pi_distance",
    "scan_windows",
    "verify_quad_arc_curvature",
    "sidelength_bound_report",
    "SmoothedCurve",
    "ConvergenceReport",
    "inscribe_polygon",
    "fillet_smooth",
    "discrete_frechet",
    "verify_length_bound",
    "convergence_report",
    "SolverConfig",
    "QuadSolution",
    "SolutionSet",
    "seed_grid",
    "refine",
    "find_quads",
    "find_quads_many",
    "brute_force_oracle",
    "parity_report",
]
