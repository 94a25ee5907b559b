"""Spreading speeds for KPP invasion coupled to a line with fast diffusion.

A population diffuses and reproduces (KPP reaction) in a half-plane field
and exchanges mass with a road along its edge where it only diffuses, but
possibly much faster.  This package computes the exact asymptotic spreading
speed along the road from the algebraic dispersion system
(:mod:`roadfield.dispersion`), simulates the coupled Cauchy problem with a
monotone explicit scheme (:mod:`roadfield.simulate`), and measures
empirical front speeds and structural diagnostics from the runs
(:mod:`roadfield.analysis`).

The headline facts, all checkable numerically here: the road is invisible
while D <= 2d (speed stays at c_KPP = 2*sqrt(d*f'(0))); above that
threshold it strictly enhances spreading; and for large D the speed grows
like sqrt(D).
"""

from .params import (
    ModelParams,
    ReactionFunction,
    KppCheck,
    c_kpp,
    check_kpp,
    normalize_nu,
    parse_config_file,
    parse_config_text,
    symmetrize_full_plane,
)
from .dispersion import (
    Branch,
    CurvePoint,
    ExponentialAnsatz,
    GammaPlusClassification,
    IntersectionSet,
    Regime,
    SpeedResult,
    alpha_field,
    alpha_road,
    beta_D,
    beta_kpp,
    critical_speed,
    curve_gap,
    gamma_of_beta,
    gamma_plus_threshold,
    intersections,
    limit_bounds,
    limit_speed,
    strip_alpha_road,
    strip_critical_speed,
)
from .simulate import (
    FieldState,
    Grid,
    InitialDatum,
    RunRecord,
    build_grid,
    cfl_dt,
    init_state,
    run,
    step,
    total_mass,
)
from .analysis import (
    Channel,
    FrontSeries,
    SpeedEstimate,
    fit_speed,
    front_position,
    front_series,
    is_ordered,
    steady_error,
)
from . import errors

__version__ = "0.1.0"

__all__ = [
    "ModelParams",
    "ReactionFunction",
    "KppCheck",
    "c_kpp",
    "check_kpp",
    "normalize_nu",
    "symmetrize_full_plane",
    "parse_config_text",
    "parse_config_file",
    "Branch",
    "Regime",
    "CurvePoint",
    "ExponentialAnsatz",
    "SpeedResult",
    "GammaPlusClassification",
    "IntersectionSet",
    "beta_D",
    "beta_kpp",
    "alpha_road",
    "alpha_field",
    "gamma_of_beta",
    "curve_gap",
    "critical_speed",
    "intersections",
    "gamma_plus_threshold",
    "strip_alpha_road",
    "strip_critical_speed",
    "limit_speed",
    "limit_bounds",
    "Grid",
    "InitialDatum",
    "FieldState",
    "RunRecord",
    "build_grid",
    "cfl_dt",
    "init_state",
    "step",
    "run",
    "total_mass",
    "Channel",
    "FrontSeries",
    "SpeedEstimate",
    "front_position",
    "front_series",
    "fit_speed",
    "is_ordered",
    "steady_error",
    "errors",
]
