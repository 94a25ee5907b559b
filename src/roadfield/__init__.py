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

from . import analysis, dispersion, errors, params, simulate
from .params import *
from .dispersion import *
from .simulate import *
from .analysis import *

__version__ = "0.1.0"

__all__ = [*params.__all__, *dispersion.__all__, *simulate.__all__, *analysis.__all__, "errors"]
