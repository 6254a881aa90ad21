"""Metric projections onto balls and positive cones, with derivatives,
coderivative descriptors, and a numerical membership check."""

# cli and suites load on first use: importing cli here would make
# `python -m varproj.cli` run a module that is already in sys.modules
from . import ball, descriptors, l2_cone, oracle, orthant, vectors
from .ball import BallProjection, BallRegion, DirectionClass
from .descriptors import (
    CoordinateMaskMap,
    DerivativeSet,
    EmptySet,
    IdentityMap,
    LinearMap,
    ScaledComplementMap,
    SingletonSet,
    ZeroMap,
)
from .oracle import OracleVerdict, ProbeConfig, Verdict, Witness, membership, quotient
from .vectors import SparseVector, inner, norm, orth_decompose

__version__ = "0.1.0"

__all__ = [
    "ball",
    "cli",
    "descriptors",
    "l2_cone",
    "oracle",
    "orthant",
    "suites",
    "vectors",
    "BallProjection",
    "BallRegion",
    "DirectionClass",
    "CoordinateMaskMap",
    "DerivativeSet",
    "EmptySet",
    "IdentityMap",
    "LinearMap",
    "ScaledComplementMap",
    "SingletonSet",
    "ZeroMap",
    "OracleVerdict",
    "ProbeConfig",
    "Verdict",
    "Witness",
    "membership",
    "quotient",
    "SparseVector",
    "inner",
    "norm",
    "orth_decompose",
    "__version__",
]
