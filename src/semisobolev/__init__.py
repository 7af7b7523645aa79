"""Numerical Sobolev constants for electro-magnetic Robin Laplacians.

Subpackages cover the exactly solvable half-line Robin model, the planar
magnetic field, gauge-covariant lattice discretization of the quadratic
form, Sobolev-quotient minimization, homogeneous model constants, the
semiclassical and waveguide sweep harnesses, and two-scale partitions of
unity.  The command-line entry point is `semisobolev.cli`.
"""

from .errors import SemisobolevError  # noqa: F401

__version__ = "0.1.0"
