"""Exact lattice computations around the Leech lattice and the Picard
lattice of a quartic Hessian surface, with a batch verification CLI."""

from .golay import is_octad
from .hessian import incidence, picard
from .autgroup import autctx, reduce_height

__version__ = "0.1.0"

__all__ = [
    "is_octad",
    "incidence",
    "picard",
    "autctx",
    "reduce_height",
]
