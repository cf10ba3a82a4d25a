"""Renormalization of unimodal maps with a quadratic critical point.

Numerical toolkit around the period-doubling (and general bounded-type)
renormalization operator: fixed points and periodic orbits in a polynomial
coefficient space, the derivative's spectrum, nested interval towers and
their geometry, transfer-operator norm estimates, and quadratic-family
parameter analysis.
"""

__version__ = "0.1.0"

from .errors import RenormlabError
from .maps import QuadraticFamily, UnimodalMap, validate
from .renorm import IntervalTower, RenormStep, detect, renormalize, tower
from .solver import (convergence_experiment, derivative_matrix,
                     solve_fixed_point, solve_periodic_orbit, spectrum)

__all__ = [
    "RenormlabError", "QuadraticFamily", "UnimodalMap", "validate",
    "IntervalTower", "RenormStep", "detect", "renormalize", "tower",
    "convergence_experiment", "derivative_matrix", "solve_fixed_point",
    "solve_periodic_orbit", "spectrum", "__version__",
]
