"""Exact Fourier-analytic counting experiments over prime-field planes."""

__version__ = "0.1.0"

from .charsums import GaussConstant, Sphere
from .circles import CircleSystem, CounterexampleSet, MidpointReport
from .congruence import CongruenceWitness, Simplex
from .constants import SIGNATURE_RATIO_FLOOR
from .counting import HingeSweep, PointSet
from .experiments import (
    ExperimentConfig,
    PointsetFormatError,
    SweepRow,
    load_pointset,
    random_set,
    save_pointset,
)
from .field import FieldElement, PrimeField, is_prime
from .fourier import BudgetError, CapacityError, PointD, SpectralGrid

__all__ = [
    "BudgetError",
    "CapacityError",
    "CircleSystem",
    "CongruenceWitness",
    "CounterexampleSet",
    "ExperimentConfig",
    "FieldElement",
    "GaussConstant",
    "HingeSweep",
    "MidpointReport",
    "PointD",
    "PointSet",
    "PointsetFormatError",
    "PrimeField",
    "SIGNATURE_RATIO_FLOOR",
    "Simplex",
    "SpectralGrid",
    "Sphere",
    "SweepRow",
    "is_prime",
    "load_pointset",
    "random_set",
    "save_pointset",
    "__version__",
]
