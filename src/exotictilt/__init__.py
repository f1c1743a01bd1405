"""Exact combinatorics of the exotic t-structure on the Springer resolution:
extended affine Weyl/Hecke algebra, K-group model with costandard basis,
Bott-Samelson tilting classes and graded tilting multiplicities."""

from .laurent import LaurentPoly
from .rootdata import RootSystem, RootSystemError, WeylElement, build_root_system
from .affweyl import AffineElement
from .heckebraid import HeckeElement
from .exotic_k import KClass
from .charring import CharacterMultiset

__version__ = "0.1.0"

__all__ = [
    "LaurentPoly",
    "RootSystem",
    "RootSystemError",
    "WeylElement",
    "build_root_system",
    "AffineElement",
    "HeckeElement",
    "KClass",
    "CharacterMultiset",
    "__version__",
]
