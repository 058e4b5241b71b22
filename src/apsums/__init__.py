"""Exact power sums over arithmetic progressions and their number triangles.

Everything is computed in exact rational arithmetic, and every quantity
has at least two independent construction routes (recurrence, closed
form, generating-function coefficient extraction, Sheffer-matrix algebra)
that the test and verification suites compare bit-exactly.
"""

from .exact import Progression, binomial_general, fallfac, integer_power, rational_str, risefac
from .fps import DEFAULT_ORDER, Fps, reverse_coefficient_lagrange
from .poly import Polynomial, fallfac_poly, risefac_poly
from .sheffer import ShefferPair, Triangle, identity_pair, identity_triangle
from .symfunc import Alphabet, complete_h, cuboid_volume_oracle, elementary_sigma
from . import bernoulli, eulerian, lah, powersum, stirling, symfunc
from . import errors

__all__ = [
    "Progression",
    "binomial_general",
    "fallfac",
    "integer_power",
    "rational_str",
    "risefac",
    "DEFAULT_ORDER",
    "Fps",
    "reverse_coefficient_lagrange",
    "Polynomial",
    "fallfac_poly",
    "risefac_poly",
    "ShefferPair",
    "Triangle",
    "identity_pair",
    "identity_triangle",
    "Alphabet",
    "complete_h",
    "cuboid_volume_oracle",
    "elementary_sigma",
    "bernoulli",
    "eulerian",
    "lah",
    "powersum",
    "stirling",
    "symfunc",
    "errors",
]

__version__ = "0.1.0"
