"""Finite-key security analysis and simulation of a two-decoy coherent
one-way QKD link: closed-form gains, concentration bounds, phase-error and
key-length estimates, a Monte-Carlo oracle, and scan/threshold tooling.

Each module's __all__ lists the names it exports; this package re-exports
exactly those, so a public name is declared once, in its own module.
"""

from . import concentration, finite_key, gains, params, scan, simulator
from .params import *
from .gains import *
from .concentration import *
from .finite_key import *
from .simulator import *
from .scan import *

__version__ = "0.1.0"

__all__ = [
    name
    for module in (params, gains, concentration, finite_key, simulator, scan)
    for name in module.__all__
]
