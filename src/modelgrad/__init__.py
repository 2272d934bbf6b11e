"""Adaptive gradient-type methods driven by inexact model information.

The package implements three related solvers around a common oracle
contract (a first-order model with known slack levels): an adaptive
method for convex composite problems with an averaged output and an a
posteriori accuracy certificate, a restarted variant for objectives
whose subgradient jumps are bounded, and a gradient-descent variant for
gradient-dominated objectives with noise-aware step sizes.  Problem
families, an experiment harness, and a CLI sit on top.
"""

import types as _types

from .core import *
from .convex import *
from .nonsmooth import *
from .pl import *
from .problems import *
from .harness import *

__version__ = "0.1.0"

# every name the modules export, and the version
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _types.ModuleType)
] + ["__version__"]
