"""Numerical laboratory for simulated quantum arrival- and passage-time
measurements with absorbing spin detectors.

A particle crossing a detector region evolves under a complex potential; the
lost norm is the detection-time density. Detection resets the packet to the
absorbed component, and a second detector downstream turns the ensemble of
reset states into a passage-time distribution. Discrete-bath and closed-form
references validate the model, and an analytic width budget predicts the
optimal detector parameters.
"""
from . import core, detector, discrete_oracle, exceptions, passage, precision, propagator
from .core import *
from .detector import *
from .discrete_oracle import *
from .exceptions import *
from .passage import *
from .precision import *
from .propagator import *

__version__ = "0.1.0"

__all__ = [
    *core.__all__,
    *detector.__all__,
    *discrete_oracle.__all__,
    *exceptions.__all__,
    *passage.__all__,
    *precision.__all__,
    *propagator.__all__,
]
