"""Dynamical operational-risk engine.

Losses of N interacting processes evolve in discrete time: each step, process
i loses ramp(sum_j J_ij C_ij(t) + theta_i + xi_i(t)), where C_ij counts the
recent nonzero losses of process j inside a bounded memory window, theta_i is
a fixed avoidance threshold, and xi_i is exponential noise. The package
simulates the dynamics, estimates (theta, J) from loss databases by
frequentist inversion of zero-loss ratios, and forecasts cumulative-loss
distributions and VaR by Monte Carlo.
"""

from . import ensemble, errors, estimate, io, model, simulate, validation

__version__ = "1.0.0"

# Each public name is declared once, in its module's __all__. This list is
# built before the star imports, while ``simulate`` is still the module:
# ``from .simulate import *`` rebinds it to the function.
__all__ = [
    "errors",
    *ensemble.__all__,
    *estimate.__all__,
    *io.__all__,
    *model.__all__,
    *simulate.__all__,
    *validation.__all__,
]

from .ensemble import *
from .estimate import *
from .io import *
from .model import *
from .simulate import *
from .validation import *
