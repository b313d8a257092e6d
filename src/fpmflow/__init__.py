"""Pseudo-spectral fractional porous medium flow on the periodic torus.

Library layout:

- :mod:`fpmflow.spectral`    grids and their rfft-layout lattice with |xi| and the
                             dealias mask, real transforms, the zero-mode power rule
- :mod:`fpmflow.model`       velocity law, transport operator, mollified data
- :mod:`fpmflow.stepper`     integrating-factor RK4 with CFL control
- :mod:`fpmflow.diagnostics` norms, blow-up functionals, trilinear form
- :mod:`fpmflow.verify`      numerical checks of the analytic inequalities
- :mod:`fpmflow.driver`      CLI, experiment campaigns, file formats
"""

from .model import InitialCondition, ModelParams
from .spectral import RealField, TorusGrid
from .stepper import StepperConfig, integrate

__all__ = [
    "InitialCondition",
    "ModelParams",
    "RealField",
    "StepperConfig",
    "TorusGrid",
    "integrate",
]

__version__ = "0.1.0"
