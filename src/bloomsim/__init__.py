"""Stoichiometric reaction-diffusion-advection model of lake blooms.

Subpackage map:

* :mod:`bloomsim.core` parameters and reaction kernels
* :mod:`bloomsim.bdf` the stiff (BDF) integrator of the ODE and the transect
* :mod:`bloomsim.ode` homogeneous integration and equilibria
* :mod:`bloomsim.stability` mode-resolved linear stability
* :mod:`bloomsim.wind` wind ingestion and evaluation
* :mod:`bloomsim.solver1d` 1D method-of-lines solver
* :mod:`bloomsim.mesh`, :mod:`bloomsim.solver2d`, :mod:`bloomsim.vtkio`
  triangular meshes, the P1 finite-element solver, VTK export
* :mod:`bloomsim.sensitivity` Saltelli/Sobol global sensitivity
* :mod:`bloomsim.cli` config-driven command line runs
"""

__version__ = "0.1.0"

from .core import (  # noqa: F401
    EPS_B,
    DomainError,
    HomState,
    ModelParams,
    b_bar,
    default_params,
    growth_h,
    light_intensity,
    q_hat,
    r0,
    reaction_jacobian,
    reaction_rhs,
    uptake_eta,
    uptake_rho,
)
from .ode import find_equilibrium, integrate_homogeneous  # noqa: F401
from .stability import mode_sweep, perturbed_spectrum  # noqa: F401
