"""Solution operators for evolution PDEs by steering reduced-order-model
parameters along a learned control field.

Workflow: fit theta0 to the initial condition, then integrate the parameter
ODE theta' = V(theta) with the trained field; u_theta along the path
approximates the PDE solution. Training data are Monte-Carlo projections of
the differential operator onto the model's tangent space.
"""

from . import assembly, control_net, evolve, fit, linalg, pde_ops, reference, rom, sampling
from .errors import (
    CacheMismatch,
    ConfigError,
    FactorizationFailure,
    MissingArtifact,
    NonFiniteError,
    PdeControlError,
)

__version__ = "0.1.0"
