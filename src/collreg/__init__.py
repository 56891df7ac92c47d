"""Symplectic regularization of binary collisions for two small bodies on the
axis of a rotating regular N-gon of primaries.

The physical flow of the two secondaries is singular where they meet; a
linear symplectic change to relative coordinates, a square-root chart on the
separation, and a fictitious-time rescaling turn it into a globally regular
Hamiltonian system on each energy level.  This package provides both charts,
the regular Hamiltonians and their fields, symplectic integration with dual
clocks and collision-event logging, orbit analysis (classification, turning
points, periods, level sets), and a CLI for reproducible runs.
"""

from .analysis import (
    OrbitClass,
    classify,
    escape_speed,
    kepler1d_validation,
    level_set_sample,
    momentum_profile,
    period,
    period_report,
    turning_point,
)
from .config import (
    MassParams,
    RingConfig,
    bp_radius,
    primary_positions_3d,
    rescale_masses,
    ring_radius,
)
from .errors import (
    AccuracyError,
    CollisionError,
    DomainError,
    ParameterError,
    SchemaError,
    StepFailure,
)
from .integrators import (
    Event,
    IntegratorConfig,
    Trajectory,
    integrate,
    integrate_physical_oracle,
)
from .physical import (
    hamiltonian,
    infinitesimal_accel_3d,
    physical_field,
    potential,
)
from .regularized import (
    Problem,
    chart_to_physical,
    chart_to_regularized,
    collision_momentum,
    collision_positions,
    gamma,
    gamma_reduced,
    project_to_level,
    reduced_field,
    regularized_field,
    time_scale,
)
from .symplectic import (
    build_relative_map,
    canonical_form,
    euler_forward,
    euler_inverse,
    euler_jacobian,
    fd_jacobian,
    symplectic_defect,
)

__version__ = "0.1.0"
