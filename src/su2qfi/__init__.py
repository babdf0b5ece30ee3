"""Generator and maximal quantum Fisher information for spin-algebra dynamics.

The package computes the Hermitian operator generated by a parameter-
dependent field coupled linearly to spin operators, the maximal quantum
Fisher information it allows, and the optimal input states; independent
numerical oracles (commutator series, finite differences, time-ordered
products) validate every closed form.
"""

__version__ = "0.1.0"

from .spin import (
    SpinRep,
    build_spin_rep,
    dot_with_J,
    frobenius,
    hermitian_expm,
    su2_lift,
)
from .generator import (
    DegenerateFieldError,
    FieldCurve,
    QfiBreakdown,
    VelocitySplit,
    generator_vector,
    mqfi_closed_form,
    split_velocity,
)
from .numerics import (
    OptimalStateResult,
    compose_generators,
    fd_generator,
    fd_points,
    fd_step,
    generator_series,
    midpoint_su2,
    optimal_state,
    qfi_of_state,
)
from .cases import (
    DrivenSystem,
    SphericalField,
    driving_frequency_mqfi,
    driving_generator_vector,
    spherical_field_mqfi,
)

__all__ = [
    "__version__",
    "SpinRep", "build_spin_rep", "dot_with_J", "frobenius", "hermitian_expm",
    "su2_lift",
    "DegenerateFieldError", "FieldCurve", "QfiBreakdown", "VelocitySplit",
    "generator_vector", "mqfi_closed_form", "split_velocity",
    "OptimalStateResult", "compose_generators", "fd_generator", "fd_points", "fd_step",
    "generator_series", "midpoint_su2", "optimal_state", "qfi_of_state",
    "DrivenSystem", "SphericalField",
    "driving_frequency_mqfi", "driving_generator_vector", "spherical_field_mqfi",
]
