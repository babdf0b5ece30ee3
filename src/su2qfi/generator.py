"""Closed-form parametrization generator and maximal QFI for spin-linear fields.

For a Hamiltonian h(theta) = field(theta) . J evolved for a time t, the
Hermitian operator gen = i (d_theta U^dag) U stays inside the spin algebra,
gen = coeffs . J, with

    coeffs = (field.v) t^3 f1(x) field - t f2(x) v + t^2 f3(x) (field x v)

where v = d field / d theta, x = |field| t and f1 = (sin x - x)/x^3,
f2 = sin(x)/x, f3 = (1 - cos x)/x^2.  This form is free of divisions by
|field| and reduces smoothly to coeffs = -t v as the field vanishes
(the multiplicative-parameter limit).

The maximal QFI over input states equals the squared eigenvalue spread of
gen and splits into a quadratic and an oscillatory part,

    mqfi = 4 j^2 [ |v_r|^2 t^2 + 4 (|v_t|^2 / |field|^2) sin^2(|field| t / 2) ],

sourced by the radial and the transverse velocity respectively.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .spin import SpinRep, dot_with_J

__all__ = [
    "DegenerateFieldError",
    "FieldCurve",
    "VelocitySplit",
    "GeneratorResult",
    "QfiBreakdown",
    "split_velocity",
    "generator_vector",
    "analytic_generator",
    "mqfi_closed_form",
    "mqfi_small_time",
]


class DegenerateFieldError(ValueError):
    """The coefficient field vanishes where a direction (or scale) is required."""


_pow_ufunc = np.frompyfunc(pow, 2, 1)


def libm_pow(x, n):
    """Elementwise ``x ** n`` through the C library ``pow`` that Python floats use.

    numpy's array power (``**``, ``np.power``, ``np.square``) takes other
    code paths and differs from ``pow`` in the last bit for a share of
    inputs, so a closed form evaluated over a grid would not reproduce its
    scalar values.  Scalars give a float, arrays a float array; overflow
    raises ``OverflowError`` as it does for Python floats.
    """
    out = _pow_ufunc(x, n)
    return out.astype(float) if isinstance(out, np.ndarray) else out


def _vec3(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a real 3-vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} must be finite")
    return v


@dataclass(frozen=True)
class FieldCurve:
    """Parametric coefficient curve theta -> field(theta) in 3-space.

    ``v_of`` is the analytic derivative when supplied; otherwise the
    velocity falls back to a central difference with step
    1e-6 * max(1, |theta|), which balances truncation against roundoff
    for double precision.
    """

    r_of: Callable[[float], np.ndarray]
    v_of: Optional[Callable[[float], np.ndarray]] = None

    def field(self, theta: float) -> np.ndarray:
        return _vec3(self.r_of(theta), "field")

    def velocity(self, theta: float) -> np.ndarray:
        if self.v_of is not None:
            return _vec3(self.v_of(theta), "velocity")
        h = 1e-6 * max(1.0, abs(theta))
        return (self.field(theta + h) - self.field(theta - h)) / (2 * h)


@dataclass(frozen=True)
class VelocitySplit:
    """Decomposition of the curve velocity along and across the field."""

    velocity: np.ndarray
    radial: np.ndarray
    transverse: np.ndarray
    field_norm: float
    radial_speed: float  # d|field|/dtheta = velocity . unit(field)


@dataclass(frozen=True)
class QfiBreakdown:
    """Maximal QFI and its quadratic / oscillatory parts (total = sum).

    The parts are floats for one point, or arrays for a grid of points.
    """

    total: float
    quadratic: float
    oscillatory: float


@dataclass(frozen=True)
class GeneratorResult:
    """Generator coeffs . J with its extreme eigenvalues +-j |coeffs|."""

    coeffs: np.ndarray
    matrix: np.ndarray
    lambda_max: float
    lambda_min: float
    t: float

    def mqfi(self) -> float:
        return (self.lambda_max - self.lambda_min) ** 2


def split_velocity(field, velocity) -> VelocitySplit:
    """Split ``velocity`` into components parallel and orthogonal to ``field``.

    Raises DegenerateFieldError when |field| = 0 since the radial direction
    is then undefined.
    """
    r = _vec3(field, "field")
    v = _vec3(velocity, "velocity")
    r_norm = float(np.linalg.norm(r))
    if r_norm == 0.0:
        raise DegenerateFieldError("field vanishes, radial direction undefined")
    unit = r / r_norm
    speed = float(v @ unit)
    radial = speed * unit
    return VelocitySplit(v, radial, v - radial, r_norm, speed)


# Stable evaluations of the trigonometric quotients; the series branches
# keep relative accuracy near x = 0 where the closed forms cancel.

def _f1(x: float) -> float:
    if abs(x) < 1e-2:
        x2 = x * x
        return -1.0 / 6.0 + x2 / 120.0 - x2 * x2 / 5040.0
    return (np.sin(x) - x) / x**3


def _f2(x: float) -> float:
    if abs(x) < 1e-2:
        x2 = x * x
        return 1.0 - x2 / 6.0 + x2 * x2 / 120.0
    return np.sin(x) / x


def _f3(x: float) -> float:
    if abs(x) < 1e-2:
        x2 = x * x
        return 0.5 - x2 / 24.0 + x2 * x2 / 720.0
    return (1.0 - np.cos(x)) / x**2


def generator_vector(field, velocity, t: float) -> np.ndarray:
    """Coefficient vector of the generator, gen = coeffs . J.

    Polynomial in the field components, so the |field| -> 0 limit
    coeffs = -t * velocity comes out without a branch.
    """
    r = _vec3(field, "field")
    v = _vec3(velocity, "velocity")
    x = float(np.linalg.norm(r)) * t
    return (r @ v) * t**3 * _f1(x) * r - t * _f2(x) * v + t**2 * _f3(x) * np.cross(r, v)


def analytic_generator(rep: SpinRep, curve: FieldCurve, theta: float, t: float) -> GeneratorResult:
    """Evaluate the closed-form generator of ``curve`` at (theta, t).

    The eigenvalue spread is filled from |coeffs| and j directly; the
    spectrum of coeffs . J is |coeffs| * m by rotational invariance.
    """
    if t < 0:
        raise ValueError(f"evolution time must be nonnegative, got {t}")
    r = curve.field(theta)
    v = curve.velocity(theta)
    coeffs = generator_vector(r, v, t)
    norm = float(np.linalg.norm(coeffs))
    return GeneratorResult(
        coeffs=coeffs,
        matrix=dot_with_J(rep, coeffs),
        lambda_max=rep.j * norm,
        lambda_min=-rep.j * norm,
        t=t,
    )


def mqfi_closed_form(j: float, split: VelocitySplit, t) -> QfiBreakdown:
    """Maximal QFI 4 j^2 [vr^2 t^2 + 4 (vt^2/r^2) sin^2(rt/2)] and its parts.

    ``t`` may be an array of times; the parts then broadcast over it.  A
    split with ``field_norm == 0`` (multiplicative-parameter limit) puts
    the whole 4 j^2 t^2 |v|^2 value in the quadratic part.
    """
    jsq4 = 4.0 * float(j) ** 2
    if split.field_norm == 0.0:
        quad = jsq4 * libm_pow(t, 2) * float(split.velocity @ split.velocity)
        return QfiBreakdown(quad, quad, 0.0)
    quad = jsq4 * float(split.radial @ split.radial) * libm_pow(t, 2)
    osc = (
        4.0
        * jsq4
        * float(split.transverse @ split.transverse)
        / split.field_norm**2
        * libm_pow(np.sin(split.field_norm * t / 2.0), 2)
    )
    return QfiBreakdown(quad + osc, quad, osc)


def mqfi_small_time(j: float, velocity, t) -> float:
    """Quadratic short-time value 4 j^2 t^2 |v|^2 of the maximal QFI; ``t`` may be an array."""
    v = _vec3(velocity, "velocity")
    return 4.0 * float(j) ** 2 * libm_pow(t, 2) * float(v @ v)
