"""Systems and the two closed forms that know more than the field vector.

Spherical field
    field = r (sin th cos ph, sin th sin ph, cos th); estimating the
    direction angles gives a purely oscillatory MQFI (16 j^2 sin^2(rt/2),
    with an extra sin^2 th for the azimuth), estimating the amplitude the
    purely quadratic 4 j^2 t^2.  Here |field| = r exactly, which the
    vector form would recover from the components only to rounding.

Static two-component field
    h = omega0 jz + lam jx, the field vector (lam, 0, omega0).  Its MQFI
    for omega0 or lam is generator.mqfi_closed_form of that vector.

Circularly driven field
    h(t) = omega0 jz + lam (jx cos wt + jy sin wt).  A frame rotating at
    the drive frequency w makes the dynamics static with
    h_eff = delta jz + lam jx, delta = omega0 - w, so the lab propagator
    factors as U = exp(-i w t jz) exp(-i h_eff t).  Estimating omega0 or
    lam is the static case with omega0 -> delta; estimating w composes
    the generators of the two factors (a moving frame), giving mqfi =
    4 j^2 (lam^2 / kp^4) [2 + kp^2 t^2 - 2 kp t sin(kp t) - 2 cos(kp t)]
    with kp = sqrt(lam^2 + delta^2), stationary and maximal on resonance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generator import _field_ratio, _finite_cubes, _reject_first
from .spin import libm_pow

__all__ = [
    "SphericalField",
    "StaticFieldSystem",
    "DrivenSystem",
    "spherical_field_mqfi",
    "driving_generator_vector",
    "driving_frequency_mqfi",
]


# The systems below accept arrays for any field, as long as they broadcast
# together; the closed forms then evaluate a whole grid in one call.


@dataclass(frozen=True)
class SphericalField:
    """External field of amplitude r pointing along (theta, phi)."""

    r: float
    theta: float
    phi: float

    def __post_init__(self):
        _reject_first(~(np.asarray(self.r) > 0), "field amplitude must be positive", r=self.r)


@dataclass(frozen=True)
class StaticFieldSystem:
    """Ensemble coupled to a static transverse field: h = omega0 jz + lam jx."""

    omega0: float
    lam: float

    def __post_init__(self):
        _reject_first(self.k == 0.0, "omega0 and lam are both zero, the field vanishes",
                      omega0=self.omega0, lam=self.lam)

    @property
    def k(self) -> float:
        return np.hypot(self.lam, self.omega0)


@dataclass(frozen=True)
class DrivenSystem:
    """Ensemble driven by a rotating transverse field of frequency omega."""

    omega0: float
    lam: float
    omega: float

    def __post_init__(self):
        _reject_first(self.kp == 0.0,
                      "lam and delta are both zero: the drive frequency is unobservable (MQFI 0)",
                      omega0=self.omega0, lam=self.lam, omega=self.omega)

    @property
    def delta(self) -> float:
        """Detuning between the transition and the drive."""
        return self.omega0 - self.omega

    @property
    def kp(self) -> float:
        return np.hypot(self.lam, self.delta)


def spherical_field_mqfi(which: str, field: SphericalField, j: float, t) -> float:
    """Maximal QFI for estimating one spherical coordinate of the field."""
    jsq4 = 4.0 * float(j) ** 2
    if which == "theta":
        return 4.0 * jsq4 * libm_pow(np.sin(field.r * t / 2.0), 2)
    if which == "phi":
        return 4.0 * jsq4 * libm_pow(np.sin(field.theta), 2) * libm_pow(np.sin(field.r * t / 2.0), 2)
    if which == "r":
        return jsq4 * libm_pow(t, 2)
    raise ValueError(f"unknown spherical parameter {which!r}")


def _spherical_generator_vector(which: str, field: SphericalField, t) -> np.ndarray:
    """Coefficient vector of the generator for estimating a direction angle, with |field| = r exactly.

    With x = r t it is -sin(x) e_theta + 2 sin^2(x/2) e_phi for theta and
    sin(theta) [-sin(x) e_phi - 2 sin^2(x/2) e_theta] for phi; the vector
    form would get the vanishing radial speed only by cancellation.  The
    fields and ``t`` may be arrays, the vectors stacking on a last axis.
    """
    x = field.r * t
    sin_x, versine = np.sin(x), 2.0 * libm_pow(np.sin(x / 2.0), 2)   # versine = 1 - cos x
    ct, st, cp, sp = np.cos(field.theta), np.sin(field.theta), np.cos(field.phi), np.sin(field.phi)
    e_theta = (ct * cp, ct * sp, -st)
    e_phi = (-sp, cp, 0.0)
    if which == "theta":
        parts = [-sin_x * a + versine * b for a, b in zip(e_theta, e_phi)]
    elif which == "phi":
        parts = [st * (-sin_x * b - versine * a) for a, b in zip(e_theta, e_phi)]
    else:
        raise ValueError(f"unknown spherical direction angle {which!r}")
    return np.stack(np.broadcast_arrays(*parts), axis=-1)


def driving_generator_vector(system: DrivenSystem, t) -> np.ndarray:
    """Coefficient vector of the drive-frequency generator, gen = coeffs . J.

    The system's fields and ``t`` may be arrays; they broadcast, the
    coefficient vectors stack on a last axis of length 3, and each point
    gets the bits of its own call.  A point whose t^3 or (kp t)^3 is not
    finite raises ValueError.
    """
    kp, lam, delta = system.kp, system.lam, system.delta
    x = kp * t
    x3, t3 = _finite_cubes(x, t, "kp t")
    # Both branches run on every point; the one not taken may overflow.
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        x2 = x * x
        small = np.abs(x) < 1e-2
        g1 = np.where(small, 1.0 / 3.0 - x2 / 30.0 + x2 * x2 / 840.0,               # (sin x - x cos x)/x^3
                      (np.sin(x) - x * np.cos(x)) / x3)
        g2 = np.where(small, -0.5 + x2 / 8.0 - x2 * x2 / 144.0,                     # (1 - cos x - x sin x)/x^2
                      (1.0 - np.cos(x) - x * np.sin(x)) / libm_pow(x, 2))
    c1 = t3 * g1
    c2 = libm_pow(t, 2) * g2
    parts = np.broadcast_arrays(-lam * delta * c1, lam * c2, libm_pow(lam, 2) * c1)
    return np.stack(parts, axis=-1)


def driving_frequency_mqfi(system: DrivenSystem, j: float, t) -> float:
    """Maximal QFI for estimating the drive frequency omega."""
    kp, lam = system.kp, system.lam
    x = kp * t
    # Both branches run on every point; the one not taken may overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        x2 = x * x
        series = x2 * x2 * (0.25 - x2 / 72.0 + x2 * x2 / 2880.0)
        closed = 2.0 + x * x - 2.0 * x * np.sin(x) - 2.0 * np.cos(x)
    bracket = np.where(np.abs(x) < 0.1, series, closed)[()]
    return _field_ratio(4.0 * float(j) ** 2, lam, kp, bracket, 4)

