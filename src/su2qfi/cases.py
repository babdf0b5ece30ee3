"""Systems and the two closed forms that know more than the field vector.

Spherical field
    field = r (sin th cos ph, sin th sin ph, cos th); estimating the
    direction angles gives a purely oscillatory MQFI (16 j^2 sin^2(rt/2),
    with an extra sin^2 th for the azimuth), estimating the amplitude the
    purely quadratic 4 j^2 t^2.  Here |field| = r exactly, which the
    vector form would recover from the components only to rounding.

Static two-component field
    h = omega0 jz + lam jx, the field vector (lam, 0, omega0).  Its MQFI
    for omega0 or lam is generator.mqfi_closed_form of that vector, which
    needs no system of its own and answers omega0 = lam = 0 too.

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

from .generator import QfiBreakdown, _direct_or_scaled, _finite_cubes, _reject_first, _scaled_field_roots
from .spin import libm_pow

__all__ = [
    "SphericalField",
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
class DrivenSystem:
    """Ensemble driven by a rotating transverse field of frequency omega: the system of the drive-frequency forms."""

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
        with np.errstate(over="ignore"):   # inf once lam and delta pass 1.27e308; the MQFI then takes its scaled roots
            return np.hypot(self.lam, self.delta)


def spherical_field_mqfi(which: str, field: SphericalField, j: float, t) -> QfiBreakdown:
    """Maximal QFI for estimating one spherical coordinate: all quadratic for r, all oscillatory for an angle."""
    jsq4 = 4.0 * float(j) ** 2
    if which == "r":
        quad = jsq4 * libm_pow(t, 2)
        return QfiBreakdown(quad, quad, 0.0)
    if which == "theta":
        osc = 4.0 * jsq4 * libm_pow(np.sin(field.r * t / 2.0), 2)
    elif which == "phi":
        osc = 4.0 * jsq4 * libm_pow(np.sin(field.theta), 2) * libm_pow(np.sin(field.r * t / 2.0), 2)
    else:
        raise ValueError(f"unknown spherical parameter {which!r}")
    return QfiBreakdown(osc, 0.0, osc)


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


def driving_frequency_mqfi(system: DrivenSystem, j: float, t) -> QfiBreakdown:
    """Maximal QFI for estimating the drive frequency omega.

    The quadratic part is the late-time parabola 4 j^2 lam^2 t^2 / kp^2,
    the quadratic part of the lam estimate on the same field; the
    oscillatory part is the remainder and may be negative.  Both follow
    :func:`_direct_or_scaled`'s one out-of-range rule.
    """
    kp, lam, delta, jsq4 = system.kp, system.lam, system.delta, 4.0 * float(j) ** 2

    def bracket(x):   # x^4 times the series' polynomial below x = 0.1, else the closed form; and those two
        x2 = x * x
        poly = 0.25 - x2 / 72.0 + x2 * x2 / 2880.0
        closed = 2.0 + x * x - 2.0 * x * np.sin(x) - 2.0 * np.cos(x)
        return np.where(np.abs(x) < 0.1, x2 * x2 * poly, closed)[()], poly, closed

    def scaled_roots(on):   # 2j (lam/kp) t b with b^2 = bracket / x^2, and 2j (lam/kp) t, the lam estimate's root
        quad, _, phase = _scaled_field_roots(jsq4, np.stack(np.broadcast_arrays(lam, 0, delta), -1), (1, 0, 0), t, on)
        _, poly, closed = bracket(x := 2.0 * phase)   # x = kp t, also where kp overflows or is subnormal
        b = np.where(np.abs(x) < 0.1, np.abs(x) * np.sqrt(poly),   # the series' own polynomial
                     np.where(np.isfinite(closed), np.sqrt(closed) / x, 1.0))   # 1 where x^2 overflows
        return quad * b, quad

    with np.errstate(over="ignore", invalid="ignore"):   # the bracket branch not taken may overflow, or both parts
        total, quad = _direct_or_scaled([(jsq4, lam, kp, bracket(kp * t)[0], 4), (jsq4, lam, kp, libm_pow(t, 2), 2)],
                                        scaled_roots)
        return QfiBreakdown(total, quad, total - quad)
