"""Closed-form maximal QFI for three concrete estimation scenarios.

Spherical field
    field = r (sin th cos ph, sin th sin ph, cos th); estimating the
    direction angles gives a purely oscillatory MQFI (16 j^2 sin^2(rt/2),
    with an extra sin^2 th for the azimuth), estimating the amplitude the
    purely quadratic 4 j^2 t^2.

Static two-component field
    h = omega0 jz + lam jx, K = sqrt(lam^2 + omega0^2).  Estimating omega0:
    mqfi = 4 j^2 [omega0^2 t^2 / K^2 + (4 lam^2 / K^4) sin^2(K t / 2)];
    estimating lam swaps omega0 and lam in the two numerators.

Circularly driven field
    h(t) = omega0 jz + lam (jx cos wt + jy sin wt).  A frame rotating at
    the drive frequency w makes the dynamics static with
    h_eff = delta jz + lam jx, delta = omega0 - w, so the lab propagator
    factors as U = exp(-i w t jz) exp(-i h_eff t).  Estimating omega0 or
    lam reduces to the static formulas with omega0 -> delta; estimating w
    composes the generators of the two factors, giving mqfi =
    4 j^2 (lam^2 / kp^4) [2 + kp^2 t^2 - 2 kp t sin(kp t) - 2 cos(kp t)]
    with kp = sqrt(lam^2 + delta^2), stationary and maximal on resonance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generator import DegenerateFieldError, QfiBreakdown, libm_pow
from .spin import SpinRep, dot_with_J, hermitian_expm

__all__ = [
    "SphericalField",
    "StaticFieldSystem",
    "DrivenSystem",
    "spherical_field_mqfi",
    "static_field_mqfi",
    "RotatingFrame",
    "rotating_frame",
    "driving_generator_vector",
    "driving_generator",
    "driving_frequency_mqfi",
    "driven_static_mqfi",
]


def _reject_first(bad, message: str, **values):
    """Raise DegenerateFieldError if any entry of ``bad`` is set.

    The message names ``values`` (broadcast against ``bad``) at the first
    set entry, so a grid reports its first offending point.
    """
    bad = np.asarray(bad)
    if bad.any():
        k = int(np.argmax(bad.ravel()))
        at = ", ".join(
            f"{name}={float(np.broadcast_to(v, bad.shape).flat[k])!r}" for name, v in values.items()
        )
        raise DegenerateFieldError(f"{message} (at {at})")


def _pow_overflows(x, n) -> bool:
    try:
        pow(x, n)
    except OverflowError:
        return True
    return False


_pow_overflows_ufunc = np.frompyfunc(_pow_overflows, 2, 1)


def _field_ratio(coeff: float, num, den, factor, power: int):
    """coeff num^2 factor / den^power for |num| <= |den| and power 2 or 4.

    Grids where den^power is representable get exactly the bits of the
    direct forms, (coeff num^2 factor) / den^2 and (coeff num^2 / den^4)
    factor.  Only if the direct form raises OverflowError is a per-row mask
    built: rows where den^power overflows use coeff (num/den)^2 factor,
    divided by den twice for power 4, which is finite wherever factor is;
    the other rows keep the direct form.
    """
    def direct(n, d, f):
        if power == 2:
            return coeff * libm_pow(n, 2) * f / libm_pow(d, 2)
        return coeff * libm_pow(n, 2) / libm_pow(d, 4) * f

    try:
        return direct(num, den, factor)
    except OverflowError:
        pass
    with np.errstate(over="ignore"):   # the overflow this detects is expected
        over = np.asarray(_pow_overflows_ufunc(den, power), dtype=bool)
    num, den, factor, over = np.broadcast_arrays(num, den, factor, over)
    out = np.empty(over.shape)
    fine = ~over
    out[fine] = direct(num[fine], den[fine], factor[fine])
    n, d, f = num[over], den[over], factor[over]
    out[over] = coeff * libm_pow(n / d, 2) * (f / d / d if power == 4 else f)
    return out[()]


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

    def direction(self) -> np.ndarray:
        st, ct = np.sin(self.theta), np.cos(self.theta)
        return np.array([st * np.cos(self.phi), st * np.sin(self.phi), ct])


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


def static_field_mqfi(which: str, system: StaticFieldSystem, j: float, t) -> QfiBreakdown:
    """Maximal QFI breakdown for estimating omega0 or lam of a static field."""
    k = system.k
    if which == "omega0":
        radial, transverse = system.omega0, system.lam
    elif which == "lambda":
        radial, transverse = system.lam, system.omega0
    else:
        raise ValueError(f"unknown static-field parameter {which!r}")
    jsq4 = 4.0 * float(j) ** 2
    quad = _field_ratio(jsq4, radial, k, libm_pow(t, 2), 2)
    osc = _field_ratio(jsq4 * 4.0, transverse, k, libm_pow(np.sin(k * t / 2.0), 2), 4)
    return QfiBreakdown(quad + osc, quad, osc)


@dataclass(frozen=True)
class RotatingFrame:
    """Factored propagator of the driven system, U = U1(t) U2(t).

    U1 = exp(-i omega t jz) undoes the frame rotation, U2 = exp(-i h_eff t)
    evolves under the static effective Hamiltonian h_eff = delta jz + lam jx.
    """

    system: DrivenSystem

    def h_eff(self, rep: SpinRep) -> np.ndarray:
        s = self.system
        return s.delta * rep.jz + s.lam * rep.jx

    def factored(self, rep: SpinRep, t: float) -> tuple[np.ndarray, np.ndarray]:
        """(U1, U2) whose product is the lab-frame propagator at time t."""
        u1 = hermitian_expm(rep.jz, -1j * self.system.omega * t)
        u2 = hermitian_expm(self.h_eff(rep), -1j * t)
        return u1, u2

    def u_full(self, rep: SpinRep, t: float) -> np.ndarray:
        u1, u2 = self.factored(rep, t)
        return u1 @ u2


def rotating_frame(system: DrivenSystem) -> RotatingFrame:
    """Reduce the driven system to its static rotating-frame form."""
    return RotatingFrame(system)


def _require_observable_drive(system: DrivenSystem) -> DrivenSystem:
    _reject_first(system.kp == 0.0,
                  "lam and delta are both zero: the drive frequency is unobservable (MQFI 0)",
                  omega0=system.omega0, lam=system.lam, omega=system.omega)
    return system


def driving_generator_vector(system: DrivenSystem, t: float) -> np.ndarray:
    """Coefficient vector of the drive-frequency generator, gen = coeffs . J."""
    _require_observable_drive(system)
    kp, lam, delta = system.kp, system.lam, system.delta
    x = kp * t
    if abs(x) < 1e-2:
        x2 = x * x
        g1 = 1.0 / 3.0 - x2 / 30.0 + x2 * x2 / 840.0          # (sin x - x cos x)/x^3
        g2 = -0.5 + x2 / 8.0 - x2 * x2 / 144.0                # (1 - cos x - x sin x)/x^2
    else:
        g1 = (np.sin(x) - x * np.cos(x)) / x**3
        g2 = (1.0 - np.cos(x) - x * np.sin(x)) / x**2
    c1 = t**3 * g1
    c2 = t**2 * g2
    return np.array([-lam * delta * c1, lam * c2, lam**2 * c1])


def driving_generator(system: DrivenSystem, rep: SpinRep, t: float) -> np.ndarray:
    """Generator matrix for estimating the drive frequency."""
    return dot_with_J(rep, driving_generator_vector(system, t))


def driving_frequency_mqfi(system: DrivenSystem, j: float, t) -> float:
    """Maximal QFI for estimating the drive frequency omega."""
    _require_observable_drive(system)
    kp, lam = system.kp, system.lam
    x = kp * t
    # Both branches run on every point; the one not taken may overflow.
    with np.errstate(over="ignore", invalid="ignore"):
        x2 = x * x
        series = x2 * x2 * (0.25 - x2 / 72.0 + x2 * x2 / 2880.0)
        closed = 2.0 + x * x - 2.0 * x * np.sin(x) - 2.0 * np.cos(x)
    bracket = np.where(np.abs(x) < 0.1, series, closed)[()]
    return _field_ratio(4.0 * float(j) ** 2, lam, kp, bracket, 4)


def driven_static_mqfi(which: str, system: DrivenSystem, j: float, t: float) -> QfiBreakdown:
    """Maximal QFI for estimating lam, omega0 or the drive frequency omega of the driven system.

    The frame factor carries no dependence on either coupling, so for lam
    and omega0 this is the static-field result with omega0 replaced by the
    detuning.  On resonance (delta = 0) the lam value is exactly 4 j^2 t^2.
    For omega the total is :func:`driving_frequency_mqfi`; its quadratic
    part is the late-time parabola 4 j^2 lam^2 t^2 / kp^2, the quadratic
    part of the lam estimate, and the oscillatory part the remainder.
    """
    _require_observable_drive(system)
    if which == "omega":
        total = driving_frequency_mqfi(system, j, t)
        quad = _field_ratio(4.0 * float(j) ** 2, system.lam, system.kp, libm_pow(t, 2), 2)
        return QfiBreakdown(total, quad, total - quad)
    if which not in ("omega0", "lambda"):
        raise ValueError(f"unknown driven-system parameter {which!r}")
    equivalent = StaticFieldSystem(omega0=system.delta, lam=system.lam)
    return static_field_mqfi(which, equivalent, j, t)
