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

    mqfi = 4 j^2 [ (field.v)^2 t^2 / |field|^2
                   + 4 (|field x v|^2 / |field|^4) sin^2(|field| t / 2) ],

sourced by the radial and the transverse velocity respectively.  This one
closed form serves every field known only as a vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spin import libm_pow, reject_first, row_dot

__all__ = [
    "DegenerateFieldError",
    "FieldCurve",
    "VelocitySplit",
    "QfiBreakdown",
    "split_velocity",
    "generator_vector",
    "mqfi_closed_form",
    "mqfi_small_time",
]


class DegenerateFieldError(ValueError):
    """The coefficient field vanishes where a direction (or scale) is required."""


def _reject_first(bad, message: str, error=DegenerateFieldError, **values):
    """Raise ``error`` if any entry of ``bad`` is set.

    The message names ``values`` (broadcast against ``bad``) at the first
    set entry, so a grid reports its first offending point.
    """
    bad = np.asarray(bad)

    def at(k):
        return ", ".join(f"{name}={float(np.broadcast_to(v, bad.shape).flat[k])!r}" for name, v in values.items())

    reject_first(bad.ravel(), lambda k: f"{message} (at {at(k)})", error)


_TINY = np.finfo(float).tiny   # the smallest normal double


def _normal(x):
    """Whether the nonnegative x is a normal double: neither zero, subnormal nor infinite."""
    return (x >= _TINY) & (x < np.inf)


def _direct_form(coeff: float, num, den, factor, power: int):
    """coeff num^2 factor / den^power, for a nonzero den and power 2 or 4, and where it is fine.

    The value is (coeff num^2 factor) / den^2 or (coeff num^2 / den^4)
    factor.  ``fine`` marks the rows where num^2, den^power, factor and
    that first product are all normal doubles; the value is accurate
    there, and may be anything on the other rows.
    """
    num_sq, den_pow = libm_pow(num, 2), libm_pow(den, power)
    with np.errstate(all="ignore"):   # a row out of range is only left unmarked
        first = coeff * np.asarray(num_sq) * factor if power == 2 else coeff * np.asarray(num_sq) / den_pow
        value = first / den_pow if power == 2 else first * factor
    return value, _normal(num_sq) & _normal(den_pow) & _normal(factor) & _normal(first)


def _field_ratio(coeff: float, num, den, factor, power: int):
    """coeff num^2 factor / den^power: the direct form where it is fine, else coeff (num/den)^2 factor / den^(power-2).

    The fallback divides factor by den once per power above 2, so it is
    accurate wherever num/den, factor / den^(power-2) and the value are normal.
    """
    value, fine = _direct_form(coeff, num, den, factor, power)
    if not fine.all():
        value = np.asarray(value)   # a fresh array, patched in place
        n, d, f = (np.broadcast_to(x, fine.shape)[~fine] for x in (num, den, factor))
        value[~fine] = coeff * libm_pow(n / d, 2) * (f / d / d if power == 4 else f)
    return value[()]


def _vec3_rows(x, name: str) -> np.ndarray:
    """A 3-vector or a stack (..., 3) of them, each finite."""
    v = np.asarray(x, dtype=float)
    if v.ndim < 1 or v.shape[-1] != 3:
        raise ValueError(f"{name} must be a real 3-vector, got shape {v.shape}")
    reject_first(~np.isfinite(v).all(axis=-1), lambda k: f"{name} must be finite")
    return v


@dataclass(frozen=True)
class FieldCurve:
    """Parametric coefficient curve theta -> field(theta) in 3-space.

    ``v_of`` is its analytic derivative d field / d theta.  Curves whose
    callables broadcast take an array of theta and return a stack (..., 3).
    """

    r_of: Callable[[float], np.ndarray]
    v_of: Callable[[float], np.ndarray]

    def field(self, theta: float) -> np.ndarray:
        return _vec3_rows(self.r_of(theta), "field")

    def velocity(self, theta: float) -> np.ndarray:
        return _vec3_rows(self.v_of(theta), "velocity")


@dataclass(frozen=True)
class VelocitySplit:
    """Decomposition of the curve velocity along and across the field.

    Scalars are floats for one point or arrays for a stack; components are derived on use.
    """

    field: np.ndarray
    velocity: np.ndarray
    field_norm: float
    along: float    # field . velocity = |field| radial_speed
    across: float   # |field x velocity| = |field| |transverse|

    @property
    def radial_speed(self):   # d|field|/dtheta = velocity . unit(field)
        return row_dot(self.velocity, self.field / self.field_norm[..., None])

    @property
    def radial(self) -> np.ndarray:
        return self.radial_speed[..., None] * self.field / self.field_norm[..., None]

    @property
    def transverse(self) -> np.ndarray:
        return self.velocity - self.radial


@dataclass(frozen=True)
class QfiBreakdown:
    """Maximal QFI and its quadratic / oscillatory parts (total = sum).

    The parts are floats for one point, or arrays for a grid of points.
    """

    total: float
    quadratic: float
    oscillatory: float


def split_velocity(field, velocity) -> VelocitySplit:
    """Split ``velocity`` into components parallel and orthogonal to ``field``.

    ``field`` and ``velocity`` may be stacks (..., 3); they broadcast, and
    each row gets the bits of its own call.  Norms are nested ``np.hypot``
    calls, which neither overflow nor underflow for a finite nonzero
    field.  Raises DegenerateFieldError when |field| = 0 since the radial
    direction is then undefined.
    """
    r, v = np.broadcast_arrays(_vec3_rows(field, "field"), _vec3_rows(velocity, "velocity"))
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    a, b, c = v[..., 0], v[..., 1], v[..., 2]
    r_norm = _norm(x, y, z)
    if np.any(r_norm == 0.0):
        raise DegenerateFieldError("field vanishes, radial direction undefined")
    return VelocitySplit(r, v, r_norm, x * a + y * b + z * c, _norm(y * c - z * b, z * a - x * c, x * b - y * a))


def _norm(x, y, z):
    return np.hypot(np.hypot(x, y), z)


# Stable evaluations of the trigonometric quotients; the series branches
# keep relative accuracy near x = 0 where the closed forms cancel.  Both
# branches run on every point of an array and the series one is kept for
# |x| < 1e-2; libm_pow gives each point the bits of a scalar call.

def _f1(x, x3):
    """(sin x - x) / x^3, given x^3 from :func:`_finite_cubes`."""
    x2 = x * x
    series = -1.0 / 6.0 + x2 / 120.0 - x2 * x2 / 5040.0
    return np.where(np.abs(x) < 1e-2, series, (np.sin(x) - x) / x3)


def _f2(x):
    x2 = x * x
    series = 1.0 - x2 / 6.0 + x2 * x2 / 120.0
    return np.where(np.abs(x) < 1e-2, series, np.sin(x) / x)


def _f3(x):
    x2 = x * x
    series = 0.5 - x2 / 24.0 + x2 * x2 / 720.0
    return np.where(np.abs(x) < 1e-2, series, (1.0 - np.cos(x)) / libm_pow(x, 2))


def _finite_cubes(x, t, name: str):
    """(x^3, t^3) for a generator vector that divides by x^3 and multiplies by t^3.

    An infinite x^3 would make its quotient a silent zero, so ValueError
    names t and x (called ``name``) at the first point where either is not finite.
    """
    x3, t3 = libm_pow(x, 3), libm_pow(t, 3)
    _reject_first(~(np.isfinite(x3) & np.isfinite(t3)), f"t^3 or ({name})^3 is not finite in double precision",
                  ValueError, t=t, **{name: x})
    return x3, t3


def generator_vector(field, velocity, t) -> np.ndarray:
    """Coefficient vector of the generator, gen = coeffs . J.

    Polynomial in the field components, so the |field| -> 0 limit
    coeffs = -t * velocity comes out without a branch.  ``field`` and
    ``velocity`` may be stacks (..., 3) and ``t`` an array; they broadcast,
    and each row gets the bits of its own call.  A row whose t^3 or
    (|field| t)^3 is not finite raises ValueError (see :func:`_finite_cubes`).
    """
    r = _vec3_rows(field, "field")
    v = _vec3_rows(velocity, "velocity")
    x = np.sqrt(row_dot(r, r)) * t
    x3, t3 = _finite_cubes(x, t, "|field| t")
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):   # the branch not kept
        f1, f2, f3 = _f1(x, x3), _f2(x), _f3(x)
    radial = (row_dot(r, v) * t3 * f1)[..., None]
    return radial * r - (t * f2)[..., None] * v + (libm_pow(t, 2) * f3)[..., None] * np.cross(r, v)


def mqfi_closed_form(j: float, split: VelocitySplit, t) -> QfiBreakdown:
    """Maximal QFI 4 j^2 [(r.v)^2 t^2/|r|^2 + 4 (|r x v|^2/|r|^4) sin^2(|r| t/2)] and its parts.

    The split and ``t`` may be arrays; the parts then broadcast over them.
    A part keeps this direct form on the rows where its squared numerator,
    the power of |r|, its factor (t^2 or sin^2(|r| t/2)) and the first
    product are normal doubles (:func:`_direct_form`); its other rows take
    the scaled-field form (:func:`_scaled_field_parts`), accurate wherever
    the part is a normal double.
    """
    jsq4 = 4.0 * float(j) ** 2
    r = split.field_norm
    quad, quad_fine = _direct_form(jsq4, split.along, r, libm_pow(t, 2), 2)
    osc, osc_fine = _direct_form(4.0 * jsq4, split.across, r, libm_pow(np.sin(r * t / 2.0), 2), 4)
    parts, rows = [np.asarray(quad), np.asarray(osc)], ~(quad_fine & osc_fine)   # fresh arrays, patched in place
    if rows.any():
        for part, fine, scaled in zip(parts, (quad_fine, osc_fine), _scaled_field_parts(jsq4, split, t, rows)):
            part[rows] = np.where(fine[rows], part[rows], scaled)
    quad, osc = (part[()] for part in parts)
    return QfiBreakdown(quad + osc, quad, osc)


def _scaled_field_parts(jsq4: float, split: VelocitySplit, t, rows):
    """The parts on ``rows`` as (2j (r.v/|r|) t)^2 and (4j (|r x v|/|r|) (sin(|r| t/2)/|r|))^2, with 2j = sqrt(jsq4).

    s = r/2^er and w = v/2^ev (2^er the power of two above the largest field
    component, 2^ev that above the largest velocity component but at most 4)
    are exact, so exact zeros of r.v and |r x v| stay zero and s.w/|s| and
    |s x w|/|s| cannot overflow; these are formed once per split row.
    np.ldexp applies 2^ev and the powers of two of t, sin(|r| t/2) and
    |r| = 2^er |s|, and sin(|r| t/2)/|r| is t/2 where the phase is below the
    normal range: each part is one product squared, accurate wherever it,
    s.w and |s x w| are normal doubles.
    """
    er, ev = (np.frexp(np.max(np.abs(x), axis=-1))[1] for x in (split.field, split.velocity))
    ev = np.minimum(ev, 2)   # v/4 at most keeps the small components of a large v
    s, w = np.ldexp(split.field, -er[..., None]), np.ldexp(split.velocity, -ev[..., None])
    s_norm, cross = _norm(s[..., 0], s[..., 1], s[..., 2]), np.cross(s, w)
    along, across = row_dot(s, w), _norm(cross[..., 0], cross[..., 1], cross[..., 2])
    er, ev, s_norm, along, across, t = (x[rows] for x in np.broadcast_arrays(er, ev, s_norm, along, across, t))
    m_t, e_t = np.frexp(t)
    phase = np.ldexp(s_norm * m_t, er + e_t - 1)   # |r| t/2, also where |r| is subnormal
    m_s, e_s = np.frexp(np.sin(phase))
    with np.errstate(over="ignore"):   # an overflowing part is inf; one branch is not taken
        quad = np.ldexp(along / s_norm * m_t, ev + e_t) * np.sqrt(jsq4)
        osc = 2.0 * np.sqrt(jsq4) * np.where(np.abs(phase) < _TINY, np.ldexp(across / s_norm * m_t, ev + e_t - 1),
                                             np.ldexp(across / s_norm * m_s / s_norm, ev - er + e_s))
        return quad * quad, osc * osc


def mqfi_small_time(j: float, velocity, t) -> QfiBreakdown:
    """Short-time value 4 j^2 t^2 |v|^2 of the maximal QFI, all quadratic; ``velocity`` may be a stack (..., 3)."""
    v = _vec3_rows(velocity, "velocity")
    quad = 4.0 * float(j) ** 2 * libm_pow(t, 2) * row_dot(v, v)
    return QfiBreakdown(quad, quad, 0.0)
