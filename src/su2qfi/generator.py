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
from typing import Callable, Optional

import numpy as np

from .spin import SpinRep, dot_with_J, libm_pow, reject_first, row_dot

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


def _field_ratio(coeff: float, num, den, factor, power: int, root=None):
    """coeff num^2 factor / den^power for a nonzero den and power 2 or 4.

    ``root``, given only with power 4, is a square root of ``factor``.
    Rows where den^power, num^2, the bracketed product and a factor with
    a root are normal doubles (or are zero because num or that factor is)
    get exactly the bits of the direct forms, (coeff num^2 factor) / den^2
    and (coeff num^2 / den^4) factor.  The other rows use coeff (num/den)^2
    factor, with factor divided by den twice for power 4, or (root/den)^2
    where that factor is subnormal: accurate wherever num/den,
    factor / den^(power-2) and the value are normal.
    """
    def direct(num_sq, den_pow, f):
        return coeff * num_sq * f / den_pow if power == 2 else coeff * num_sq / den_pow * f

    num_sq, den_pow = libm_pow(num, 2), libm_pow(den, power)
    with np.errstate(all="ignore"):   # an out-of-range product only sends its row to the rescaled form
        first = coeff * np.asarray(num_sq) * factor if power == 2 else coeff * np.asarray(num_sq) / den_pow
    zero = (num == 0.0) | (factor == 0.0) if power == 2 else num == 0.0
    fine = (_normal(num_sq) | (num == 0.0)) & _normal(den_pow) & (_normal(first) | zero)
    if root is not None:
        fine &= _normal(factor) | (factor == 0.0)
    if np.all(fine):
        return direct(num_sq, den_pow, factor)
    num, den, factor, num_sq, den_pow, fine = np.broadcast_arrays(num, den, factor, num_sq, den_pow, fine)
    out = np.empty(fine.shape)
    out[fine] = direct(num_sq[fine], den_pow[fine], factor[fine])
    n, d, f = num[~fine], den[~fine], factor[~fine]
    if power == 4:
        f = f / d / d
    if root is not None:   # a subnormal factor has lost digits that root / den keeps
        f = np.where(factor[~fine] >= _TINY, f, libm_pow(np.broadcast_to(root, fine.shape)[~fine] / d, 2))
    out[~fine] = coeff * libm_pow(n / d, 2) * f
    return out[()]


def _vec3_rows(x, name: str) -> np.ndarray:
    """A 3-vector or a stack (..., 3) of them, each finite."""
    v = np.asarray(x, dtype=float)
    if v.ndim < 1 or v.shape[-1] != 3:
        raise ValueError(f"{name} must be a real 3-vector, got shape {v.shape}")
    reject_first(~np.isfinite(v).all(axis=-1), lambda k: f"{name} must be finite")
    return v


def _vec3(x, name: str) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a real 3-vector, got shape {v.shape}")
    return _vec3_rows(v, name)


@dataclass(frozen=True)
class FieldCurve:
    """Parametric coefficient curve theta -> field(theta) in 3-space.

    ``v_of`` is the analytic derivative when supplied; otherwise the
    velocity falls back to a central difference with step
    1e-6 * max(1, |theta|), which balances truncation against roundoff
    for double precision.  Curves whose callables broadcast take an array
    of theta (``v_of`` required) and return a stack (..., 3).
    """

    r_of: Callable[[float], np.ndarray]
    v_of: Optional[Callable[[float], np.ndarray]] = None

    def field(self, theta: float) -> np.ndarray:
        return _vec3_rows(self.r_of(theta), "field")

    def velocity(self, theta: float) -> np.ndarray:
        if self.v_of is not None:
            return _vec3_rows(self.v_of(theta), "velocity")
        h = 1e-6 * max(1.0, abs(theta))
        return (self.field(theta + h) - self.field(theta - h)) / (2 * h)


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


@dataclass(frozen=True)
class GeneratorResult:
    """Generator coeffs . J with its extreme eigenvalues +-j |coeffs|."""

    coeffs: np.ndarray
    matrix: np.ndarray
    lambda_max: float
    lambda_min: float
    t: float

    def mqfi(self) -> float:
        return libm_pow(self.lambda_max - self.lambda_min, 2)


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
    """Maximal QFI 4 j^2 [(r.v)^2 t^2/|r|^2 + 4 (|r x v|^2/|r|^4) sin^2(|r| t/2)] and its parts.

    The split and ``t`` may be arrays; the parts then broadcast over them.
    Powers that leave the normal double range are divided out one factor
    at a time (:func:`_field_ratio`), so tiny and huge fields stay accurate.
    """
    jsq4 = 4.0 * float(j) ** 2
    r = split.field_norm
    quad = _field_ratio(jsq4, split.along, r, libm_pow(t, 2), 2)
    half = np.sin(r * t / 2.0)
    osc = _field_ratio(4.0 * jsq4, split.across, r, libm_pow(half, 2), 4, root=half)
    return QfiBreakdown(quad + osc, quad, osc)


def mqfi_small_time(j: float, velocity, t) -> QfiBreakdown:
    """Short-time value 4 j^2 t^2 |v|^2 of the maximal QFI, all quadratic; ``t`` may be an array."""
    v = _vec3(velocity, "velocity")
    quad = 4.0 * float(j) ** 2 * libm_pow(t, 2) * float(v @ v)
    return QfiBreakdown(quad, quad, 0.0)
