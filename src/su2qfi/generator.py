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

sourced by the radial and the transverse velocity respectively; a zero
field leaves only the quadratic part 4 j^2 t^2 |v|^2.  This one closed
form serves every field known only as a vector.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spin import libm_pow, reject_first, row_dot, row_norm

__all__ = [
    "VelocitySplit",
    "QfiBreakdown",
    "split_velocity",
    "generator_vector",
    "mqfi_closed_form",
]


_TINY = np.finfo(float).tiny   # the smallest normal double


def _normal(x):
    """Whether the nonnegative x is a normal double: neither zero, subnormal nor infinite."""
    return (x >= _TINY) & (x < np.inf)


def _direct_or_scaled(parts, scaled_roots):
    """Each part coeff num^2 factor / den^power of ``parts``, a list of (coeff, num, den, factor, power), power 2 or 4.

    A part keeps its direct form, (coeff num^2 factor) / den^2 or
    (coeff num^2 / den^4) factor, where num^2, den^power, factor and that
    first product are normal doubles.  Every other row takes the square of
    its root from ``scaled_roots(on)``, ``on(*arrays)`` taking those rows
    of each array broadcast to the parts' shape; a root applies its powers
    of two with np.ldexp, so nothing leaves the range before the square.
    """
    values, fine = [], []
    with np.errstate(all="ignore"):   # a row out of range is only left unmarked; a root above the range is inf
        for coeff, num, den, factor, power in parts:
            num_sq, den_pow = libm_pow(num, 2), libm_pow(den, power)
            first = coeff * np.asarray(num_sq) * factor if power == 2 else coeff * np.asarray(num_sq) / den_pow
            values.append(np.asarray(first / den_pow if power == 2 else first * factor))   # fresh, patched in place
            fine.append(_normal(num_sq) & _normal(den_pow) & _normal(factor) & _normal(first))
        rows = ~np.logical_and.reduce(fine)
        if rows.any():
            roots = scaled_roots(lambda *arrays: [np.broadcast_to(x, rows.shape)[rows] for x in arrays])
            for value, ok, root in zip(values, fine, roots):
                value[rows] = np.where(ok[rows], value[rows], root * root)
    return [value[()] for value in values]


def _vec3_rows(x, name: str) -> np.ndarray:
    """A 3-vector or a stack (..., 3) of them, each finite."""
    v = np.asarray(x, dtype=float)
    if v.ndim < 1 or v.shape[-1] != 3:
        raise ValueError(f"{name} must be a real 3-vector, got shape {v.shape}")
    reject_first(~np.isfinite(v).all(axis=-1), lambda k: f"{name} must be finite")
    return v


@dataclass(frozen=True)
class VelocitySplit:
    """Decomposition of the curve velocity along and across the field.

    Scalars are floats for one point or arrays for a stack.
    """

    field: np.ndarray
    velocity: np.ndarray
    field_norm: float
    along: float    # field . velocity = |field| times the radial speed
    across: float   # |field x velocity| = |field| times the transverse speed


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
    field.  A zero field splits into zeros.
    """
    r, v = np.broadcast_arrays(_vec3_rows(field, "field"), _vec3_rows(velocity, "velocity"))
    x, y, z = r[..., 0], r[..., 1], r[..., 2]
    a, b, c = v[..., 0], v[..., 1], v[..., 2]
    return VelocitySplit(r, v, _norm(x, y, z), x * a + y * b + z * c,
                         _norm(y * c - z * b, z * a - x * c, x * b - y * a))


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
    names t and x (called ``name``) at the first point, in broadcast
    row-major order, where either is not finite.
    """
    x3, t3 = libm_pow(x, 3), libm_pow(t, 3)
    bad = ~(np.isfinite(x3) & np.isfinite(t3))

    def at(k):
        t_k, x_k = (float(np.broadcast_to(v, bad.shape).flat[k]) for v in (t, x))
        return f"t^3 or ({name})^3 is not finite in double precision (at t={t_k!r}, {name}={x_k!r})"

    reject_first(bad.ravel(), at)
    return x3, t3


def generator_vector(field, velocity, t) -> np.ndarray:
    """Coefficient vector of the generator, gen = coeffs . J.

    Polynomial in the field components, so the |field| -> 0 limit
    coeffs = -t * velocity comes out without a branch.  ``field`` and
    ``velocity`` may be stacks (..., 3) and ``t`` an array; they broadcast,
    and each row gets the bits of its own call.  |field| takes nested hypot
    on the rows whose squares overflow (above about 1.34e154).  A row whose
    t^3 or (|field| t)^3 is not finite raises ValueError (see
    :func:`_finite_cubes`).
    """
    r = _vec3_rows(field, "field")
    v = _vec3_rows(velocity, "velocity")
    x = row_norm(r) * t
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
    product are normal doubles (:func:`_direct_or_scaled`); its other rows
    take the square of its scaled-field root (:func:`_scaled_field_roots`),
    accurate wherever the part is a normal double.  A zero field's MQFI is
    all quadratic, 4 j^2 t^2 (v.v): its numerator is t, its |r| 1 and its
    factor v.v.
    """
    jsq4 = 4.0 * float(j) ** 2
    r, v = split.field_norm, split.velocity
    num, den, factor = split.along, r, libm_pow(t, 2)
    zero = r == 0.0
    if zero.any():   # only then, so that a grid of t alone keeps one numerator and one |r|
        with np.errstate(over="ignore"):   # a row whose v.v overflows takes the scaled root
            num, den, factor = np.where(zero, t, num), np.where(zero, 1.0, den), np.where(zero, row_dot(v, v), factor)
    quad, osc = _direct_or_scaled([(jsq4, num, den, factor, 2),
                                   (4.0 * jsq4, split.across, r, libm_pow(np.sin(r * t / 2.0), 2), 4)],
                                  lambda on: _scaled_field_roots(jsq4, split.field, v, t, on)[:2])
    return QfiBreakdown(quad + osc, quad, osc)


def _scaled_field_roots(jsq4: float, field, velocity, t, on):
    """Roots 2j (r.v/|r|) t, 4j (|r x v|/|r|) sin(|r| t/2)/|r| (2j = sqrt(jsq4)) and the phase |r| t/2 on ``on``'s rows.

    s = r/2^er and w = v/2^ev (2^er the power of two above the largest field
    component, 2^ev that above the largest velocity component but at most 4)
    are exact, so exact zeros of r.v and |r x v| stay zero and s.w/|s| and
    |s x w|/|s| cannot overflow; these are formed once per field row.  s.w
    is taken as s.w/2^ea, 2^ea the power of two of its largest nonzero term
    (ea = 0 without one, a zero field too), summed in split_velocity's order
    from the products of the np.frexp mantissas of s and w: no term
    underflows, and in range it is split_velocity's r.v times a power of two.
    np.ldexp applies 2^ev, 2^ea and the powers of two of t, sin(|r| t/2) and
    |r| = 2^er |s|, and sin(|r| t/2)/|r| is t/2 where the phase is below the
    normal range: each root is one product, and its square is accurate
    wherever it and |s x w| are normal doubles.  On a zero field's
    rows the velocity is all radial: the roots are 2j |w| t 2^ev and 0.
    """
    er, ev = (np.frexp(np.max(np.abs(x), axis=-1))[1] for x in (field, velocity))
    ev = np.minimum(ev, 2)   # v/4 at most keeps the small components of a large v
    s, w = np.ldexp(field, -er[..., None]), np.ldexp(velocity, -ev[..., None])
    s_norm, cross = _norm(s[..., 0], s[..., 1], s[..., 2]), np.cross(s, w)
    (ms, es), (mw, ew) = np.frexp(s), np.frexp(w)
    ep, both = es + ew, (ms != 0.0) & (mw != 0.0)
    ea = np.where(both.any(axis=-1), np.max(ep, axis=-1, where=both, initial=np.iinfo(ep.dtype).min), 0)
    terms = ms * np.ldexp(mw, np.where(both, ep - ea[..., None], 0))   # s_k w_k / 2^ea
    along = terms[..., 0] + terms[..., 1] + terms[..., 2]   # in split_velocity's order
    across = _norm(cross[..., 0], cross[..., 1], cross[..., 2])
    er, ev, ea, s_norm, along, across, t, *w = on(er, ev, ea, s_norm, along, across, t, *np.moveaxis(w, -1, 0))
    radial, transverse = along / s_norm, across / s_norm
    zero = s_norm == 0.0
    radial[zero], transverse[zero] = _norm(*(x[zero] for x in w)), 0.0
    m_t, e_t = np.frexp(t)
    phase = np.ldexp(s_norm * m_t, er + e_t - 1)   # |r| t/2, also where |r| is subnormal
    m_s, e_s = np.frexp(np.sin(phase))
    quad = np.ldexp(radial * m_t, ev + ea + e_t) * np.sqrt(jsq4)
    osc = 2.0 * np.sqrt(jsq4) * np.where(np.abs(phase) < _TINY, np.ldexp(transverse * m_t, ev + e_t - 1),
                                         np.ldexp(transverse * m_s / s_norm, ev - er + e_s))
    return quad, osc, phase
