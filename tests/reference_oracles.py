"""Reference oracles that only the tests use.

These are independent checks on the library, not part of it: a spin-j
matrix midpoint product for time-ordered evolution (the reference for
``midpoint_su2`` + ``su2_lift``), a finite-difference generator of a
callable propagator, the QFI from the finite-difference derivative of
the evolved state, and the paper's closed forms (the MQFI split, the
drive-frequency MQFI and the generator vector) in mpmath at a given
number of digits, with the seeded extreme draws and the normal-part check
that hold the closed forms to them.  The library's own finite-difference
route is ``fd_generator(us, step)`` over propagators stacked at ``fd_points``.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import mpmath
import numpy as np
import pytest

from su2qfi import fd_generator, fd_points, hermitian_expm
from su2qfi.numerics import _require_state, _require_unitary


def qfi_fd(u_of: Callable[[float], np.ndarray], theta: float, psi0, step: Optional[float] = None) -> float:
    """QFI from the parameter derivative of the evolved state.

    Evaluates 4 (<dpsi|dpsi> - |<psi|dpsi>|^2) with |psi(theta)> =
    U(theta)|psi0> and a central difference for |dpsi>.  Cross-validates
    the variance formula together with the finite-difference generator.
    """
    h = step if step is not None else 1e-5 * max(1.0, abs(theta))
    u0 = _require_unitary(u_of(theta), "U(theta)")
    s0 = _require_state(psi0, u0.shape[0])
    plus = u_of(theta + h) @ s0
    minus = u_of(theta - h) @ s0
    psi = u0 @ s0
    dpsi = (plus - minus) / (2 * h)
    overlap = np.vdot(psi, dpsi)
    return 4.0 * float(np.real(np.vdot(dpsi, dpsi)) - abs(overlap) ** 2)


def generator_fd(u_of: Callable[[float], np.ndarray], theta: float, step: Optional[float] = None) -> np.ndarray:
    """Finite-difference generator i (d_theta U^dag) U, Hermitian-symmetrized.

    Parameters
    ----------
    u_of : callable
        theta -> unitary propagator, evaluated at the five
        :func:`su2qfi.fd_points` and differentiated by :func:`su2qfi.fd_generator`.
    step : float, optional
        Stencil step; default 1e-3 * max(1, |theta|).
    """
    h = step if step is not None else 1e-3 * max(1.0, abs(theta))
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    us = np.stack([u_of(th) for th in fd_points(theta, h).tolist()])
    return fd_generator(us, h)


def mqfi_split(r, v, t, dps: int, double_norm=None):
    """(r.v)^2 t^2 / |r|^2 and 4 |r x v|^2 / |r|^4 sin^2(|r| t / 2), the MQFI parts over 4 j^2, at ``dps`` digits.

    The phase rule: the phase |r| t / 2 is exact when ``double_norm`` is
    None.  Given the double |r| of a closed form, the phase is the double
    ``double_norm * t / 2`` that closed form takes the sine of, wherever the
    exact phase is at least 1e-3.  The parts are mpf numbers; the inputs
    may be floats or mpf numbers, taken exactly.
    """
    with mpmath.workdps(dps):
        r, v, t = [mpmath.mpf(x) for x in r], [mpmath.mpf(x) for x in v], mpmath.mpf(t)
        dot = r[0] * v[0] + r[1] * v[1] + r[2] * v[2]
        cross = (r[1] * v[2] - r[2] * v[1], r[2] * v[0] - r[0] * v[2], r[0] * v[1] - r[1] * v[0])
        norm_sq = r[0] ** 2 + r[1] ** 2 + r[2] ** 2
        phase = mpmath.sqrt(norm_sq) * t / 2
        if double_norm is not None and phase >= 1e-3:
            phase = mpmath.mpf(float(double_norm) * float(t) / 2.0)
        return dot**2 * t**2 / norm_sq, 4 * sum(x * x for x in cross) / norm_sq**2 * mpmath.sin(phase) ** 2


def drive_frequency_total(lam, delta, t, dps: int):
    """The drive-frequency MQFI over 4 j^2, lam^2 / kp^4 [2 + x^2 - 2 x sin x - 2 cos x], at ``dps`` digits.

    kp = sqrt(lam^2 + delta^2) and x = kp t.  Below x = 0.5 the bracket is
    summed as its series sum_{n>=2} (-1)^n 2 (2n - 1) / (2n)! x^(2n), which
    does not cancel, so a tiny x needs no extra digits.  The total is an
    mpf number.
    """
    with mpmath.workdps(dps):
        lam, delta, t = mpmath.mpf(lam), mpmath.mpf(delta), mpmath.mpf(t)
        kp_sq = lam**2 + delta**2
        x = mpmath.sqrt(kp_sq) * t
        if x < 0.5:
            bracket, n, term = mpmath.mpf(0), 2, x**4 / 24   # term: x^(2n) / (2n)!
            while abs(term) > mpmath.eps * abs(bracket) or n == 2:
                bracket += (-1) ** n * 2 * (2 * n - 1) * term
                term *= x**2 / ((2 * n + 1) * (2 * n + 2))
                n += 1
        else:
            bracket = 2 + x**2 - 2 * x * mpmath.sin(x) - 2 * mpmath.cos(x)
        return lam**2 / kp_sq**2 * bracket


def generator_vector_coeffs(r, v, t, dps: int):
    """The paper's generator vector at ``dps`` digits, x = |r| t, as three mpf numbers:

    (r.v) (sin x - x) / |r|^3 r - sin x / |r| v + (1 - cos x) / |r|^2 (r x v).
    """
    with mpmath.workdps(dps):
        r, v, t = [mpmath.mpf(a) for a in r], [mpmath.mpf(a) for a in v], mpmath.mpf(t)
        norm = mpmath.sqrt(sum(a * a for a in r))
        x = norm * t
        radial = sum(a * b for a, b in zip(r, v)) * (mpmath.sin(x) - x) / norm**3
        cross = (r[1] * v[2] - r[2] * v[1], r[2] * v[0] - r[0] * v[2], r[0] * v[1] - r[1] * v[0])
        return [radial * a - mpmath.sin(x) / norm * b + (1 - mpmath.cos(x)) / norm**2 * c
                for a, b, c in zip(r, v, cross)]


def signed_extremes(rng, n, width=None, spread=0):
    """n signed values of magnitude 10^U(-300, 300), 20% of the entries exactly zero.

    With a ``width``, n vectors of that many signed components that share
    one magnitude.  A nonzero ``spread`` scales each entry by its own
    10^U(-spread, 0).
    """
    shape = (n,) if width is None else (n, width)
    x = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.uniform(-300, 300, (n,) + (1,) * (len(shape) - 1))
    if spread:
        x *= 10.0 ** rng.uniform(-spread, 0, shape)
    x[rng.random(shape) < 0.2] = 0.0
    return x


def check_normal_parts(got, refs, where, ulps=None):
    """Hold each got[k] to 1e-12 of refs[k] wherever that mpf reference is a normal double; return how many were held.

    ``where(k)`` names row k in a failure.  A row with a nonzero ``ulps[k]``
    is held to that many ulp of its reference instead.
    """
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    checked = 0
    for k, ref in enumerate(refs):
        if not tiny <= ref <= huge:
            continue
        checked += 1
        if ulps is not None and ulps[k]:
            assert abs(got[k] - float(ref)) <= ulps[k] * np.spacing(float(ref)), where(k)
        else:
            assert got[k] == pytest.approx(float(ref), rel=1e-12, abs=0.0), where(k)
    return checked


def _expm_skew_taylor(stack: np.ndarray, scale: float) -> np.ndarray:
    """Taylor-by-Horner exp of a stack of small anti-Hermitian matrices."""
    terms = 4
    while scale ** (terms + 1) / math.factorial(terms + 1) > 1e-19 and terms < 24:
        terms += 1
    dim = stack.shape[-1]
    eye = np.eye(dim, dtype=complex)
    out = eye + stack / terms
    for k in range(terms - 1, 0, -1):
        out = eye + (stack / k) @ out
    return out


def _ordered_product(stack: np.ndarray) -> np.ndarray:
    """Product U_n ... U_2 U_1 of a stack [U_1, ..., U_n] by pairwise reduction."""
    us = stack
    while us.shape[0] > 1:
        if us.shape[0] % 2 == 1:
            tail = us[-1:]
            us = np.concatenate([np.matmul(us[1:-1:2], us[0:-1:2]), tail])
        else:
            us = np.matmul(us[1::2], us[0::2])
    return us[0]


# Steps per block of the midpoint product.  One block's step unitaries and
# their temporaries stay in cache (0.8 MB per array at j = 3), where stacks
# over all 1e5 steps would take hundreds of MB of freshly faulted memory.
_BLOCK_STEPS = 1024


def trotter_propagator(h_of_t: Callable, total_time: float, steps: int) -> np.ndarray:
    """Midpoint product formula for the time-ordered propagator.

    Returns the ordered product of exp(-i H(t_k) dt) over the midpoints
    t_k = (k - 1/2) dt, latest factor leftmost.  Second order in dt for
    smooth H(t); the per-factor exponentials are accurate to ~1e-19 so the
    result stays unitary to well below 1e-10 even at 1e5 steps.

    ``h_of_t`` receives an array of midpoints and must return the stacked
    (len, dim, dim) Hamiltonians, so no step costs a Python call.

    The steps run in blocks of ``_BLOCK_STEPS``, each reduced pairwise to
    one unitary and folded in time order, so memory does not grow with
    ``steps``.  Each block takes a Taylor exponential when every step has
    ||dt H||_F <= 0.8, and one stacked eigendecomposition otherwise.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    dt = total_time / steps
    total = None
    for lo in range(0, steps, _BLOCK_STEPS):
        mids = (np.arange(lo, min(lo + _BLOCK_STEPS, steps)) + 0.5) * dt
        hs = np.asarray(h_of_t(mids), dtype=complex)
        if hs.ndim != 3 or hs.shape[0] != mids.size:
            raise ValueError(f"h_of_t must return ({mids.size}, dim, dim), got {hs.shape}")
        scaled = -1j * dt * hs
        norm = float(np.sqrt(np.max(np.sum(np.abs(scaled) ** 2, axis=(1, 2)))))
        if norm > 0.8:
            us = hermitian_expm(hs, -1j * dt)
        else:
            us = _expm_skew_taylor(scaled, norm)
        block = _ordered_product(us)
        total = block if total is None else block @ total
    return total
