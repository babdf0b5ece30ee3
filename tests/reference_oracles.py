"""Reference oracles that only the tests use.

These are independent checks on the library, not part of it: a spin-j
matrix midpoint product for time-ordered evolution (the reference for
``midpoint_su2`` + ``su2_lift``), a finite-difference generator of a
callable propagator, and the QFI from the finite-difference derivative of
the evolved state.  The library's own finite-difference route is
``fd_generator(us, step)`` over propagators stacked at ``fd_points``.
"""

from __future__ import annotations

import math
from typing import Callable, Optional

import numpy as np

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
