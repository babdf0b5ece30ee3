"""Numerical oracles for the parametrization generator and the QFI.

Everything here is deliberately independent of the closed forms in
:mod:`su2qfi.generator`: a truncated nested-commutator series, a
five-point finite-difference derivative of stacked propagators, the
pure-state QFI as a variance, optimal-state construction, and a midpoint
product formula for time-ordered evolution in SU(2).  The closed forms are
tested against these.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spin import frobenius, hermitian_expm, libm_pow, reject_first, require_hermitian

__all__ = [
    "OptimalStateResult",
    "qfi_of_state",
    "optimal_state",
    "generator_series",
    "generator_series_scaled",
    "fd_generator",
    "fd_points",
    "fd_step",
    "midpoint_su2",
    "compose_generators",
]

# Eigenvalue spreads below this are treated as degenerate (generator
# proportional to the identity, MQFI = 0).
DEGENERATE_SPREAD = 1e-12

_UNITARY_TOL = 1e-8


def _require_state(psi, dim: int) -> np.ndarray:
    s = np.asarray(psi, dtype=complex).reshape(-1)
    if s.shape[0] != dim:
        raise ValueError(f"state dimension {s.shape[0]} does not match operator dimension {dim}")
    norm = np.linalg.norm(s)
    if not abs(norm - 1.0) <= 1e-8:   # NaN fails too
        raise ValueError(f"state is not normalized (norm {norm:.12f})")
    return s


def _unitary_deviation(m: np.ndarray) -> np.ndarray:
    """||U^dag U - I||_F of each matrix of a stack (..., n, n)."""
    return np.linalg.norm(np.swapaxes(m.conj(), -1, -2) @ m - np.eye(m.shape[-1]), axis=(-2, -1))


def _require_unitary(u, name: str = "matrix") -> np.ndarray:
    """Check one square matrix, or each matrix of a stack (..., n, n), for unitarity."""
    m = np.asarray(u, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    dev = _unitary_deviation(m)
    reject_first(dev > _UNITARY_TOL,
                 lambda k: f"{name} is not unitary (||U^dag U - I||_F = {np.max(dev[k]):.3e})")
    return m


def qfi_of_state(h_op, psi) -> float:
    """Pure-state QFI 4 (<gen^2> - <gen>^2) for a generator ``h_op``.

    Nonnegative and bounded by the squared eigenvalue spread of ``h_op``.
    """
    h = require_hermitian(h_op, name="generator")
    s = _require_state(psi, h.shape[0])
    w = h @ s
    mean = float(np.real(np.vdot(s, w)))
    second = float(np.real(np.vdot(w, w)))
    return 4.0 * (second - libm_pow(mean, 2))


@dataclass(frozen=True)
class OptimalStateResult:
    """Equal superposition of the extreme eigenvectors of a generator."""

    state: np.ndarray
    lambda_max: float
    lambda_min: float
    phase: float
    degenerate: bool

    def mqfi(self) -> float:
        return 0.0 if self.degenerate else libm_pow(self.lambda_max - self.lambda_min, 2)


def optimal_state(h_op, phase: float = 0.0) -> OptimalStateResult:
    """Optimal input state (|max> + e^{i phase} |min>) / sqrt(2).

    The attained QFI equals the squared eigenvalue spread for every value
    of the relative phase.  When the spread is below ``DEGENERATE_SPREAD``
    the result is flagged degenerate (MQFI 0).  Ties inside a degenerate
    extreme eigenspace are broken by the deterministic ordering of the
    eigensolver (ascending eigenvalues, stable index).
    """
    h = require_hermitian(h_op, name="generator")
    w, v = np.linalg.eigh(h)
    lo, hi = v[:, 0], v[:, -1]
    state = (hi + np.exp(1j * phase) * lo) / np.sqrt(2.0)
    spread = float(w[-1] - w[0])
    return OptimalStateResult(
        state=state,
        lambda_max=float(w[-1]),
        lambda_min=float(w[0]),
        phase=float(phase),
        degenerate=spread < DEGENERATE_SPREAD,
    )


def _series_coefficients(t, order: int) -> np.ndarray:
    """i (it)^(k+1) / (k+1)! for k = 1..order, on a new last axis of ``t``'s shape.

    One array recursion over every time, repeating each real operation of
    Python's complex arithmetic (the float converted to complex(t, 0.0)
    first), so every coefficient has the bits of the scalar recursion

        coeff = (1j * t) ** 2 / 2.0
        for k in 1..order: i * coeff, then coeff = coeff * (1j * t) / (k + 2)

    signed zeros and NaN included; numpy's own complex power and division
    round differently.  Where ``(1j * t) ** 2`` overflows this raises
    OverflowError, as Python's power does, naming the first such row.
    """
    with np.errstate(all="ignore"):
        t = np.asarray(t, dtype=float)
        it = (0.0 * t - 0.0, 0.0 + t)                       # 1j * t
        sq = _complex_product(it, it)                        # ** 2 multiplies 1 by it * it
        sq = (sq[0] - 0.0 * sq[1], sq[1] + 0.0 * sq[0])
        reject_first(np.isinf(sq[0]) | np.isinf(sq[1]),
                     lambda k: f"(it)^2 overflows double precision at t = {t[k]}", error=OverflowError)
        coeff = _complex_quotient(sq, 2.0)
        out = np.empty(t.shape + (order,), dtype=complex)
        for k in range(1, order + 1):
            out.real[..., k - 1] = 0.0 * coeff[0] - coeff[1]    # 1j * coeff
            out.imag[..., k - 1] = 0.0 * coeff[1] + coeff[0]
            if k < order:
                coeff = _complex_quotient(_complex_product(coeff, it), float(k + 2))
    return out


def _complex_product(a, b):
    """Python's complex a * b on (real, imag) pairs of arrays."""
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _complex_quotient(a, d: float):
    """Python's complex a / d for a positive float d, taken as complex(d, 0.0).

    Smith's rule then divides by d with the ratio 0.0 / d = 0.0.
    """
    return (a[0] + a[1] * 0.0) / d, (a[1] - a[0] * 0.0) / d


def generator_series(h_op, dh_op, t, order: int) -> np.ndarray:
    """Truncated nested-commutator series for the generator.

    Partial sum through k = ``order`` of

        gen = -t dh + i sum_k (it)^{k+1} / (k+1)!  [h, [h, ... [h, dh]]]

    with k nested commutators in the k-th term.  The dropped tail is about
    (2 ||h|| t)^(order+2) / (order+2)!, but the partial sum is only as well
    conditioned as its largest term: once 2 ||h|| t is large the
    intermediate terms grow like (2||h||t)^k / k! and double precision (or
    any fixed noise on the inputs) is amplified accordingly.  For large
    phases use :func:`generator_series_scaled`.

    ``h_op`` and ``dh_op`` may be stacks (..., n, n) and ``t`` an array of
    times; their leading axes broadcast.  The nested commutators are formed
    once over the leading axes of ``h`` and ``dh`` alone, so one (n, n) pair
    with a vector of times builds its chain once, and only the coefficients
    are per time.  Every matrix of the result has the bits of its own
    call with one h, one dh and one t.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    h = require_hermitian(h_op, name="hamiltonian")
    dh = require_hermitian(dh_op, name="hamiltonian derivative")
    if h.shape[-2:] != dh.shape[-2:]:
        raise ValueError(f"dimension mismatch: {h.shape} vs {dh.shape}")
    ts = np.asarray(t, dtype=float)
    coeffs = _series_coefficients(ts, order)
    result = -ts[..., None, None] * dh
    nested = dh
    for k in range(order):
        nested = h @ nested - nested @ h
        result = result + coeffs[..., k, None, None] * nested
    return result


def generator_series_scaled(h_op, dh_op, t, order: int = 24) -> np.ndarray:
    """Series generator extended to arbitrary ||h|| t by time doubling.

    Evaluates the nested-commutator series on a sub-interval tau = t / 2^s
    chosen so that ||h|| tau <= 1 (where the partial sum is fully
    converged and well conditioned), then builds up the full-time
    generator with the exact composition rule for time-independent h:

        gen(2 tau) = gen(tau) + U(tau)^dag gen(tau) U(tau).

    ``h_op`` and ``dh_op`` may be stacks (..., n, n) and ``t`` an array of
    times; their leading axes broadcast, as in :func:`generator_series`.
    The nested commutators, the norms ||h|| and the eigendecomposition of h
    behind U(tau) are computed once over the leading axes of ``h`` (and
    ``dh``) alone; the doubling count s, the coefficients and the doublings
    are per row of the result.  Every matrix of the result has the bits of
    its own call with one h, one dh and one t; a non-finite phase names the
    first offending row.
    """
    h = require_hermitian(h_op, name="hamiltonian")
    ts = np.asarray(t, dtype=float)
    dim = h.shape[-1]
    lead = np.broadcast_shapes(h.shape[:-2], np.shape(dh_op)[:-2], ts.shape)
    norms = np.max(np.abs(np.linalg.eigvalsh(h)), axis=-1) if h.size else np.zeros(h.shape[:-2])
    phases = np.broadcast_to(norms * np.abs(ts), lead)
    reject_first(~np.isfinite(phases),
                 lambda k: f"phase ||h|| t = {phases[k]} is not finite; time doubling cannot reduce it")
    counts = np.zeros(lead, dtype=int)
    halved = phases.copy()
    over = halved > 1.0
    while over.any():
        halved[over] /= 2.0
        counts[over] += 1
        over = halved > 1.0
    reject_first(counts > 1023, lambda k: (   # 2**s leaves the float range
        f"phase ||h|| t = {phases[k]} needs more than 1023 time doublings"), error=OverflowError)
    taus = ts / np.ldexp(1.0, counts)
    # gen(h, dh, tau) = gen(h / s, dh, tau s) / s: with s = 2^e, ||h|| < 2^e,
    # the chain [h/s, [h/s, ... dh]] cannot overflow, and a power of two
    # commutes with rounding; e >= 0 keeps tau s from underflowing
    scale = np.ldexp(1.0, np.maximum(np.frexp(norms)[1], 0))
    gen = generator_series(h / scale[..., None, None], dh_op, taus * scale, order) / scale[..., None, None]
    rows = np.flatnonzero(counts)
    if not rows.size:
        return gen
    gen = gen.reshape(-1, dim, dim)
    g = gen[rows]
    if h.ndim > 2:   # the rows' own matrices; a single h is diagonalized once
        h = np.broadcast_to(h, lead + (dim, dim)).reshape(-1, dim, dim)[rows]
    u = hermitian_expm(h, -1j * taus.reshape(-1)[rows])
    counts = counts.reshape(-1)[rows]
    for step in range(int(counts.max())):
        live = np.flatnonzero(counts > step)
        gl, ul = g[live], u[live]
        g[live] = gl + np.swapaxes(ul.conj(), -1, -2) @ gl @ ul
        u[live] = ul @ ul
    gen[rows] = g
    return gen.reshape(lead + (dim, dim))


def fd_step(scale):
    """Step of the five-point stencil in :func:`fd_generator`: 2e-3 / max(1, scale).

    ``scale`` should estimate t * ||d_theta h||; the step then moves the
    propagator's phase by about 2e-3, small enough for the O(step^4)
    truncation and large enough that 1/step amplifies little roundoff.
    An array of scales gives an array of steps.
    """
    return 2e-3 / np.maximum(1.0, scale)


def fd_points(theta, step) -> np.ndarray:
    """The stencil points theta + (2, 1, -1, -2, 0) step on a new last axis."""
    theta, step = np.broadcast_arrays(np.asarray(theta, dtype=float), np.asarray(step, dtype=float))
    return np.stack([theta + 2 * step, theta + step, theta - step, theta - 2 * step, theta], axis=-1)


def fd_generator(us, step) -> np.ndarray:
    """Five-point finite-difference generator from propagators at the stencil points.

    ``us`` holds U at the :func:`fd_points` on its third-to-last axis,
    (..., 5, n, n), and ``step`` is the stencil step, one or one per row.
    All five propagators are checked for unitarity (tolerance 1e-8 in
    Frobenius norm).

    The derivative is the five-point central stencil, truncation O(step^4).
    Propagators at long evolution times carry phase-rounding noise of order
    eps * t * ||H||; the fourth-order stencil tolerates a much larger step
    than the plain central difference, which keeps that noise from being
    amplified by 1/step.

    The anti-Hermitian residue ||M - M^dag||_F is the sanity signal for a
    misconfigured step: the analytic operator is exactly Hermitian, so
    anything beyond the truncation scale means the difference quotient is
    dominated by noise.  A residue above 10 h^2 (1 + ||gen||_F)^3 raises,
    naming the first offending row of a stack; a bound above the double
    range is inf, so such a row passes this check.
    """
    us = np.asarray(us, dtype=complex)
    if us.ndim < 3 or us.shape[-3] != 5 or us.shape[-1] != us.shape[-2]:
        raise ValueError(f"expected square propagators at 5 stencil points, got shape {us.shape}")
    lead = us.shape[:-3]
    hs = np.broadcast_to(np.asarray(step, dtype=float), lead)
    reject_first(~(hs > 0), lambda k: f"step must be positive, got {hs[k]}")
    dev = _unitary_deviation(us).max(axis=-1)
    reject_first(dev > _UNITARY_TOL,
                 lambda k: f"U(theta + k step) is not unitary (||U^dag U - I||_F = {dev[k]:.3e})")
    u = [us[..., i, :, :] for i in range(5)]
    d_dag = np.swapaxes((-u[0] + 8 * u[1] - 8 * u[2] + u[3]).conj(), -1, -2) / (12 * hs[..., None, None])
    raw = 1j * d_dag @ u[4]
    raw_dag = np.swapaxes(raw.conj(), -1, -2)
    herm = (raw + raw_dag) / 2
    residue = np.asarray(frobenius(raw - raw_dag))
    norms = np.asarray(frobenius(herm))
    bound = np.asarray(10.0 * libm_pow(hs, 2) * libm_pow(1.0 + norms, 3))
    reject_first(residue > bound, lambda k: (
        f"anti-Hermitian residue {residue[k]:.3e} exceeds {bound[k]:.3e}; "
        f"finite-difference step {hs[k]:.3e} is misconfigured"))
    return herm


def _quaternion_product(a, b):
    """Hamilton product a b of quaternions given as (w, x, y, z) components.

    With U = w I - i (x sx + y sy + z sz) this is the matrix product U_a U_b.
    """
    aw, ax, ay, az = a
    bw, bx, by, bz = b
    return (
        aw * bw - ax * bx - ay * by - az * bz,
        aw * bx + ax * bw + ay * bz - az * by,
        aw * by + ay * bw + az * bx - ax * bz,
        aw * bz + az * bw + ax * by - ay * bx,
    )


def _ordered_quaternion_product(q):
    """Product q_n ... q_2 q_1 of component arrays [q_1, ..., q_n] by pairwise reduction.

    An odd count is padded with the identity, which multiplies exactly.
    """
    while q[0].size > 1:
        if q[0].size % 2:
            q = tuple(np.append(c, unit) for c, unit in zip(q, (1.0, 0.0, 0.0, 0.0)))
        q = _quaternion_product(tuple(c[1::2] for c in q), tuple(c[0::2] for c in q))
    return tuple(float(c[0]) for c in q)


# Steps per block of the SU(2) midpoint product: a block's component arrays
# (32 kB each) stay in cache, and memory does not grow with the step count.
_SU2_BLOCK_STEPS = 4096


def midpoint_su2(field_of_t: Callable, total_time: float, steps: int) -> tuple:
    """Midpoint product formula for exp(-i a(t).J) evolution, as a unit quaternion.

    Returns (w, x, y, z) of the ordered product of exp(-i dt a(t_k).J) over
    the midpoints t_k = (k - 1/2) dt, latest factor leftmost, in the
    convention U = w I - i (x sx + y sy + z sz) of SU(2).  Every spin-j
    propagator of a field coupled linearly to J is the image of this one
    group element; :func:`su2qfi.spin.su2_lift` maps it to spin j.  Each
    step is (cos(theta/2), sin(theta/2) n) with theta n = dt a(t_k).

    ``field_of_t`` maps an array of times to the three field-component
    arrays (scalars broadcast).  The steps run in blocks of
    ``_SU2_BLOCK_STEPS``, each reduced pairwise and folded in time order,
    so cost is O(steps) and memory is independent of ``steps`` and of j.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    dt = total_time / steps
    total = (1.0, 0.0, 0.0, 0.0)
    for lo in range(0, steps, _SU2_BLOCK_STEPS):
        mids = (np.arange(lo, min(lo + _SU2_BLOCK_STEPS, steps)) + 0.5) * dt
        field = np.broadcast_arrays(mids, *(np.asarray(c, dtype=float) for c in field_of_t(mids)))[1:]
        if len(field) != 3:
            raise ValueError(f"field_of_t must return three components, got {len(field)}")
        norm = np.sqrt(field[0] ** 2 + field[1] ** 2 + field[2] ** 2)
        half = 0.5 * dt * norm
        # sin(theta/2) / |a|, with its limit dt/2 at a zero field
        scale = np.divide(np.sin(half), norm, out=np.full(norm.shape, 0.5 * dt), where=norm > 0)
        block = (np.cos(half), scale * field[0], scale * field[1], scale * field[2])
        total = _quaternion_product(_ordered_quaternion_product(block), total)
    return total


def compose_generators(h1_gen, u2, h2_gen) -> np.ndarray:
    """Generator of a two-factor evolution U = U1 U2: gen2 + U2^dag gen1 U2.

    The arguments may be stacks (..., n, n) of equal shape.
    """
    g1 = require_hermitian(h1_gen, name="first generator")
    g2 = require_hermitian(h2_gen, name="second generator")
    u = _require_unitary(u2, "U2")
    if g1.shape != g2.shape or g1.shape != u.shape:
        raise ValueError(f"dimension mismatch: {g1.shape}, {g2.shape}, {u.shape}")
    return g2 + np.swapaxes(u.conj(), -1, -2) @ g1 @ u
