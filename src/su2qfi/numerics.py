"""Numerical oracles for the parametrization generator and the QFI.

Everything here is deliberately independent of the closed forms in
:mod:`su2qfi.generator`: a truncated nested-commutator series extended to
any phase by time doubling, a five-point finite-difference derivative of
stacked propagators, the pure-state QFI as a variance, optimal-state
construction, and a fourth-order Magnus product for time-ordered
evolution in SU(2), compared at spin j by one rotation angle.  The closed
forms are tested against these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .spin import frobenius, hermitian_expm, libm_pow, reject_first, require_hermitian

__all__ = [
    "OptimalStateResult",
    "qfi_of_state",
    "optimal_state",
    "generator_series",
    "fd_generator",
    "fd_points",
    "fd_step",
    "magnus4_su2",
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


# Real and imaginary parts of i^(k+2) for k = 1, 2, 3, 0 (mod 4).
_UNIT_RE = np.array([-0.0, 1.0, 0.0, -1.0])
_UNIT_IM = np.array([-1.0, -0.0, 1.0, 0.0])


def _series_coefficients(t, order: int) -> np.ndarray:
    """i (it)^(k+1) / (k+1)! for k = 1..order, on a new last axis of ``t``'s shape.

    The k-th coefficient is i^(k+2) s_k with the real recursion

        s_1 = (t t) / 2,   s_k = s_(k-1) t / (k+1),

    It rounds as the scalar loop ``coeff = (1j * t) ** 2 / 2.0``, then
    ``coeff = coeff * (1j * t) / (k + 2)``, does, so every nonzero finite
    part has that loop's bits; the signed zeros of the units keep the zero
    parts too wherever s_k is a normal double.  Where t is finite and
    ``t t`` overflows this raises OverflowError, as Python's power does,
    naming the first such row.
    """
    with np.errstate(all="ignore"):
        t = np.asarray(t, dtype=float)
        s = np.empty(t.shape + (order,))
        s[..., 0] = t * t / 2.0
        reject_first(np.isfinite(t) & np.isinf(s[..., 0]),
                     lambda k: f"(it)^2 overflows double precision at t = {t[k]}", error=OverflowError)
        for k in range(1, order):
            s[..., k] = s[..., k - 1] * t / (k + 2)
        out = np.empty(s.shape, dtype=complex)
        units = np.arange(order) % 4
        out.real, out.imag = _UNIT_RE[units] * s, _UNIT_IM[units] * s
    return out


def _partial_sum(h, dh, t, order: int) -> np.ndarray:
    """Partial sum through k = ``order`` of the series of :func:`generator_series`.

    The chain is formed on h / 2^e at the time t 2^e and the sum divided by
    2^e, with 2^e the power of two above the largest absolute row sum of h
    (an upper bound on ||h||), clipped to [1, 2^1023] so that t 2^e cannot
    underflow and the scale stays finite.  A power of two commutes with
    rounding, so the bits are those of the unscaled sum wherever it is
    finite, and a large field cannot overflow the chain.

    The nested commutators are formed once over the leading axes of ``h``
    and ``dh`` alone, so one (n, n) pair with a vector of times builds its
    chain once, and only the coefficients are per time.
    """
    with np.errstate(over="ignore"):   # a row sum past the double range takes e = 1023 too
        norm = np.fmin(np.abs(h).sum(axis=-1).max(axis=-1, initial=0.0), np.finfo(float).max)
    scale = np.ldexp(1.0, np.clip(np.frexp(norm)[1], 0, 1023))
    h = h / scale[..., None, None]
    ts = np.asarray(t, dtype=float) * scale   # an overflow names t 2^e
    coeffs = _series_coefficients(ts, order)
    result = -ts[..., None, None] * dh
    nested = dh
    for k in range(order):
        nested = h @ nested - nested @ h
        result = result + coeffs[..., k, None, None] * nested
    return result / scale[..., None, None]


def _doubling_counts(phases) -> np.ndarray:
    """The least s >= 0 with phases / 2^s <= 1, from phases = m 2^e with 0.5 <= m < 1."""
    m, e = np.frexp(phases)
    return np.maximum(e - (m == 0.5), 0)


def generator_series(h_op, dh_op, t, order: int = 24) -> np.ndarray:
    """Truncated nested-commutator series for the generator, at any phase.

    The series, with k nested commutators in the k-th term, is

        gen = -t dh + i sum_k (it)^{k+1} / (k+1)!  [h, [h, ... [h, dh]]].

    Its partial sum through k = ``order`` drops a tail of about
    (2 ||h|| t)^(order+2) / (order+2)!, but is only as well conditioned as
    its largest term, which grows like (2 ||h|| t)^k / k!.  So the sum is
    taken on a sub-interval tau = t / 2^s chosen so that ||h|| tau <= 1
    (where it is fully converged and well conditioned), and the full-time
    generator is built up with the exact composition rule for
    time-independent h:

        gen(2 tau) = gen(tau) + U(tau)^dag gen(tau) U(tau).

    ``h_op`` and ``dh_op`` may be stacks (..., n, n) and ``t`` an array of
    times; their leading axes broadcast.  The nested commutators, the norms
    ||h|| and the eigendecomposition of h behind U(tau) are computed once
    over the leading axes of ``h`` (and ``dh``) alone; the doubling count
    s, the coefficients and the doublings are per row of the result.  Every
    matrix of the result has the bits of its own call with one h, one dh
    and one t; a non-finite phase names the first offending row.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    h = require_hermitian(h_op, name="hamiltonian")
    dh = require_hermitian(dh_op, name="hamiltonian derivative")
    if h.shape[-2:] != dh.shape[-2:]:
        raise ValueError(f"dimension mismatch: {h.shape} vs {dh.shape}")
    ts = np.asarray(t, dtype=float)
    dim = h.shape[-1]
    lead = np.broadcast_shapes(h.shape[:-2], dh.shape[:-2], ts.shape)
    norms = np.max(np.abs(np.linalg.eigvalsh(h)), axis=-1) if h.size else np.zeros(h.shape[:-2])
    phases = np.broadcast_to(norms * np.abs(ts), lead)
    reject_first(~np.isfinite(phases),
                 lambda k: f"phase ||h|| t = {phases[k]} is not finite; time doubling cannot reduce it")
    counts = _doubling_counts(phases)
    reject_first(counts > 1023, lambda k: (   # 2**s leaves the float range
        f"phase ||h|| t = {phases[k]} needs more than 1023 time doublings"), error=OverflowError)
    taus = ts / np.ldexp(1.0, counts)
    gen = _partial_sum(h, dh, taus, order)
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


def _su2_product(a, b):
    """Cayley-Klein pair of U_a U_b, with U = [[alpha, -conj(beta)], [beta, conj(alpha)]] of its pair (alpha, beta)."""
    return a[0] * b[0] - a[1].conjugate() * b[1], a[1] * b[0] + a[0].conjugate() * b[1]


# Gauss nodes c = 1/2 -+ sqrt(3)/6 of a step and the weights alpha = 1/4 -+ sqrt(3)/6,
# i.e. (3 -+ 2 sqrt(3)) / 12, of the fourth-order commutator-free Magnus step.
_CF4_NODES = (0.5 - math.sqrt(3.0) / 6.0, 0.5 + math.sqrt(3.0) / 6.0)
_CF4_WEIGHTS = (0.25 - math.sqrt(3.0) / 6.0, 0.25 + math.sqrt(3.0) / 6.0)

# Steps per block of the SU(2) Magnus product: a block's 4096 factors, two
# complex arrays of 64 kB, stay in cache, and memory does not grow with the
# step count.
_SU2_BLOCK_STEPS = 2048


def _su2_exp(field, dt):
    """Cayley-Klein pair (alpha, beta) of exp(-i dt a.J) for the field components a = ``field``.

    With theta n = dt a, alpha = cos(theta/2) - i sin(theta/2) n_z and
    beta = sin(theta/2) (n_y - i n_x).  The components broadcast; |a| takes
    nested hypot where its squares overflow (above about 1.34e154), and a
    zero field takes the limit dt/2 of sin(theta/2) / |a|.
    """
    x, y, z = np.broadcast_arrays(*(np.asarray(c, dtype=float) for c in field))
    with np.errstate(over="ignore"):
        norm = np.asarray(np.sqrt(x ** 2 + y ** 2 + z ** 2))
    big = np.isinf(norm)
    if big.any():
        norm[big] = np.hypot(np.hypot(x[big], y[big]), z[big])
    half = 0.5 * dt * norm
    scale = np.divide(np.sin(half), norm, out=np.full(norm.shape, 0.5 * dt), where=norm > 0)
    alpha, beta = np.empty(norm.shape, complex), np.empty(norm.shape, complex)
    alpha.real, alpha.imag = np.cos(half), -scale * z
    beta.real, beta.imag = scale * y, -scale * x
    return alpha, beta


def magnus4_su2(field_of_t: Callable, total_time: float, steps: int) -> tuple:
    """Fourth-order commutator-free Magnus product for exp(-i a(t).J) evolution, as a Cayley-Klein pair.

    Returns (alpha, beta), two Python complex numbers, of the time-ordered
    product over ``steps`` steps of h = total_time / steps, latest factor
    leftmost: the first column of U = [[alpha, -conj(beta)], [beta,
    conj(alpha)]] in SU(2).  Every spin-j propagator of a field coupled
    linearly to J is the image of this one group element;
    :func:`_su2_distance` compares two of them at spin j.

    Step n takes the fields a1, a2 at the Gauss nodes t_n + c h, c = 1/2 -+
    sqrt(3)/6, and is the two-exponential step of Blanes & Moan (Appl.
    Numer. Math. 56, 1519 (2006)), also in Alvermann & Fehske (J. Comput.
    Phys. 230, 5930 (2011)):

        exp(-i h (alpha1 a1 + alpha2 a2).J) exp(-i h (alpha2 a1 + alpha1 a2).J),

    the right factor first, with alpha = (3 -+ 2 sqrt(3)) / 12.  Each factor
    is one Cayley-Klein pair (:func:`_su2_exp`).  Its error is O(h^4) for a
    smooth field, and a constant field gives the exact exponential.

    ``field_of_t`` maps an array of times to the three field-component
    arrays (scalars broadcast).  The steps run in blocks of
    ``_SU2_BLOCK_STEPS``, whose factors, in time order, are reduced pairwise
    (an odd count padded with the identity) and folded in time order, so
    cost is O(steps) and memory is independent of ``steps`` and of j.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    dt = total_time / steps
    total = (1.0 + 0.0j, 0.0j)
    for lo in range(0, steps, _SU2_BLOCK_STEPS):
        times = ((np.arange(lo, min(lo + _SU2_BLOCK_STEPS, steps))[:, None] + _CF4_NODES) * dt).ravel()
        field = np.broadcast_arrays(times, *(np.asarray(c, dtype=float) for c in field_of_t(times)))[1:]
        if len(field) != 3:
            raise ValueError(f"field_of_t must return three components, got {len(field)}")
        a = np.stack(field)
        a1, a2 = a[:, 0::2], a[:, 1::2]
        factors = np.empty((3, times.size))   # each step's two factor fields, in time order
        factors[:, 0::2] = _CF4_WEIGHTS[1] * a1 + _CF4_WEIGHTS[0] * a2
        factors[:, 1::2] = _CF4_WEIGHTS[0] * a1 + _CF4_WEIGHTS[1] * a2
        alpha, beta = _su2_exp(factors, dt)
        while alpha.size > 1:   # q_n ... q_1 of [q_1, ..., q_n], pairwise
            if alpha.size % 2:
                alpha, beta = np.append(alpha, 1.0), np.append(beta, 0.0)
            alpha, beta = _su2_product((alpha[1::2], beta[1::2]), (alpha[0::2], beta[0::2]))
        total = _su2_product((alpha[0], beta[0]), total)
    return complex(total[0]), complex(total[1])


def _su2_distance(u, v, twice_j: int) -> float:
    """||D(U) - D(V)||_F of the spin-j images D of SU(2) Cayley-Klein pairs u, v; twice_j = 2j.

    W = U V^dag, with V^dag the pair (conj(alpha_v), -beta_v), turns by phi,
    phi / 2 = atan2(hypot(Im alpha_W, |beta_W|), Re alpha_W), and D(W) has
    the eigenvalues exp(-i m phi), m = -j..j, so the distance ||D(W) - I||_F
    is sqrt(sum_m 4 sin^2(m phi / 2)).  The ratio ignores |W|, so drift off
    the unit sphere cancels.  An integer spin does not see the sign of W
    (W = -1 gives 0 there, 2 sqrt(2j + 1) at half-integer j).
    """
    alpha, beta = _su2_product(u, (v[0].conjugate(), -v[1]))
    half = math.atan2(math.hypot(alpha.imag, abs(beta)), alpha.real if twice_j % 2 else abs(alpha.real))
    return 2.0 * math.sqrt(math.fsum(np.sin((np.arange(twice_j + 1) - twice_j / 2) * half) ** 2))
