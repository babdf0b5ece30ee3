"""Numerical oracles for the parametrization generator and the QFI.

Everything here is deliberately independent of the closed forms in
:mod:`su2qfi.generator`: a truncated nested-commutator series, a
finite-difference derivative of the propagator, the pure-state QFI as a
variance, optimal-state construction, and a midpoint product formula for
time-ordered evolution.  The closed forms are tested against these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .spin import frobenius, hermitian_expm, require_hermitian

__all__ = [
    "OptimalStateResult",
    "qfi_of_state",
    "qfi_fd",
    "optimal_state",
    "generator_series",
    "generator_series_scaled",
    "series_tail_bound",
    "generator_fd",
    "fd_step",
    "trotter_propagator",
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


def _require_unitary(u, name: str = "matrix") -> np.ndarray:
    """Check one square matrix, or a stack of them in one operation, for unitarity."""
    m = np.asarray(u, dtype=complex)
    if m.ndim not in (2, 3) or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"{name} must be square, got shape {m.shape}")
    dev = np.linalg.norm(np.swapaxes(m.conj(), -1, -2) @ m - np.eye(m.shape[-1]), axis=(-2, -1))
    worst = float(dev.max())
    if worst > _UNITARY_TOL:
        raise ValueError(f"{name} is not unitary (||U^dag U - I||_F = {worst:.3e})")
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
    return 4.0 * (second - mean**2)


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


@dataclass(frozen=True)
class OptimalStateResult:
    """Equal superposition of the extreme eigenvectors of a generator."""

    state: np.ndarray
    lambda_max: float
    lambda_min: float
    phase: float
    degenerate: bool

    def mqfi(self) -> float:
        return 0.0 if self.degenerate else (self.lambda_max - self.lambda_min) ** 2


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


def generator_series(h_op, dh_op, t: float, order: int) -> np.ndarray:
    """Truncated nested-commutator series for the generator.

    Partial sum through k = ``order`` of

        gen = -t dh + i sum_k (it)^{k+1} / (k+1)!  [h, [h, ... [h, dh]]]

    with k nested commutators in the k-th term.  The tail magnitude is
    bounded by :func:`series_tail_bound`.  Note the partial sum is only as
    well conditioned as its largest term: once 2 ||h|| t is large the
    intermediate terms grow like (2||h||t)^k / k! and double precision (or
    any fixed noise on the inputs) is amplified accordingly.  For large
    phases use :func:`generator_series_scaled`.
    """
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    h = require_hermitian(h_op, name="hamiltonian")
    dh = require_hermitian(dh_op, name="hamiltonian derivative")
    if h.shape != dh.shape:
        raise ValueError(f"dimension mismatch: {h.shape} vs {dh.shape}")
    result = -t * dh
    nested = dh
    coeff = (1j * t) ** 2 / 2.0  # (it)^{k+1} / (k+1)! at k = 1
    for k in range(1, order + 1):
        nested = h @ nested - nested @ h
        result = result + 1j * coeff * nested
        coeff = coeff * (1j * t) / (k + 2)
    return result


def series_tail_bound(h_op, t: float, order: int) -> float:
    """Crude bound (2 ||h|| t)^(order+2) / (order+2)! on the dropped tail.

    Uses the spectral norm; a diagnostic for choosing the truncation order,
    not a guaranteed error estimate for the finite-precision sum.
    """
    h = require_hermitian(h_op, name="hamiltonian")
    x = 2.0 * float(np.max(np.abs(np.linalg.eigvalsh(h)))) * abs(t)
    if x == 0.0:
        return 0.0
    n = order + 2
    return math.exp(n * math.log(x) - math.lgamma(n + 1))


def generator_series_scaled(h_op, dh_op, t: float, order: int = 24, max_phase: float = 1.0) -> np.ndarray:
    """Series generator extended to arbitrary ||h|| t by time doubling.

    Evaluates the nested-commutator series on a sub-interval tau = t / 2^s
    chosen so that ||h|| tau <= ``max_phase`` (where the partial sum is
    fully converged and well conditioned), then builds up the full-time
    generator with the exact composition rule for time-independent h:

        gen(2 tau) = gen(tau) + U(tau)^dag gen(tau) U(tau).
    """
    if not max_phase > 0:
        raise ValueError(f"max_phase must be positive, got {max_phase}")
    h = require_hermitian(h_op, name="hamiltonian")
    norm = float(np.max(np.abs(np.linalg.eigvalsh(h)))) if h.size else 0.0
    doublings = 0
    phase = norm * abs(t)
    if not math.isfinite(phase):
        raise ValueError(f"phase ||h|| t = {phase} is not finite; time doubling cannot reduce it")
    while phase > max_phase:
        phase /= 2.0
        doublings += 1
    tau = t / 2**doublings
    gen = generator_series(h, dh_op, tau, order)
    if doublings == 0:
        return gen
    u = hermitian_expm(h, -1j * tau)
    for _ in range(doublings):
        gen = gen + u.conj().T @ gen @ u
        u = u @ u
    return gen


def fd_step(scale: float) -> float:
    """Step of the five-point stencil in :func:`generator_fd`: 2e-3 / max(1, scale).

    ``scale`` should estimate t * ||d_theta h||; the step then moves the
    propagator's phase by about 2e-3, small enough for the O(step^4)
    truncation and large enough that 1/step amplifies little roundoff.
    """
    return 2e-3 / max(1.0, scale)


def generator_fd(
    u_of: Callable[[float], np.ndarray],
    theta: float,
    step: Optional[float] = None,
    full_output: bool = False,
):
    """Finite-difference generator i (d_theta U^dag) U, Hermitian-symmetrized.

    Parameters
    ----------
    u_of : callable
        theta -> unitary propagator; all five evaluations are checked for
        unitarity (tolerance 1e-8 in Frobenius norm).
    step : float, optional
        Stencil step; default 1e-3 * max(1, |theta|).
    full_output : bool
        When True, also return the anti-Hermitian residue ||M - M^dag||_F.

    The derivative is the five-point central stencil, truncation O(step^4).
    Propagators at long evolution times carry phase-rounding noise of order
    eps * t * ||H||; the fourth-order stencil tolerates a much larger step
    than the plain central difference, which keeps that noise from being
    amplified by 1/step.

    The residue is the primary sanity signal for a misconfigured step: the
    analytic operator is exactly Hermitian, so anything beyond the
    truncation scale means the difference quotient is dominated by noise.
    A residue above 10 h^2 (1 + ||gen||_F)^3 raises.
    """
    h = step if step is not None else 1e-3 * max(1.0, abs(theta))
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    thetas = (theta + 2 * h, theta + h, theta - h, theta - 2 * h, theta)
    us = _require_unitary(np.stack([u_of(th) for th in thetas]), "U(theta + k step)")
    d_dag = (-us[0] + 8 * us[1] - 8 * us[2] + us[3]).conj().T / (12 * h)
    raw = 1j * d_dag @ us[4]
    herm = (raw + raw.conj().T) / 2
    residue = frobenius(raw - raw.conj().T)
    bound = 10.0 * h**2 * (1.0 + frobenius(herm)) ** 3
    if residue > bound:
        raise ValueError(
            f"anti-Hermitian residue {residue:.3e} exceeds {bound:.3e}; "
            f"finite-difference step {h:.3e} is misconfigured"
        )
    if full_output:
        return herm, residue
    return herm


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


def trotter_propagator(
    h_of_t: Callable,
    total_time: float,
    steps: int,
    batch: bool = False,
) -> np.ndarray:
    """Midpoint product formula for the time-ordered propagator.

    Returns the ordered product of exp(-i H(t_k) dt) over the midpoints
    t_k = (k - 1/2) dt, latest factor leftmost.  Second order in dt for
    smooth H(t); the per-factor exponentials are accurate to ~1e-19 so the
    result stays unitary to well below 1e-10 even at 1e5 steps.

    With ``batch=True``, ``h_of_t`` receives an array of midpoints and must
    return the stacked (len, dim, dim) Hamiltonians; this avoids the
    Python-loop overhead of 1e5 scalar calls.

    The steps run in blocks of ``_BLOCK_STEPS``, each reduced pairwise to
    one unitary and folded in time order, so memory does not grow with
    ``steps``.  Each block takes a Taylor exponential when every step has
    ||dt H||_F <= 0.8, and an eigendecomposition per step otherwise.
    """
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    dt = total_time / steps
    total = None
    for lo in range(0, steps, _BLOCK_STEPS):
        mids = (np.arange(lo, min(lo + _BLOCK_STEPS, steps)) + 0.5) * dt
        if batch:
            hs = np.asarray(h_of_t(mids), dtype=complex)
            if hs.ndim != 3 or hs.shape[0] != mids.size:
                raise ValueError(f"batch h_of_t must return ({mids.size}, dim, dim), got {hs.shape}")
        else:
            hs = np.stack([np.asarray(h_of_t(tk), dtype=complex) for tk in mids])
        scaled = -1j * dt * hs
        norm = float(np.sqrt(np.max(np.sum(np.abs(scaled) ** 2, axis=(1, 2)))))
        if norm > 0.8:
            us = np.stack([hermitian_expm(hk, -1j * dt) for hk in hs])
        else:
            us = _expm_skew_taylor(scaled, norm)
        block = _ordered_product(us)
        total = block if total is None else block @ total
    return total


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
    """Generator of a two-factor evolution U = U1 U2: gen2 + U2^dag gen1 U2."""
    g1 = require_hermitian(h1_gen, name="first generator")
    g2 = require_hermitian(h2_gen, name="second generator")
    u = _require_unitary(u2, "U2")
    if g1.shape != g2.shape or g1.shape != u.shape:
        raise ValueError(f"dimension mismatch: {g1.shape}, {g2.shape}, {u.shape}")
    return g2 + u.conj().T @ g1 @ u
