import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import su2qfi

from su2qfi import (
    build_spin_rep,
    dot_with_J,
    fd_step,
    frobenius,
    fd_generator,
    fd_points,
    generator_series,
    generator_vector,
    hermitian_expm,
    magnus4_su2,
    optimal_state,
    qfi_of_state,
)
from su2qfi.cli import RESIDUAL_LIMIT, SCENARIOS, _TROTTER_BUDGET, _TROTTER_MARGIN, _derived_steps, trotter_cross_check
from su2qfi.numerics import _SU2_BLOCK_STEPS, _doubling_counts, _partial_sum, _series_coefficients, _su2_distance

from reference_oracles import (_BLOCK_STEPS, compose_generators, generator_fd, generator_vector_coeffs, propagator, qfi_fd,
                               su2_lift, trotter_propagator)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


# --- pure-state QFI ----------------------------------------------------------

def test_qfi_vanishes_on_eigenvectors():
    rng = np.random.default_rng(2)
    h = random_hermitian(rng, 5)
    _, vecs = np.linalg.eigh(h)
    for k in range(5):
        assert qfi_of_state(h, vecs[:, k]) == pytest.approx(0.0, abs=1e-9)


def test_qfi_optimal_state_attains_spread():
    rng = np.random.default_rng(4)
    h = random_hermitian(rng, 6)
    w = np.linalg.eigvalsh(h)
    result = optimal_state(h, 0.3)
    assert qfi_of_state(h, result.state) == pytest.approx((w[-1] - w[0]) ** 2, rel=1e-9)


def test_qfi_plus_state_under_z_generator():
    # gen = -t jz at spin 1/2 with the balanced superposition gives t^2
    rep = build_spin_rep(0.5)
    psi = np.array([1.0, 1.0]) / np.sqrt(2)
    for t in (0.5, 1.0, 2.0):
        assert qfi_of_state(-t * np.asarray(rep.jz), psi) == pytest.approx(t**2, rel=1e-12)


def test_qfi_invariances():
    rng = np.random.default_rng(6)
    h = random_hermitian(rng, 4)
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    psi /= np.linalg.norm(psi)
    base = qfi_of_state(h, psi)
    assert qfi_of_state(h, np.exp(0.7j) * psi) == pytest.approx(base, rel=1e-10)
    shifted = h + 3.2 * np.eye(4)
    assert qfi_of_state(shifted, psi) == pytest.approx(base, rel=1e-8, abs=1e-8)


def test_qfi_bounded_by_spread():
    rng = np.random.default_rng(8)
    h = random_hermitian(rng, 5)
    w = np.linalg.eigvalsh(h)
    ceiling = (w[-1] - w[0]) ** 2
    best = 0.0
    for _ in range(1000):
        psi = rng.normal(size=5) + 1j * rng.normal(size=5)
        psi /= np.linalg.norm(psi)
        best = max(best, qfi_of_state(h, psi))
    assert best <= ceiling + 1e-9
    assert best < ceiling  # random states essentially never hit the optimum
    assert qfi_of_state(h, optimal_state(h).state) == pytest.approx(ceiling, rel=1e-9)


def test_qfi_input_validation():
    h = np.diag([1.0, -1.0])
    with pytest.raises(ValueError):
        qfi_of_state(h, np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        qfi_of_state(h, np.array([1.0, 1.0]))  # not normalized


def test_qfi_rejects_nan_state():
    # the norm test must not pass NaN (abs(nan - 1) > tol is False)
    with pytest.raises(ValueError, match="not normalized"):
        qfi_of_state(build_spin_rep(0.5).jz, [np.nan, 0.0])


# --- optimal state -----------------------------------------------------------

def test_optimal_state_spin_half():
    rep = build_spin_rep(0.5)
    result = optimal_state(np.asarray(rep.jz), 0.0)
    np.testing.assert_allclose(np.abs(result.state), [1 / np.sqrt(2)] * 2, atol=1e-12)
    assert qfi_of_state(np.asarray(rep.jz), result.state) == pytest.approx(1.0, rel=1e-12)


def test_optimal_state_spin_one_spread():
    rep = build_spin_rep(1)
    result = optimal_state(np.asarray(rep.jz), 1.1)
    assert result.mqfi() == pytest.approx(4.0, rel=1e-12)
    assert qfi_of_state(np.asarray(rep.jz), result.state) == pytest.approx(4.0, rel=1e-12)


def test_optimal_state_phase_independence():
    rng = np.random.default_rng(10)
    h = random_hermitian(rng, 5)
    values = [qfi_of_state(h, optimal_state(h, phase).state) for phase in (0.0, np.pi / 2, np.pi)]
    assert max(values) - min(values) < 1e-9 * max(values)


def test_optimal_state_degenerate_flag():
    result = optimal_state(np.eye(3) * 2.0)
    assert result.degenerate
    assert result.mqfi() == 0.0


def test_optimal_state_extremal_amplitudes_at_high_spin():
    # for a z-axis generator only the extreme m components are populated
    rep = build_spin_rep(5)
    result = optimal_state(np.asarray(rep.jz))
    amps = np.abs(result.state)
    assert amps[0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert amps[-1] == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    assert np.max(amps[1:-1]) < 1e-12


# --- commutator series -------------------------------------------------------

def test_series_commuting_inputs_reduce_to_first_term():
    rep = build_spin_rep(1)
    h = 2.0 * np.asarray(rep.jz)
    dh = 0.7 * np.asarray(rep.jz)
    for order in (1, 3, 10, 40):
        out = generator_series(h, dh, 1.3, order)
        assert frobenius(out - (-1.3) * dh) < 1e-14


def test_series_order_one_partial_sum():
    rep = build_spin_rep(0.5)
    h = dot_with_J(rep, [0.3, 0.1, 1.0])
    dh = dot_with_J(rep, [1.0, -0.2, 0.0])
    t = 0.9
    manual = -t * dh + 1j * (1j * t) ** 2 / 2 * (h @ dh - dh @ h)
    np.testing.assert_allclose(generator_series(h, dh, t, 1), manual, atol=1e-15)


def test_series_matches_closed_form_moderate_phase():
    rep = build_spin_rep(1.5)
    r = np.array([0.0, 0.0, 1.0])
    v = np.array([0.8, -0.3, 0.4])
    t = 1.0  # |field| t = 1
    closed = dot_with_J(rep, generator_vector(r, v, t))
    series = generator_series(dot_with_J(rep, r), dot_with_J(rep, v), t, 40)
    assert frobenius(closed - series) < 1e-10


def test_series_input_validation():
    with pytest.raises(ValueError):
        generator_series(np.eye(2), np.eye(2), 1.0, 0)
    with pytest.raises(ValueError):
        generator_series(np.array([[0, 1], [0, 0]]), np.eye(2), 1.0, 2)
    with pytest.raises(ValueError):
        generator_series(np.eye(2), np.eye(3), 1.0, 2)


def test_series_tail_bound_behaviour():
    # the error falls as the order rises and stays within the docstring's
    # tail estimate (2 ||h|| t)^(order+2) / (order+2)! of the undoubled sum
    rep = build_spin_rep(1)
    h = dot_with_J(rep, [0.0, 0.0, 1.5])
    v = np.array([1.0, 0.5, -0.2])
    closed = dot_with_J(rep, generator_vector([0.0, 0.0, 1.5], v, 1.0))
    errors = [frobenius(closed - generator_series(h, dot_with_J(rep, v), 1.0, order)) for order in (5, 10, 20)]
    assert errors[0] > errors[1] > errors[2]
    for order, err in zip((10, 20), errors[1:]):
        assert err < 3.0 ** (order + 2) / math.factorial(order + 2) + 1e-12


def test_series_scaled_handles_large_phase():
    # plain partial sums are useless here; doubling keeps it exact
    rep = build_spin_rep(1)
    r = np.array([1.0, 0.0, 10.0])
    v = np.array([0.0, 0.0, 1.0])
    t = 20.0  # |field| t ~ 201
    closed = dot_with_J(rep, generator_vector(r, v, t))
    scaled = generator_series(dot_with_J(rep, r), dot_with_J(rep, v), t)
    assert frobenius(closed - scaled) < 1e-9


def test_series_scaled_rejects_unreachable_phase():
    # An infinite phase (2 * 1e308 overflows) never halves below 1.
    # Run in a child process so a regression hangs only until the timeout.
    code = (
        "from su2qfi import build_spin_rep\n"
        "from su2qfi.numerics import generator_series\n"
        "rep = build_spin_rep(1)\n"
        "try:\n"
        "    generator_series(2 * rep.jz, rep.jx, 1e308)\n"
        "except ValueError:\n"
        "    raise SystemExit(0)\n"
        "raise SystemExit(1)\n"
    )
    src = str(Path(su2qfi.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60)
    assert proc.returncode == 0


def test_series_scaled_doubling_count_beyond_the_float_range_overflows():
    # a finite phase above 2^1023 needs 2^1024 doublings, which no double holds
    rep = build_spin_rep(1)
    with pytest.raises(OverflowError, match="more than 1023 time doublings") as err:
        generator_series(rep.jz, rep.jx, [1.0, 1.5e308])
    assert err.value.row == 1


def test_doubling_counts_match_the_halving_loop():
    # the loop the frexp form replaced: halve until the phase is at most 1
    def halving(phases):
        counts, halved = np.zeros(phases.shape, dtype=int), phases.copy()
        over = halved > 1.0
        while over.any():
            halved[over] /= 2.0
            counts[over] += 1
            over = halved > 1.0
        return counts

    powers = np.ldexp(1.0, np.arange(-60, 1024))
    rng = np.random.default_rng(1019)
    phases = np.concatenate([np.nextafter(powers, 0.0), powers, np.nextafter(powers, np.inf),
                             [0.0, 5e-324, np.finfo(float).max], 10.0 ** rng.uniform(-300, 308, 5000)])
    np.testing.assert_array_equal(_doubling_counts(phases), halving(phases))


def _unscaled_series(h, dh, t, order):
    """What _partial_sum computes, with its chain formed on h itself rather than h / 2^e."""
    h, dh, t = np.asarray(h, dtype=complex), np.asarray(dh, dtype=complex), np.asarray(t, dtype=float)
    coeffs = _series_coefficients(t, order)
    result, nested = -t[..., None, None] * dh, dh
    for k in range(order):
        nested = h @ nested - nested @ h
        result = result + coeffs[..., k, None, None] * nested
    return result


def test_series_scaled_field_scaling_keeps_the_bits_and_avoids_overflow():
    # the chain is formed on h / 2^e: within ||h|| t <= 1 every matrix keeps
    # the bits of the unscaled partial sum, and a huge field no longer
    # overflows the chain (0 * inf made the t = 0 generator NaN)
    rng = np.random.default_rng(15)
    for j in (0.5, 1.0, 3.0):
        rep = build_spin_rep(j)
        for _ in range(100):
            r = rng.normal(size=3)
            r *= 10 ** rng.uniform(-3, 3) / np.linalg.norm(r)
            h, dh = dot_with_J(rep, r), dot_with_J(rep, rng.normal(size=3))
            t = rng.uniform(0.0, 1.0) / np.max(np.abs(np.linalg.eigvalsh(h)))
            assert_same_bits(generator_series(h, dh, t), _unscaled_series(h, dh, t, 24))
    rep = build_spin_rep(1)
    assert np.all(generator_series(dot_with_J(rep, [1.0, 0.0, 1e14]), rep.jz, 0.0) == 0.0)


def test_series_field_scaling_keeps_the_bits_and_avoids_overflow():
    # the partial sum itself scales h by a power of two: a huge field gives
    # the exact zero generator at t = 0, and in-range stacks and time vectors
    # keep the bits of the unscaled partial sum
    rep = build_spin_rep(1)
    huge = _partial_sum(dot_with_J(rep, [1.0, 0.0, 1e14]), rep.jz, 0.0, 24)
    assert np.all(huge == 0.0)
    rng = np.random.default_rng(16)
    for j in (0.5, 1.0, 1.5, 3.0):
        rep = build_spin_rep(j)
        r = rng.normal(size=(60, 3)) * 10 ** rng.uniform(-3, 3, (60, 1))
        h, dh = dot_with_J(rep, r), dot_with_J(rep, rng.normal(size=(60, 3)))
        t = rng.uniform(0.0, 3.0, 60) / np.max(np.abs(np.linalg.eigvalsh(h)), axis=-1)
        for order in (1, 10, 24):
            assert_same_bits(_partial_sum(h, dh, t, order), _unscaled_series(h, dh, t, order))
        ts = np.linspace(0.0, 2.0, 7) / np.max(np.abs(np.linalg.eigvalsh(h[0])))
        assert_same_bits(_partial_sum(h[0], dh[0], ts, 24), _unscaled_series(h[0], dh[0], ts, 24))


@pytest.mark.parametrize("field", [
    [1.0, 0.0, 1e308],    # largest row sum 1e308: e was 1024 and the scale inf
    [1.5e308, 0.0, 0.0],  # the middle row sum overflows the double range
])
def test_series_scale_stays_finite_at_the_top_of_the_double_range(field):
    # the scale is clipped to 2^1023, so the chain stays finite: the t = 0
    # generator is exactly zero, and a tiny time matches the closed form
    rep = build_spin_rep(1)
    ts = np.array([0.0, 5e-301, 1e-300])
    gen = generator_series(dot_with_J(rep, field), rep.jz, ts)
    assert np.all(gen[0] == 0.0)
    closed = dot_with_J(rep, generator_vector(field, [0.0, 0.0, 1.0], ts))
    assert np.all(frobenius(gen - closed) <= 1e-12 * frobenius(closed))


def test_series_scaled_random_directions():
    rng = np.random.default_rng(14)
    for _ in range(20):
        j = rng.choice([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
        rep = build_spin_rep(j)
        r = rng.normal(size=3)
        r *= rng.uniform(0.1, 3.0) / np.linalg.norm(r)
        v = rng.normal(size=3)
        v *= rng.uniform(0.1, 3.0) / np.linalg.norm(v)
        t = rng.uniform(0.1, 3.0)
        closed = dot_with_J(rep, generator_vector(r, v, t))
        scaled = generator_series(dot_with_J(rep, r), dot_with_J(rep, v), t)
        assert frobenius(closed - scaled) < 1e-9


def test_series_matches_the_50_digit_generator_from_tiny_to_huge_phases():
    # Relative Frobenius error against c.J, whose norm is |c| sqrt(j(j+1)(2j+1)/3),
    # for |field| t log-uniform in [1e-3, 1e4].  Each time doubling adds
    # rounding, so the error grows with the phase ||h|| t = j |field| t.
    # Worst measured, at j = 3: 13 eps max(1, j |field| t) on this seed, and
    # 24 eps max(1, j |field| t) over 20 other sets of draws.  The bound
    # 128 eps max(1, j |field| t) keeps a margin above 5.
    rng = np.random.default_rng(2015)
    x = 10.0 ** rng.uniform(-3.0, 4.0, 200)
    r = rng.normal(size=(200, 3))
    r *= 10.0 ** rng.uniform(-1.0, 1.0, (200, 1)) / np.linalg.norm(r, axis=1, keepdims=True)
    v = rng.normal(size=(200, 3))
    t = x / np.linalg.norm(r, axis=1)
    c = np.array([[float(x) for x in generator_vector_coeffs(*row, 50)]
                  for row in zip(r.tolist(), v.tolist(), t.tolist())])
    for j in (0.5, 1.0, 3.0):
        rep = build_spin_rep(j)
        series = generator_series(dot_with_J(rep, r), dot_with_J(rep, v), t)
        err = (np.linalg.norm(series - dot_with_J(rep, c), axis=(-2, -1))
               / (np.linalg.norm(c, axis=1) * math.sqrt(j * (j + 1) * (2 * j + 1) / 3)))
        bound = 128 * np.finfo(float).eps * np.maximum(1.0, j * x)
        assert np.all(err <= bound), (j, x[np.argmax(err / bound)], np.max(err / bound))


# --- finite-difference generator ---------------------------------------------

def test_fd_multiplicative_case():
    rep = build_spin_rep(1)
    t = 1.4

    def u_of(theta):
        return hermitian_expm(np.asarray(rep.jz), -1j * theta * t)

    out = generator_fd(u_of, 0.8)
    assert frobenius(out - (-t) * np.asarray(rep.jz)) < 1e-9


def test_fd_constant_propagator_gives_zero():
    u = hermitian_expm(np.diag([1.0, -1.0, 0.5]), -0.7j)

    def u_of(theta):
        return u

    assert frobenius(generator_fd(u_of, 0.0)) < 1e-12


def test_fd_matches_closed_form_static_field():
    # two-component static field at omega0 = lam = 1, t = 1
    rep = build_spin_rep(1)
    t = 1.0

    def u_of(w0):
        return hermitian_expm(dot_with_J(rep, [1.0, 0.0, w0]), -1j * t)

    closed = dot_with_J(rep, generator_vector([1.0, 0.0, 1.0], [0.0, 0.0, 1.0], t))
    assert frobenius(closed - generator_fd(u_of, 1.0)) < 1e-8


def test_fd_rejects_non_unitary():
    def u_of(theta):
        return np.diag([1.0, 2.0])

    with pytest.raises(ValueError):
        generator_fd(u_of, 0.0)


def test_fd_flags_misconfigured_step():
    rep = build_spin_rep(1)

    def u_of(theta):
        return hermitian_expm(dot_with_J(rep, [0.3, 0.4, 0.8]), -1j * theta)

    with pytest.raises(ValueError):
        generator_fd(u_of, 0.8, step=1e-13)  # roundoff dominates


def test_fd_output_is_hermitian():
    rep = build_spin_rep(0.5)

    def u_of(theta):
        return hermitian_expm(dot_with_J(rep, [0.5, 0.2, theta]), -1j * 1.2)

    herm = generator_fd(u_of, 1.0)
    assert frobenius(herm - herm.conj().T) == pytest.approx(0.0, abs=1e-16)


# --- time-ordered propagator ---------------------------------------------------

def test_trotter_constant_hamiltonian():
    rng = np.random.default_rng(16)
    h = random_hermitian(rng, 5)
    exact = hermitian_expm(h, -1.8j)
    approx = trotter_propagator(lambda ts: np.broadcast_to(h, (ts.size, 5, 5)), 1.8, 10_000)
    assert frobenius(exact - approx) < 1e-10


def test_trotter_matches_factored_evolution():
    # rotating drive at omega0 = lam = 1, omega = 0.5, j = 1/2, T = 2
    rep = build_spin_rep(0.5)
    jx, jy, jz = (np.asarray(m) for m in (rep.jx, rep.jy, rep.jz))
    omega0, lam, omega, total_t = 1.0, 1.0, 0.5, 2.0

    def h_of(ts):
        return omega0 * jz + lam * (np.cos(omega * ts)[:, None, None] * jx + np.sin(omega * ts)[:, None, None] * jy)

    u_trotter = trotter_propagator(h_of, total_t, 1000)
    h_eff = (omega0 - omega) * jz + lam * jx
    u_factored = hermitian_expm(jz, -1j * omega * total_t) @ hermitian_expm(h_eff, -1j * total_t)
    assert frobenius(u_trotter - u_factored) < 1e-6
    assert frobenius(u_trotter.conj().T @ u_trotter - np.eye(2)) < 1e-10


@pytest.mark.parametrize("steps,total_t", [
    (1, 0.7), (2, 1.5), (999, 1.5), (3000, 1.5),
    (_BLOCK_STEPS - 1, 2.0), (_BLOCK_STEPS, 2.0), (_BLOCK_STEPS + 1, 2.0),
    (2560, 2.0), (3075, 2.0), (12, 40.0),
])
def test_trotter_matches_plain_ordered_product(steps, total_t):
    # Reference: the same factor exponentials of each step, the one weighted
    # to its earlier Gauss node first, multiplied one at a time in time
    # order, on both the Taylor branch and (dt ||H|| > 0.8, last case) the
    # eigendecomposition branch.
    from reference_oracles import _expm_skew_taylor

    rep = build_spin_rep(1.5)
    h_batch = _drive_hamiltonians(rep)
    dt = total_t / steps
    root = math.sqrt(3.0) / 6.0
    h1, h2 = (h_batch((np.arange(steps) + c) * dt) for c in (0.5 - root, 0.5 + root))
    w1, w2 = 0.25 - root, 0.25 + root
    hs = np.stack([w2 * h1 + w1 * h2, w1 * h1 + w2 * h2], axis=1).reshape(-1, rep.dim, rep.dim)
    scaled = -1j * dt * hs
    max_norm = float(np.sqrt(np.max(np.sum(np.abs(scaled) ** 2, axis=(1, 2)))))
    if max_norm > 0.8:
        us = [hermitian_expm(hk, -1j * dt) for hk in hs]
    else:
        us = _expm_skew_taylor(scaled, max_norm)
    reference = np.eye(rep.dim, dtype=complex)
    for u in us:
        reference = u @ reference
    assert frobenius(trotter_propagator(h_batch, total_t, steps) - reference) < 1e-12


def test_trotter_memory_is_bounded_at_odd_step_count():
    # the 19 998 factor unitaries of 9 999 steps at j = 3 take 15.7 MB; reducing
    # each block as it is made keeps the peak at a few blocks whatever the parity of steps.
    h_batch = _drive_hamiltonians(build_spin_rep(3))
    tracemalloc.start()
    try:
        trotter_propagator(h_batch, 2.0, 9_999)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


def _smooth_drive(ts):
    """The field (cos 3t, sin t, 1) of a smooth drive whose factors do not commute."""
    return np.cos(3 * ts), np.sin(ts), 1.0


def test_trotter_fourth_order_convergence():
    # each halving of the step divides the error by 2^4 = 16
    rep = build_spin_rep(0.5)
    h_of = lambda ts: dot_with_J(rep, np.stack(np.broadcast_arrays(*_smooth_drive(ts)), axis=-1))
    reference = trotter_propagator(h_of, 2.0, 20_000)
    errors = [frobenius(trotter_propagator(h_of, 2.0, steps) - reference) for steps in (25, 50, 100)]
    for ratio in (errors[0] / errors[1], errors[1] / errors[2]):
        assert 15.0 < ratio < 17.0


def test_magnus4_su2_fourth_order_convergence():
    reference = magnus4_su2(_smooth_drive, 2.0, 20_000)
    errors = [_su2_distance(magnus4_su2(_smooth_drive, 2.0, steps), reference, 1) for steps in (25, 50, 100)]
    for ratio in (errors[0] / errors[1], errors[1] / errors[2]):
        assert 15.0 < ratio < 17.0


def test_trotter_rejects_bad_steps():
    with pytest.raises(ValueError):
        trotter_propagator(lambda ts: np.broadcast_to(np.eye(2), (ts.size, 2, 2)), 1.0, 0)


# --- SU(2) fourth-order Magnus product ------------------------------------------

def _drive_field(ts, lam=0.7, omega=0.9, omega0=1.1):
    return lam * np.cos(omega * ts), lam * np.sin(omega * ts), omega0


def _drive_hamiltonians(rep, lam=0.7, omega=0.9, omega0=1.1):
    jx, jy, jz = (np.asarray(m) for m in (rep.jx, rep.jy, rep.jz))

    def h_batch(ts):
        return omega0 * jz + lam * (np.cos(omega * ts)[:, None, None] * jx + np.sin(omega * ts)[:, None, None] * jy)

    return h_batch


@pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 3.0])
@pytest.mark.parametrize("steps,total_t", [
    (1, 0.7), (2, 1.5), (999, 1.5), (1000, 3.0),
    (_SU2_BLOCK_STEPS - 1, 2.0), (_SU2_BLOCK_STEPS, 2.0), (_SU2_BLOCK_STEPS + 1, 2.0),
    (3 * _SU2_BLOCK_STEPS + 1, 2.0), (12, 40.0),
])
def test_su2_lift_of_magnus4_product_matches_matrix_product(j, steps, total_t):
    rep = build_spin_rep(j)
    lifted = su2_lift(rep, magnus4_su2(_drive_field, total_t, steps))
    reference = trotter_propagator(_drive_hamiltonians(rep), total_t, steps)
    assert frobenius(lifted - reference) < 1e-11


@pytest.mark.parametrize("j", [0.5, 1.0, 1.5])
@pytest.mark.parametrize("steps", [2, 5])
def test_magnus4_su2_zero_field_step(j, steps):
    # the field vanishes on the first half of [0, 2], so the factors of those steps are zero fields
    direction = np.array([1.0, 0.3, -0.2])
    rep = build_spin_rep(j)
    q = magnus4_su2(lambda ts: tuple(np.outer(direction, np.maximum(ts - 1.0, 0.0))), 2.0, steps)
    reference = trotter_propagator(lambda ts: dot_with_J(rep, np.outer(np.maximum(ts - 1.0, 0.0), direction)),
                                   2.0, steps)
    assert frobenius(su2_lift(rep, q) - reference) < 1e-11
    assert magnus4_su2(lambda ts: (0.0, 0.0, 0.0), 3.0, steps) == (1.0 + 0.0j, 0.0j)


@pytest.mark.parametrize("j,sign", [(0.5, -1.0), (1.0, 1.0), (1.5, -1.0), (3.0, 1.0)])
def test_su2_lift_full_turn_sign(j, sign):
    # a rotation by 2 pi is -I at half-integer spin and I at integer spin
    rep = build_spin_rep(j)
    np.testing.assert_array_equal(su2_lift(rep, (-1.0 + 0.0j, 0.0j)), sign * np.eye(rep.dim))
    np.testing.assert_array_equal(su2_lift(rep, (1.0 + 0.0j, 0.0j)), np.eye(rep.dim))
    full_turn = magnus4_su2(lambda ts: (0.0, 0.6, 0.8), 2.0 * np.pi, 7)
    assert frobenius(su2_lift(rep, full_turn) - sign * np.eye(rep.dim)) < 1e-12


@pytest.mark.parametrize("j", [0.5, 1.0, 2.0, 5.0])
def test_magnus4_su2_matches_rotating_frame(j):
    field = SCENARIOS["case3-lambda"].field({"omega0": 1.1, "lambda": 0.7, "omega": 0.9})
    rep = build_spin_rep(j)
    lifted = su2_lift(rep, magnus4_su2(_drive_field, 2.5, 4000))
    assert frobenius(lifted - propagator(rep, field, 2.5, 0.9)) < 1e-10


def test_magnus4_su2_and_lift_reject_bad_input():
    with pytest.raises(ValueError):
        magnus4_su2(_drive_field, 1.0, 0)
    with pytest.raises(ValueError):
        magnus4_su2(lambda ts: (ts, ts), 1.0, 3)
    rep = build_spin_rep(1)
    for q in [(2.0, 0.0), (0.0, 0.0), (np.nan, 0.0), (1.0, complex(0.0, np.inf)), (0.6, 0.6)]:
        with pytest.raises(ValueError):
            su2_lift(rep, q)


def _matrix(pair):
    """The SU(2) matrix [[alpha, -conj(beta)], [beta, conj(alpha)]] of a Cayley-Klein pair."""
    alpha, beta = pair
    return np.array([[alpha, -np.conj(beta)], [beta, np.conj(alpha)]])


def _product(a, b):
    """The pair of the matrix product U_a U_b, its first column."""
    return tuple(complex(c) for c in (_matrix(a) @ _matrix(b))[:, 0])


def _half_angle_pair(a, dt):
    """(cos h - i sin h n_z, sin h (n_y - i n_x)) with h = dt |a| / 2 and n = a / |a|, the pair of exp(-i dt a.J)."""
    half = 0.5 * dt * np.linalg.norm(a)
    x, y, z = math.sin(half) * a / np.linalg.norm(a)
    return complex(math.cos(half), -z), complex(y, -x)


@pytest.mark.parametrize("axis", [0, 1, 2])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_magnus4_su2_single_step_is_the_half_angle_pair(axis, sign):
    # one step of a constant field along an axis is (cos h - i sin h n_z, sin h (n_y - i n_x)), h = dt |a| / 2
    n = np.zeros(3)
    n[axis] = sign
    q = magnus4_su2(lambda ts: tuple(1.3 * n), 0.9, 1)
    np.testing.assert_allclose(q, _half_angle_pair(1.3 * n, 0.9), rtol=0, atol=1e-16)


@pytest.mark.parametrize("steps", [1, 2, 7, _SU2_BLOCK_STEPS + 1, 100_000])
def test_magnus4_su2_static_field_is_one_exponential(steps):
    # a constant field's factors commute and add up to the field over the whole time,
    # so the product is exp(-i t a.J) to about one rounding per factor
    a = np.array([0.4, -1.1, 0.7])
    q = magnus4_su2(lambda ts: tuple(a), 2.3, steps)
    np.testing.assert_allclose(q, _half_angle_pair(a, 2.3), rtol=0, atol=2 * steps * np.finfo(float).eps)


def test_magnus4_su2_step_is_two_factors_in_time_order():
    # on a field linear in t, step n is exp(-i h (w1 a1 + w2 a2).J) exp(-i h (w2 a1 + w1 a2).J)
    # with a1, a2 the field at the Gauss nodes t_n + (1/2 -+ sqrt(3)/6) h and
    # w = (3 -+ 2 sqrt(3)) / 12; the later factor, and the later step, is leftmost
    a0, slope, h = np.array([0.4, -1.1, 0.7]), np.array([-0.9, 0.3, 1.6]), 0.8
    root = math.sqrt(3.0) / 6.0
    w1, w2 = (3.0 - 2.0 * math.sqrt(3.0)) / 12.0, (3.0 + 2.0 * math.sqrt(3.0)) / 12.0

    def field(ts):
        return tuple(a0[i] + slope[i] * ts for i in range(3))

    def factors(n):
        a1, a2 = (a0 + slope * (n + c) * h for c in (0.5 - root, 0.5 + root))
        return _half_angle_pair(w2 * a1 + w1 * a2, h), _half_angle_pair(w1 * a1 + w2 * a2, h)

    first, second = factors(0)
    q = magnus4_su2(field, h, 1)
    np.testing.assert_allclose(q, _product(second, first), rtol=0, atol=1e-15)
    assert not np.allclose(q, _product(first, second), rtol=0, atol=1e-3)
    third, fourth = factors(1)
    np.testing.assert_allclose(magnus4_su2(field, 2 * h, 2), _product(_product(fourth, third), q),
                               rtol=0, atol=1e-15)


def test_magnus4_su2_returns_python_complex_numbers():
    for steps in (1, 2, _SU2_BLOCK_STEPS + 1):
        q = magnus4_su2(_drive_field, 1.5, steps)
        assert len(q) == 2 and all(type(c) is complex for c in q)


@pytest.mark.parametrize("total_t", [1.5, 2.5, 4.0])
def test_magnus4_su2_stays_unit_over_a_million_factors(total_t):
    # each factor rounds cos(theta/2) next to 1 once, and a field of constant
    # size repeats that rounding at every factor: the drift is up to about
    # 2 steps eps (5.6e-11 at t = 2.5, 1.6e-10 at t = 1.5)
    steps = 500_000
    alpha, beta = magnus4_su2(_drive_field, total_t, steps)
    assert abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) < 2 * steps * np.finfo(float).eps


_BOUNDARY_STEPS = st.one_of(
    st.integers(1, 5),
    st.builds(lambda k, d: min(max(k * _SU2_BLOCK_STEPS + d, 1), 3 * _SU2_BLOCK_STEPS + 1),
              st.integers(1, 3), st.integers(-2, 2)),
)


@settings(max_examples=25, derandomize=True, database=None, deadline=None)
@given(j=st.sampled_from([0.5, 1.0, 1.5]), steps=_BOUNDARY_STEPS,
       lam=st.floats(-2.0, 2.0), omega=st.floats(-5.0, 5.0), omega0=st.floats(-2.0, 2.0),
       total_t=st.floats(0.0, 5.0))
def test_su2_lift_of_magnus4_product_matches_matrix_product_property(j, steps, lam, omega, omega0, total_t):
    rep = build_spin_rep(j)
    lifted = su2_lift(rep, magnus4_su2(lambda ts: _drive_field(ts, lam, omega, omega0), total_t, steps))
    reference = trotter_propagator(_drive_hamiltonians(rep, lam, omega, omega0), total_t, steps)
    assert frobenius(lifted - reference) < 1e-11


# --- distance of SU(2) elements at spin j ---------------------------------------

_TWICE_SPINS = [1, 2, 3, 6, 100]   # j = 1/2, 1, 3/2, 3, 50


def _unit_pair(rng):
    """A random SU(2) element: the pair of a normal 4-vector scaled to unit length."""
    q = rng.normal(size=4)
    q /= np.linalg.norm(q)
    return complex(q[0], q[1]), complex(q[2], q[3])


def _turn(phi, axis):
    """The pair of exp(-i phi n.J), a rotation by phi about n = axis / |axis|."""
    return _half_angle_pair(phi * np.asarray(axis, dtype=float), 1.0)


def _near_pair(rng, phi):
    """A unit pair u and v = u r, with r a rotation by phi about a random axis."""
    u = _unit_pair(rng)
    return u, _product(u, _turn(phi, rng.normal(size=3)))


def _distance_slope(twice_j):
    """sqrt(sum_m m^2) = sqrt(j (j + 1) (2j + 1) / 3), the slope of the distance at small angle."""
    j = twice_j / 2
    return math.sqrt(j * (j + 1) * (2 * j + 1) / 3)


@pytest.mark.parametrize("twice_j", _TWICE_SPINS)
def test_su2_distance_matches_the_lifted_matrices(twice_j):
    rng = np.random.default_rng(twice_j)
    rep = build_spin_rep(twice_j / 2)
    for _ in range(20):
        u, v = _unit_pair(rng), _unit_pair(rng)
        reference = frobenius(su2_lift(rep, u) - su2_lift(rep, v))
        assert _su2_distance(u, v, twice_j) == pytest.approx(reference, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("twice_j", [1, 2, 6, 100])   # j = 1/2, 1, 3, 50
def test_su2_distance_is_symmetric_and_sees_the_sign_at_half_integer_spin(twice_j):
    # W = U V^dag near +I and near -I: -I is the rotation by 2 pi, which only a half-integer
    # spin tells from +I, so there the lifted matrices stay 2 sqrt(2j + 1) apart; each lift
    # rounds to about 1e-13 dim, which a small distance sees
    rng = np.random.default_rng(100 + twice_j)
    rep = build_spin_rep(twice_j / 2)
    for phi in (1e-6, 1e-3, 0.3, 2.0):
        for sign in (1.0, -1.0):
            u, v = _near_pair(rng, phi)
            v = tuple(sign * c for c in v)
            reference = frobenius(su2_lift(rep, u) - su2_lift(rep, v))
            distance = _su2_distance(u, v, twice_j)
            assert distance == _su2_distance(v, u, twice_j)
            assert distance == pytest.approx(reference, rel=1e-12, abs=1e-13 * rep.dim), (phi, sign)


@pytest.mark.parametrize("twice_j", _TWICE_SPINS)
def test_su2_distance_at_a_full_turn(twice_j):
    # W = U V^dag = -1 is the rotation by 2 pi: -I at half-integer spin, I at integer spin
    rng = np.random.default_rng(7)
    for u in [(1.0 + 0.0j, 0.0j), *(_unit_pair(rng) for _ in range(5))]:
        assert _su2_distance(u, u, twice_j) == 0.0
        distance = _su2_distance(u, tuple(-c for c in u), twice_j)
        if twice_j % 2:
            assert distance == pytest.approx(2.0 * math.sqrt(twice_j + 1), rel=1e-15, abs=0.0)
        else:
            assert distance <= 1e-14


def _su2_distance_digits(u, v, twice_j, dps=60):
    """The distance of :func:`_su2_distance` at ``dps`` digits, from the double pairs as given."""
    with mpmath.workdps(dps):
        (au, bu), (av, bv) = [[mpmath.mpc(c) for c in q] for q in (u, v)]
        alpha = au * mpmath.conj(av) + mpmath.conj(bu) * bv
        beta = bu * mpmath.conj(av) - mpmath.conj(au) * bv
        half = mpmath.atan2(mpmath.sqrt(alpha.imag ** 2 + abs(beta) ** 2), alpha.real)
        return mpmath.sqrt(sum(4 * mpmath.sin((mpmath.mpf(twice_j) / 2 - k) * half) ** 2
                               for k in range(twice_j + 1)))


@pytest.mark.parametrize("twice_j", _TWICE_SPINS)
def test_su2_distance_matches_60_digits_at_small_angles(twice_j):
    # phi from 1e-11 to 1; the angle comes from a cancelling |vec W|, so its absolute error
    # is a few eps, and the distance's a few eps times its slope
    rng = np.random.default_rng(11)
    bound = 4 * np.finfo(float).eps * _distance_slope(twice_j)
    for phi in np.logspace(-11, 0, 40):
        u, v = _near_pair(rng, phi)
        assert abs(_su2_distance(u, v, twice_j) - float(_su2_distance_digits(u, v, twice_j))) <= bound, phi


@pytest.mark.parametrize("twice_j", _TWICE_SPINS)
def test_su2_distance_ignores_the_drift_off_the_unit_sphere(twice_j):
    # at the --steps cap a long Magnus product drifts to |q| - 1 of about 9e-9, past the
    # lift's unit-norm check; the angle is a ratio, so the distance does not see the drift
    rng = np.random.default_rng(3)
    bound = 4 * np.finfo(float).eps * _distance_slope(twice_j)
    rep = build_spin_rep(twice_j / 2)
    for phi in (1e-9, 1e-3, 1.0):
        u, v = _near_pair(rng, phi)
        drifted = tuple((1 + 1.1e-8) * c for c in u)
        with pytest.raises(ValueError):
            su2_lift(rep, drifted)
        for pair in ((drifted, v), (drifted, tuple((1 + 1.1e-8) * c for c in v))):
            assert abs(_su2_distance(*pair, twice_j) - _su2_distance(u, v, twice_j)) <= bound


@pytest.mark.parametrize("j", [0.5, 1.0, 3.0, 50.0])
@pytest.mark.parametrize("omega0, lam, omega, t", [(0.0, 1.0, 5.0, 1.0), (0.7, 1.3, 1.1, 2.5), (1.0, 1.0, 5.0, 10.0)])
def test_trotter_cross_check_matches_the_lifted_propagators(j, omega0, lam, omega, t):
    # the check's SU(2) distance is the spin-j distance of the lifted product from the driven-frame propagator
    params = {"omega0": omega0, "lambda": lam, "omega": omega}
    rep = build_spin_rep(j)
    lifted = su2_lift(rep, magnus4_su2(lambda ts: _drive_field(ts, lam, omega, omega0), t, 20))
    reference = frobenius(lifted - propagator(rep, SCENARIOS["case3-lambda"].field(params), t, omega))
    assert trotter_cross_check(params, j, t, 20) == pytest.approx(reference, rel=1e-7, abs=0.0)


@pytest.mark.parametrize("j", [0.5, 50.0])
def test_trotter_cross_check_passes_at_the_default_steps(j):
    # (1, 1, 5, 10) is a long, fast drive: at j = 50 the 1e5-step midpoint product read 7.5e-6
    # here, and 2000 Magnus steps read 1.7e-7; the derived count takes 13 356 steps there
    params = {"omega0": 1.0, "lambda": 1.0, "omega": 5.0}
    residual = trotter_cross_check(params, j, 10.0, _derived_steps(params, j, 10.0))
    assert residual <= _TROTTER_MARGIN * RESIDUAL_LIMIT


def _cross_check_row(rng, kind):
    """Drive and time of one seeded row: omega0, lam, omega log-uniform in [0.05, 20], t in [0.01, 30].

    ``kind`` 1 sets omega = 0, 2 takes lam 1e-6 to 1e-3 of omega0, 3 takes t from 1e-4 to 0.05 and
    4 a long drive, t Omega from 200 to 600.
    """
    omega0, lam, omega = np.exp(rng.uniform(math.log(0.05), math.log(20.0), 3))
    t = rng.uniform(0.01, 30.0)
    if kind == 1:
        omega = 0.0
    elif kind == 2:
        lam = omega0 * 10 ** rng.uniform(-6.0, -3.0)
    elif kind == 3:
        t = 10 ** rng.uniform(-4.0, math.log10(0.05))
    elif kind == 4:
        t = rng.uniform(200.0, 600.0) / (omega + math.hypot(lam, omega0))
    return {"omega0": float(omega0), "lambda": float(lam), "omega": float(omega)}, float(t)


@pytest.mark.parametrize("j", [0.5, 1.0, 3.0, 50.0])
def test_trotter_cross_check_at_its_derived_steps_stays_under_the_margin(j):
    # the derived count keeps the product's own error _TROTTER_MARGIN under RESIDUAL_LIMIT
    # wherever the budget does not cut it; three seeded rows of each kind per spin
    rng = np.random.default_rng(3838 + int(2 * j))
    for kind in range(5):
        for _ in range(3):
            params, t = _cross_check_row(rng, kind)
            steps = _derived_steps(params, j, t)
            assert steps < _TROTTER_BUDGET
            residual = trotter_cross_check(params, j, t, steps)
            assert residual <= _TROTTER_MARGIN * RESIDUAL_LIMIT, (kind, params, t, steps, residual)


def test_derived_steps_follow_the_bound_and_stop_at_the_budget():
    # ceil((C (t Omega)^5 s_j / 1e-9)^(1/4)), clamped to [1, 2^18]: fig2a's checked row takes 183 steps
    fig2a_row = {"omega0": 0.0, "lambda": 1.0, "omega": 5.0}
    assert _derived_steps(fig2a_row, 1.0, 1.0) == 183
    assert _derived_steps({"omega0": 0.0, "lambda": 0.0, "omega": 0.0}, 50.0, 1.0) == 1
    # a constant lab field (omega = 0 or lam = 0) takes its one exact step: these rows took 37 340 and 24 212
    for constant in ({"omega0": 10.0, "lambda": 10.0, "omega": 0.0}, {"omega0": 3.0, "lambda": 0.0, "omega": 7.0}):
        assert _derived_steps(constant, 1.0, 30.0) == 1
        assert trotter_cross_check(constant, 1.0, 30.0, 1) <= 1e-15
    assert _derived_steps(fig2a_row, 50.0, 1e3) == _TROTTER_BUDGET
    assert _derived_steps({"omega0": 1e308, "lambda": 1.0, "omega": 1e308}, 1.0, 5.0) == _TROTTER_BUDGET


# --- generator composition -----------------------------------------------------

def test_compose_matches_fd_on_two_factor_evolution():
    # drive-frequency generator assembled from the two factors agrees with
    # differentiating the full factored propagator
    rep = build_spin_rep(0.5)
    jz = np.asarray(rep.jz)
    omega0, lam, t = 1.0, 1.0, 1.0

    def u_of(omega):
        h_eff = dot_with_J(rep, [lam, 0.0, omega0 - omega])
        return hermitian_expm(jz, -1j * omega * t) @ hermitian_expm(h_eff, -1j * t)

    omega_star = 1.0
    h_eff = dot_with_J(rep, [lam, 0.0, omega0 - omega_star])
    gen2 = dot_with_J(rep, generator_vector([lam, 0.0, omega0 - omega_star], [0.0, 0.0, -1.0], t))
    u2 = hermitian_expm(h_eff, -1j * t)
    composed = compose_generators(-t * jz, u2, gen2)
    assert frobenius(composed - generator_fd(u_of, omega_star)) < 1e-7


# --- state-derivative QFI cross-check ------------------------------------------

def test_qfi_fd_consistent_with_generator_route():
    rng = np.random.default_rng(20)
    rep = build_spin_rep(1)
    r = np.array([0.8, -0.4, 1.1])
    v = np.array([0.2, 0.9, -0.5])
    t = 1.7

    def u_of(theta):
        return hermitian_expm(dot_with_J(rep, r + theta * v), -1j * t)

    gen = generator_fd(u_of, 0.0)
    for _ in range(5):
        psi = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi /= np.linalg.norm(psi)
        direct = qfi_fd(u_of, 0.0, psi)
        via_gen = qfi_of_state(gen, psi)
        assert direct == pytest.approx(via_gen, rel=1e-6, abs=1e-6)


# --- three-way agreement (moderate version of the acceptance gate) -------------

def test_generator_oracles_pairwise_agreement():
    rng = np.random.default_rng(22)
    for _ in range(30):
        j = rng.choice([0.5, 1.0, 1.5, 2.0, 2.5, 3.0])
        rep = build_spin_rep(j)
        norm_r = rng.uniform(0.05, 3.0)
        r = np.array([0.0, 0.0, norm_r])
        v = rng.normal(size=3)
        v *= rng.uniform(0.05, 3.0) / np.linalg.norm(v)
        t = rng.uniform(0.05, 3.0)

        closed = dot_with_J(rep, generator_vector(r, v, t))
        series = generator_series(dot_with_J(rep, r), dot_with_J(rep, v), t, 60)

        def u_of(theta, r=r, v=v, t=t, rep=rep):
            return hermitian_expm(dot_with_J(rep, r + theta * v), -1j * t)

        step = fd_step(t * float(np.linalg.norm(v)) * j)
        fd = generator_fd(u_of, 0.0, step=step)
        assert frobenius(closed - series) < 1e-7
        assert frobenius(closed - fd) < 1e-7
        assert frobenius(series - fd) < 1e-7


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    np.testing.assert_array_equal(a.view(np.int64), b.view(np.int64))


def _moving_frame_series(rep, h, dh, t):
    """The CLI's series side for a frame moving with theta: the field's series plus U^dag (-t jz) U.

    U is read, as there, off the centre of a stack of five stencil propagators.
    """
    t = np.asarray(t)
    u = hermitian_expm(np.stack([h] * 5, axis=-3), -1j * t[..., None])[..., 4, :, :]
    frame = -t[..., None, None] * np.asarray(rep.jz)
    return generator_series(h, dh, t) + np.swapaxes(u.conj(), -1, -2) @ frame @ u


@pytest.mark.parametrize("j", [0.5, 1.0, 3.0])
def test_shared_field_series_has_the_bits_of_the_stacked_call(j):
    # one (n, n) h and dh with a vector of times: the chain is built once,
    # and every row keeps the bits of a stack of copies and of its own call
    rng = np.random.default_rng(int(2 * j))
    rep = build_spin_rep(j)
    h, dh = dot_with_J(rep, rng.normal(size=3)), dot_with_J(rep, rng.normal(size=3))
    t = np.concatenate([[0.0, 1e-300, 0.05], rng.uniform(0.0, 40.0, 60)])   # 0 to about 8 doublings
    hs, dhs = np.repeat(h[None], t.size, axis=0), np.repeat(dh[None], t.size, axis=0)
    for fn in (lambda a, b, x: generator_series(a, b, x, 12), generator_series,
               lambda a, b, x: _moving_frame_series(rep, a, b, x)):
        shared = fn(h, dh, t)
        assert_same_bits(shared, fn(hs, dhs, t))
        for k in (0, 1, 2, 30, t.size - 1):
            assert_same_bits(shared[k], fn(h, dh, t[k]))


@pytest.mark.parametrize("j", [0.5, 1.0, 3.0])
def test_per_row_field_with_shared_velocity_has_the_bits_of_the_stacked_call(j):
    # a parameter sweep: h per row, dh and t shared
    rng = np.random.default_rng(10 + int(2 * j))
    rep = build_spin_rep(j)
    hs = dot_with_J(rep, rng.normal(size=(50, 3)) * rng.uniform(0.0, 20.0, (50, 1)))
    dh = dot_with_J(rep, rng.normal(size=3))
    dhs = np.repeat(dh[None], 50, axis=0)
    for fn in (lambda a, b: generator_series(a, b, 0.7, 10), lambda a, b: generator_series(a, b, 1.3)):
        assert_same_bits(fn(hs, dh), fn(hs, dhs))


def _scalar_series_coefficients(t, order):
    """The per-time recursion in Python complex arithmetic that the real recursion rounds like."""
    out, coeff = [], (1j * t) ** 2 / 2.0
    for k in range(1, order + 1):
        out.append(1j * coeff)
        coeff = coeff * (1j * t) / (k + 2)
    return out


def test_series_coefficients_have_the_bits_of_the_scalar_recursion():
    # Every nonzero finite part has the bits of Python's complex recursion,
    # and every value is equal (NaN to NaN).  Where s_k leaves the double
    # range, a zero part may differ in sign, and an overflowed coefficient
    # has one infinite part where the scalar loop has two NaN parts.
    rng = np.random.default_rng(2024)
    top = 1.3407807929942596e154   # the largest t whose (it)^2 stays finite
    special = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e-310, 1e-160, np.nan, -np.nan,
               np.inf, -np.inf, top, -top, 1e154, 1e77, -1e77]
    t = np.concatenate([special,
                        rng.uniform(-40.0, 40.0, 50_000),
                        rng.choice([-1.0, 1.0], 50_000) * 10.0 ** rng.uniform(-323.0, 154.0, 50_000)])
    t[rng.integers(16, t.size, 50)] *= 0.0   # zeros among the others, signs kept
    order = 30
    expected = np.array([_scalar_series_coefficients(x, order) for x in t.tolist()])
    for got in (_series_coefficients(t, order), _series_coefficients(t.reshape(2, -1), order).reshape(t.size, order)):
        np.testing.assert_array_equal(got, expected)
        for part, want in ((got.real, expected.real), (got.imag, expected.imag)):
            kept = np.isfinite(want) & (want != 0.0)
            assert_same_bits(part[kept], want[kept])


@pytest.mark.parametrize("t", [np.nextafter(1.3407807929942596e154, np.inf), -2e154, 1e300])
def test_series_coefficients_overflow_like_the_scalar_recursion(t):
    with pytest.raises(OverflowError):
        _scalar_series_coefficients(t, 3)
    with pytest.raises(OverflowError) as err:
        _series_coefficients(np.array([0.5, t, 1.0]), 3)
    assert err.value.row == 1
    with pytest.raises(OverflowError) as err:
        _partial_sum(np.eye(2), np.eye(2), [0.0, t], 3)
    assert err.value.row == 1


def test_stacked_oracles_match_per_matrix_calls_and_name_first_bad_row():
    rng = np.random.default_rng(72)
    rep = build_spin_rep(1.5)
    r = rng.normal(size=(40, 3))
    v = rng.normal(size=(40, 3))
    t = rng.uniform(0.0, 30.0, 40)
    h, dh = dot_with_J(rep, r), dot_with_J(rep, v)
    stacked = generator_series(h, dh, t)
    for k in range(40):
        np.testing.assert_array_equal(stacked[k], generator_series(h[k], dh[k], t[k]))
    us = np.stack([[hermitian_expm(dot_with_J(rep, r[k] + p * v[k]), -1j * t[k])
                    for p in fd_points(0.0, 1e-3)] for k in range(40)])
    herm = fd_generator(us, np.full(40, 1e-3))
    for k in range(40):
        np.testing.assert_array_equal(herm[k], fd_generator(us[k], 1e-3))
    us[7, 2] *= 1.001
    us[19, 0] *= 1.001
    with pytest.raises(ValueError, match="not unitary") as err:
        fd_generator(us, 1e-3)
    assert err.value.row == 7
