import math

import numpy as np
import pytest

from su2qfi import (
    DrivenSystem,
    build_spin_rep,
    dot_with_J,
    driving_frequency_mqfi,
    driving_generator_vector,
    fd_step,
    frobenius,
    generator_vector,
    hermitian_expm,
    mqfi_closed_form,
    optimal_state,
    spherical_field_mqfi,
    split_velocity,
)
from su2qfi.cases import _spherical_generator_vector
from su2qfi.cli import SCENARIOS, evaluate_point
from su2qfi.spin import libm_pow

from reference_oracles import (check_normal_parts, compose_generators, drive_frequency_total, generator_fd, mqfi_split,
                               propagator, signed_extremes, trotter_propagator)

PI_SQ_PLUS_FOUR = 13.869604401089358  # value of the static-field MQFI at omega0 = lam = 1, t = pi/K


def paper_static_mqfi(which, omega0, lam, j, t):
    """The paper's static-field MQFI as (total, quadratic, oscillatory).

    4 j^2 [a^2 t^2 / K^2 + (4 b^2 / K^4) sin^2(K t / 2)], K = sqrt(lam^2 + omega0^2),
    with (a, b) = (omega0, lam) for estimating omega0 and (lam, omega0) for lam.
    """
    k = math.hypot(lam, omega0)
    a, b = (omega0, lam) if which == "omega0" else (lam, omega0)
    quad = 4 * j**2 * a**2 * t**2 / k**2
    osc = 16 * j**2 * b**2 / k**4 * math.sin(k * t / 2) ** 2
    return quad + osc, quad, osc


def paper_driven_mqfi(which, system, j, t):
    """The paper's driven-field MQFI for omega0 or lam: the static result with omega0 -> delta."""
    return paper_static_mqfi(which, system.delta, system.lam, j, t)


def driven_params(system):
    return {"omega0": system.omega0, "lambda": system.lam, "omega": system.omega}


def driven_propagator(system, rep, t):
    """The lab propagator exp(-i omega t jz) exp(-i t h_eff) that the CLI's oracles use."""
    return propagator(rep, SCENARIOS["case3-lambda"].field(driven_params(system)), t, system.omega)


def driving_generator(system, rep, t):
    """Generator matrix for estimating the drive frequency."""
    return dot_with_J(rep, driving_generator_vector(system, t))


def static_mqfi(which, omega0, lam, j, t):
    """The library's case2 MQFI breakdown: the one vector closed form on (lam, 0, omega0)."""
    return evaluate_point(f"case2-{which}", {"omega0": omega0, "lambda": lam}, j, t)


def driven_mqfi(which, system, j, t):
    """The library's case3 MQFI breakdown for omega, lam or omega0."""
    return evaluate_point(f"case3-{which}", driven_params(system), j, t)


# --- spherical field ----------------------------------------------------------

def test_polar_angle_optimum():
    for j, r in ((0.5, 1.0), (1.0, 2.5), (2.0, 0.3)):
        assert spherical_field_mqfi("theta", r, 1.1, j, np.pi / r).total == pytest.approx(16 * j**2, abs=1e-12)


def test_azimuth_optimum_at_equator():
    assert spherical_field_mqfi("phi", 1.0, np.pi / 2, 1.0, np.pi).total == pytest.approx(16.0, abs=1e-12)
    assert spherical_field_mqfi("phi", 1.0, np.pi / 3, 1.0, np.pi).total == pytest.approx(
        16.0 * np.sin(np.pi / 3) ** 2, rel=1e-12
    )


def test_amplitude_grows_quadratically():
    assert spherical_field_mqfi("r", 0.7, 1.0, 1.0, 3.0).total == pytest.approx(36.0, abs=1e-12)


def test_spherical_field_validation():
    # r = 0 is the zero field: no direction to turn, and the amplitude's 4 j^2 t^2
    for which in ("theta", "phi"):
        assert spherical_field_mqfi(which, 0.0, 1.0, 1.5, 0.7).total == 0.0
    assert spherical_field_mqfi("r", 0.0, 1.0, 1.5, 0.7).total == 4 * 1.5**2 * libm_pow(0.7, 2)
    # r < 0 is the field |r| along -n; the vector form takes it as it is
    for which in ("theta", "phi", "r"):
        params, spec = {"r": -1.3, "theta": 0.9, "phi": 2.1}, SCENARIOS[f"case1-{which}"]
        vector = mqfi_closed_form(1.5, split_velocity(spec.field(params), spec.velocity(params)), 0.7).total
        assert spherical_field_mqfi(which, -1.3, 0.9, 1.5, 0.7).total == pytest.approx(vector, rel=1e-12, abs=0.0)
    with pytest.raises(ValueError):
        spherical_field_mqfi("bogus", 1.0, 1.0, 1.0, 1.0)


def test_spherical_curves_anchor_to_configured_field():
    params = {"r": 1.3, "theta": 0.9, "phi": 2.1}
    expected = 1.3 * np.array([np.sin(0.9) * np.cos(2.1), np.sin(0.9) * np.sin(2.1), np.cos(0.9)])
    for which in ("theta", "phi", "r"):
        spec = SCENARIOS[f"case1-{which}"]
        anchor = params[spec.name]
        np.testing.assert_allclose(spec.field(params), expected, atol=1e-14)
        # analytic derivative consistent with the field itself
        h = 1e-6
        ahead, behind = (spec.field({**params, spec.name: anchor + d}) for d in (h, -h))
        numeric = (ahead - behind) / (2 * h)
        np.testing.assert_allclose(spec.velocity(params), numeric, atol=1e-8)


def test_spherical_closed_forms_match_generic_pipeline():
    rng = np.random.default_rng(51)
    for _ in range(100):
        params = {"r": rng.uniform(0.2, 3.0), "theta": rng.uniform(0.1, np.pi - 0.1),
                  "phi": rng.uniform(0, 2 * np.pi)}
        j = rng.choice([0.5, 1.0, 1.5, 2.0])
        t = rng.uniform(0.0, 5.0)
        which = rng.choice(["theta", "phi", "r"])
        spec = SCENARIOS[f"case1-{which}"]
        split = split_velocity(spec.field(params), spec.velocity(params))
        generic = mqfi_closed_form(j, split, t).total
        closed = spherical_field_mqfi(which, params["r"], params["theta"], j, t).total
        assert closed == pytest.approx(generic, rel=1e-10, abs=1e-12)


def test_spherical_angle_generators_match_the_vector_form():
    # |field| = r exactly; the vector form agrees where it loses no digits
    rng = np.random.default_rng(52)
    for _ in range(100):
        params = {"r": rng.uniform(0.2, 3.0), "theta": rng.uniform(0.1, np.pi - 0.1),
                  "phi": rng.uniform(0, 2 * np.pi)}
        t, which = rng.uniform(0.0, 5.0), rng.choice(["theta", "phi"])
        spec = SCENARIOS[f"case1-{which}"]
        exact = _spherical_generator_vector(which, params["r"], params["theta"], params["phi"], t)
        np.testing.assert_allclose(exact, generator_vector(spec.field(params), spec.velocity(params), t),
                                   rtol=0, atol=1e-13)
        closed = spherical_field_mqfi(which, params["r"], params["theta"], 1.0, t).total
        assert 4 * (exact @ exact) == pytest.approx(closed, rel=1e-13, abs=1e-15)
    with pytest.raises(ValueError):
        _spherical_generator_vector("r", 1.0, 1.0, 1.0, 1.0)


def test_spherical_angle_generator_is_exact_for_a_huge_field():
    # r t = 1e80: the vector form's radial speed cancels only to rounding of r
    for which in ("theta", "phi"):
        coeffs = _spherical_generator_vector(which, 1e80, 1.0, 0.5, 1.0)
        assert 4 * (coeffs @ coeffs) == pytest.approx(spherical_field_mqfi(which, 1e80, 1.0, 1.0, 1.0).total, rel=1e-14)
        grid = _spherical_generator_vector(which, 1e80, np.array([1.0, 0.4]), 0.5, np.array([1.0, 2.0]))
        np.testing.assert_array_equal(grid[0], coeffs)


# --- static field ---------------------------------------------------------------

def test_static_field_reference_value():
    t = np.pi / np.hypot(1.0, 1.0)
    out = static_mqfi("omega0", 1.0, 1.0, 1.0, t)
    assert out.total == pytest.approx(PI_SQ_PLUS_FOUR, rel=1e-12)
    assert out.quadratic == pytest.approx(np.pi**2, rel=1e-12)
    assert out.oscillatory == pytest.approx(4.0, rel=1e-12)
    assert paper_static_mqfi("omega0", 1.0, 1.0, 1.0, t) == pytest.approx((PI_SQ_PLUS_FOUR, np.pi**2, 4.0), rel=1e-12)


def test_static_field_pure_oscillation_without_z_component():
    out = static_mqfi("omega0", 0.0, 2.0, 1.0, 0.7)
    assert out.quadratic == 0.0
    assert out.total == pytest.approx(4.0 * 4.0 / 4.0 * np.sin(0.7) ** 2, rel=1e-12)


def test_static_field_suppressed_by_strong_transverse_coupling():
    reference = static_mqfi("omega0", 1.0, 1e-9, 1.0, np.pi).total
    suppressed = static_mqfi("omega0", 1.0, 1000.0, 1.0, np.pi / np.hypot(1000.0, 1.0)).total
    assert suppressed < 1e-3 * reference


def test_static_field_swap_symmetry():
    a = static_mqfi("omega0", 0.4, 1.7, 1.5, 2.0)
    b = static_mqfi("lambda", 1.7, 0.4, 1.5, 2.0)
    assert a.total == pytest.approx(b.total, rel=1e-12)
    assert a.quadratic == pytest.approx(b.quadratic, rel=1e-12)


def test_static_field_matches_generic_pipeline():
    rng = np.random.default_rng(53)
    for _ in range(50):
        omega0, lam = rng.uniform(0.05, 3.0), rng.uniform(0.05, 3.0)
        j = rng.choice([0.5, 1.0, 2.0])
        t = rng.uniform(0.0, 10.0)
        which = rng.choice(["omega0", "lambda"])
        spec, params = SCENARIOS[f"case2-{which}"], {"omega0": omega0, "lambda": lam}
        split = split_velocity(spec.field(params), spec.velocity(params))
        reference = paper_static_mqfi(which, omega0, lam, j, t)
        assert reference[0] == pytest.approx(mqfi_closed_form(j, split, t).total, rel=1e-10, abs=1e-12)
        assert static_mqfi(which, omega0, lam, j, t).total == pytest.approx(reference[0], rel=1e-10, abs=1e-12)


def test_static_field_of_vanishing_couplings_is_quadratic():
    # a zero field: the whole 4 j^2 t^2 |v|^2 (|v| = 1) is quadratic, for either coupling
    for which in ("omega0", "lambda"):
        out = static_mqfi(which, 0.0, 0.0, 1.5, 0.7)
        assert (out.total, out.quadratic, out.oscillatory) == (4 * 1.5**2 * libm_pow(0.7, 2), out.total, 0.0)


def _static_lambda_reference(w0, j=1.5, t=0.7):
    # 4 j^2 [t^2 / k^2 + 4 (w0 / k)^2 sin^2(k t / 2) / k^2] at lam = 1
    k = math.hypot(w0, 1.0)
    return 4 * j**2 * (t**2 / k**2 + 4 * (w0 / k) ** 2 * math.sin(k * t / 2) ** 2 / k**2)


def _drive_frequency_reference(w0, j=1.5, t=0.7):
    # 4 j^2 (lam / kp)^2 [t^2 - 2 t sin(x) / kp + (2 - 2 cos x) / kp^2], x = kp t, lam = 1, omega = 0
    kp = math.hypot(w0, 1.0)
    x = kp * t
    return 4 * j**2 * (1 / kp) ** 2 * (t**2 - 2 * t * math.sin(x) / kp + (2 - 2 * math.cos(x)) / kp**2)


@pytest.mark.parametrize("mqfi, reference", [
    (lambda w0: static_mqfi("lambda", w0, 1.0, 1.5, 0.7).total, _static_lambda_reference),
    (lambda w0: driving_frequency_mqfi(DrivenSystem(w0, 1.0, 0.0), 1.5, 0.7).total, _drive_frequency_reference),
], ids=["static-lambda", "drive-frequency"])
def test_field_fourth_power_overflow_only_rescales_its_rows(mqfi, reference):
    # |field|^4 overflows above about 1.16e77; grid rows below keep the
    # bits of a scalar call, rows above are finite instead of raising
    grid = np.geomspace(1e70, 1e90, 21)
    values = mqfi(grid)
    small = grid < 1e77
    assert small.any() and not small.all()
    assert np.array_equal(values[small], [mqfi(float(w0)) for w0 in grid[small]])
    for w0, value in zip(grid[~small], values[~small]):
        assert value == pytest.approx(reference(float(w0)), rel=1e-12, abs=0.0)
        assert mqfi(float(w0)) == value


def test_field_square_overflow_only_rescales_its_rows():
    # |field|^2 overflows above about 1.34e154 (omega0 = lam above 9.5e153);
    # the quadratic part 4 j^2 (omega0 / k)^2 t^2 stays finite there
    j, t = 1.5, 0.7
    grid = np.geomspace(1e145, 1e165, 21)
    values = static_mqfi("omega0", grid, grid, j, t).total
    small = grid < 9e153
    assert small.any() and not small.all()
    scalar = [static_mqfi("omega0", w, w, j, t).total for w in grid[small]]
    assert np.array_equal(values[small], scalar)
    for w0, value in zip(grid[~small], values[~small]):
        k = math.hypot(w0, w0)
        reference = 4 * j**2 * (0.5 * t**2 + 2 * math.sin(k * t / 2) ** 2 / k / k)
        assert value == pytest.approx(reference, rel=1e-12, abs=0.0)


def test_static_field_small_time_bound():
    # at K t << 1 both couplings sit below the quadratic envelope 4 j^2 t^2
    rng = np.random.default_rng(55)
    for _ in range(20):
        omega0, lam = rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0)
        j = rng.choice([0.5, 1.0, 2.0])
        t = 0.01 / np.hypot(lam, omega0)
        envelope = 4 * j**2 * t**2  # |velocity| = 1 for both couplings
        for which in ("omega0", "lambda"):
            total = static_mqfi(which, omega0, lam, j, t).total
            assert total <= envelope * (1 + 1e-9)


# --- rotating frame --------------------------------------------------------------

def test_rotating_frame_static_limit():
    system = DrivenSystem(1.2, 0.8, 0.0)
    rep = build_spin_rep(1)
    u1 = propagator(rep, np.zeros(3), 1.7, system.omega)   # the frame factor alone
    np.testing.assert_allclose(u1, np.eye(3), atol=1e-12)
    direct = hermitian_expm(dot_with_J(rep, [0.8, 0.0, 1.2]), -1.7j)
    assert frobenius(driven_propagator(system, rep, 1.7) - direct) < 1e-12


def test_rotating_frame_resonant_effective_hamiltonian():
    system = DrivenSystem(1.0, 0.6, 1.0)
    rep = build_spin_rep(0.5)
    h_eff = dot_with_J(rep, SCENARIOS["case3-lambda"].field(driven_params(system)))
    np.testing.assert_allclose(h_eff, 0.6 * np.asarray(rep.jx), atol=1e-15)


def test_rotating_frame_matches_time_ordered_product():
    system = DrivenSystem(1.0, 1.0, 0.5)
    rep = build_spin_rep(0.5)
    total_t = 2.0

    def h_batch(ts):
        cos = np.cos(system.omega * ts)[:, None, None]
        sin = np.sin(system.omega * ts)[:, None, None]
        return system.omega0 * np.asarray(rep.jz) + system.lam * (
            cos * np.asarray(rep.jx) + sin * np.asarray(rep.jy)
        )

    u_trotter = trotter_propagator(h_batch, total_t, 1000)
    assert frobenius(u_trotter - driven_propagator(system, rep, total_t)) < 1e-6


# --- drive-frequency estimation ----------------------------------------------------

def test_driving_generator_vanishes_without_coupling():
    system = DrivenSystem(1.5, 0.0, 0.5)  # lam = 0, detuning 1.0
    rep = build_spin_rep(1)
    assert frobenius(driving_generator(system, rep, 2.0)) < 1e-14
    assert driving_frequency_mqfi(system, 1.0, 2.0).total == pytest.approx(0.0, abs=1e-14)


def test_driving_generator_zero_time():
    system = DrivenSystem(1.0, 1.0, 0.3)
    rep = build_spin_rep(1)
    assert frobenius(driving_generator(system, rep, 0.0)) == 0.0


def test_driving_generator_rejects_points_whose_cubes_overflow():
    # (kp t)^3 = inf would make g1 a silent zero and the QFI 4.5e-06 instead of 3.2
    with pytest.raises(ValueError, match=r"t\^3 or \(kp t\)\^3 is not finite .*\(at t=1\.0, kp t="):
        driving_generator_vector(DrivenSystem(1e103, 1e103, 5e102), 1.0)
    with pytest.raises(ValueError) as err:
        driving_generator_vector(DrivenSystem(1.0, 1.0, 0.3), np.array([1.0, 2.0, 1e103]))
    assert err.value.row == 2


def test_driving_generator_gives_uncoupled_points_zero_vectors():
    # a lam = 0 point never forms its cubes, so t = 1e300 answers +0 there; coupled points keep
    # the bits of their own calls
    lam, t = np.array([0.0, 1.0, 0.0, 0.7]), np.array([1e300, 2.0, 3.0, 0.5])
    vectors = driving_generator_vector(DrivenSystem(1.5, lam, 0.5), t)
    assert np.array_equal(vectors[[0, 2]], np.zeros((2, 3))) and not np.signbit(vectors[[0, 2]]).any()
    for k in (1, 3):
        np.testing.assert_array_equal(vectors[k], driving_generator_vector(DrivenSystem(1.5, lam[k], 0.5), t[k]))
    np.testing.assert_array_equal(driving_generator_vector(DrivenSystem(0.0, 0.0, 0.0), 1e300), [0.0, 0.0, 0.0])


def test_driving_generator_matches_composition():
    # algebraic identity: the closed form equals gen2 + U2^dag gen1 U2
    rng = np.random.default_rng(57)
    rep = build_spin_rep(0.5)
    jz = np.asarray(rep.jz)
    for _ in range(20):
        system = DrivenSystem(rng.uniform(0.1, 2), rng.uniform(0.1, 2), rng.uniform(0.1, 2))
        t = rng.uniform(0.1, 3)
        h_eff = dot_with_J(rep, [system.lam, 0.0, system.delta])
        gen2 = dot_with_J(rep, generator_vector([system.lam, 0.0, system.delta], [0.0, 0.0, -1.0], t))
        composed = compose_generators(-t * jz, hermitian_expm(h_eff, -1j * t), gen2)
        assert frobenius(driving_generator(system, rep, t) - composed) < 1e-10


def test_drive_frequency_curve_and_breakdown():
    # the "omega" curve is the rotating-frame field; composed with the frame
    # generator -t jz its analytic generator is the drive-frequency closed form
    rng = np.random.default_rng(58)
    rep = build_spin_rep(1.5)
    for _ in range(10):
        system = DrivenSystem(rng.uniform(0.1, 2), rng.uniform(0.1, 2), rng.uniform(0.1, 2))
        t = rng.uniform(0.1, 3)
        spec, params = SCENARIOS["case3-omega"], driven_params(system)
        assert params[spec.name] == system.omega
        field = spec.field(params)
        np.testing.assert_array_equal(field, [system.lam, 0.0, system.delta])
        u2 = hermitian_expm(dot_with_J(rep, field), -1j * t)
        gen2 = dot_with_J(rep, generator_vector(field, spec.velocity(params), t))
        composed = compose_generators(-t * np.asarray(rep.jz), u2, gen2)
        assert frobenius(driving_generator(system, rep, t) - composed) < 1e-10

        parts = driven_mqfi("omega", system, 1.5, t)
        assert parts.total == driving_frequency_mqfi(system, 1.5, t).total
        assert parts.quadratic == pytest.approx(4 * 1.5**2 * system.lam**2 * t**2 / system.kp**2, rel=1e-14)
        assert parts.oscillatory == parts.total - parts.quadratic


def test_driving_generator_matches_finite_difference():
    rep = build_spin_rep(0.5)
    system = DrivenSystem(1.0, 1.0, 1.0)
    t = 1.0

    def u_of(omega):
        return driven_propagator(DrivenSystem(system.omega0, system.lam, omega), rep, t)

    closed = driving_generator(system, rep, t)
    fd = generator_fd(u_of, system.omega, step=fd_step(t * 2.5))
    assert frobenius(closed - fd) < 1e-7


def test_drive_frequency_mqfi_reference_value():
    # resonance, lam = 1, j = 1, t = 2*pi: the trigonometric terms cancel
    system = DrivenSystem(1.0, 1.0, 1.0)
    assert driving_frequency_mqfi(system, 1.0, 2 * np.pi).total == pytest.approx(16 * np.pi**2, rel=1e-12)


def test_drive_frequency_mqfi_equals_vector_norm_form():
    rng = np.random.default_rng(59)
    for _ in range(50):
        system = DrivenSystem(rng.uniform(0.0, 2), rng.uniform(0.1, 2), rng.uniform(0.0, 2))
        j = rng.choice([0.5, 1.0, 1.5])
        t = rng.uniform(0.05, 5)
        coeffs = driving_generator_vector(system, t)
        expected = (2 * j * np.linalg.norm(coeffs)) ** 2
        assert driving_frequency_mqfi(system, j, t).total == pytest.approx(expected, rel=1e-9, abs=1e-15)


def test_drive_frequency_resonance_is_stationary():
    h = 1e-5
    for lam in (0.5, 1.0, 2.0):
        for t in (1.0, 5.0):
            up = driving_frequency_mqfi(DrivenSystem(h, lam, 0.0), 1.0, t).total
            dn = driving_frequency_mqfi(DrivenSystem(-h, lam, 0.0), 1.0, t).total
            assert abs(up - dn) / (2 * h) < 1e-6


def test_drive_frequency_resonance_is_grid_optimum():
    deltas = np.linspace(-5.0, 5.0, 1001)
    values = [driving_frequency_mqfi(DrivenSystem(d, 1.0, 0.0), 1.0, 1.0).total for d in deltas]
    assert int(np.argmax(values)) == 500  # delta = 0


def test_drive_frequency_large_time_envelope():
    # stroboscopic times on resonance give exactly the quadratic envelope
    system = DrivenSystem(2.0, 1.0, 2.0)
    for k in (1, 5, 20):
        t = 2 * np.pi * k
        assert driving_frequency_mqfi(system, 1.0, t).total == pytest.approx(4 * t**2, rel=1e-9)


def _check_drive_draws(lam, delta, t):
    """Hold driving_frequency_mqfi's total and quadratic part to 60 digits at j = 1/2 and 50; the parts checked.

    Only parts whose reference is a normal double are checked, and the
    oscillatory part is their difference.  For kp t in [0.01, 1] the
    bracket's 3-term series below its switch at 0.1 and its cancelling
    closed branch above it are off by up to 1.7e5 ulp (ROADMAP item 4), in
    the direct form, which keeps the bits it had, and in the scaled root,
    which takes the same bracket.  The total is held to that bound there,
    and every other part to 1e-12.
    """
    n = len(t)
    refs = [(drive_frequency_total(lam[k], delta[k], t[k], 60),
             mqfi_split((lam[k], 0.0, delta[k]), (1.0, 0.0, 0.0), t[k], 60)[0] if lam[k] else 0.0) for k in range(n)]
    with np.errstate(over="ignore"):
        x = np.hypot(lam, delta) * t
    near_switch = (x >= 0.01) & (x <= 1.0)
    assert near_switch.sum() < n / 100   # the bound covers a handful of rows
    checked = 0
    for j in (0.5, 50.0):
        got = driving_frequency_mqfi(DrivenSystem(delta, lam, 0.0), j, t)
        total, quad = ([4 * j**2 * ref[i] for ref in refs] for i in (0, 1))
        checked += check_normal_parts(got.total, total, lambda k: ("total", j, lam[k], delta[k], t[k]),
                                      np.where(near_switch, 1.7e5, 0.0))
        checked += check_normal_parts(got.quadratic, quad, lambda k: ("quadratic", j, lam[k], delta[k], t[k]))
    return checked


def test_drive_frequency_stack_matches_60_digits_on_extreme_draws():
    # lam and delta from +-1e-300 to +-1e300, 20% exactly zero.  No
    # np.errstate: a leaked numpy warning fails the test.
    rng = np.random.default_rng(22)
    n = 2000
    lam, delta = signed_extremes(rng, n), signed_extremes(rng, n)
    t = 10.0 ** rng.uniform(-200, 50, n)
    assert _check_drive_draws(lam, delta, t) > 1.5 * n   # about 1700 normal parts at each j


def test_drive_frequency_stack_matches_60_digits_where_kp_overflows_or_is_subnormal():
    # Half of the magnitudes of lam and delta are from 1e308 to 1.78e308,
    # where hypot(lam, delta) overflows once both pass 1.27e308, and half
    # are subnormal, down to 5e-324, where hypot loses digits.
    rng = np.random.default_rng(26)
    n = 1000

    def edge_draw():
        huge = rng.random(n) < 0.5
        return rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(np.where(huge, 308.0, -323.3),
                                                                 np.where(huge, 308.25, -307.7))

    lam, delta = edge_draw(), edge_draw()
    t = 10.0 ** rng.uniform(-160, 300, n)
    with np.errstate(over="ignore"):
        kp = np.hypot(lam, delta)
    assert np.sum(np.isinf(kp)) > 0.05 * n and np.sum((kp > 0) & (kp < np.finfo(float).tiny)) > 0.1 * n
    assert _check_drive_draws(lam, delta, t) > 1.5 * n   # about 920 normal parts at each j


def test_drive_frequency_keeps_the_direct_bits_in_range():
    # moderate rows keep the bits of the direct form, also where lam or t is exactly zero
    rng = np.random.default_rng(23)
    n = 2000
    lam, delta = (rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(-3, 3, n) for _ in range(2))
    lam[rng.random(n) < 0.1], delta[rng.random(n) < 0.1] = 0.0, 0.0
    lam[(lam == 0.0) & (delta == 0.0)] = 1.0
    t = np.where(rng.random(n) < 0.05, 0.0, 10.0 ** rng.uniform(-3, 2, n))
    got = driving_frequency_mqfi(DrivenSystem(delta, lam, 0.0), 1.5, t)
    jsq4, kp = 4 * 1.5**2, np.hypot(lam, delta)
    x = kp * t
    x2 = x * x
    bracket = np.where(np.abs(x) < 0.1, x2 * x2 * (0.25 - x2 / 72.0 + x2 * x2 / 2880.0),
                       2.0 + x * x - 2.0 * x * np.sin(x) - 2.0 * np.cos(x))
    assert got.total.tobytes() == (jsq4 * libm_pow(lam, 2) / libm_pow(kp, 4) * bracket).tobytes()
    assert got.quadratic.tobytes() == (jsq4 * libm_pow(lam, 2) * libm_pow(t, 2) / libm_pow(kp, 2)).tobytes()


def test_uncoupled_drive_stack_gives_exact_zeros():
    # at lam = +-0, U = exp(-i omega0 t jz) does not depend on omega: every part and every
    # generator component is exactly 0, on resonance (delta = 0) too
    lam = np.array([0.0, -0.0, 0.0, -0.0, 0.0, -0.0])
    omega0, omega = np.array([1.0, 1.0, 2.0, 0.0, -3.0, 0.0]), np.array([1.0, 1.0, 0.5, 0.0, 2.0, -0.0])
    t = np.array([[0.0], [1e-300], [1.0], [1e100]])
    system = DrivenSystem(omega0, lam, omega)
    got = driving_frequency_mqfi(system, 1.5, t)
    for part in (got.total, got.quadratic, got.oscillatory):
        assert part.shape == (4, 6) and np.all(part == 0.0)
    assert np.all(driving_generator_vector(system, t) == 0.0)


def test_uncoupled_drive_point_is_zero_where_the_split_has_no_limit():
    # along delta = 0 the quadratic part stays 4 j^2 t^2 and the oscillatory part tends to -4 j^2 t^2;
    # at lam = 0 itself both are 0, the value along lam = 0
    near = driving_frequency_mqfi(DrivenSystem(1.0, 1e-8, 1.0), 1.0, 2.0)
    assert near.quadratic == 16.0 and near.oscillatory == pytest.approx(-16.0, rel=1e-12)
    for lam in (0.0, -0.0):
        at = driving_frequency_mqfi(DrivenSystem(1.0, lam, 1.0), 1.0, 2.0)
        assert (at.total, at.quadratic, at.oscillatory) == (0.0, 0.0, 0.0)


# --- static parameters under the drive ----------------------------------------------

def test_driven_couplings_on_resonance():
    system = DrivenSystem(1.0, 1.0, 1.0)
    out = driven_mqfi("lambda", system, 1.0, 2.0)
    assert out.total == pytest.approx(16.0, abs=1e-12)
    assert out.oscillatory == 0.0
    assert paper_driven_mqfi("lambda", system, 1.0, 2.0)[0] == pytest.approx(16.0, abs=1e-12)
    out0 = driven_mqfi("omega0", system, 1.0, 2.0)
    assert out0.quadratic == 0.0
    assert out0.total == pytest.approx(4.0 * 4.0 * np.sin(1.0) ** 2, rel=1e-12)


def test_driven_couplings_match_generic_machinery():
    rng = np.random.default_rng(61)
    rep = build_spin_rep(1)
    for _ in range(10):
        system = DrivenSystem(rng.uniform(0.1, 2), rng.uniform(0.1, 2), rng.uniform(0.1, 2))
        params = driven_params(system)
        t = rng.uniform(0.1, 3)
        for which in ("omega0", "lambda"):
            spec = SCENARIOS[f"case3-{which}"]
            gen = dot_with_J(rep, generator_vector(spec.field(params), spec.velocity(params), t))
            mqfi = optimal_state(gen).mqfi()
            assert paper_driven_mqfi(which, system, 1.0, t)[0] == pytest.approx(mqfi, rel=1e-10, abs=1e-12)
            assert driven_mqfi(which, system, 1.0, t).total == pytest.approx(mqfi, rel=1e-10, abs=1e-12)

            u1 = hermitian_expm(np.asarray(rep.jz), -1j * system.omega * t)

            def u_of(theta, spec=spec, u1=u1, t=t):
                return u1 @ hermitian_expm(dot_with_J(rep, spec.field({**params, spec.name: theta})), -1j * t)

            fd = generator_fd(u_of, params[spec.name], step=fd_step(t * 1.0))
            assert frobenius(gen - fd) < 1e-7


def test_driven_coupling_of_a_zero_field_is_quadratic():
    # on resonance with lam = 0 the field is zero: the lam estimate keeps its whole 4 j^2 t^2
    out = evaluate_point("case3-lambda", {"omega0": 1.0, "lambda": 0.0, "omega": 1.0}, 1.0, 1.0)
    assert (out.total, out.quadratic, out.oscillatory) == (4.0, 4.0, 0.0)
