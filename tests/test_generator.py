import json
import math

import mpmath
import numpy as np
import pytest

from su2qfi import (
    DrivenSystem,
    build_spin_rep,
    dot_with_J,
    driving_frequency_mqfi,
    fd_step,
    frobenius,
    generator_vector,
    hermitian_expm,
    mqfi_closed_form,
    optimal_state,
    spherical_field_mqfi,
    split_velocity,
)
from su2qfi.cli import main
from su2qfi.spin import libm_pow, row_dot

from reference_oracles import check_normal_parts, generator_fd, mqfi_split, signed_extremes


def radial_parts(split):
    """(radial speed, radial, transverse) of a split with a nonzero field: d|field|/dtheta and the velocity's parts."""
    speed = row_dot(split.velocity, split.field / split.field_norm[..., None])
    radial = speed[..., None] * split.field / split.field_norm[..., None]
    return speed, radial, split.velocity - radial


def zero_field_mqfi(j, v, t):
    """The maximal QFI of a zero field with velocity ``v``: the one closed form on the split of (0, 0, 0)."""
    v = np.asarray(v, dtype=float)
    return mqfi_closed_form(j, split_velocity(np.zeros_like(v), v), t)


def generator_vector_from_split(split, t):
    """Coefficient vector of the generator built from the velocity split.

    Algebraically equal to :func:`generator_vector` but carries a factor
    1/(d|field|/dtheta); only defined when the radial speed is nonzero.
    Kept as an independent cross-check of the primary form.
    """
    speed, radial, transverse = radial_parts(split)
    if speed == 0.0:
        raise ValueError(
            "radial speed is zero; the split form is singular (use generator_vector)"
        )
    x = split.field_norm * t
    cross = np.cross(radial, transverse)
    return (
        (1.0 - np.cos(x)) / (split.field_norm * speed) * cross
        - t * radial
        - np.sin(x) / split.field_norm * transverse
    )


def random_instance(rng, j_max=3.0):
    j = rng.choice([0.5, 1.0, 1.5, 2.0, 2.5, 3.0][: int(2 * j_max)])
    r = rng.normal(size=3)
    r *= rng.uniform(0.05, 3.0) / np.linalg.norm(r)
    v = rng.normal(size=3)
    v *= rng.uniform(0.05, 3.0) / np.linalg.norm(v)
    t = rng.uniform(0.05, 3.0)
    return j, r, v, t


# --- velocity split ---------------------------------------------------------

def test_split_orthogonal_case():
    _, radial, transverse = radial_parts(split_velocity([0, 0, 1], [1, 0, 0]))
    np.testing.assert_allclose(radial, [0, 0, 0], atol=1e-15)
    np.testing.assert_allclose(transverse, [1, 0, 0], atol=1e-15)


def test_split_parallel_case():
    speed, radial, transverse = radial_parts(split_velocity([0, 0, 2], [0, 0, 3]))
    np.testing.assert_allclose(radial, [0, 0, 3], atol=1e-15)
    np.testing.assert_allclose(transverse, [0, 0, 0], atol=1e-15)
    assert speed == pytest.approx(3.0)


def test_split_projection_arithmetic():
    _, radial, transverse = radial_parts(split_velocity([1, 0, 1], [1, 0, 0]))
    np.testing.assert_allclose(radial, [0.5, 0.0, 0.5], atol=1e-15)
    np.testing.assert_allclose(transverse, [0.5, 0.0, -0.5], atol=1e-15)


def test_split_of_zero_field_is_zeros():
    s = split_velocity([0, 0, 0], [1, 0, 0])
    assert (s.field_norm, s.along, s.across) == (0.0, 0.0, 0.0)
    stack = split_velocity([[0, 0, 0], [0, 0, 2]], [[1e300, -1e300, 1e300], [0, 0, 3]])
    np.testing.assert_array_equal([stack.field_norm, stack.along, stack.across], [[0, 2], [0, 6], [0, 0]])


def test_split_invariants_randomized():
    rng = np.random.default_rng(5)
    for _ in range(50):
        _, r, v, _ = random_instance(rng)
        _, radial, transverse = radial_parts(split_velocity(r, v))
        np.testing.assert_allclose(radial + transverse, v, atol=1e-12)
        assert np.linalg.norm(np.cross(radial, r)) <= 1e-10 * max(
            1e-30, np.linalg.norm(radial) * np.linalg.norm(r)
        )
        assert abs(transverse @ r) <= 1e-10 * max(
            1e-30, np.linalg.norm(transverse) * np.linalg.norm(r)
        )


# --- generator coefficient vector -------------------------------------------

def test_multiplicative_parameter_gives_minus_t_velocity():
    # field = theta * e_z: the generator is -t * dH
    a = generator_vector([0.0, 0.0, 2.0], [0.0, 0.0, 1.0], 1.3)
    np.testing.assert_allclose(a, [0.0, 0.0, -1.3], atol=1e-14)


def test_zero_time_gives_zero_vector():
    a = generator_vector([1.0, 2.0, 0.5], [0.3, -1.0, 0.2], 0.0)
    np.testing.assert_array_equal(a, [0.0, 0.0, 0.0])


def test_vanishing_field_limit():
    v = np.array([0.4, -0.2, 1.1])
    np.testing.assert_allclose(generator_vector([0, 0, 0], v, 2.0), -2.0 * v, atol=1e-15)
    # and continuity: a tiny field stays near the limit
    np.testing.assert_allclose(generator_vector([1e-9, 0, 0], v, 2.0), -2.0 * v, atol=1e-8)


def test_generator_vector_rejects_rows_whose_cubes_overflow():
    # an infinite (|field| t)^3 would make f1 a silent zero; t^3 multiplies the radial part
    r, v = np.array([0.6, 0.0, 0.8]), np.array([0.3, -1.1, 0.4])
    for t, bad in (([1.0, 6e102, 2.0], 1), ([1.0, 2.0, 1e200], 2)):
        with pytest.raises(ValueError, match=r"t\^3 or \(\|field\| t\)\^3 is not finite") as err:
            generator_vector(r, v, np.array(t))
        assert err.value.row == bad
        np.testing.assert_array_equal(generator_vector(r, v, np.array(t[:bad])),
                                      [generator_vector(r, v, x) for x in t[:bad]])
    with pytest.raises(ValueError, match=r"\(at t=1\.0, \|field\| t=1e\+103\)"):
        generator_vector([1e103, 0.0, 0.0], v, 1.0)
    assert np.isfinite(generator_vector(r, v, 5e102)).all()   # (5e102)^3 is still finite


def test_generator_vector_takes_a_field_whose_squares_overflow():
    # |field|^2 = 1e320 overflows: that row takes nested hypot, the in-range rows keep the bits of
    # their own calls, and at t = 0 the vector is 0 (it read nan from (inf * 0)^3)
    v = np.array([1.0, 0.0, 0.0])
    fields = np.array([[1.0, 0.0, 1e160], [0.6, 0.0, 0.8], [3.0, -4.0, 12.0]])
    np.testing.assert_array_equal(generator_vector(fields[0], v, 0.0), [0.0, 0.0, 0.0])
    stack = generator_vector(fields, v, 5e-151)
    np.testing.assert_array_equal(stack, [generator_vector(r, v, 5e-151) for r in fields])
    # the generator of (field / c, c t) is c times that of (field, t); with c a power of 2 both
    # sides take the same phase |field| t.  Only the velocity's own term, t f2 v ~ v / |field|, is
    # compared: the cross term's t^2 f3 ~ 1 / |field|^2 is subnormal here
    c = 2.0 ** 530
    huge = generator_vector([0.0, 0.0, c], v, 1e-150)
    assert huge[0] == pytest.approx(generator_vector([0.0, 0.0, 1.0], v, 1e-150 * c)[0] / c, rel=1e-15)
    assert abs(huge[0]) > 1e-160


def test_norm_identity():
    rng = np.random.default_rng(12)
    for _ in range(100):
        _, r, v, t = random_instance(rng)
        a = generator_vector(r, v, t)
        s = split_velocity(r, v)
        _, radial, transverse = radial_parts(s)
        expected = (radial @ radial) * t**2 + 4 * (transverse @ transverse) / s.field_norm**2 * np.sin(
            s.field_norm * t / 2
        ) ** 2
        assert a @ a == pytest.approx(expected, rel=1e-10, abs=1e-13)


def test_matches_finite_difference_propagator():
    rep = build_spin_rep(1)
    r = np.array([1.0, 0.0, 1.0])
    v = np.array([1.0, 0.0, 0.0])
    t = 1.0
    closed = dot_with_J(rep, generator_vector(r, v, t))

    def u_of(theta):
        return hermitian_expm(dot_with_J(rep, r + theta * v), -1j * t)

    assert frobenius(closed - generator_fd(u_of, 0.0)) < 1e-8


def test_both_vector_forms_agree():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 40:
        _, r, v, t = random_instance(rng)
        s = split_velocity(r, v)
        if abs(radial_parts(s)[0]) < 1e-3:
            continue
        direct = generator_vector(r, v, t)
        via_split = generator_vector_from_split(s, t)
        np.testing.assert_allclose(direct, via_split, atol=1e-10 * max(1, np.linalg.norm(direct)))
        checked += 1


def test_split_form_requires_radial_speed():
    s = split_velocity([0, 0, 1], [1, 0, 0])  # purely transverse
    with pytest.raises(ValueError, match="radial speed is zero"):
        generator_vector_from_split(s, 1.0)


def test_split_form_terms_mutually_orthogonal():
    rng = np.random.default_rng(9)
    for _ in range(40):
        _, r, v, t = random_instance(rng)
        _, radial, transverse = radial_parts(split_velocity(r, v))
        cross = np.cross(radial, transverse)
        pairs = [(cross, radial), (cross, transverse), (radial, transverse)]
        for a, b in pairs:
            assert abs(a @ b) <= 1e-10 * max(1e-30, np.linalg.norm(a) * np.linalg.norm(b))


def test_continuity_at_full_turns():
    # a branch jump at full turns would dominate the O(eps^2) curvature of
    # the symmetric second difference
    rng = np.random.default_rng(17)
    eps = 1e-6
    for k in (1, 2, 3):
        r = rng.normal(size=3)
        r *= 1.7 / np.linalg.norm(r)
        v = rng.normal(size=3)
        t_star = 2 * np.pi * k / 1.7
        left = generator_vector(r, v, t_star - eps)
        right = generator_vector(r, v, t_star + eps)
        center = generator_vector(r, v, t_star)
        assert np.linalg.norm(left + right - 2 * center) < 1e-8


# --- the generator operator on a field curve ---------------------------------

def test_analytic_generator_fields():
    # the operator is coeffs . J, with extreme eigenvalues +-j |coeffs|
    rep = build_spin_rep(1.5)
    field = lambda th: np.array([np.cos(th), np.sin(th), 0.5])
    velocity = lambda th: np.array([-np.sin(th), np.cos(th), 0.0])
    coeffs = generator_vector(field(0.3), velocity(0.3), 2.0)
    matrix = dot_with_J(rep, coeffs)
    norm = np.linalg.norm(coeffs)
    eig = np.linalg.eigvalsh(matrix)
    assert eig[-1] == pytest.approx(1.5 * norm, abs=1e-10)
    assert eig[0] == pytest.approx(-1.5 * norm, abs=1e-10)
    assert optimal_state(matrix).mqfi() == pytest.approx((2 * 1.5 * norm) ** 2, rel=1e-12)


def test_analytic_generator_rejects_non_finite_velocity():
    with pytest.raises(ValueError, match="velocity must be finite"):
        generator_vector(np.zeros(3), [np.nan, 0.0, 0.0], 1.0)


# --- closed-form MQFI --------------------------------------------------------

def test_mqfi_matches_eigenvalue_spread():
    rng = np.random.default_rng(31)
    for _ in range(100):
        j, r, v, t = random_instance(rng)
        eig = np.linalg.eigvalsh(dot_with_J(build_spin_rep(j), generator_vector(r, v, t)))
        breakdown = mqfi_closed_form(j, split_velocity(r, v), t)
        assert breakdown.total == pytest.approx((eig[-1] - eig[0]) ** 2, rel=1e-9, abs=1e-15)
        assert breakdown.total == pytest.approx(breakdown.quadratic + breakdown.oscillatory, rel=1e-12)


def test_mqfi_rows_whose_products_overflow_leave_the_other_rows_bits():
    # r.v overflows on row 1 and |r x v| on row 2; row 0 is in range
    r = np.array([[0.3, -1.2, 0.8], [1e300, 0.0, 0.0], [1e150, 0.0, 0.0]])
    v = np.array([[0.5, 0.4, -0.9], [1e10, 1.0, 0.0], [1.0, 1e160, 0.0]])
    t = np.array([0.7, 1.0, 1.0])
    with np.errstate(over="ignore", invalid="ignore"):
        stack = mqfi_closed_form(1.5, split_velocity(r, v), t)
        rows = [mqfi_closed_form(1.5, split_velocity(r[k], v[k]), t[k]) for k in range(3)]
    alone = mqfi_closed_form(1.5, split_velocity(r[:1], v[:1]), t[:1])
    for part in ("total", "quadratic", "oscillatory"):
        got = np.asarray(getattr(stack, part))
        assert got.tobytes() == np.array([getattr(row, part) for row in rows]).tobytes()
        assert got[:1].tobytes() == np.asarray(getattr(alone, part)).tobytes()
    assert np.all(np.isfinite(stack.total))
    assert stack.quadratic[1] == pytest.approx(4 * 1.5**2 * 1e20, rel=1e-15)
    assert stack.quadratic[2] == pytest.approx(4 * 1.5**2, rel=1e-15)


def _check_extreme_draws(rng, n, spread=0):
    """Hold mqfi_closed_form to 1e-12 of 60 digits on n extreme draws at j = 1/2 and 50; the parts checked.

    Only parts whose reference is a normal double are checked.
    """
    r, v = signed_extremes(rng, n, 3, spread), signed_extremes(rng, n, 3, spread)
    t = 10.0 ** rng.uniform(-200, 50, n)
    r[~r.any(axis=1), 2] = 1.0   # zero fields have their own draws, in the small-time test
    with np.errstate(all="ignore"):   # r.v or r x v overflows on some rows
        split = split_velocity(r, v)
    refs = [mqfi_split(r[k], v[k], t[k], 60, double_norm=split.field_norm[k]) for k in range(n)]
    checked = 0
    for j in (0.5, 50.0):
        with np.errstate(all="ignore"):
            got = mqfi_closed_form(j, split, t)
        for part, ref in zip((got.quadratic, got.oscillatory), zip(*refs)):
            checked += check_normal_parts(part, [4 * j**2 * x for x in ref], lambda k: (j, r[k], v[k], t[k]))
    return checked


def test_mqfi_stack_matches_60_digits_on_extreme_draws_and_keeps_the_direct_bits_in_range():
    rng = np.random.default_rng(13)
    n = 2000
    assert _check_extreme_draws(rng, n) > 1.5 * n   # about 1890 normal parts at each j
    # in range each part keeps the bits of its direct form, also where r.v, |r x v| or t is exactly zero
    r, v = (rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-3, 3, (n, 1)) for _ in range(2))
    r[rng.random((n, 3)) < 0.2], v[rng.random((n, 3)) < 0.2] = 0.0, 0.0
    r[~r.any(axis=1), 0] = 1.0
    t = np.where(rng.random(n) < 0.05, 0.0, rng.uniform(0, 100, n))
    split = split_velocity(r, v)
    jsq4, norm = 4 * 1.5**2, split.field_norm
    assert np.sum(split.along == 0.0) > 5 and np.sum(split.across == 0.0) > 5
    got = mqfi_closed_form(1.5, split, t)
    quad = jsq4 * libm_pow(split.along, 2) * libm_pow(t, 2) / libm_pow(norm, 2)
    osc = 4.0 * jsq4 * libm_pow(split.across, 2) / libm_pow(norm, 4) * libm_pow(np.sin(norm * t / 2.0), 2)
    assert got.quadratic.tobytes() == quad.tobytes() and got.oscillatory.tobytes() == osc.tobytes()


def test_mqfi_stack_matches_60_digits_where_components_differ_in_magnitude():
    # components up to 1e100 apart: near-parallel or near-orthogonal r and v,
    # tiny phases, and fields with subnormal components or a subnormal |r|
    assert _check_extreme_draws(np.random.default_rng(29), 2000, spread=100) > 1.5 * 2000


def test_mqfi_quadratic_part_matches_60_digits_where_every_product_of_r_dot_v_underflows():
    # r = (1, x, 0) and v = (0, y, 1), up to signs, sizes and a shared permutation of the axes, with
    # x y from 1e-450 to 1e-330: every product r_k v_k, scaled or not, is below the normal range,
    # though the quadratic part 4 j^2 (x y t)^2 / |r|^2 is a normal double for t up to 1e300
    rng = np.random.default_rng(33)
    n = 400
    lx, ly = rng.uniform(-225, -165, n), rng.uniform(-225, -165, n)
    size = 10.0 ** rng.uniform(-3, 3, (2, n, 1))
    r = np.stack([np.ones(n), 10.0**lx, np.zeros(n)], -1) * rng.choice([-1.0, 1.0], (n, 3)) * size[0]
    v = np.stack([np.zeros(n), 10.0**ly, np.ones(n)], -1) * rng.choice([-1.0, 1.0], (n, 3)) * size[1]
    axes = rng.permuted(np.tile(np.arange(3), (n, 1)), axis=1)
    r, v = np.take_along_axis(r, axes, 1), np.take_along_axis(v, axes, 1)
    t = 10.0 ** np.minimum(rng.uniform(-150, 150, n) - lx - ly, 300.0)
    with np.errstate(under="ignore"):
        assert np.all(np.abs(r * v) < np.finfo(float).tiny)
    got = mqfi_closed_form(1.0, split_velocity(r, v), t)
    refs = [4 * mqfi_split(r[k], v[k], t[k], 60)[0] for k in range(n)]
    assert check_normal_parts(got.quadratic, refs, lambda k: (r[k], v[k], t[k])) > 0.9 * n


def test_mqfi_pure_transverse_oscillates():
    # orthogonal field and velocity: the quadratic part vanishes and the
    # total is 16 j^2 (v^2/r^2) sin^2(rt/2), optimal at odd half-turns
    j = 1.5
    s = split_velocity([0, 0, 2.0], [3.0, 0, 0])
    ceiling = 16 * j**2 * 9.0 / 4.0
    for k in (0, 1, 2):
        t_opt = (2 * k + 1) * np.pi / 2.0
        b = mqfi_closed_form(j, s, t_opt)
        assert b.quadratic == 0.0
        assert b.total == pytest.approx(ceiling, rel=1e-12)
    halfway = mqfi_closed_form(j, s, np.pi / 4.0)
    assert halfway.total == pytest.approx(ceiling * np.sin(np.pi / 4) ** 2, rel=1e-12)
    assert halfway.total < ceiling


def test_mqfi_zero_time():
    s = split_velocity([1.0, 0, 0], [0.5, 0.5, 0])
    assert mqfi_closed_form(2.0, s, 0.0).total == 0.0


def test_mqfi_multiplicative_limit_is_quadratic(capsys):
    # a vanishing field puts the whole 4 j^2 t^2 |v|^2 in the quadratic part
    assert zero_field_mqfi(1.0, [0.0, 0.0, 1.5], 2.0).total == pytest.approx(4 * 4 * 2.25, rel=1e-12)
    assert main(["mqfi", "generic", "--rvec", "0,0,0", "--vvec", "0,0,1.5", "--t", "2", "--json"]) == 0
    b = json.loads(capsys.readouterr().out)
    assert b["total"] == pytest.approx(4 * 4 * 2.25, rel=1e-12)
    assert b["quadratic"] == b["total"]
    assert b["oscillatory"] == 0.0


def test_small_time_value():
    assert zero_field_mqfi(1.0, [1.0, 0.0, 0.0], 2.0).total == pytest.approx(16.0)
    assert zero_field_mqfi(1.0, [0.0, 0.0, 0.0], 2.0).total == 0.0
    # a stack of velocities gives each row the bits of its own call
    v, t = np.array([[0.3, -1.1, 0.4], [1e-3, 2.0, 0.0]]), np.array([2.0, 0.7])
    stack = zero_field_mqfi(1.5, v, t).total
    assert stack.tobytes() == np.array([zero_field_mqfi(1.5, v[k], t[k]).total for k in range(2)]).tobytes()


def test_small_time_stack_matches_60_digits_on_extreme_draws_and_keeps_the_direct_bits_in_range():
    # t up to 1e250 makes t^2 overflow on some rows, and |v| up to 1e300 makes
    # v.v overflow; no np.errstate, so a leaked numpy warning fails the test
    rng = np.random.default_rng(24)
    n = 2000
    v, t = signed_extremes(rng, n, 3), 10.0 ** rng.uniform(-200, 250, n)
    with mpmath.workdps(60):
        refs = [mpmath.mpf(float(t[k])) ** 2 * sum(mpmath.mpf(float(x)) ** 2 for x in v[k]) for k in range(n)]
    checked = 0
    for j in (0.5, 50.0):
        got = zero_field_mqfi(j, v, t)
        checked += check_normal_parts(got.quadratic, [4 * j**2 * x for x in refs], lambda k: (j, v[k], t[k]))
        assert got.total.tobytes() == got.quadratic.tobytes() and not got.oscillatory.any()
    assert checked > 0.8 * n   # about 930 normal parts at each j
    # in range each row keeps the bits of the direct form, also where v or t is exactly zero
    v = rng.normal(size=(n, 3)) * 10.0 ** rng.uniform(-3, 3, (n, 1))
    v[rng.random((n, 3)) < 0.2] = 0.0
    t = np.where(rng.random(n) < 0.05, 0.0, rng.uniform(0, 100, n))
    assert zero_field_mqfi(1.5, v, t).total.tobytes() == (4 * 1.5**2 * libm_pow(t, 2) * row_dot(v, v)).tobytes()


def test_small_time_matches_closed_form():
    rng = np.random.default_rng(41)
    for _ in range(50):
        j, r, v, _ = random_instance(rng)
        t = 1e-3 / np.linalg.norm(r)  # |field| * t = 1e-3
        small = zero_field_mqfi(j, v, t).total
        full = mqfi_closed_form(j, split_velocity(r, v), t).total
        assert small == pytest.approx(full, rel=1e-6)


def test_reparametrization_scaling():
    # theta -> theta / c scales the velocity by c and the MQFI by c^2
    rng = np.random.default_rng(43)
    c = 2.5
    base = lambda th: np.array([np.cos(th), np.sin(th), 1 + th**2])
    base_v = lambda th: np.array([-np.sin(th), np.cos(th), 2 * th])
    field2 = lambda th: base(c * th)
    velocity2 = lambda th: c * base_v(c * th)
    theta0, t = 0.4, 1.7
    r1, v1 = base(c * theta0), base_v(c * theta0)
    r2, v2 = field2(theta0), velocity2(theta0)
    np.testing.assert_allclose(r1, r2, atol=1e-12)
    np.testing.assert_allclose(c * v1, v2, rtol=1e-15)
    f1 = mqfi_closed_form(1.0, split_velocity(r1, v1), t).total
    f2 = mqfi_closed_form(1.0, split_velocity(r2, v2), t).total
    assert f2 == pytest.approx(c**2 * f1, rel=1e-12)


# --- scale covariance: exact in real arithmetic, and in doubles for powers of two -----

_SCALE_ULPS = 8


def _signed_spread(rng, shape):
    """Signed values of magnitude 10^U(-150, 150), each drawn alone, 10% of them exactly zero."""
    x = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.uniform(-150, 150, shape)
    x[rng.random(shape) < 0.1] = 0.0
    return x


def _exactly_scaled(x, k):
    """x 2^k, with k one exponent per row, and whether each row of it is exact."""
    per_row = k[:, None] if x.ndim == 2 else k
    with np.errstate(over="ignore", under="ignore"):
        scaled = np.ldexp(x, per_row)
        exact = np.ldexp(scaled, -per_row) == x
    return scaled, exact.all(axis=-1) if x.ndim == 2 else exact


def _check_covariant(base, scaled, power, rows, what):
    """Hold ``scaled`` to ``base`` 2^power within _SCALE_ULPS on ``rows`` where all three are normal; the count."""
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    with np.errstate(over="ignore", under="ignore"):
        want = np.ldexp(base, power)
    held = rows.copy()
    for x in (base, scaled, want):
        held &= (np.abs(x) >= tiny) & (np.abs(x) <= huge)
    held = np.flatnonzero(held)
    gap = np.abs(scaled[held] - want[held]) / np.spacing(np.abs(want[held]))
    assert np.all(gap <= _SCALE_ULPS), (what, held[gap > _SCALE_ULPS][:5], gap.max())
    return held.size


def _mqfi_parts(breakdown):
    return {name: np.asarray(getattr(breakdown, name)) for name in ("total", "quadratic", "oscillatory")}


def test_mqfi_is_covariant_under_scaling_the_field_velocity_and_time():
    # (2^k r, 2^k v, 2^-k t) keeps x = |r| t and every part; 2^m v multiplies every part by 2^(2m)
    rng = np.random.default_rng(141)
    n = 20_000
    r, v, t = _signed_spread(rng, (n, 3)), _signed_spread(rng, (n, 3)), 10.0 ** rng.uniform(-150, 150, n)
    k, m = rng.integers(-300, 300, n), rng.integers(-300, 300, n)
    with np.errstate(all="ignore"):   # r.v or |r x v| overflows on some rows
        base = _mqfi_parts(mqfi_closed_form(1.5, split_velocity(r, v), t))
        (r_k, r_ok), (v_k, v_ok), (t_k, t_ok), (v_m, m_ok) = (
            _exactly_scaled(r, k), _exactly_scaled(v, k), _exactly_scaled(t, -k), _exactly_scaled(v, m))
        along = _mqfi_parts(mqfi_closed_form(1.5, split_velocity(r_k, v_k), t_k))
        faster = _mqfi_parts(mqfi_closed_form(1.5, split_velocity(r, v_m), t))
    for name in base:
        assert _check_covariant(base[name], along[name], 0, r_ok & v_ok & t_ok, ("k", name)) > 0.3 * n
        assert _check_covariant(base[name], faster[name], 2 * m, m_ok, ("m", name)) > 0.3 * n


def test_mqfi_keeps_its_bits_when_one_axis_of_field_and_velocity_flips():
    rng = np.random.default_rng(142)
    n = 20_000
    r, v, t = _signed_spread(rng, (n, 3)), _signed_spread(rng, (n, 3)), 10.0 ** rng.uniform(-150, 150, n)
    with np.errstate(all="ignore"):
        base = _mqfi_parts(mqfi_closed_form(0.5, split_velocity(r, v), t))
        for axis in range(3):
            flip = np.ones(3)
            flip[axis] = -1.0
            flipped = _mqfi_parts(mqfi_closed_form(0.5, split_velocity(r * flip, v * flip), t))
            for name in base:
                assert flipped[name].tobytes() == base[name].tobytes(), (axis, name)


def test_drive_frequency_mqfi_is_covariant_under_scaling_the_frequencies_and_time():
    # (2^k omega0, 2^k lam, 2^k omega, 2^-k t) keeps x = kp t; lam^2 / kp^4 and lam^2 t^2 / kp^2 gain 2^(-2k)
    rng = np.random.default_rng(143)
    n = 20_000
    omega0, lam, omega = _signed_spread(rng, (3, n))
    t, k = 10.0 ** rng.uniform(-150, 150, n), rng.integers(-300, 300, n)
    scaled = [_exactly_scaled(x, k) for x in (omega0, lam, omega)] + [_exactly_scaled(t, -k)]
    exact = np.logical_and.reduce([ok for _, ok in scaled])
    exact &= np.ldexp(omega0 - omega, k) == scaled[0][0] - scaled[2][0]   # and so is delta
    with np.errstate(all="ignore"):
        base = driving_frequency_mqfi(DrivenSystem(omega0, lam, omega), 1.0, t)
        moved = driving_frequency_mqfi(DrivenSystem(*(x for x, _ in scaled[:3])), 1.0, scaled[3][0])
    for name in ("total", "quadratic"):
        held = _check_covariant(getattr(base, name), getattr(moved, name), -2 * k, exact, name)
        assert held > 0.3 * n


def test_spherical_mqfi_is_covariant_under_scaling_the_amplitude_and_time():
    # (2^k r, 2^-k t) keeps r t, so the angles' MQFI; the amplitude's 4 j^2 t^2 gains 2^(-2k)
    rng = np.random.default_rng(144)
    n = 20_000
    r, theta, t = _signed_spread(rng, n), rng.uniform(0.0, np.pi, n), 10.0 ** rng.uniform(-150, 150, n)
    k = rng.integers(-300, 300, n)
    (r_k, r_ok), (t_k, t_ok) = _exactly_scaled(r, k), _exactly_scaled(t, -k)
    with np.errstate(all="ignore"):   # t^2 leaves the range on some rows
        for which, power in (("theta", 0), ("phi", 0), ("r", -2 * k)):
            base, moved = (spherical_field_mqfi(which, x, theta, 2.0, y).total for x, y in ((r, t), (r_k, t_k)))
            assert _check_covariant(np.broadcast_to(base, n), np.broadcast_to(moved, n), power, r_ok & t_ok,
                                    which) > 0.2 * n


def test_fd_step_scaling():
    # 2e-3 / max(1, scale), the step the CLI's finite-difference oracle takes
    assert fd_step(0.0) == fd_step(1.0) == 2e-3
    assert fd_step(40.0) == pytest.approx(5e-5, rel=1e-15)
    assert fd_step(100.0) < fd_step(10.0) < fd_step(1.0)


def test_fd_step_keeps_five_point_stencil_out_of_roundoff():
    # a step shrinking as scale^-1.5 (6.8e-6 here) left an error of 9e-10
    rep = build_spin_rep(3)
    r, v, t = np.array([0.0, 0.0, 1.7]), np.array([0.3, -1.2, 0.8]), 2.5
    closed = dot_with_J(rep, generator_vector(r, v, t))

    def u_of(theta):
        return hermitian_expm(dot_with_J(rep, r + theta * v), -1j * t)

    fd = generator_fd(u_of, 0.0, step=fd_step(t * float(np.linalg.norm(v)) * 3))
    assert frobenius(closed - fd) < 1e-10


def test_split_velocity_norm_is_within_one_ulp_of_hypot():
    # nested np.hypot neither overflows nor underflows: 50 fields at each of
    # 601 sizes from 1e-300 to 1e300, split as one stack
    rng = np.random.default_rng(71)
    sizes = np.repeat(np.logspace(-300, 300, 601), 50)
    r = rng.normal(size=(sizes.size, 3)) * sizes[:, None]
    split = split_velocity(r, [0.3, -1.1, 0.4])
    exact = np.array([math.hypot(*row) for row in r])
    assert np.all(np.abs(split.field_norm - exact) <= np.spacing(exact))
    for k in rng.choice(sizes.size, 20, replace=False):
        one = split_velocity(r[k], [0.3, -1.1, 0.4])
        assert (one.field_norm, one.along, one.across) == (
            split.field_norm[k], split.along[k], split.across[k])
    assert split_velocity([1e-200, 0.0, 0.0], [1.0, 0.0, 0.0]).field_norm == 1e-200
