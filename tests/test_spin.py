import math

import numpy as np
import pytest

from su2qfi import build_spin_rep, dot_with_J, frobenius, hermitian_expm

SPINS = [0.5, 1, 1.5, 2, 5, 10]


def test_spin_half_matches_pauli():
    rep = build_spin_rep(0.5)
    np.testing.assert_allclose(rep.jx, 0.5 * np.array([[0, 1], [1, 0]]), atol=1e-15)
    np.testing.assert_allclose(rep.jy, 0.5 * np.array([[0, -1j], [1j, 0]]), atol=1e-15)
    np.testing.assert_allclose(rep.jz, 0.5 * np.array([[1, 0], [0, -1]]), atol=1e-15)


def test_jz_diagonal_descending():
    rep = build_spin_rep(1)
    np.testing.assert_array_equal(np.diag(rep.jz).real, [1.0, 0.0, -1.0])
    rep = build_spin_rep(1.5)
    np.testing.assert_array_equal(np.diag(rep.jz).real, [1.5, 0.5, -0.5, -1.5])
    assert rep.dim == 4
    assert rep.j == 1.5


@pytest.mark.parametrize("j", SPINS)
def test_generators_hermitian(j):
    rep = build_spin_rep(j)
    for op in (rep.jx, rep.jy, rep.jz):
        assert np.max(np.abs(op - op.conj().T)) < 1e-14


@pytest.mark.parametrize("j", SPINS)
def test_commutation_relations(j):
    rep = build_spin_rep(j)
    triples = [(rep.jx, rep.jy, rep.jz), (rep.jy, rep.jz, rep.jx), (rep.jz, rep.jx, rep.jy)]
    for a, b, c in triples:
        assert frobenius(a @ b - b @ a - 1j * c) < 1e-12


@pytest.mark.parametrize("j", SPINS)
def test_casimir_identity(j):
    rep = build_spin_rep(j)
    casimir = rep.jx @ rep.jx + rep.jy @ rep.jy + rep.jz @ rep.jz
    assert frobenius(casimir - j * (j + 1) * np.eye(rep.dim)) < 1e-12


def test_dot_with_J_axis_cases():
    rep = build_spin_rep(0.5)
    np.testing.assert_allclose(dot_with_J(rep, [0, 0, 1]), np.diag([0.5, -0.5]), atol=1e-15)
    np.testing.assert_allclose(
        np.linalg.eigvalsh(dot_with_J(rep, [1, 0, 0])), [-0.5, 0.5], atol=1e-14
    )


def test_dot_with_J_345_spectrum():
    # |a| = 5, so the spectrum is 5 * m for m = 1, 0, -1
    rep = build_spin_rep(1)
    eig = np.linalg.eigvalsh(dot_with_J(rep, [3, 4, 0]))
    np.testing.assert_allclose(eig, [-5.0, 0.0, 5.0], atol=1e-12)


def test_dot_with_J_random_spectrum():
    rng = np.random.default_rng(7)
    for j in (0.5, 1, 2.5, 4):
        rep = build_spin_rep(j)
        m = np.arange(-j, j + 0.5)
        for _ in range(10):
            a = rng.normal(size=3) * rng.uniform(0.1, 4)
            eig = np.linalg.eigvalsh(dot_with_J(rep, a))
            np.testing.assert_allclose(eig, np.linalg.norm(a) * m, atol=1e-10)


def test_dot_with_J_rejects_bad_input():
    rep = build_spin_rep(1)
    with pytest.raises(ValueError):
        dot_with_J(rep, [np.inf, 0, 0])
    with pytest.raises(ValueError):
        dot_with_J(rep, [1, 2])


@pytest.mark.parametrize("bad", [0, -1, 0.3, 50.5, 51, 1.0001])
def test_build_spin_rep_rejects(bad):
    with pytest.raises(ValueError):
        build_spin_rep(bad)


def test_spin_matrices_read_only():
    rep = build_spin_rep(1)
    with pytest.raises(ValueError):
        rep.jx[0, 0] = 1.0


def test_expm_diagonal_pi_rotation():
    u = hermitian_expm(np.diag([1.0, -1.0]), -1j * np.pi)
    np.testing.assert_allclose(u, -np.eye(2), atol=1e-14)


def test_expm_full_turn_is_minus_identity():
    # spin-1/2 picks up a sign under a 2*pi rotation; checked against a
    # plain Taylor-series oracle for the same exponential
    rep = build_spin_rep(0.5)
    u = hermitian_expm(rep.jx, -2j * np.pi)
    np.testing.assert_allclose(u, -np.eye(2), atol=1e-12)

    arg = -2j * np.pi * np.asarray(rep.jx)
    series = np.eye(2, dtype=complex)
    term = np.eye(2, dtype=complex)
    for k in range(1, 60):
        term = term @ arg / k
        series = series + term
    np.testing.assert_allclose(u, series, atol=1e-12)


def test_expm_zero_matrix():
    np.testing.assert_array_equal(hermitian_expm(np.zeros((3, 3)), -2.7j), np.eye(3))


def test_expm_unitary_for_imaginary_scale():
    rng = np.random.default_rng(11)
    for dim in (2, 5, 13, 21):
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        herm = (a + a.conj().T) / 2
        u = hermitian_expm(herm, -1j * rng.uniform(0.1, 5))
        assert frobenius(u.conj().T @ u - np.eye(dim)) < 1e-11


def test_expm_rejects_non_hermitian():
    with pytest.raises(ValueError):
        hermitian_expm(np.array([[0.0, 1.0], [0.0, 0.0]]), -1j)


def test_expm_rejects_non_finite():
    with pytest.raises(ValueError):
        hermitian_expm(np.array([[np.nan, 0.0], [0.0, 1.0]]), -1j)


def test_commutator_su2_closure():
    # [a.J, b.J] = i (a x b).J
    rep = build_spin_rep(1.5)
    a = np.array([1.0, 2.0, 3.0])
    b = np.array([0.0, 1.0, 0.0])
    ja, jb = dot_with_J(rep, a), dot_with_J(rep, b)
    lhs = ja @ jb - jb @ ja
    rhs = 1j * dot_with_J(rep, np.cross(a, b))
    assert frobenius(lhs - rhs) < 1e-12


def test_commutator_of_generators():
    for j in (0.5, 1, 3.5):
        rep = build_spin_rep(j)
        assert frobenius(rep.jx @ rep.jy - rep.jy @ rep.jx - 1j * rep.jz) < 1e-12


def test_commutator_with_self_vanishes():
    rep = build_spin_rep(2)
    m = dot_with_J(rep, [0.3, -1.2, 0.5])
    assert frobenius(m @ m - m @ m) == 0.0


def test_conjugation_equals_nested_commutator_series():
    # exp(A) B exp(-A) = sum_n ad_A^n(B) / n!, truncated; the dropped tail
    # is bounded by (2 ||A||)^(N+1) / (N+1)! * ||B|| * exp(2 ||A||)
    rng = np.random.default_rng(23)
    dim, order = 4, 20
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    a = 0.2 * (a + a.conj().T) / 2
    b = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    b = (b + b.conj().T) / 2

    exact = hermitian_expm(a, 1.0) @ b @ hermitian_expm(a, -1.0)
    total = b.copy()
    nested = b.copy()
    for n in range(1, order + 1):
        nested = (a @ nested - nested @ a) / n
        total = total + nested
    norm_a = float(np.linalg.norm(a, 2))
    tail = (2 * norm_a) ** (order + 1) / math.factorial(order + 1) * frobenius(b) * np.exp(2 * norm_a)
    assert frobenius(exact - total) < max(tail, 1e-13)
