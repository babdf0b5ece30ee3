"""Acceptance gate: one test per release criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  The randomized suites sample the coefficient field along the z axis;
rotational covariance of every quantity is established separately in the
unit tests, and axis-aligned fields keep the order-60 commutator series
numerically meaningful at the largest allowed phases (see the module tests
for the conditioning behaviour at arbitrary orientations).
"""

import time

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
    generator_series,
    generator_vector,
    hermitian_expm,
    mqfi_closed_form,
    optimal_state,
    qfi_of_state,
    spherical_field_mqfi,
    split_velocity,
)
from su2qfi.cli import SCENARIOS, _propagator, main as cli_main

from reference_oracles import generator_fd, qfi_fd, trotter_propagator


def report(number, name, failures, elapsed, limit=None):
    verdict = "PASS" if not failures else f"FAIL ({len(failures)} problems)"
    budget = "" if limit is None else f" [runtime {elapsed:.2f}s < {limit}s]"
    print(f"[acceptance] criterion {number:02d} ({name}): {verdict}{budget}")
    assert not failures, failures[:5]
    if limit is not None:
        assert elapsed < limit, f"criterion {number} exceeded its runtime budget: {elapsed:.2f}s"


def rel_err(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def z_aligned_instances(count, seed=20240925):
    """Deterministic (j, field, velocity, t) draws with the field along z."""
    rng = np.random.default_rng(seed)
    spins = [0.5, 1.0, 1.5, 2.0, 2.5, 3.0]
    out = []
    for _ in range(count):
        j = float(rng.choice(spins))
        field = np.array([0.0, 0.0, rng.uniform(0.05, 3.0)])
        v = rng.normal(size=3)
        v *= rng.uniform(0.05, 3.0) / np.linalg.norm(v)
        t = rng.uniform(0.05, 3.0)
        out.append((j, field, v, t))
    return out


def lab_hamiltonian_batch(rep, system):
    jx, jy, jz = (np.asarray(m) for m in (rep.jx, rep.jy, rep.jz))

    def h_batch(ts):
        cos = np.cos(system.omega * ts)[:, None, None]
        sin = np.sin(system.omega * ts)[:, None, None]
        return system.omega0 * jz + system.lam * (cos * jx + sin * jy)

    return h_batch


def test_criterion_01_algebra_suite():
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(1)
    for j in (0.5, 1.0, 1.5, 2.0, 5.0, 10.0):
        rep = build_spin_rep(j)
        cyclic = [(rep.jx, rep.jy, rep.jz), (rep.jy, rep.jz, rep.jx), (rep.jz, rep.jx, rep.jy)]
        for a, b, c in cyclic:
            dev = frobenius(a @ b - b @ a - 1j * c)
            if dev > 1e-12:
                failures.append(f"commutation at j={j}: {dev:.2e}")
        casimir = rep.jx @ rep.jx + rep.jy @ rep.jy + rep.jz @ rep.jz
        dev = frobenius(casimir - j * (j + 1) * np.eye(rep.dim))
        if dev > 1e-12:
            failures.append(f"casimir at j={j}: {dev:.2e}")
        m = np.arange(-j, j + 0.5)
        for _ in range(5):
            a = rng.normal(size=3) * rng.uniform(0.1, 3.0)
            eig = np.linalg.eigvalsh(dot_with_J(rep, a))
            dev = float(np.max(np.abs(eig - np.linalg.norm(a) * m)))
            if dev > 1e-10:
                failures.append(f"spectrum at j={j}: {dev:.2e}")
    report(1, "spin algebra suite", failures, time.perf_counter() - start, limit=5.0)


def test_criterion_02_generator_triple_agreement():
    start = time.perf_counter()
    failures = []
    for j, field, v, t in z_aligned_instances(200):
        rep = build_spin_rep(j)
        analytic = dot_with_J(rep, generator_vector(field, v, t))
        series = generator_series(dot_with_J(rep, field), dot_with_J(rep, v), t, 60)

        def u_of(theta, rep=rep, field=field, v=v, t=t):
            return hermitian_expm(dot_with_J(rep, field + theta * v), -1j * t)

        fd = generator_fd(u_of, 0.0, step=fd_step(t * float(np.linalg.norm(v)) * j))
        for name, dev in (
            ("analytic-series", frobenius(analytic - series)),
            ("analytic-fd", frobenius(analytic - fd)),
            ("series-fd", frobenius(series - fd)),
        ):
            if dev > 1e-7:
                failures.append(f"{name} at j={j}, |r|={field[2]:.2f}, t={t:.2f}: {dev:.2e}")
    report(2, "generator triple agreement", failures, time.perf_counter() - start, limit=30.0)


def test_criterion_03_mqfi_identity():
    start = time.perf_counter()
    failures = []
    for j, field, v, t in z_aligned_instances(200):
        rep = build_spin_rep(j)
        coeffs = generator_vector(field, v, t)
        gen = dot_with_J(rep, coeffs)
        spread_sq = (2.0 * j * float(np.linalg.norm(coeffs))) ** 2
        closed = mqfi_closed_form(j, split_velocity(field, v), t).total
        if rel_err(spread_sq, closed) > 1e-9:
            failures.append(f"spread vs closed at j={j}: {rel_err(spread_sq, closed):.2e}")
        attained = qfi_of_state(gen, optimal_state(gen).state)
        if rel_err(attained, closed) > 1e-9:
            failures.append(f"optimal state at j={j}: {rel_err(attained, closed):.2e}")
    report(3, "closed-form MQFI identity", failures, time.perf_counter() - start)


def test_criterion_04_spherical_field_values():
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(4)
    for _ in range(25):
        j = float(rng.choice([0.5, 1.0, 1.5, 2.0]))
        r = rng.uniform(0.2, 3.0)
        t = rng.uniform(0.1, 4.0)
        theta, _azimuth = rng.uniform(0.1, np.pi - 0.1), rng.uniform(0, 2 * np.pi)   # no MQFI reads the azimuth
        polar = spherical_field_mqfi("theta", r, theta, j, np.pi / r).total
        if abs(polar - 16 * j**2) > 1e-12 * 16 * j**2:
            failures.append(f"polar optimum: {polar} vs {16 * j ** 2}")
        azimuth = spherical_field_mqfi("phi", r, np.pi / 2, j, np.pi / r).total   # on the equator
        if abs(azimuth - 16 * j**2) > 1e-12 * 16 * j**2:
            failures.append(f"azimuth optimum: {azimuth} vs {16 * j ** 2}")
        amplitude = spherical_field_mqfi("r", r, theta, j, t).total
        if abs(amplitude - 4 * j**2 * t**2) > 1e-12 * max(1.0, 4 * j**2 * t**2):
            failures.append(f"amplitude value: {amplitude} vs {4 * j ** 2 * t ** 2}")
    report(4, "spherical-field closed values", failures, time.perf_counter() - start)


def test_criterion_05_static_field_figures(tmp_path):
    start = time.perf_counter()
    failures = []
    data = {}
    for fig in ("fig1a", "fig1b", "fig1c", "fig1d"):
        path = tmp_path / f"{fig}.csv"
        if cli_main(["figure", fig, "--out", str(path)]) != 0:
            failures.append(f"{fig} generation failed")
            continue
        rows = np.array(
            [[float(c) for c in line.split(",")] for line in path.read_text().splitlines()[3:]]
        )
        data[fig] = rows

    if "fig1d" in data:
        total = data["fig1d"][:, 1]
        if not np.all(np.diff(total) <= 1e-12):
            failures.append("fig1d not monotone nonincreasing")
        if not total[-1] < 1e-3 * total[0]:
            failures.append(f"fig1d endpoint ratio {total[-1] / total[0]:.2e} >= 1e-3")
    if "fig1a" in data:
        rows = data["fig1a"]
        with np.errstate(invalid="ignore"):
            share = np.where(rows[:, 1] > 0, rows[:, 3] / rows[:, 1], 0.0)
        if not np.max(share) >= 0.5:
            failures.append(f"fig1a oscillation share peaks at {np.max(share):.3f} < 0.5")
    if "fig1c" in data:
        rows = data["fig1c"]
        late = rows[rows[:, 0] >= 1.0]
        share = late[:, 3] / late[:, 1]
        if not np.all(share < 0.01):
            failures.append(f"fig1c oscillation share reaches {np.max(share):.4f} >= 1%")
    report(5, "static-field figure data", failures, time.perf_counter() - start, limit=10.0)


def test_criterion_06_rotating_frame_vs_time_ordering():
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(6)
    for _ in range(20):
        system = DrivenSystem(
            omega0=rng.uniform(0.1, 3.0), lam=rng.uniform(0.1, 3.0), omega=rng.uniform(0.1, 3.0)
        )
        total_t = rng.uniform(0.1, 3.0)
        for j in (0.5, 1.0):
            rep = build_spin_rep(j)
            u_trotter = trotter_propagator(lab_hamiltonian_batch(rep, system), total_t, 100_000)
            params = {"omega0": system.omega0, "lambda": system.lam, "omega": system.omega}
            field = SCENARIOS["case3-lambda"].field(params)
            dev = frobenius(u_trotter - _propagator(rep, field, total_t, system.omega))
            if dev > 1e-6:
                failures.append(f"factored vs trotter at j={j}: {dev:.2e}")
    report(6, "rotating frame vs time ordering", failures, time.perf_counter() - start, limit=60.0)


def test_criterion_07_drive_frequency_mqfi():
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(7)
    for _ in range(50):
        system = DrivenSystem(rng.uniform(0.0, 3.0), rng.uniform(0.1, 3.0), rng.uniform(0.0, 3.0))
        j = float(rng.choice([0.5, 1.0, 1.5, 2.0]))
        t = rng.uniform(0.05, 3.0)
        closed = driving_frequency_mqfi(system, j, t).total
        spread_sq = (2 * j * np.linalg.norm(driving_generator_vector(system, t))) ** 2
        if rel_err(closed, spread_sq) > 1e-9:
            failures.append(f"norm identity: {rel_err(closed, spread_sq):.2e}")

    for _ in range(5):
        system = DrivenSystem(rng.uniform(0.3, 2.5), rng.uniform(0.4, 2.5), rng.uniform(0.3, 2.5))
        j = float(rng.choice([0.5, 1.0]))
        t = rng.uniform(0.5, 2.5)
        rep = build_spin_rep(j)
        psi = optimal_state(dot_with_J(rep, driving_generator_vector(system, t))).state
        h_batch = lab_hamiltonian_batch(rep, DrivenSystem(system.omega0, system.lam, system.omega))

        def u_of(omega, system=system, rep=rep, t=t):
            shifted = DrivenSystem(system.omega0, system.lam, omega)
            return trotter_propagator(lab_hamiltonian_batch(rep, shifted), t, 20_000)

        fd_value = qfi_fd(u_of, system.omega, psi, step=1e-4)
        closed = driving_frequency_mqfi(system, j, t).total
        if rel_err(fd_value, closed) > 1e-5:
            failures.append(f"state-derivative QFI: {rel_err(fd_value, closed):.2e}")
    report(7, "drive-frequency MQFI", failures, time.perf_counter() - start)


def test_criterion_08_resonance(tmp_path):
    start = time.perf_counter()
    failures = []
    h = 1e-5
    for lam in (0.5, 1.0, 2.0):
        for t in (1.0, 5.0):
            up = driving_frequency_mqfi(DrivenSystem(h, lam, 0.0), 1.0, t).total
            dn = driving_frequency_mqfi(DrivenSystem(-h, lam, 0.0), 1.0, t).total
            slope = abs(up - dn) / (2 * h)
            if slope > 1e-6:
                failures.append(f"detuning slope at lam={lam}, t={t}: {slope:.2e}")

    path = tmp_path / "fig2a.csv"
    if cli_main(["figure", "fig2a", "--out", str(path)]) != 0:
        failures.append("fig2a generation failed")
    else:
        rows = np.array(
            [[float(c) for c in line.split(",")] for line in path.read_text().splitlines()[3:]]
        )
        argmax = rows[np.argmax(rows[:, 1]), 0]
        if abs(argmax) > 1e-12:
            failures.append(f"fig2a argmax at delta={argmax}")

    path = tmp_path / "fig2b.csv"
    if cli_main(["figure", "fig2b", "--out", str(path)]) != 0:
        failures.append("fig2b generation failed")
    else:
        rows = np.array(
            [[float(c) for c in line.split(",")] for line in path.read_text().splitlines()[3:]]
        )
        late = rows[rows[:, 0] >= 20.0]
        ratio = late[:, 1] / (4.0 * late[:, 0] ** 2)
        if not np.all((ratio >= 0.95) & (ratio <= 1.0)):
            failures.append(f"fig2b envelope ratio range [{ratio.min():.4f}, {ratio.max():.4f}]")
    report(8, "resonance behaviour", failures, time.perf_counter() - start)


def test_criterion_09_small_time_limit():
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(9)
    for _ in range(100):
        j = float(rng.choice([0.5, 1.0, 1.5, 2.0, 2.5, 3.0]))
        r = rng.normal(size=3)
        r *= rng.uniform(0.1, 3.0) / np.linalg.norm(r)
        v = rng.normal(size=3)
        v *= rng.uniform(0.1, 3.0) / np.linalg.norm(v)
        t = 1e-3 / float(np.linalg.norm(r))
        small = mqfi_closed_form(j, split_velocity(np.zeros_like(v), v), t).total
        closed = mqfi_closed_form(j, split_velocity(r, v), t).total
        if rel_err(small, closed) > 1e-6:
            failures.append(f"small-time mismatch: {rel_err(small, closed):.2e}")
    report(9, "small-time limit", failures, time.perf_counter() - start)


def test_criterion_10_cli_contract(tmp_path):
    start = time.perf_counter()
    failures = []

    # byte stability of every preset (data sections; timestamps live in comments)
    for fig in ("fig1a", "fig1b", "fig1c", "fig1d", "fig2a", "fig2b"):
        first, second = tmp_path / f"{fig}_a.csv", tmp_path / f"{fig}_b.csv"
        if cli_main(["figure", fig, "--out", str(first)]) != 0:
            failures.append(f"{fig} run failed")
            continue
        if cli_main(["figure", fig, "--out", str(second)]) != 0:
            failures.append(f"{fig} rerun failed")
            continue
        strip = lambda p: [l for l in p.read_text().splitlines() if not l.startswith("#")]
        if strip(first) != strip(second):
            failures.append(f"{fig} data section not byte-stable")

    # oracle validation passes on every preset
    for fig in ("fig1a", "fig1b", "fig1c", "fig1d", "fig2a", "fig2b"):
        code = cli_main(["figure", fig, "--validate", "--out", str(tmp_path / f"{fig}_val.csv")])
        if code != 0:
            failures.append(f"{fig} --validate exited {code}")

    # exit-code matrix
    checks = [
        (0, ["mqfi", "case1-theta", "--r", "1", "--t", "1", "--j", "1"]),
        (2, ["mqfi", "case2-omega0", "--t", "1"]),
        (0, ["mqfi", "case2-omega0", "--omega0", "0", "--lambda", "0", "--t", "1"]),
        (2, ["mqfi", "case3-omega", "--omega0", "1", "--lambda", "0", "--omega", "1", "--t", "1"]),
        (3, ["sweep", "case2-omega0", "--omega0", "1", "--lambda", "1", "--variable", "t",
             "--start", "0.5", "--stop", "1.5", "--points", "3", "--validate", "--fd-step", "0.5",
             "--out", str(tmp_path / "forced.csv")]),
        (4, ["figure", "fig1a", "--out", str(tmp_path / "no_dir" / "x.csv")]),
    ]
    for expected, argv in checks:
        got = cli_main(argv)
        if got != expected:
            failures.append(f"exit {got} != {expected} for {' '.join(argv[:3])}...")
    report(10, "CLI contract", failures, time.perf_counter() - start, limit=20.0)
