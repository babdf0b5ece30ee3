"""Command-line front end: point evaluation, sweeps, figure presets, optimal states.

Output is CSV (sweeps, figures) or JSON (single points, optimal states).
Exit codes: 0 success, 2 parameter error, 3 oracle-validation failure,
4 I/O error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import re
import sys
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Callable

import numpy as np

from . import __version__, cases
from .cases import DrivenSystem, _spherical_generator_vector, driving_generator_vector
from .generator import (
    QfiBreakdown,
    generator_vector,
    mqfi_closed_form,
    split_velocity,
)
from .numerics import (
    _su2_distance,
    _su2_exp,
    _su2_product,
    fd_generator,
    fd_points,
    fd_step,
    generator_series,
    magnus4_su2,
    optimal_state,
    qfi_of_state,
)
from .spin import build_spin_rep, dot_with_J, frobenius, hermitian_expm, reject_first, row_norm, twice_spin

EXIT_OK = 0
EXIT_PARAMS = 2
EXIT_VALIDATION = 3
EXIT_IO = 4

# Residuals are end-to-end (closed form vs oracle, Frobenius); looser than
# the library tolerances to absorb finite-difference step noise.
RESIDUAL_LIMIT = 1e-6

# The SU(2) Magnus product needs memory independent of the step count and
# about 0.17 us per step (on a 2-vCPU Xeon VM, 1e7 steps take 1.7 s and 1e8
# steps 17 s), so the cap bounds a cross-check at an explicit --steps to
# about 20 s.
MAX_TROTTER_STEPS = 10**8
# Without --steps the cross-check takes its step count from the product's
# error bound (see _derived_steps).  The bound's constant is over 3 times
# the largest value fitted on seeded rows at j = 1/2 to 50 (2.2e-5 to
# 2.8e-5); the product's own error is held to _TROTTER_MARGIN of
# RESIDUAL_LIMIT; and a row gets at most _TROTTER_BUDGET steps, about 45 ms
# of product.
_CF4_ERROR_SCALE = 1e-4
_TROTTER_MARGIN = 1e-3
_TROTTER_BUDGET = 2**18
# A sweep's CSV is written in blocks of EMIT_ROWS rows, so its memory is its
# numeric columns; the cap bounds the time of one plain sweep to about 5 s.
MAX_POINTS = 10**6
# Rows formatted per write; one block's text and Python floats take about 1 MB.
EMIT_ROWS = 4096

# Grid rows per oracle chunk.  Above j = 3 a chunk holds fewer rows, so its
# stack of five stencil propagators per row never outgrows that of 256
# spin-3 rows (about 1 MiB); memory does not grow with the grid.
CHUNK_ROWS = 256
_CHUNK_ENTRIES = CHUNK_ROWS * 7 * 7
# h of Scenario.velocity's complex step: the largest power of two whose sinh rounds to itself
_STEP = 2.0 ** -26


@dataclass(frozen=True)
class Scenario:
    """One CLI scenario: U(theta) = frame . exp(-i t field(params).J), with theta = params[name].

    ``field(params)`` is the field, analytic in theta and taking a complex
    one as written; :meth:`velocity` derives d field / d theta from it.
    ``mqfi(params, j, t)`` and ``vector(params, t)`` are the scenario's own
    closed forms of the MQFI and of the generator's coefficient 3-vector; a
    scenario without them takes :func:`mqfi_closed_form` and
    :func:`generator_vector` of the field and its velocity, which answer
    every finite field, a zero one too.  All of them broadcast over array
    parameters and times, with the vector on a last axis of length 3.  Only
    a driven scenario has the frame exp(-i omega t jz); it moves with theta
    when ``moving_frame``.
    """

    params: tuple
    name: str
    field: Callable
    defaults: dict
    mqfi: Callable | None = None
    vector: Callable | None = None
    driven: bool = False

    @property
    def required(self) -> tuple:
        return tuple(k for k in self.params if k not in self.defaults)

    @property
    def sweepable(self) -> tuple:
        """t, the parameters when theta is one of them (generic's s is none), and Delta when driven."""
        return ("t",) + (self.params if self.name in self.params else ()) + (("Delta",) if self.driven else ())

    @property
    def moving_frame(self) -> bool:
        return self.driven and self.name == "omega"

    def velocity(self, params: dict) -> np.ndarray:
        """d field / d theta at theta = params[name] (0 when absent), as the complex step Im field(theta + ih) / h.

        Exact for fields linear in theta or with one sin or cos factor of it, where its products stay normal (README).
        """
        theta = params.get(self.name, 0.0) + 1j * _STEP
        return self.field({**params, self.name: theta}).imag / _STEP

    def breakdown(self, params: dict, j: float, t) -> QfiBreakdown:
        if self.mqfi is None:
            return mqfi_closed_form(j, split_velocity(self.field(params), self.velocity(params)), t)
        return self.mqfi(params, j, t)

    def generator(self, params: dict, t) -> np.ndarray:
        if self.vector is None:
            return generator_vector(self.field(params), self.velocity(params), t)
        return self.vector(params, t)


def _vec(x, y, z) -> np.ndarray:
    """(x, y, z) on a last axis of length 3; array components broadcast."""
    return np.stack(np.broadcast_arrays(x, y, z), axis=-1)


def _spherical_field(p: dict) -> np.ndarray:
    """r (sin th cos ph, sin th sin ph, cos th)."""
    st = np.sin(p["theta"])
    return np.asarray(p["r"])[..., None] * _vec(st * np.cos(p["phi"]), st * np.sin(p["phi"]), np.cos(p["theta"]))


def _static_field(p: dict) -> np.ndarray:
    """(lam, 0, omega0)."""
    return _vec(p["lambda"], 0.0, p["omega0"])


def _driven_field(p: dict) -> np.ndarray:
    """(lam, 0, omega0 - omega), the field in the frame rotating at the drive frequency."""
    return _vec(p["lambda"], 0.0, p["omega0"] - p["omega"])


def _drive(p: dict) -> DrivenSystem:
    """The system of case3-omega's closed forms, which answer lam = 0 with zeros."""
    return DrivenSystem(p["omega0"], p["lambda"], p["omega"])


_SPHERICAL_PARAMS = ("r", "theta", "phi")
_DRIVEN_PARAMS = ("omega0", "lambda", "omega")
# Anchor angles for scenarios where the estimated quantity does not fix the
# whole field configuration; they only pin the curve the oracles act on.
_CASE1_DEFAULTS = {"theta": 1.0, "phi": 0.7}

# su2qfi.cases closed forms are looked up on each call, so a wrapper set on that module sees them
SCENARIOS = {
    "case1-theta": Scenario(_SPHERICAL_PARAMS, "theta", _spherical_field, _CASE1_DEFAULTS,
                            lambda p, j, t: cases.spherical_field_mqfi("theta", p["r"], p["theta"], j, t),
                            lambda p, t: _spherical_generator_vector("theta", p["r"], p["theta"], p["phi"], t)),
    "case1-phi": Scenario(_SPHERICAL_PARAMS, "phi", _spherical_field, {"phi": 0.7},
                          lambda p, j, t: cases.spherical_field_mqfi("phi", p["r"], p["theta"], j, t),
                          lambda p, t: _spherical_generator_vector("phi", p["r"], p["theta"], p["phi"], t)),
    # the velocity is radial, so the vector form has nothing to cancel
    "case1-r": Scenario(_SPHERICAL_PARAMS, "r", _spherical_field, _CASE1_DEFAULTS,
                        lambda p, j, t: cases.spherical_field_mqfi("r", p["r"], p["theta"], j, t)),
    "case2-omega0": Scenario(("omega0", "lambda"), "omega0", _static_field, {}),
    "case2-lambda": Scenario(("omega0", "lambda"), "lambda", _static_field, {}),
    "case3-omega": Scenario(_DRIVEN_PARAMS, "omega", _driven_field, {},
                            lambda p, j, t: cases.driving_frequency_mqfi(_drive(p), j, t),
                            lambda p, t: driving_generator_vector(_drive(p), t), driven=True),
    "case3-lambda": Scenario(_DRIVEN_PARAMS, "lambda", _driven_field, {}, driven=True),
    "case3-omega0": Scenario(_DRIVEN_PARAMS, "omega0", _driven_field, {}, driven=True),
    # the field rvec + s vvec at s = 0; the closed forms take rvec and vvec as given, signed zeros too
    "generic": Scenario(("rvec", "vvec"), "s",
                        lambda p: np.asarray(p["rvec"], dtype=float)
                        + np.asarray(p.get("s", 0.0))[..., None] * np.asarray(p["vvec"], dtype=float), {},
                        lambda p, j, t: mqfi_closed_form(j, split_velocity(p["rvec"], p["vvec"]), t),
                        lambda p, t: generator_vector(p["rvec"], p["vvec"], t)),
}

FIGURE_IDS = ("fig1a", "fig1b", "fig1c", "fig1d", "fig2a", "fig2b")

# fig1d evolves each row for t = pi / K, with K = hypot(lambda, omega0) its field size.
_FIG1D_GRID = np.linspace(0.0, 1000.0, 2001)

# fig2b samples once per drive period, offset away from the zeros of the
# oscillation; a dense grid would show excursions of order 1/t around the
# quadratic envelope instead of the envelope itself.
_FIG2B_OFFSET = 0.2


def _fig2b_grid() -> np.ndarray:
    return np.arange(51) * (2.0 * np.pi) + _FIG2B_OFFSET


FIGURE_PRESETS = {
    "fig1a": dict(scenario="case2-omega0", variable="t", grid=np.linspace(0.0, 20.0, 2001), fixed={"omega0": 0.1, "lambda": 1.0}, j=1.0),
    "fig1b": dict(scenario="case2-omega0", variable="t", grid=np.linspace(0.0, 20.0, 2001), fixed={"omega0": 1.0, "lambda": 1.0}, j=1.0),
    "fig1c": dict(scenario="case2-omega0", variable="t", grid=np.linspace(0.0, 20.0, 2001), fixed={"omega0": 10.0, "lambda": 1.0}, j=1.0),
    "fig1d": dict(scenario="case2-omega0", variable="lambda", grid=_FIG1D_GRID, fixed={"omega0": 1.0}, j=1.0, t=np.pi / np.hypot(_FIG1D_GRID, 1.0)),
    "fig2a": dict(scenario="case3-omega", variable="Delta", grid=np.linspace(-5.0, 5.0, 1001), fixed={"omega0": 0.0, "lambda": 1.0}, j=1.0, t=1.0),
    "fig2b": dict(scenario="case3-omega", variable="t", grid=_fig2b_grid(), fixed={"omega0": 1.0, "lambda": 1.0, "omega": 1.0}, j=1.0),
}


_NUMBER = "%.17g"   # 17 significant digits round-trip every double


def _fmt(x: float) -> str:
    return _NUMBER % float(x)


def _finite_arg(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _time_arg(text: str) -> float:
    value = _finite_arg(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"evolution time must be nonnegative, got {text!r}")
    return value


def _positive_arg(text: str) -> float:
    value = _finite_arg(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _spin_arg(text: str) -> float:
    try:
        return twice_spin(text) / 2
    except ValueError as err:
        raise argparse.ArgumentTypeError(str(err))


def _int_range_arg(noun: str, name: str, lo: int, hi: int) -> Callable[[str], int]:
    """Parser of an integer in [lo, hi]: "expected an integer {noun}" or "{name} must be in [lo, hi]"."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer {noun}, got {text!r}")
        if not lo <= value <= hi:
            raise argparse.ArgumentTypeError(f"{name} must be in [{lo}, {hi}], got {text!r}")
        return value
    return parse


def _vec3_arg(text: str) -> tuple:
    parts = text.split(",")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated numbers, got {text!r}")
    return tuple(_finite_arg(p) for p in parts)


# ---------------------------------------------------------------------------
# scenario plumbing


_SCENARIO_OPTIONS = dict.fromkeys(name for spec in SCENARIOS.values() for name in spec.params)


def _collect_params(scenario: str, args, skip=()) -> dict:
    """The scenario's own parameters: its defaults and the options it takes.

    Raises ValueError naming an option that the scenario does not take, or
    the required options, apart from those in ``skip``, that are missing.
    """
    spec = SCENARIOS[scenario]
    params = dict(spec.defaults)
    for name in _SCENARIO_OPTIONS:
        value = getattr(args, name)
        if value is None:
            continue
        if name not in spec.params:
            raise ValueError(f"scenario {scenario} does not take --{name}")
        params[name] = value
    missing = [name for name in spec.required if name not in params and name not in skip]
    if missing:
        raise ValueError(f"scenario {scenario} requires --{' --'.join(missing)}")
    return params


def _scenario(name: str) -> Scenario:
    if name not in SCENARIOS:
        raise ValueError(f"unknown scenario {name!r}")
    return SCENARIOS[name]


def evaluate_point(scenario: str, params: dict, j: float, t) -> QfiBreakdown:
    """Closed-form MQFI breakdown for one scenario point.

    Any scalar parameter or ``t`` may instead be an array of grid values;
    the breakdown then holds the parts at every grid point.
    """
    return _scenario(scenario).breakdown(params, j, t)


def _oracle_rows(spec: Scenario, params: dict, rep, t, rows: int, step):
    """(series, finite-difference) residual columns of ``rows`` grid rows.

    Each parameter and ``t`` is one value for every row or an array of one
    value per row.  Both oracles run over stacks of rows; each row gets the
    bits of its own evaluation.  The finite-difference side differentiates
    U(theta) = exp(-i t field(theta).J) around theta = params[spec.name]
    (0 for generic's s), times the frame exp(-i theta t jz) if it moves with
    theta.  The series side is the time-doubled commutator series of the
    field; a moving frame adds U^dag (-t jz) U, with U the stencil's centre
    propagator, theta's own.
    """
    anchor = params.get(spec.name, 0.0)
    ts = np.broadcast_to(np.asarray(t, dtype=float), (rows,))
    field, velocity = spec.field(params), spec.velocity(params)
    r, v = np.broadcast_to(field, (rows, 3)), np.broadcast_to(velocity, (rows, 3))
    closed = dot_with_J(rep, np.broadcast_to(spec.generator(params, ts), (rows, 3)))
    # h and dh keep the field's own shape: (3,) when only t varies, so the
    # series builds one commutator chain and one eigendecomposition per chunk
    series = generator_series(dot_with_J(rep, field), dot_with_J(rep, velocity), ts)

    # the step scale estimates t * ||d_theta H||; a moving frame adds the
    # size of the field it rotates
    speed = row_norm(v)
    if spec.moving_frame:
        speed = speed + np.abs(r[:, 0]) + np.abs(r[:, 1]) + np.abs(r[:, 2])
    steps = fd_step(ts * rep.j * speed) if step is None else np.full(rows, float(step))

    # U at the five stencil points of each row: parameters on rows, points on a second axis
    on_rows = {k: (x[:, None] if isinstance(x, np.ndarray) else x) for k, x in params.items()}
    thetas = fd_points(anchor, steps)
    us = hermitian_expm(dot_with_J(rep, spec.field({**on_rows, spec.name: thetas})), -1j * ts[:, None])
    # a frame fixed in theta cancels in i (dU^dag) U, so only a moving one is differentiated
    if spec.moving_frame:
        centre = us[:, 4]
        frame = -ts[:, None, None] * np.asarray(rep.jz)
        series = series + np.swapaxes(centre.conj(), -1, -2) @ frame @ centre
        us = hermitian_expm(rep.jz, -1j * thetas * ts[:, None]) @ us
    return frobenius(closed - series), frobenius(closed - fd_generator(us, steps))


def _derived_steps(params: dict, j: float, t: float) -> int:
    """Magnus steps that keep the cross-check's own error _TROTTER_MARGIN under RESIDUAL_LIMIT.

    The fourth-order product's global error is O(t h^4 Omega^5), with
    Omega = |omega| + hypot(lam, omega0) bounding every rate of the lab
    field (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009)); at spin
    j the distance multiplies a small angle by s_j = sqrt(j(j+1)(2j+1)/3).
    So the fewest steps N with _CF4_ERROR_SCALE (t Omega)^5 s_j / N^4 within
    the margin, clamped to [1, _TROTTER_BUDGET] before rounding up: a
    t Omega that overflows runs at the budget, and its product is not finite.
    A constant lab field (omega = 0 or lam = 0) takes one step, its exact exponential.
    """
    if params["omega"] == 0 or params["lambda"] == 0:
        return 1
    rate = abs(params["omega"]) + math.hypot(params["lambda"], params["omega0"])
    spin = math.sqrt(j * (j + 1) * (2 * j + 1) / 3)
    with np.errstate(over="ignore"):
        need = (_CF4_ERROR_SCALE * np.float64(t * rate) ** 5 * spin / (_TROTTER_MARGIN * RESIDUAL_LIMIT)) ** 0.25
    return math.ceil(min(max(need, 1.0), _TROTTER_BUDGET))


def trotter_cross_check(params: dict, j: float, t: float, steps: int) -> float:
    """||time-ordered product - driven-frame propagator||_F at spin j for the driven system at one point.

    The fourth-order Magnus product of the lab field (lam cos wt, lam sin wt,
    omega0) and exp(-i omega t jz) exp(-i t field.J), the product of one
    exact exponential per constant factor, are Cayley-Klein pairs compared
    in SU(2) by their rotation angle.
    """
    lam, omega, omega0 = params["lambda"], params["omega"], params["omega0"]
    lab = magnus4_su2(lambda ts: (lam * np.cos(omega * ts), lam * np.sin(omega * ts), omega0), t, steps)
    exact = _su2_product(_su2_exp((0.0, 0.0, omega), t), _su2_exp(_driven_field(params), t))
    return _su2_distance(lab, exact, twice_spin(j))


# ---------------------------------------------------------------------------
# sweep / figure execution


def _grid_params(variable: str, grid: np.ndarray, fixed: dict, fixed_t):
    """Scenario parameters and evolution time with ``variable`` set to the whole grid."""
    params = dict(fixed)
    t = fixed_t
    if variable == "t":
        t = grid
    elif variable == "Delta":
        params["omega"] = params["omega0"] - grid
    else:
        params[variable] = grid
    return params, t


def _rows_of(x, rows: slice):
    """The grid rows ``rows`` of a per-row array; a value shared by every row as is."""
    return x[rows] if isinstance(x, np.ndarray) else x


@contextlib.contextmanager
def _naming_rows(variable: str, grid: np.ndarray, lo: int):
    """Re-raise an error that carries ``row`` (counted from grid row ``lo``) naming that grid row."""
    try:
        yield
    except (ValueError, OverflowError) as err:
        if getattr(err, "row", None) is None:
            raise
        k = lo + err.row
        raise ValueError(f"{err} at row {k} ({variable}={_fmt(grid[k])})") from None


def _mqfi_parts(scenario, params, j, t, shape=()) -> dict:
    """The total, quadratic and oscillatory MQFI from one closed-form call, each broadcast to ``shape``.

    Raises ValueError for the first part that is not finite; over a grid
    (``shape`` of one axis) the error carries its first such row as ``row``.
    """
    breakdown = evaluate_point(scenario, params, j, t)
    parts = {}
    for name in ("total", "quadratic", "oscillatory"):
        parts[name] = np.broadcast_to(getattr(breakdown, name), shape)
        reject_first(~np.isfinite(parts[name]), lambda k: f"{name} MQFI is not finite")
    return parts


def _closed_form_columns(scenario, params, j, t, variable, grid) -> dict:
    """The grid and the three MQFI parts over it, from one closed-form call.

    Raises ValueError naming the first grid row that the closed form
    rejects, or the first grid value where a part is not finite.
    """
    with _naming_rows(variable, grid, 0):
        return {variable: grid, **_mqfi_parts(scenario, params, j, t, grid.shape)}


def _oracle_columns(scenario, params, j, t, variable, grid, step) -> np.ndarray:
    """(series, fd) residual columns of the whole grid, evaluated in chunks of rows.

    A failed oracle check, or an oracle that overflows, raises ValueError
    naming its first offending row.
    """
    spec = _scenario(scenario)
    rep = build_spin_rep(j)
    chunk = max(1, min(CHUNK_ROWS, _CHUNK_ENTRIES // rep.dim**2))
    residuals = np.empty((2, grid.size))
    for lo in range(0, grid.size, chunk):
        rows = slice(lo, lo + chunk)
        part = {name: _rows_of(value, rows) for name, value in params.items()}
        with _naming_rows(variable, grid, lo):
            residuals[:, rows] = _oracle_rows(spec, part, rep, _rows_of(t, rows), grid[rows].size, step)
    return residuals


def _run_sweep(scenario, variable, grid, fixed, j, fixed_t, args) -> int:
    """Evaluate, optionally validate, and emit one sweep; return the exit code."""
    params, t = _grid_params(variable, grid, fixed, fixed_t)
    columns = _closed_form_columns(scenario, params, j, t, variable, grid)
    if not args.validate:
        _emit_sweep(scenario, variable, columns, fixed, j, args.out)
        return EXIT_OK
    residuals = _oracle_columns(scenario, params, j, t, variable, grid, args.fd_step)
    columns["residual_series"], columns["residual_fd"] = residuals
    with _naming_rows(variable, grid, 0):
        comments, trotter = _validation_extras(scenario, params, t, grid.size, j, args.steps)
    _emit_sweep(scenario, variable, columns, fixed, j, args.out, comments)
    return _validation_verdict({"series": residuals[0], "fd": residuals[1]}, trotter, (variable, grid))


def _params_for_header(params: dict) -> str:
    parts = []
    for key in sorted(params):
        value = params[key]
        if isinstance(value, tuple):
            parts.append(f"{key}={','.join(_fmt(x) for x in value)}")
        else:
            parts.append(f"{key}={_fmt(value)}")
    return " ".join(parts)


def _emit_sweep(scenario, variable, columns, fixed, j, out_path, comments=()):
    """Write the sweep's CSV to ``out_path`` (stdout for None), one block of rows at a time."""
    header = [
        f"# su2qfi scenario={scenario} j={_fmt(j)} variable={variable} {_params_for_header(fixed)}".rstrip(),
        f"# version={__version__} timestamp={datetime.now(timezone.utc).isoformat()}",
        *comments,
        ",".join(columns),
    ]
    row_format = ",".join([_NUMBER] * len(columns))
    values = list(columns.values())
    with contextlib.nullcontext(sys.stdout) if out_path is None else open(out_path, "w") as handle:
        handle.write("\n".join(header) + "\n")
        for lo in range(0, len(values[0]), EMIT_ROWS):
            block = zip(*(column[lo:lo + EMIT_ROWS].tolist() for column in values))
            handle.write("\n".join(row_format % row for row in block) + "\n")


def _validation_extras(scenario, params, t, rows: int, j, steps):
    """Per-run trotter cross-check for driven scenarios (one representative row).

    ``params`` and ``t`` hold one value per grid row or one for all rows;
    the check runs on the row with the smallest positive t, at ``steps``
    Magnus steps or, for None, at the row's :func:`_derived_steps`.  Returns
    the comment lines and (row index, residual), or None when no check runs.
    A residual that is not finite raises ValueError carrying that row.
    """
    if not _scenario(scenario).driven:
        return [], None
    times = np.broadcast_to(np.asarray(t, dtype=float), (rows,))
    k = int(np.argmin(np.where(times > 0, times, np.inf)))
    if not times[k] > 0:
        return [], None
    point = {name: (float(value[k]) if isinstance(value, np.ndarray) else value) for name, value in params.items()}
    if steps is None:
        steps = _derived_steps(point, j, float(times[k]))
    residual = trotter_cross_check(point, j, float(times[k]), steps)
    if not math.isfinite(residual):   # the lab phase omega t overflows
        reject_first(np.arange(rows) == k, lambda _: "time-ordered check is not finite")
    comment = f"# trotter_check t={_fmt(times[k])} steps={steps} residual={_fmt(residual)}"
    return [comment], (k, residual)


def _validation_verdict(residuals: dict, trotter=None, swept=None) -> int:
    """EXIT_VALIDATION when any residual is not finite or exceeds RESIDUAL_LIMIT.

    ``residuals`` maps an oracle name to its per-row residual column,
    ``trotter`` is the (row, residual) of the time-ordered cross-check and
    ``swept`` the (variable, grid) of the rows.  stderr names the row,
    its swept value and the oracle of the worst failure, with the margin
    residual / RESIDUAL_LIMIT; NaN counts as worst.
    """
    failures = [
        (oracle, int(k), float(column[k]))
        for oracle, column in residuals.items()
        for k in np.flatnonzero(~(np.asarray(column) <= RESIDUAL_LIMIT))   # NaN fails too
    ]
    if trotter is not None and not trotter[1] <= RESIDUAL_LIMIT:
        failures.append(("trotter", *trotter))
    if not failures:
        return EXIT_OK
    oracle, k, value = max(failures, key=lambda f: math.inf if math.isnan(f[2]) else f[2])
    where = "" if swept is None else f" ({swept[0]}={_fmt(swept[1][k])})"
    print(f"validation failed: {oracle} residual {_fmt(value)} at row {k}{where} "
          f"is not within {RESIDUAL_LIMIT:g} (margin {value / RESIDUAL_LIMIT:.3g})", file=sys.stderr)
    return EXIT_VALIDATION


# ---------------------------------------------------------------------------
# commands


def _print_record(args, params: dict, **fields):
    """Print one JSON record of the command's scenario point and ``fields``, keys sorted."""
    record = {
        "scenario": args.scenario,
        "params": {k: (list(v) if isinstance(v, tuple) else v) for k, v in params.items()},
        "j": args.j,
        "t": args.t,
        **fields,
        "version": __version__,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    print(json.dumps(record, sort_keys=True))


def _cmd_mqfi(args) -> int:
    params = _collect_params(args.scenario, args)
    parts = {name: float(value) for name, value in _mqfi_parts(args.scenario, params, args.j, args.t).items()}
    if args.json:
        _print_record(args, params, **parts)
    else:
        print(f"scenario={args.scenario} j={_fmt(args.j)} t={_fmt(args.t)} {_params_for_header(params)}")
        for name, value in parts.items():
            print(f"{name}={_fmt(value)}")
    return EXIT_OK


def _cmd_sweep(args) -> int:
    if args.variable not in SCENARIOS[args.scenario].sweepable:
        raise ValueError(f"scenario {args.scenario} cannot sweep {args.variable!r}")
    if not args.start < args.stop:
        raise ValueError(f"sweep needs start < stop, got [{args.start}, {args.stop}]")
    if not math.isfinite(args.stop - args.start):
        raise ValueError(f"sweep range [{args.start}, {args.stop}] is wider than the double range")
    if args.variable == "Delta" and args.omega is not None:
        raise ValueError("omega is derived from Delta; do not pass --omega when sweeping Delta")
    params = _collect_params(args.scenario, args, skip=(args.variable, "omega") if args.variable == "Delta" else (args.variable,))
    if args.variable != "t" and args.t is None:
        raise ValueError("--t is required unless sweeping t")
    if getattr(args, args.variable, None) is not None:   # the grid would override it
        name = args.variable
        raise ValueError(f"{name} is the swept variable; do not pass --{name} when sweeping {name}")
    if args.variable == "t" and args.start < 0:
        raise ValueError(f"evolution time must be nonnegative, got start {args.start}")

    grid = np.linspace(args.start, args.stop, args.points)
    return _run_sweep(args.scenario, args.variable, grid, params, args.j, args.t, args)


def _cmd_figure(args) -> int:
    preset = FIGURE_PRESETS[args.id]
    return _run_sweep(preset["scenario"], preset["variable"], preset["grid"], preset["fixed"],
                      preset["j"], preset.get("t"), args)


def _cmd_optimal_state(args) -> int:
    params = _collect_params(args.scenario, args)
    gen = dot_with_J(build_spin_rep(args.j), _scenario(args.scenario).generator(params, args.t))
    result = optimal_state(gen, args.phase)
    attained = 0.0 if result.degenerate else qfi_of_state(gen, result.state)
    if not (np.isfinite([attained, result.lambda_max, result.lambda_min]).all() and np.isfinite(result.state).all()):
        raise ValueError(f"optimal state is not finite in double precision (qfi {_fmt(attained)}, "
                         f"lambda_max {_fmt(result.lambda_max)}, lambda_min {_fmt(result.lambda_min)})")
    _print_record(args, params, phase=args.phase, lambda_max=result.lambda_max, lambda_min=result.lambda_min,
                  qfi=attained, degenerate=result.degenerate,
                  amplitudes=[[float(z.real), float(z.imag)] for z in result.state])
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_scenario_options(parser):
    parser.add_argument("scenario", choices=sorted(SCENARIOS))
    parser.add_argument("--r", type=_finite_arg, help="field amplitude (case1)")
    parser.add_argument("--theta", type=_finite_arg, help="polar angle (case1)")
    parser.add_argument("--phi", type=_finite_arg, help="azimuthal angle (case1)")
    parser.add_argument("--omega0", type=_finite_arg, help="transition frequency")
    parser.add_argument("--lambda", metavar="LAM", type=_finite_arg, help="transverse coupling")
    parser.add_argument("--omega", type=_finite_arg, help="drive frequency (case3)")
    parser.add_argument("--rvec", type=_vec3_arg, help="field 3-vector x,y,z (generic)")
    parser.add_argument("--vvec", type=_vec3_arg, help="velocity 3-vector x,y,z (generic)")
    parser.add_argument("--j", type=_spin_arg, default=1.0, help="spin quantum number (default 1)")


def _add_validate_options(parser):
    parser.add_argument("--validate", action="store_true", help="append closed-form vs oracle residuals")
    parser.add_argument("--steps", type=_int_range_arg("step count", "steps", 1, MAX_TROTTER_STEPS),
                        help=f"time-ordered product steps for the driven-system cross-check "
                             f"(1 to {MAX_TROTTER_STEPS}; default: the fewest whose fourth-order error "
                             f"bound stays under {_TROTTER_MARGIN * RESIDUAL_LIMIT:g}, at most {_TROTTER_BUDGET})")
    parser.add_argument("--fd-step", type=_positive_arg, default=None,
                        help="override the finite-difference oracle step")


# A word that float() or _vec3_arg reads and that starts with "-": a sign, digits
# with a point and an exponent or the inf/nan spellings, in a comma list.
_FLOAT = r"[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?|inf(?:inity)?|nan)"
_NEGATIVE_NUMBER = re.compile(rf"^(?=-){_FLOAT}(?:,{_FLOAT})*$", re.IGNORECASE)


class _Parser(argparse.ArgumentParser):
    """Reports a rejected command line as one stderr line, like every other parameter error.

    A negative number is an option's value in every spelling: argparse's
    own pattern takes only plain decimals (CPython bpo-9334), so it read
    "-1e5", "-inf" or "-1,0,0" as an unknown option.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message):
        self.exit(EXIT_PARAMS, f"su2qfi: parameter error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="su2qfi",
        description="Maximal quantum Fisher information for spin-algebra parametrization processes.",
    )
    parser.add_argument("--version", action="version", version=f"su2qfi {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    mqfi = sub.add_parser("mqfi", help="evaluate the MQFI at a single point")
    _add_scenario_options(mqfi)
    mqfi.add_argument("--t", type=_time_arg, required=True, help="evolution time")
    mqfi.add_argument("--json", action="store_true", help="machine-readable output")
    mqfi.set_defaults(func=_cmd_mqfi)

    sweep = sub.add_parser("sweep", help="sweep one parameter and emit CSV")
    _add_scenario_options(sweep)
    sweep.add_argument("--variable", required=True, help="swept parameter (t, r, theta, phi, omega0, lambda, omega, Delta)")
    sweep.add_argument("--start", type=_finite_arg, required=True)
    sweep.add_argument("--stop", type=_finite_arg, required=True)
    sweep.add_argument("--points", type=_int_range_arg("point count", "points", 2, MAX_POINTS), default=201,
                       help=f"grid points (2 to {MAX_POINTS}, default 201)")
    sweep.add_argument("--t", type=_time_arg, help="fixed evolution time (when not sweeping t)")
    sweep.add_argument("--out", default=None, help="output CSV path (default stdout)")
    _add_validate_options(sweep)
    sweep.set_defaults(func=_cmd_sweep)

    figure = sub.add_parser("figure", help="emit a preset figure-data grid as CSV")
    figure.add_argument("id", choices=FIGURE_IDS)
    figure.add_argument("--out", default=None, help="output CSV path (default stdout)")
    _add_validate_options(figure)
    figure.set_defaults(func=_cmd_figure)

    opt = sub.add_parser("optimal-state", help="optimal input state for a scenario generator")
    _add_scenario_options(opt)
    opt.add_argument("--t", type=_time_arg, required=True, help="evolution time")
    opt.add_argument("--phase", type=_finite_arg, default=0.0, help="relative phase of the superposition")
    opt.set_defaults(func=_cmd_optimal_state)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on first use; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else EXIT_OK
    try:
        # every output is checked for finiteness; numpy's warnings would repeat it on stderr
        with np.errstate(all="ignore"):
            return args.func(args)
    except (ValueError, OverflowError) as err:
        print(f"su2qfi: parameter error: {err}", file=sys.stderr)
        return EXIT_PARAMS
    except OSError as err:
        print(f"su2qfi: i/o error: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
