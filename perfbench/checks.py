"""Output checks for one benchmark operation.

Presets: the data section (every line that is not a ``#`` comment) must be
byte-identical to the reference recorded in ``preset_refs.json``.

Seeded sweeps: the row count equals ``--points``, every cell is finite,
residual columns stay within ``RESIDUAL_LIMIT``, and a seeded sample of rows
agrees to ``REL_TOL`` with a second library path:
``mqfi_closed_form(j, split_velocity(field, velocity), t)`` on the
scenario's field curve (written out here from the paper's definitions), or
``(2 j |driving_generator_vector|)^2`` for ``case3-omega``.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path
from typing import Optional

import numpy as np

# Bound before the tracer wraps anything, so checks never count as traced calls.
from su2qfi import DrivenSystem, driving_generator_vector, mqfi_closed_form, split_velocity

RESIDUAL_LIMIT = 1e-6   # the project's fixed oracle bound; deliberately not read from the program
REL_TOL = 1e-9
SAMPLE_ROWS = 8
REFS_PATH = Path(__file__).with_name("preset_refs.json")


def preset_key(fig: str, validate: bool) -> str:
    return f"{fig}+validate" if validate else fig


def data_section(path) -> bytes:
    with open(path, "rb") as handle:
        return b"".join(line for line in handle if not line.startswith(b"#"))


def fingerprint(data: bytes) -> dict:
    return {"sha256": hashlib.sha256(data).hexdigest(), "rows": data.count(b"\n") - 1}


def _field_velocity(scenario: str, params: dict):
    which = scenario.split("-")[-1]
    if scenario.startswith("case1-"):
        r, th, ph = params["r"], params["theta"], params["phi"]
        unit = np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])
        velocity = {
            "theta": r * np.array([np.cos(th) * np.cos(ph), np.cos(th) * np.sin(ph), -np.sin(th)]),
            "phi": r * np.array([-np.sin(th) * np.sin(ph), np.sin(th) * np.cos(ph), 0.0]),
            "r": unit,
        }[which]
        return r * unit, velocity
    if scenario == "generic":
        return np.array(params["rvec"]), np.array(params["vvec"])
    # static field (lam, 0, omega0); the driven statics use the detuning for omega0
    z = params["omega0"] - params["omega"] if scenario.startswith("case3-") else params["omega0"]
    velocity = np.array([0.0, 0.0, 1.0]) if which == "omega0" else np.array([1.0, 0.0, 0.0])
    return np.array([params["lambda"], 0.0, z]), velocity


def _reference_row(op, value: float):
    """(total, quadratic, oscillatory) from the second path; parts are None for case3-omega."""
    params, t = dict(op.fixed), op.t
    if op.variable == "t":
        t = value
    else:                                   # Delta
        params["omega"] = params["omega0"] - value
    if op.scenario == "case3-omega":
        system = DrivenSystem(params["omega0"], params["lambda"], params["omega"])
        return (2.0 * op.j * float(np.linalg.norm(driving_generator_vector(system, t)))) ** 2, None, None
    breakdown = mqfi_closed_form(op.j, split_velocity(*_field_velocity(op.scenario, params)), t)
    return breakdown.total, breakdown.quadratic, breakdown.oscillatory


def check(op, path, refs: dict, rng: random.Random) -> tuple[int, Optional[str]]:
    """(data rows emitted, problem or None) for the CSV ``op`` wrote to ``path``."""
    data = data_section(path)
    if op.preset is not None:
        got, want = fingerprint(data), refs[preset_key(op.preset, op.validate)]
        if got != want:
            return max(got["rows"], 0), f"{op.preset} data section differs from the reference"
        return got["rows"], None

    lines = data.decode().splitlines()
    header, body = lines[0].split(","), lines[1:]
    if len(body) != op.points:
        return len(body), f"{len(body)} rows, expected {op.points}"
    table = np.array([line.split(",") for line in body], dtype=float)
    if not np.all(np.isfinite(table)):
        return len(body), "non-finite cell"
    residuals = [k for k, name in enumerate(header) if name.startswith("residual_")]
    if op.validate and len(residuals) != 2:
        return len(body), f"expected two residual columns, header {header}"
    if residuals and float(table[:, residuals].max()) > RESIDUAL_LIMIT:
        return len(body), f"residual {table[:, residuals].max():.3e} exceeds {RESIDUAL_LIMIT:g}"
    for k in rng.sample(range(len(body)), min(SAMPLE_ROWS, len(body))):
        got = table[k, 1:4]
        want = _reference_row(op, float(table[k, 0]))
        scale = max(abs(got[0]), abs(want[0]))
        for name, a, b in zip(("total", "quadratic", "oscillatory"), got, want):
            if b is not None and abs(a - b) > REL_TOL * scale:
                return len(body), f"row {k} {name} {float(a)!r} vs second path {float(b)!r}"
    return len(body), None


def load_refs() -> dict:
    return json.loads(REFS_PATH.read_text())
