"""Seeded operation streams for the benchmark workloads.

An operation is one ``su2qfi.cli.main(argv)`` call.  Each workload is a
sequence of *rounds*, each a fixed list of operation slots; the seed
picks only the scenario parameters and sweep ranges inside each slot.  Slot
sizes (rows per operation, spin j) are fixed, so two seeds give the same mix
of work and the latency quantiles stay put while the numbers in the CSV
change.

Every operation carries the facts the output checks need: the scenario, its
fixed parameters, the swept variable, the expected row count, or the preset
id whose data section must match the recorded reference.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Optional

STATIC_FAMILIES = (
    "case1-theta", "case1-phi", "case1-r",
    "case2-omega0", "case2-lambda",
    "generic",
)
DRIVEN_FAMILIES = ("case3-omega", "case3-lambda", "case3-omega0")


@dataclass(frozen=True)
class Op:
    argv: tuple
    scenario: str
    j: float = 1.0
    validate: bool = False
    preset: Optional[str] = None       # figure id; data checked byte-for-byte
    variable: Optional[str] = None     # sweeps only
    points: int = 0
    fixed: dict = field(default_factory=dict)   # fixed scenario parameters
    t: Optional[float] = None          # fixed evolution time when not sweeping t


def _num(x: float) -> str:
    return repr(float(x))


def _sweep(rng: random.Random, scenario: str, j: float, points: int, validate: bool) -> Op:
    """A seeded sweep of ``scenario``: t (or Delta for driven scenarios) over a seeded range."""
    u = rng.uniform
    if scenario.startswith("case1-"):
        fixed = {"r": u(0.5, 2.0), "theta": u(0.3, 2.8), "phi": u(0.0, 6.2)}
    elif scenario.startswith("case2-"):
        fixed = {"omega0": u(0.1, 3.0), "lambda": u(0.1, 3.0)}
    elif scenario.startswith("case3-"):
        fixed = {"omega0": u(0.5, 1.5), "lambda": u(0.5, 1.5), "omega": u(0.5, 1.5)}
    else:
        rvec = (u(-1.0, 1.0), u(-1.0, 1.0), u(0.3, 1.0))
        vvec = (u(-1.0, 1.0), u(-1.0, 1.0), u(-1.0, 1.0))
        fixed = {"rvec": rvec, "vvec": vvec}

    t = None
    if scenario.startswith("case3-") and rng.random() < 0.5:
        variable = "Delta"
        del fixed["omega"]                  # omega = omega0 - Delta per row
        t = u(0.5, 2.0)
        start, stop = -u(2.0, 5.0), u(2.0, 5.0)
    elif scenario.startswith("case3-"):
        variable = "t"
        start, stop = u(0.1, 0.5), u(2.0, 4.0)
    else:
        variable = "t"
        start, stop = 0.0, u(10.0, 20.0)

    argv = ["sweep", scenario]
    for name, value in fixed.items():
        flag = "--lambda" if name == "lambda" else f"--{name}"
        text = ",".join(_num(x) for x in value) if isinstance(value, tuple) else _num(value)
        argv.append(f"{flag}={text}")      # "=" keeps negative values from reading as options
    argv += [f"--j={_num(j)}", f"--variable={variable}", f"--start={_num(start)}",
             f"--stop={_num(stop)}", f"--points={points}"]
    if t is not None:
        argv.append(f"--t={_num(t)}")
    if validate:
        argv.append("--validate")
    return Op(tuple(argv), scenario, j, validate, None, variable, points, fixed, t)


def _preset(fig: str, validate: bool) -> Op:
    argv = ("figure", fig, "--validate") if validate else ("figure", fig)
    scenario = "case3-omega" if fig.startswith("fig2") else "case2-omega0"
    return Op(argv, scenario, 1.0, validate, fig)


FIGURES = ("fig1a", "fig1b", "fig1c", "fig1d", "fig2a", "fig2b")


# A slot is ("sweep", scenario, j, points, validate) or ("preset", fig, validate).
# Every round has the same mix of work.  Sizes are fixed per slot: the seed
# must not change the work done.
def _round(workload: str, k: int) -> list:
    if workload == "closed_form_sweep":
        return ([("sweep", s, 1.0, 10_000, False) for s in STATIC_FAMILIES + DRIVEN_FAMILIES]
                + [("preset", fig, False) for fig in FIGURES])
    if workload == "validated_sweep":
        # One slow preset per 18 sweeps: a 3-round run holds 3 presets, so the
        # 11th-slowest operation is a sweep.
        return ([("sweep", s, 1.0, 300, True) for s in STATIC_FAMILIES * 3]
                + [("preset", FIGURES[k % 4], True)])
    # j = 2 and 3 four times as often as 1/2 and 1 keeps the median inside the
    # j = 2 group and the 11th-slowest operation inside the j = 3 group.
    js = (0.5, 2.0, 3.0, 2.0, 3.0, 1.0, 2.0, 3.0, 2.0, 3.0)
    return ([("sweep", DRIVEN_FAMILIES[(k + i) % 3], j, 5, True) for i, j in enumerate(js)]
            + [("preset", "fig2a", True), ("preset", "fig2b", True)])


# Fixed, seed-independent warm-up operation and spins per workload (set-up).
WARMUP = {
    "closed_form_sweep": ("sweep", "case2-omega0", 1.0, 2000, False),
    "validated_sweep": ("sweep", "case2-omega0", 1.0, 20, True),
    "time_ordered": ("sweep", "case3-lambda", 0.5, 2, True),
}
SPINS = {
    "closed_form_sweep": (1.0,),
    "validated_sweep": (1.0,),
    "time_ordered": (0.5, 1.0, 2.0, 3.0),
}


def _build(slot, rng: random.Random) -> Op:
    if slot[0] == "preset":
        return _preset(slot[1], slot[2])
    return _sweep(rng, *slot[1:])


# Seconds one round took at the commit that defined the benchmark (2-vCPU
# Xeon VM).  A run of ``seconds`` holds ``round(seconds / ROUND_S)`` rounds
# whatever the speed of the program, so every commit runs the same
# operations and the latency quantiles are the same order statistics.
ROUND_S = {"closed_form_sweep": 6.0, "validated_sweep": 10.0, "time_ordered": 7.5}


def round_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_S[workload]))


def rounds(workload: str, seed: int, n: int) -> list:
    """The first ``n`` operation rounds of ``workload``; same seed, same rounds."""
    rng = random.Random(f"{workload}:{seed}")
    return [[_build(slot, rng) for slot in _round(workload, k)] for k in range(n)]


def warmup(workload: str) -> Op:
    return _build(WARMUP[workload], random.Random(f"warmup:{workload}"))
