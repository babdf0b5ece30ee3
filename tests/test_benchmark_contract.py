"""The benchmark's use of the library: the names it imports and its second path.

``perfbench/checks.py`` imports names from ``su2qfi`` and recomputes sampled
sweep rows through ``mqfi_closed_form(j, split_velocity(field, velocity), t)``.
A renamed function or a second closed form that drifts from the CLI's would
fail every benchmark operation; these tests fail first, and so does one round
of each workload's seeded sweeps under the benchmark's own checks.  The benchmark also
checks each preset's data section against ``perfbench/preset_refs.json``;
for the validated fig1a-d and fig2a sections that is the only pin, so a
test here compares all twelve.  The benchmark's tracer reports per-layer
metrics of the library functions it finds; a function it no longer finds
reads 0, so the set it finds is pinned here.
"""

import ast
import importlib.util
import json
import random
import sys
from pathlib import Path

import pytest

import su2qfi
from su2qfi.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PRESET_REFS = json.loads((PERFBENCH / "preset_refs.json").read_text())


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_every_name_the_benchmark_imports_resolves():
    tree = ast.parse((PERFBENCH / "checks.py").read_text())
    names = [alias.name for node in ast.walk(tree)
             if isinstance(node, ast.ImportFrom) and node.module == "su2qfi" for alias in node.names]
    assert names
    assert [name for name in names if not hasattr(su2qfi, name)] == []


@pytest.mark.parametrize("scenario", ["case2-omega0", "case2-lambda", "case3-lambda", "case3-omega0", "generic"])
def test_second_path_equals_cli_rows_bit_for_bit(scenario, tmp_path):
    # seeded benchmark sweeps (t, or Delta for the driven scenarios), every row
    checks, workloads = _load("checks"), _load("workloads")
    rng = random.Random(f"contract:{scenario}")
    out = tmp_path / "sweep.csv"
    for _ in range(4):
        op = workloads._sweep(rng, scenario, rng.choice([0.5, 1.0, 3.0]), 200, False)
        assert main([*op.argv, "--out", str(out)]) == 0
        lines = checks.data_section(out).decode().splitlines()
        assert lines[0] == f"{op.variable},total,quadratic,oscillatory"
        for line in lines[1:]:
            value, *parts = map(float, line.split(","))
            assert tuple(parts) == checks._reference_row(op, value), (op.argv, line)


@pytest.mark.parametrize("workload", [w["name"] for w in json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())
                                      ["workloads"]])
def test_one_round_of_seeded_sweeps_passes_the_benchmark_checks(workload, tmp_path):
    # the benchmark's per-operation gate, on every scenario it sweeps, case1 and case3-omega too
    checks, workloads = _load("checks"), _load("workloads")
    out, rng = tmp_path / "op.csv", random.Random("contract:check")
    for op in workloads.rounds(workload, 7, 1)[0]:
        if op.preset is None:
            assert main([*op.argv, "--out", str(out)]) == 0, op.argv
            assert checks.check(op, out, {}, rng) == (op.points, None), op.argv


@pytest.mark.parametrize("key", sorted(PRESET_REFS))
def test_preset_data_section_matches_the_benchmark_reference(key, tmp_path):
    checks = _load("checks")
    fig, validate = key.removesuffix("+validate"), key.endswith("+validate")
    assert checks.preset_key(fig, validate) == key
    out = tmp_path / "preset.csv"
    assert main(["figure", fig, "--out", str(out)] + (["--validate"] if validate else [])) == 0
    assert checks.fingerprint(checks.data_section(out)) == PRESET_REFS[key]


# The perfbench/tracer.py TARGETS that resolve; the other nine name functions the library no longer has.
LIVE_TRACER_SLOTS = {
    "spin.build_spin_rep", "spin.dot_with_J", "spin.hermitian_expm", "spin.require_hermitian",
    "generator.split_velocity", "generator.generator_vector", "generator.mqfi_closed_form",
    "cases.spherical_field_mqfi", "cases.driving_frequency_mqfi",
    "numerics.generator_series",
    "cli.main", "cli.evaluate_point", "cli.trotter_cross_check",
    "numpy.linalg.eigh",
}


def test_the_benchmark_tracer_finds_exactly_its_live_slots():
    # deleting or renaming a traced function turns its per-layer metrics to a silent 0; a change
    # that does so updates this set and says which metric it retires
    tracer = _load("tracer")
    live = {tracer.metric_prefix(module, name) for module, name in tracer.TARGETS
            if tracer._resolve(module, name) is not None}
    assert live == LIVE_TRACER_SLOTS
