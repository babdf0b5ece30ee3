"""su2qfi benchmark: one closed-loop client driving ``su2qfi.cli.main``.

    python3 perfbench/run.py --workload closed_form_sweep --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  ``--workload all`` runs every workload in turn.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  Every workload
process starts from a fresh interpreter with ``SU2QFI_THREADS`` unset.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("closed_form_sweep", "validated_sweep", "time_ordered")
SETUP_SAMPLES = 9          # fresh interpreters per untraced run; setup_s is their median


def _spawn(args, env, setup_only: bool, deadline: float):
    """Start a worker; return (seconds until it was ready, its result record or None)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(max(deadline - start, 0.0), proc.kill)
    watchdog.start()
    ready, record = None, None
    try:
        for line in proc.stdout:
            if line.startswith("@@ready"):
                ready = perf_counter() - start
            elif line.startswith("@@result "):
                record = json.loads(line[len("@@result "):])
    finally:
        proc.stdout.close()
        code = proc.wait()
        watchdog.cancel()
    if code != 0 or ready is None or (record is None and not setup_only):
        raise RuntimeError(f"workload process {' '.join(cmd[1:])} exited with code {code}")
    return ready, record


def _git_commit() -> str:
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _cpu_ticks():
    """(steal, total) jiffies of all CPUs, or None where /proc/stat is unavailable."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:9]]
    except (OSError, ValueError):
        return None
    return fields[7], sum(fields)


def run_workload(args) -> dict:
    env = dict(os.environ)
    caller_threads = env.pop("SU2QFI_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    # A run holds a fixed amount of work sized to take about --seconds; allow
    # for a program up to three times slower before the worker is killed.
    deadline = perf_counter() + 30.0 + 4 * args.seconds
    ticks_before = _cpu_ticks()
    setups = []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            setups.append(_spawn(args, env, True, deadline)[0])
    ready, record = _spawn(args, env, False, deadline)
    setups.append(ready)

    ticks_after = _cpu_ticks()
    steal = None
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        steal = (ticks_after[0] - ticks_before[0]) / (ticks_after[1] - ticks_before[1])
    metrics = dict(record["metrics"])
    if not args.trace:
        metrics = {"setup_s": (statistics.median(setups), "s"), **metrics}
    ops, failed = record["ops"], record["failed"]
    samples = {
        "setup_s": f"median of n={len(setups)} fresh interpreters",
        "rows_per_s": f"{record['rows']} rows / {record['busy_s']:.3f} s in cli.main",
        "op_p50_s": f"n={ops} ops",
        "op_tail_s": f"p{record.get('tail_percentile', 0):.1f} of n={ops} ops",
        "peak_rss_mb": "ru_maxrss of the workload process",
    }
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit:<7} {samples.get(name, '')}")
    print(f"  {'failed_frac':<44} {failed / record['attempted']:>14.6g} {'ratio':<7} "
          f"{failed} of {record['attempted']} ops")
    for problem, n in sorted(record["failures"].items()):
        print(f"  failure x{n}: {problem}")
    if record.get("absent"):
        print(f"  absent (not traced at this commit): {', '.join(record['absent'])}")
    env_record = {
        "nproc": os.cpu_count(), "cpu": _cpu_model(), "python": platform.python_version(),
        "numpy": record["numpy"], "SU2QFI_THREADS": "unset" if caller_threads is None
        else f"unset (caller had {caller_threads!r})", "commit": _git_commit(), "seed": args.seed,
        "workload": args.workload, "ops": ops, "rows": record["rows"],
        "host_steal_frac": steal,   # CPU time the hypervisor took away during the run
    }
    print("env " + json.dumps(env_record))
    return {
        "correct": failed == 0,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            result = run_workload(argparse.Namespace(**{**vars(args), "workload": workload}))
        except RuntimeError as err:
            print(f"perfbench: {err}", file=sys.stderr)
            return 1
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
