"""One benchmark workload in a fresh interpreter (started by run.py).

Set-up: import ``su2qfi.cli``, build the spin representations the workload
uses and finish one fixed warm-up operation, then print ``@@ready``.  With
``--setup-only`` the process stops there.  Otherwise it acts as one
closed-loop client, calling ``su2qfi.cli.main(argv)`` back to back for the
fixed number of rounds ``workloads.round_count`` gives for ``--seconds``,
checking every output, and prints ``@@result`` followed by a JSON record.

With ``--trace 1`` the run is halved: those rounds run untraced and are then
replayed under the tracer, so the difference of the two times spent in
``cli.main`` is the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"


def _parse(argv):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


class Client:
    """Runs operations through ``cli.main`` and checks each output."""

    def __init__(self, cli, checks, workdir: Path, seed: int):
        self.cli, self.checks = cli, checks
        self.refs = checks.load_refs()
        self.out = str(workdir / "op.csv")
        self.rng = random.Random(f"check:{seed}")
        self.latencies, self.rows, self.failures = [], 0, {}

    def reset(self):
        self.latencies, self.rows = [], 0

    def run(self, op):
        start = perf_counter()
        try:
            code = self.cli.main([*op.argv, "--out", self.out])
            problem = None if code == 0 else f"exit {code}"
        except Exception as exc:          # a traceback escaping main is a failed operation
            problem = f"raised {type(exc).__name__}"
        self.latencies.append(perf_counter() - start)
        if problem is None:
            try:
                rows, problem = self.checks.check(op, self.out, self.refs, self.rng)
            except (OSError, ValueError, IndexError) as exc:   # missing or malformed CSV
                rows, problem = 0, f"unreadable output: {type(exc).__name__}: {exc}"
            self.rows += rows
        if problem is not None:
            key = f"{op.scenario}: {problem}"
            self.failures[key] = self.failures.get(key, 0) + 1
            print(f"perfbench: failed {' '.join(op.argv)}: {problem}", file=sys.stderr)


def _tail(latencies):
    """(value, percentile): the highest order statistic with ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def main(argv=None) -> int:
    args = _parse(argv)
    import su2qfi.cli as cli
    if not Path(cli.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"perfbench: su2qfi imported from {cli.__file__}, not from the checkout", file=sys.stderr)
        return 2
    import numpy
    import checks
    import workloads
    from su2qfi.spin import build_spin_rep

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        client = Client(cli, checks, Path(tmp), args.seed)
        for j in workloads.SPINS[args.workload]:
            build_spin_rep(j)
        client.run(workloads.warmup(args.workload))   # a failure here is counted, not fatal
        print("@@ready", flush=True)
        if args.setup_only:
            return 0
        client.reset()

        seconds = args.seconds / 2 if args.trace else args.seconds
        rounds = workloads.rounds(args.workload, args.seed, workloads.round_count(args.workload, seconds))
        done = [op for ops in rounds for op in ops]
        record = {"numpy": numpy.__version__}
        start = perf_counter()
        for op in done:
            client.run(op)
        wall = perf_counter() - start
        busy = sum(client.latencies)          # time inside cli.main; checks excluded
        if args.trace:
            from tracer import Tracer
            client.reset()
            tracer = Tracer()
            tracer.install()
            try:
                for op in done:
                    client.run(op)
                    tracer.end_op()
            finally:
                tracer.uninstall()
            traced_busy = sum(client.latencies)
            metrics = tracer.metrics()
            metrics["trace.overhead_s"] = (traced_busy - busy, "s")
            metrics["trace.overhead_frac"] = ((traced_busy - busy) / busy, "ratio")
            record["absent"] = tracer.absent
            (OUT_DIR / f"spans-{args.workload}.json").write_text(json.dumps({
                "workload": args.workload, "seed": args.seed, "absent": tracer.absent,
                "fields": ["id", "parent", "name", "start", "end", "op", "raised"],
                "spans": tracer.kept,
            }))
            attempted = 1 + 2 * len(done)
        else:
            tail, pct = _tail(client.latencies)
            metrics = {
                "rows_per_s": (client.rows / busy, "rows/s"),
                "op_p50_s": (statistics.median(client.latencies), "s"),
                "op_tail_s": (tail, "s"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            }
            record["tail_percentile"] = pct
            attempted = 1 + len(done)

    failed = sum(client.failures.values())
    record.update(metrics=metrics, attempted=attempted, failed=failed, failures=client.failures,
                  ops=len(done), rows=client.rows, wall_s=wall, busy_s=busy)
    print("@@result " + json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
