"""cyclicfiber benchmark: one workload, measured for a fixed time, checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The load is a single-process closed loop
with one caller: every repetition is a fresh interpreter (worker.py) with
``CYCLICFIBER_WORKERS`` removed from its environment, so the library's
module-level caches start empty, no process pool is spawned, and work moved
into set-up shows in ``setup_s``.  Repetitions run one after another until
S seconds of them have been measured; there is always at least one.  A few
extra set-up-only interpreters give ``setup_s`` a median.

Every time in the metrics is scaled to a fixed machine speed by
speed.Sampler, because the speed of this kind of shared virtual CPU drifts by
up to 1.6x between runs; see speed.py.

With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics.  The lines before it give the decision-latency tail (the
highest percentile with at least ten calls beyond it, and the sample count)
and the unscaled wall-time values of the metrics.  Neither is a metric.
Outside regularity-c94 a run makes only a few decision calls, and their
maximum measures the machine's noise more than the library.

With ``--trace 1`` repetitions alternate untraced and traced.  The JSON holds
the per-layer metrics of the traced ones and ``trace.overhead_frac``, and the
spans are written to ``.perfbench-out/``.

The exit code is 0 only if every unit passed its check.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = list(json.loads((HERE / "workloads.json").read_text())["workloads"])
SETUP_ONLY_REPS = 14
RUN_LIMIT_S = 170  # a run must end within 180 s


def tail(values: list[float]) -> tuple[float, int]:
    """(value, percentile) of the highest percentile with >= 10 samples beyond it.

    With fewer than 11 samples no percentile qualifies and the maximum is
    reported as p100.
    """
    xs = sorted(values)
    n = len(xs)
    if n < 11:
        return xs[-1], 100
    p = math.floor(100 * (n - 10) / n)
    return xs[math.ceil(p * n / 100) - 1], p


class Runner:
    def __init__(self, workload: str, seed: int, deadline: float):
        self.workload, self.seed, self.deadline = workload, seed, deadline
        self.env = {k: v for k, v in os.environ.items() if k != "CYCLICFIBER_WORKERS"}
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.setups: list[float] = []
        self.raw_setups: list[float] = []

    def rep(self, *extra: str) -> dict | None:
        """Run one worker; return its record, or None if it failed to report."""
        spawned_at = time.perf_counter()
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.workload,
               "--seed", str(self.seed), "--spawned-at", repr(spawned_at), *extra]
        try:
            proc = subprocess.run(cmd, env=self.env, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, self.deadline - spawned_at))
        except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
            print(f"worker {' '.join(extra)} ran past the time limit", file=sys.stderr)
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"worker {' '.join(extra)} exited with code {proc.returncode}", file=sys.stderr)
            return None
        record = json.loads(lines[-1])
        self.setups.append(record["setup_s"])
        self.raw_setups.append(record["raw_setup_s"])
        return record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "cyclicfiber" / "__init__.py").is_file():
        print(f"no cyclicfiber sources under {ROOT / 'src'}: run from a checkout", file=sys.stderr)
        return 2

    runner = Runner(args.workload, args.seed, time.perf_counter() + RUN_LIMIT_S)
    for _ in range(SETUP_ONLY_REPS):
        if runner.rep("--setup-only") is None:
            return 2
    out_dir = ROOT / ".perfbench-out"
    if args.trace:
        out_dir.mkdir(exist_ok=True)

    plain: list[dict] = []
    traced: list[dict] = []
    attempted = failed = 0
    measure_start = time.perf_counter()
    while True:
        use_trace = bool(args.trace) and len(traced) < len(plain)
        extra = ()
        if use_trace:
            path = out_dir / f"trace-{args.workload}-seed{args.seed}-{len(traced)}.jsonl"
            extra = ("--trace-out", str(path))
        record = runner.rep(*extra)
        if record is None:
            attempted += 1
            failed += 1
            break
        attempted += record["units"]
        failed += record["failed"]
        for note in record["notes"]:
            print(f"check failed: {note}")
        (traced if use_trace else plain).append(record)
        print(f"rep {len(plain) + len(traced)}{' traced' if use_trace else ''}: "
              f"{record['units']} units in {record['timed_s']:.3f} s ({record['raw_timed_s']:.3f} s wall), "
              f"peak RSS {record['rss_mb']:.1f} MB, {record['failed']} failed")
        pending_trace = bool(args.trace) and len(traced) < len(plain)
        if not pending_trace and time.perf_counter() - measure_start >= args.seconds:
            break

    metrics: dict[str, dict] = {}
    if failed == 0 and plain and (traced or not args.trace):
        if args.trace:
            import tracing

            for name, unit in tracing.LAYER_METRICS:
                value = statistics.median(r["layers"][name] for r in traced)
                metrics[name] = {"value": value, "unit": unit}
            base = statistics.median(r["timed_s"] for r in plain)
            overhead = (statistics.median(r["timed_s"] for r in traced) - base) / base
            metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
        else:
            latencies = [x for r in plain for x in r["latencies_s"]]
            raw_latencies = [x for r in plain for x in r["raw_latencies_s"]]
            tail_value, pct = tail(latencies)
            print(f"decide_ms_tail: p{pct} of {len(latencies)} decision calls is {1000 * tail_value:.3f} ms")
            units = sum(r["units"] for r in plain)
            print(f"wall time: units_per_s {units / sum(r['raw_timed_s'] for r in plain):.4f}, "
                  f"decide_ms_p50 {1000 * statistics.median(raw_latencies):.3f}, "
                  f"setup_s {statistics.median(runner.raw_setups):.4f}")
            metrics = {
                "units_per_s": {"value": units / sum(r["timed_s"] for r in plain), "unit": "1/s"},
                "decide_ms_p50": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
                "setup_s": {"value": statistics.median(runner.setups), "unit": "s"},
                "peak_rss_mb": {"value": statistics.median(r["rss_mb"] for r in plain), "unit": "MB"},
            }
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
