"""One repetition of a workload in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --spawned-at T [--setup-only] [--trace-out PATH]

T is the parent's ``time.perf_counter()`` when it started this process; the
clock is system-wide, so set-up is timed from process start to inputs ready.
The worker starts a `speed.Sampler` before it imports the library, builds
the inputs, runs the timed calls, checks them outside the timed region and
prints one JSON line with what it measured, both as wall time (``raw_*``)
and scaled to the reference machine speed.  With --trace-out it wraps the
library's public functions before set-up and, once the timed calls have
returned, writes their spans to PATH.  run.py starts it with the checkout's
``src`` on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

import speed


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned-at", type=float, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-out")
    args = ap.parse_args()
    sampler = speed.Sampler().start()
    try:
        return repetition(args, sampler)
    finally:
        sampler.stop()


def repetition(args, sampler: speed.Sampler) -> int:
    import workloads

    setup, run, check = workloads.WORKLOADS[args.workload]
    tracer = None
    if args.trace_out:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    inputs = setup(args.seed)
    ready = time.perf_counter()
    record = {
        "setup_s": sampler.scaled(args.spawned_at, ready, speed_at=sampler.burst()),
        "raw_setup_s": ready - args.spawned_at,
    }
    if args.setup_only:
        print(json.dumps(record), flush=True)
        return 0

    start = time.perf_counter()
    try:
        out = run(inputs)
    except Exception as exc:  # the request raised: one failed unit
        out = workloads.Outcome()
        out.units = 1
        out.fail(None, f"raised {exc!r}")
        out.results = None
    end = time.perf_counter()
    sampler.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:  # before the checks, whose calls are not the workload's
        layers = tracing.layer_metrics(tracer)
        tracer.dump(args.trace_out)

    if out.results is not None:
        try:
            check(inputs, out, args.seed)
        except Exception as exc:  # a check that cannot run does not pass
            out.fail(None, f"check raised {exc!r}")
    record.update({
        "units": out.units,
        "failed": out.failed_count,
        "notes": out.notes,
        "timed_s": sampler.scaled(start, end),
        "raw_timed_s": end - start,
        "latencies_s": [sampler.scaled(a, b) for a, b in out.calls],
        "raw_latencies_s": [b - a for a, b in out.calls],
        "rss_mb": rss_mb,
    })
    if tracer is not None:
        record["layers"] = layers
    print(json.dumps(record), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
