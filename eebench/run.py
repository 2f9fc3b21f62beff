#!/usr/bin/env python3
"""Benchmark of eeinfer: blind decoding, the sharded pipeline, the attacks.

    python3 eebench/run.py --workload blind-decode --seed 1 --seconds 30 --trace 0

Builds the workload's inputs from --seed, sets the system up three times
(the median is setup_s), then runs whole rounds of the workload until
--seconds have passed, checking every output. The last line of standard
output is one JSON object: correct, attempted, failed and metrics. With
--trace 0 the metrics are the end-to-end figures; with --trace 1 they are
the per-layer figures of a traced run, whose rounds alternate between
traced and untraced so that the cost of tracing is measured alongside.
Spans of a traced run go to .eebench_out/ in the checkout.
"""
from __future__ import annotations

import bootstrap  # noqa: F401  (pins BLAS, puts the checkout's src/ on sys.path)

import argparse
import json
import resource
import statistics
import sys
import tempfile
import time
from contextlib import ExitStack, nullcontext
from pathlib import Path

import spans
import workloads

SETUPS = 5


def _set_up(seed: int, tracer: spans.Tracer | None) -> tuple[workloads.System, float]:
    out_dir = bootstrap.ROOT / ".eebench_out"
    out_dir.mkdir(exist_ok=True)
    times = []
    for _ in range(SETUPS):
        with tempfile.TemporaryDirectory(dir=out_dir) as tmp, ExitStack() as stack:
            if tracer:
                stack.enter_context(spans.installed(tracer))
                stack.enter_context(tracer.root("setup"))
            system, seconds, _ = workloads.timed(lambda: workloads.set_up(seed, Path(tmp)))
        times.append(seconds)
    return system, statistics.median(times)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    tracer = spans.Tracer() if args.trace else None
    system, setup_s = _set_up(args.seed, tracer)
    run = workloads.Run(system, workloads.WORKLOADS[args.workload], args.seed)

    busy = {False: [], True: []}
    counts: dict[str, int] = {}
    deadline = time.perf_counter() + args.seconds
    n = 0
    # A traced run repeats each round with the wrappers installed, on the same
    # inputs, so the difference of the two is the cost of tracing.
    while n == 0 or time.perf_counter() < deadline or (tracer and n % 2):
        traced = tracer is not None and n % 2 == 1
        with spans.installed(tracer) if traced else nullcontext():
            seconds, round_counts = run.round(n // 2 if tracer else n, tracer if traced else None)
        busy[traced].append(seconds)
        if traced:
            for k, v in round_counts.items():
                counts[k] = counts.get(k, 0) + v
        n += 1
    run.final_checks()

    if tracer is None:
        metrics = {"setup_s": setup_s, "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        metrics.update(run.end_to_end())
        units = dict(workloads.END_TO_END)
    else:
        metrics = spans.layer_metrics(tracer, len(busy[True]), SETUPS, counts)
        plain, traced = statistics.median(busy[False]), statistics.median(busy[True])
        metrics["trace.overhead_s"] = traced - plain
        metrics["trace.overhead_pct"] = (traced - plain) / plain * 100.0
        units = dict(spans.PER_LAYER)
        path = bootstrap.ROOT / ".eebench_out" / f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(path)
        print(f"spans: {len(tracer.names)} written to {path.relative_to(bootstrap.ROOT)}")

    print(f"workload {args.workload}, seed {args.seed}: {n} rounds, {run.attempted} operations, {len(run.failures)} failed")
    for name, unit in units.items():
        print(f"  {name} = {metrics[name]:.6g} {unit}")
    if tracer is None:
        blind, plain = run.samples["op.blind"], run.samples["op.plain"]
        overhead = (statistics.median(blind) / statistics.median(plain) - 1) * 100
        print(f"  blind-vs-plaintext overhead {overhead:+.2f}% (medians of {len(blind)} requests)")
    print(f"  machine slowdown against the probe's nominal speed: median {statistics.median(run.slowdowns):.3f}, "
          f"range {min(run.slowdowns):.3f}-{max(run.slowdowns):.3f}")
    print(f"  reference forward: {run.near_ties} near-ties, smallest top-2 margin {run.min_margin:.3g}, "
          f"max |plaintext - decrypted| logit {run.max_logit_diff:.3g}")
    print(f"  pipeline requests whose ciphertext carried plaintext verbatim (audit expected to fail): {run.verbatim_leaks}")
    for line in run.failures + [f"check failed: {e}" for e in run.errors]:
        print(f"  {line}", file=sys.stderr)
    result = {
        "correct": not run.errors,
        "attempted": run.attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
