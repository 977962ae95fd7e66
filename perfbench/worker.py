"""Run one workload in a fresh process and print its measurements as JSON.

Started by run.py, so that the peak resident set it reports belongs to
the workload alone.  The last line of standard output is one JSON object.

Untraced (``--trace 0``): a closed loop with one caller draws items from
the seeded stream and times each, until ``--seconds`` have passed and at
least the workload's prefix of items is done.  The digest covers exactly
that prefix, so it does not depend on how fast the code runs.

Traced (``--trace 1``): the prefix items run untraced and traced in turn,
twice each, for the tracing overhead, the per-layer metrics and the
deterministic counts; every pass must give the same digest and every
traced pass the same counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from sgfl.errors import SgflError  # noqa: E402
from tracing import Tracer  # noqa: E402

OUT_DIR = Path(__file__).resolve().parent / "out"
TRACE_ROUNDS = 2


def run_one(item, job):
    """(seconds, record, failed) of one item; RouteDisagreement propagates."""
    start = perf_counter()
    try:
        record = item(job)
        failed = False
    except (SgflError, workloads.ItemFailed) as exc:
        record = ["failed", job, type(exc).__name__]
        failed = True
    return perf_counter() - start, record, failed


def timed_loop(workload, seed, seconds):
    """Whole blocks of items until the time is up and the prefix is done.

    items_per_s is the median over blocks of the block's items divided by
    the summed item times in it; every block holds the same parameter mix,
    so one slow item moves its own block, not the run.
    """
    item = workloads.ITEMS[workload]
    block = workloads.BLOCK_ITEMS[workload]
    prefix = workloads.PREFIX_BLOCKS[workload] * block
    stream = workloads.input_stream(workload, seed)
    warmup = workloads.input_stream(workload, f"{seed}:warmup")
    run_one(item, next(warmup))

    digest = hashlib.sha256()
    times = []
    failed = 0
    deadline = perf_counter() + seconds
    while len(times) < prefix or perf_counter() < deadline:
        for _ in range(block):
            elapsed, record, item_failed = run_one(item, next(stream))
            if len(times) < prefix:
                digest.update(workloads.digest_bytes(record))
            times.append(elapsed)
            failed += item_failed
    block_rates = [
        block / sum(times[i:i + block]) for i in range(0, len(times), block)
    ]
    return {
        "items": len(times),
        "failed": failed,
        "blocks": len(block_rates),
        "items_per_s": statistics.median(block_rates),
        "items_per_s_overall": len(times) / sum(times),
        "item_p50_ms": statistics.median(times) * 1e3,
        "item_p90_ms": statistics.quantiles(times, n=10)[-1] * 1e3,
        "item_max_ms": max(times) * 1e3,
        "digest": digest.hexdigest(),
        "digest_items": prefix,
    }


def traced_passes(workload, seed):
    """Alternate untraced and traced passes over the digest prefix.

    Every pass must give the same digest, and every traced pass the same
    call and node counts.  The spans of the last traced pass are written.
    """
    item = workloads.ITEMS[workload]
    prefix = workloads.PREFIX_BLOCKS[workload] * workloads.BLOCK_ITEMS[workload]
    stream = workloads.input_stream(workload, seed)
    jobs = [next(stream) for _ in range(prefix)]

    def one_pass(tracer=None):
        digest = hashlib.sha256()
        busy = 0.0
        failed = 0
        for i, job in enumerate(jobs):
            if tracer is not None:
                tracer.start_item(i)
            elapsed, record, item_failed = run_one(item, job)
            busy += elapsed
            failed += item_failed
            digest.update(workloads.digest_bytes(record))
        return busy, digest.hexdigest(), failed

    untraced, traced, digests, counts = [], [], set(), []
    for _ in range(TRACE_ROUNDS):
        busy, digest, failed = one_pass()
        untraced.append(busy)
        digests.add(digest)
        tracer = Tracer()
        tracer.install()
        try:
            busy, digest, _ = one_pass(tracer)
        finally:
            tracer.uninstall()
        traced.append(busy)
        digests.add(digest)
        counts.append(tracer.counts())
    if len(digests) != 1:
        raise workloads.RouteDisagreement(
            f"passes over the same items gave different digests: {sorted(digests)}"
        )
    if any(c != counts[0] for c in counts):
        raise workloads.RouteDisagreement(
            "traced passes over the same items gave different counts"
        )
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl.gz"
    tracer.write(spans_path)
    untraced_rate = len(jobs) * TRACE_ROUNDS / sum(untraced)
    traced_rate = len(jobs) * TRACE_ROUNDS / sum(traced)
    metrics = tracer.metrics(traced[-1])
    metrics["trace.items_per_s_untraced"] = (untraced_rate, "items/s")
    metrics["trace.items_per_s_traced"] = (traced_rate, "items/s")
    metrics["trace.overhead_share"] = (untraced_rate / traced_rate - 1, "ratio")
    return {
        "items": len(jobs),
        "failed": failed,
        "digest": digests.pop(),
        "digest_items": prefix,
        "spans": len(tracer.span_name),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "counts": counts[0],
        "per_layer": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.ITEMS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    try:
        if args.trace:
            result = traced_passes(args.workload, args.seed)
        else:
            result = timed_loop(args.workload, args.seed, args.seconds)
    except workloads.RouteDisagreement as exc:
        print(json.dumps({"correct": False, "error": str(exc)}))
        return 1
    result["correct"] = True
    result["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
