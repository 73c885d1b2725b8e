"""One workload process: import bellkit, generate the seeded inputs, warm up,
then run whole rounds in a closed loop from one client until the operations
have taken --seconds.  Prints one JSON object on stdout.

Started by run.py in a fresh interpreter; not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import sys
import time
from pathlib import Path

import reference

WARMUP_SEED = 987654321
REF_SHARE = 0.10  # reference kernel time per second of operation time
REF_BURST = 10  # kernel samples before the first and after the last operation
# An operation is scaled by the kernel samples nearest to it, half taken
# before it and half after: the machine's speed changes within seconds, so
# samples from a second away track it worse than these.
REF_NEAREST = 16


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--root", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans", default=None, help="write the traced spans to this .npz file")
    args = p.parse_args()

    src = Path(args.root, "src").resolve()
    sys.path.insert(0, str(src))
    import bellkit
    import bellkit.cli  # noqa: F401  -- the import users pay for; part of set-up
    import numpy

    if not Path(bellkit.__file__).resolve().is_relative_to(src):
        print(f"bellkit imported from {bellkit.__file__}, not {src}", file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    first = workload.round()
    errors, warmup_failed = [], 0
    for op in warmup(workload):
        try:
            workload.check(op, workload.run(op))
        except Exception as exc:  # reported with the results, not raised
            warmup_failed += 1
            errors.append(f"warm-up {op.kind}: {type(exc).__name__}: {exc}")
    if tracer is not None:
        tracer.reset()
    # Objects that live through the run are moved out of the collector's way,
    # and every operation starts on a collected heap: otherwise garbage left by
    # one operation is collected inside the next one's timing, which ties an
    # operation's latency to its position in the seeded order.
    gc.collect()
    gc.freeze()
    ready = time.clock_gettime(time.CLOCK_MONOTONIC)
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    # Reference kernel samples, worth 10 % of the operation time, taken between
    # operations; see reference.py.
    refs = reference.sample(REF_BURST)
    owed = 0.0
    raw, spans, keys, items, failed = [], [], [], 0, 0
    op_time, bytes_out = 0.0, 0
    pending = first
    while True:
        for op in pending:
            gc.collect()
            span = tracer.begin_op() if tracer is not None else None
            start = time.clock_gettime(time.CLOCK_MONOTONIC)
            t0 = reference.clock()
            try:
                result, error = workload.run(op), None
            except Exception as exc:  # an operation that raises counts as failed
                result, error = None, exc
            dt = reference.clock() - t0
            if span is not None:
                tracer.end_op(span)
            raw.append(dt)
            keys.append(op.key)
            spans.append((start, time.clock_gettime(time.CLOCK_MONOTONIC)))
            op_time += dt
            items += op.items
            owed += REF_SHARE * dt
            while owed > 0:
                refs += reference.sample()
                owed -= refs[-1][1]
            if error is None:
                try:
                    workload.check(op, result)
                except Exception as exc:  # CheckFailed, or output it could not parse
                    error = exc
                if workload.name == "paper":
                    bytes_out += len(result[1].encode("utf-8"))
            if error is not None:
                failed += 1
                if len(errors) < 5:
                    errors.append(f"{op.kind}: {type(error).__name__}: {error}")
        if op_time >= args.seconds:
            break
        pending = workload.round()

    refs += reference.sample(REF_BURST)
    scale = reference.Scale(refs, window=0.0, min_samples=REF_NEAREST)
    latencies = [dt * scale.factor(a, b) for dt, (a, b) in zip(raw, spans)]
    out = {
        "ready": ready,
        "latencies": latencies,
        "keys": keys,
        "round_size": len(first),
        "op_time": sum(latencies),
        "raw_op_time": op_time,
        "items": items,
        "failed": failed,
        "warmup_failed": warmup_failed,
        "errors": errors,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "bellkit": bellkit.__version__,
        },
    }
    if tracer is not None:
        layers = tracer.metrics(sum(latencies) / op_time)
        layers["cli.bytes_out"] = bytes_out / len(latencies)
        out["layers"] = layers
        out["spans"] = len(tracer.span_name)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


def warmup(workload):
    """Operations run once before timing so lazy imports and caches settle;
    from their own seed, so the measured sequence does not depend on them."""
    scratch = type(workload)(WARMUP_SEED)
    if workload.name == "enumerate":
        return [scratch.make_op("tri3"), scratch.make_op("pair5")]
    return scratch.round()


if __name__ == "__main__":
    sys.exit(main())
