"""One workload in one fresh interpreter; started by run.py, not by hand.

    python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS_OR_BLOCKS

MODE is one of
  setup    set up, report the set-up time, exit;
  measure  set up, then run whole blocks until the ops have taken SECONDS
           and at least MIN_OPS ops ran; report every op's latency and the
           host speed around it (reference.Gauge);
  trace    set up, install the tracer, run the workload's trace_blocks
           blocks, report per-layer totals and write the spans;
  replay   set up and run exactly SECONDS_OR_BLOCKS blocks untraced (the
           baseline for the tracing overhead).

The last line on standard output is one JSON object.  Set-up time counts
from PERFBENCH_T0 (wall clock, set by the parent just before it started
this interpreter) to the moment the first op could start, less a speed
sample of SETUP_SAMPLE_S taken before gtkit is imported; that sample and
one taken right after set-up scale it like the op times.
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()  # the checkout root; run.py starts workers there
MIN_OPS = 100
SETUP_SAMPLE_S = 0.1


def main(argv) -> int:
    mode, name, seed, amount = argv[0], argv[1], int(argv[2]), float(argv[3])
    t0 = float(os.environ["PERFBENCH_T0"])
    proto = sys.stdout
    sys.stdout = sys.stderr  # anything gtkit prints must not reach the protocol
    sys.path.insert(0, HERE)
    import reference

    t = time.time()
    unit_before = reference.unit_s(SETUP_SAMPLE_S)
    t0 += time.time() - t  # the speed sample is not set-up work
    from workloads import WORKLOADS

    workdir = os.path.join(ROOT, ".perfbench", f"tmp-{os.getpid()}")
    try:
        workload = WORKLOADS[name](seed, workdir)
        # block 0 is made during set-up; the runners take it out of this
        # list, so its inputs do not outlive it and slow every later
        # garbage collection
        first = [workload.block(0)]
        setup_s = time.time() - t0
        setup_unit_s = (unit_before + reference.unit_s(SETUP_SAMPLE_S)) / 2
        if mode == "setup":
            out = {"setup_s": setup_s, "setup_unit_s": setup_unit_s}
        elif mode == "measure":
            out = _measure(workload, first, amount, reference.Gauge())
            out.update(setup_s=setup_s, setup_unit_s=setup_unit_s)
        elif mode == "trace":
            out = _trace(workload, first, seed)
        elif mode == "replay":
            out = _run_blocks(workload, first, int(amount))
        else:
            raise ValueError(f"unknown mode {mode!r}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out), file=proto, flush=True)
    return 0


def _time_ops(ops, result, gauge=None):
    """Run ops in order, appending latency (s), kind and outcome to result."""
    perf = time.perf_counter
    for op in ops:
        t = perf()
        try:
            ok = op.run() is True
        except Exception as exc:  # an op that raises counts as failed
            ok = False
            print(f"op {op.kind} raised {type(exc).__name__}: {exc}", file=sys.stderr)
        dt = perf() - t
        result["latency_s"].append(dt)
        if not ok:
            result["failed"].append(op.desc)
        if gauge is not None:
            gauge.op_done(dt)


def _new_result():
    return {"latency_s": [], "failed": [], "blocks": 0}


def _measure(workload, first, seconds, gauge):
    result = _new_result()
    ops = first.pop()
    while True:
        _time_ops(ops, result, gauge)
        gauge.flush()
        result["blocks"] += 1
        if sum(result["latency_s"]) >= seconds and len(result["latency_s"]) >= MIN_OPS:
            result["unit_s"] = gauge.units
            return result
        ops = workload.block(result["blocks"])


def _run_blocks(workload, first, blocks, tracer=None):
    result = _new_result()
    ops = first.pop()
    for k in range(blocks):
        if k:
            ops = workload.block(k)
        if tracer is not None:
            tracer.on = True
        _time_ops(ops, result)
        if tracer is not None:
            tracer.on = False  # next block's inputs are made untraced
        result["blocks"] += 1
    return result


def _trace(workload, first, seed):
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    result = _run_blocks(workload, first, workload.trace_blocks, tracer)
    stem = os.path.join(ROOT, ".perfbench", "trace", f"{workload.name}-seed{seed}")
    os.makedirs(os.path.dirname(stem), exist_ok=True)
    tracer.write_spans(stem)
    result.update({
        "totals": tracer.totals(),
        "layer_self_s": tracer.layer_self(),
        "layer_calls": tracer.layer_calls(),
        "counts": tracer.counts,
        "fold_unique": len(tracer.fold_keys),
        "spans": len(tracer.span_name),
        "spans_file": os.path.relpath(stem + ".spans", ROOT),
    })
    return result


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
