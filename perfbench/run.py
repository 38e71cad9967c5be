"""gtkit benchmark: one workload per run, each in fresh child interpreters.

    python3 perfbench/run.py --workload {freesearch,normalform,nonlo,all}
                             --seed N --seconds S --trace {0,1}

Run from the root of a gtkit checkout; gtkit is imported from ./src.

--trace 0 (end-to-end metrics, tracing off).  Every time is scaled to a
host of fixed speed: the measuring child interleaves samples of a fixed
reference kernel with the ops, and a time t measured while one kernel call
took u is reported as t * reference.NOMINAL_S / u (see reference.py for
why).  The report lines print the unscaled figures and the kernel time too.
  setup_s         median over SETUP_SAMPLES fresh interpreters of the time
                  from interpreter start to the first timed op (gtkit
                  import, input generation, fixtures);
  ops_per_s       ops completed per second of op time;
  latency_p50_ms  median op latency;
  latency_p90_ms  90th-percentile op latency (every run has >= 100 ops, so
                  at least ten lie beyond it; the count is printed);
  peak_rss_mb     peak resident memory of the measuring process;
  ok_ratio        ops whose answer passed its ground-truth check over ops
                  attempted, i.e. 1 - fail_ratio (the result line's
                  `failed`/`attempted` carry the same count).
--trace 1 (per-layer metrics): a traced child runs the workload's fixed
  trace blocks with every call into gtkit's modules timed (tracer.py); an
  untraced child replays the same blocks for the tracing overhead.  The
  layer-coverage self-check (`coverage_problems`) must pass for the result
  to count as correct.

Every child runs with PYTHONHASHSEED=0, so set iteration order, and with it
the searches and their memory, repeats for a given seed.  The last line of
standard output is the result object; the lines before it are a readable
report, and a copy with the machine description goes to
.perfbench/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from reference import NOMINAL_S
from tracer import LAYERS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
WORKLOADS = ("freesearch", "normalform", "nonlo")
SETUP_SAMPLES = 9      # set-up timings per run: eight set-up-only children + the measuring one
CHILD_TIMEOUT_S = 170  # per workload; a one-workload run must end within 180 s

# The layers each workload must never call, and the layers that together
# must carry more self time than any single other layer.
FORBIDDEN = {
    "freesearch": ("amalgam", "tamed", "magnus", "casestudy"),
    "normalform": ("magnus",),
    "nonlo": (),
}
HEAVY = {
    "freesearch": ("word", "gentorsion"),
    "normalform": ("amalgam", "tamed"),
    "nonlo": ("stallings", "casestudy", "magnus"),
}


class BenchError(Exception):
    pass


def _child(mode: str, workload: str, seed: int, amount, deadline: float) -> dict:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), mode, workload, str(seed), str(amount)]
    env["PERFBENCH_T0"] = repr(time.time())
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError(f"{workload} {mode} child ran out of time") from None
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"{workload} {mode} child exited with {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    setups = [_child("setup", workload, seed, 0, deadline) for _ in range(SETUP_SAMPLES - 1)]
    res = _child("measure", workload, seed, seconds, deadline)
    setups.append(res)
    metrics = e2e_metrics(setups, res)
    raw = e2e_metrics([dict(s, setup_unit_s=NOMINAL_S) for s in setups],
                      dict(res, unit_s=[NOMINAL_S] * len(res["unit_s"])))
    lat = scaled_latencies(res)
    attempted, failed = len(lat), len(res["failed"])
    notes = {
        "blocks": res["blocks"],
        "latency_samples": attempted,
        "samples_beyond_p90": sum(1 for x in lat if x * 1e3 > metrics["latency_p90_ms"][0]),
        "fail_ratio": failed / attempted,
        "kernel_ms_median": statistics.median(res["unit_s"]) * 1e3,
        "unscaled_setup_s": raw["setup_s"][0],
        "unscaled_ops_per_s": raw["ops_per_s"][0],
        "unscaled_p50_ms": raw["latency_p50_ms"][0],
        "unscaled_p90_ms": raw["latency_p90_ms"][0],
        "setup_samples_s": [s["setup_s"] for s in setups],
        "failed_ops": res["failed"],
    }
    return attempted, failed, metrics, notes, []


def scaled_latencies(res: dict) -> list:
    """Each op's latency scaled by the host speed measured around it."""
    return [t * NOMINAL_S / u for t, u in zip(res["latency_s"], res["unit_s"], strict=True)]


def e2e_metrics(setups: list, res: dict) -> dict:
    """The end-to-end metrics from set-up children and one measuring child."""
    lat = scaled_latencies(res)
    attempted, failed = len(lat), len(res["failed"])
    return {
        "setup_s": (statistics.median(s["setup_s"] * NOMINAL_S / s["setup_unit_s"]
                                      for s in setups), "s"),
        "ops_per_s": (attempted / sum(lat), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def _ratio(a, b):
    return a / b if b else 0.0


def per_layer(trace: dict, overhead: float) -> dict:
    """The per-layer metrics from one traced run; `_s` names are self time."""
    totals, counts = trace["totals"], trace["counts"]

    def calls(*names):
        return sum(totals.get(n, (0, 0.0))[0] for n in names)

    def self_s(*names):
        return sum(totals.get(n, (0, 0.0))[1] for n in names)

    layer = trace["layer_self_s"]
    fold_calls = calls("stallings:SubgroupAutomaton.__init__")
    trials = counts.get("suite_trials", 0)
    m = {
        "word.mul_calls": (calls("word:Word.__mul__"), "count"),
        "word.mul_s": (self_s("word:Word.__mul__"), "s"),
        "word.hash_calls": (calls("word:Word.__hash__", "word:Generator.__hash__"), "count"),
        "word.hash_s": (self_s("word:Word.__hash__", "word:Generator.__hash__"), "s"),
        "word.sort_key_s": (self_s("word:Word.sort_key", "word:Generator.sort_key"), "s"),
        "word.pow_calls": (calls("word:Word.__pow__"), "count"),
        "word.pow_s": (self_s("word:Word.__pow__"), "s"),
        "stallings.fold_calls": (fold_calls, "count"),
        "stallings.fold_s": (self_s("stallings:SubgroupAutomaton.__init__"), "s"),
        "stallings.fold_states": (counts.get("fold_states", 0), "count"),
        "stallings.fold_unique_ratio": (_ratio(trace["fold_unique"], fold_calls), "ratio"),
        "stallings.trace_calls": (calls("stallings:SubgroupAutomaton.trace"), "count"),
        "stallings.trace_letters": (counts.get("trace_letters", 0), "count"),
        "stallings.trace_s": (self_s("stallings:SubgroupAutomaton.trace",
                                     "stallings:SubgroupAutomaton.contains",
                                     "stallings:SubgroupAutomaton.step"), "s"),
        "stallings.prefix_calls": (calls("stallings:SubgroupAutomaton.prefix_acceptable"), "count"),
        "stallings.prefix_s": (self_s("stallings:SubgroupAutomaton.prefix_acceptable",
                                      "stallings:lambda_value", "stallings:rho_value"), "s"),
        "stallings.express_s": (self_s("stallings:SubgroupAutomaton.express",
                                       "stallings:SubgroupAutomaton.evaluate"), "s"),
        "amalgam.normalize_calls": (calls("amalgam:normalize"), "count"),
        "amalgam.normalize_s": (self_s("amalgam:normalize"), "s"),
        "amalgam.mul_calls": (calls("amalgam:AmalgamElement.__mul__"), "count"),
        "amalgam.mul_s": (self_s("amalgam:AmalgamElement.__mul__"), "s"),
        "amalgam.in_edge_calls": (calls("amalgam:FreeFactor.in_edge", "amalgam:FreeFactor.to_edge",
                                        "amalgam:AbelianFactor.in_edge",
                                        "amalgam:AbelianFactor.to_edge"), "count"),
        "amalgam.cancellation_s": (self_s("amalgam:cancellation_number"), "s"),
        "amalgam.pow_s": (self_s("amalgam:AmalgamElement.__pow__"), "s"),
        "tamed.sample_s": (self_s("tamed:TamedSampler.sample",
                                  "tamed:TamedSampler.raw_tuple"), "s"),
        "tamed.factorize_calls": (calls("tamed:delta_factorize"), "count"),
        "tamed.factorize_s": (self_s("tamed:delta_factorize"), "s"),
        "gentorsion.ball_s": (self_s("gentorsion:free_ball", "gentorsion:amalgam_conjugator_ball",
                                     "gentorsion:nss_ball", "gentorsion:nss_ball_free",
                                     "gentorsion:subgroup_product_ball"), "s"),
        "gentorsion.ball_elements": (counts.get("ball_elements", 0), "count"),
        "gentorsion.search_s": (self_s("gentorsion:search_gt", "gentorsion:check_rtf",
                                       "gentorsion:check_multimalnormal",
                                       "gentorsion:check_nss_intersection",
                                       "gentorsion:check_family"), "s"),
        "gentorsion.search_nodes": (counts.get("search_nodes", 0), "count"),
        "gentorsion.decided_ratio": (_ratio(counts.get("searches_decided", 0),
                                            counts.get("searches", 0)), "ratio"),
        "gentorsion.verify_s": (self_s("gentorsion:verify_gt_certificate",
                                       "gentorsion:verify_ncl_witness"), "s"),
        "magnus.mu_calls": (calls("magnus:mu"), "count"),
        "magnus.mu_s": (self_s("magnus:mu"), "s"),
        "magnus.series_mul_calls": (calls("magnus:TruncatedSeries.__mul__"), "count"),
        "magnus.series_mul_s": (self_s("magnus:TruncatedSeries.__mul__"), "s"),
        "magnus.leading_s": (self_s("magnus:leading_term"), "s"),
        "magnus.annihilates_s": (self_s("magnus:annihilates"), "s"),
        "casestudy.build_s": (self_s("casestudy:build_nonlo", "casestudy:sample_exponents",
                                     "casestudy:generator_words",
                                     "casestudy:validate_exponent_matrix",
                                     "casestudy:CSubgroup.from_matrix",
                                     "casestudy:NonLoGroup.from_json"), "s"),
        "casestudy.standard_form_s": (self_s("casestudy:standard_form"), "s"),
        "casestudy.simplify_s": (self_s("casestudy:c_simplify"), "s"),
        "casestudy.prefix_s": (self_s("casestudy:CSubgroup.prefix", "casestudy:CSubgroup.lam",
                                      "casestudy:CSubgroup.rho",
                                      "casestudy:CSubgroup.is_left_simplified",
                                      "casestudy:CSubgroup.is_right_simplified",
                                      "casestudy:CSubgroup.in_left_prefix_set"), "s"),
        "suites.trials": (trials, "count"),
        "suites.skip_ratio": (_ratio(counts.get("suite_skips", 0), trials), "ratio"),
        "cli.calls": (calls("cli:main"), "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
        "trace.spans": (trace["spans"], "count"),
    }
    for name in LAYERS:
        m[f"{name}.self_s"] = (layer[name], "s")
    return m


def coverage_problems(workload: str, trace: dict) -> list:
    """Layer-coverage self-check on a traced run; empty when it passes."""
    problems = []
    for layer in FORBIDDEN[workload]:
        n = trace["layer_calls"][layer]
        if n:
            problems.append(f"{workload} made {n} calls into {layer}")
    layer_self = trace["layer_self_s"]
    heavy = sum(layer_self[x] for x in HEAVY[workload])
    for layer, s in layer_self.items():
        if layer not in HEAVY[workload] and s >= heavy:
            problems.append(f"{workload}: {layer} self time {s:.3f}s is not below "
                            f"{'+'.join(HEAVY[workload])} {heavy:.3f}s")
    return problems


def traced(workload: str, seed: int, deadline: float):
    trace = _child("trace", workload, seed, 0, deadline)
    replay = _child("replay", workload, seed, trace["blocks"], deadline)
    overhead = sum(trace["latency_s"]) / sum(replay["latency_s"])
    attempted = len(trace["latency_s"]) + len(replay["latency_s"])
    failed = len(trace["failed"]) + len(replay["failed"])
    notes = {
        "blocks": trace["blocks"],
        "traced_op_s": sum(trace["latency_s"]),
        "untraced_op_s": sum(replay["latency_s"]),
        "layer_self_share": {k: v / sum(trace["layer_self_s"].values())
                             for k, v in trace["layer_self_s"].items()},
        "spans_file": trace["spans_file"],
        "failed_ops": trace["failed"] + replay["failed"],
    }
    return attempted, failed, per_layer(trace, overhead), notes, coverage_problems(workload, trace)


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu}


def run_one(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> dict:
    if trace:
        attempted, failed, metrics, notes, problems = traced(workload, seed, deadline)
    else:
        attempted, failed, metrics, notes, problems = end_to_end(workload, seed, seconds, deadline)
    print(f"== {workload} seed={seed} trace={int(trace)} blocks={notes['blocks']} "
          f"ops={attempted} failed={failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    for key in ("latency_samples", "samples_beyond_p90", "fail_ratio", "kernel_ms_median",
                "unscaled_setup_s", "unscaled_ops_per_s", "unscaled_p50_ms", "unscaled_p90_ms",
                "traced_op_s", "untraced_op_s"):
        if key in notes:
            print(f"  {key:28s} {notes[key]:14.6g}")
    for problem in problems:
        print(f"  coverage check FAILED: {problem}")
    for desc in notes["failed_ops"][:10]:
        print(f"  failed op: {desc}")
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine(), "attempted": attempted, "failed": failed,
        "coverage_problems": problems, "notes": notes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    out_dir = os.path.join(ROOT, ".perfbench", "results")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"{workload}-seed{seed}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "gtkit", "__init__.py")):
        print("error: run from the root of a gtkit checkout (no src/gtkit here)",
              file=sys.stderr)
        return 2
    start = time.monotonic()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    m = machine()
    print(f"# python {m['python']}, nproc {m['nproc']}, cpu {m['cpu']}")
    records = []
    try:
        for i, name in enumerate(names):
            records.append(run_one(name, args.seed, args.seconds, bool(args.trace),
                                   start + CHILD_TIMEOUT_S * (i + 1)))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    result = {
        "correct": all(r["failed"] == 0 and not r["coverage_problems"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
