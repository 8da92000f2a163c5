"""Seeded end-to-end and per-layer benchmark for groupwalk.

    python3 perfbench/run.py --workload construct --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout.  One invocation measures one workload
for --seconds: it starts runs one after another (a closed loop with one
client), each a fresh single-threaded interpreter (child.py) that sets
up from (seed, run index), runs the workload's job list once with cold
module caches, and checks every report.  It stops starting runs when
the next one would end past --seconds, after at least MIN_RUNS runs;
set-up-only runs then bring the timed set-ups to MIN_SETUPS.

--trace 0 reports the end-to-end metrics: medians over runs, with job
latencies pooled over all runs.  --trace 1 alternates traced and
untraced runs and reports the per-layer metrics from the traced ones,
plus the tracing overhead (median traced run_s minus median untraced).

The last line of standard output is the result object; the line before
it is the full report (seed, workload rationale, quartiles, sample
counts, failures by kind).  Both are also written, with the traced spans
of the first traced run, under .perfbench/ in the checkout.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from tracing import EXTRA_NAMES, TARGETS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MIN_RUNS = 3
MIN_SETUPS = 9
RUN_TIMEOUT_S = 150  # one run; the whole invocation must end within 180 s

END_TO_END = {
    "run_s": "s",
    "cpu_s": "s",
    "setup_s": "s",
    "job_p50_s": "s",
    "job_p90_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# name -> (source in the run's layer totals, index: 0 calls, 1 seconds, 2 self seconds)
PER_LAYER = {}
for _module, _attr, _how in TARGETS:
    _name = f"{_module}.{_attr}"
    PER_LAYER[f"{_name}.calls"] = (_name, 0, "count")
    if _how == "span":
        PER_LAYER[f"{_name}.s"] = (_name, 1, "s")
        PER_LAYER[f"{_name}.self_s"] = (_name, 2, "s")
for _name in EXTRA_NAMES:
    PER_LAYER[_name] = (_name, 0, "count")
PER_LAYER["cli.report_bytes"] = (None, None, "bytes")
PER_LAYER["tracing.overhead_s"] = (None, None, "s")


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def _summary(values, unit):
    q1, med, q3 = _quartiles(values)
    return {"value": med, "unit": unit, "q1": q1, "q3": q3, "samples": len(values)}


def _spawn(args, root, workdir, i, flags):
    """One child run; returns its result."""
    tmp = os.path.join(workdir, f"run-{i}")
    os.makedirs(tmp)
    result_path = os.path.join(workdir, f"run-{i}.json")
    # each run draws its own inputs from (seed, run), so the medians of one
    # invocation average over several draws; a traced run and the untraced
    # run after it share theirs
    run = i // 2 if args.trace == 1 else i
    cmd = ["--workload", args.workload, "--seed", str(args.seed), "--run", str(run),
           "--tmp", tmp, "--result", result_path] + flags
    if args.small:
        cmd.append("--small")
    env = dict(os.environ, PYTHONHASHSEED="0")
    t0 = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "child.py"), "--spawned", repr(t0)] + cmd
    proc = subprocess.run(cmd, cwd=root, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"run {i} exited {proc.returncode}: {proc.stderr[-2000:]}")
    with open(result_path) as fh:
        result = json.load(fh)
    shutil.rmtree(tmp)
    result["wall_s"] = time.monotonic() - t0
    return result


def run_children(args, root, workdir):
    """Closed loop of fresh runs, then set-up-only runs until MIN_SETUPS
    set-ups are timed; returns (run results, set-up results)."""
    results = []
    t_start = time.monotonic()
    while True:
        flags = []
        if args.trace == 1 and len(results) % 2 == 0:
            flags.append("--trace")
            if not any(r["traced"] for r in results):
                flags += ["--spans", os.path.join(
                    args.out_dir, f"{args.workload}-seed{args.seed}-spans.json")]
        results.append(_spawn(args, root, workdir, len(results), flags))
        elapsed = time.monotonic() - t_start
        enough = len(results) >= (1 if args.small else MIN_RUNS)
        if args.trace == 1:
            enough = enough and any(not r["traced"] for r in results)
        if enough and elapsed + statistics.median(r["wall_s"] for r in results) > args.seconds:
            break
    setups = list(results)
    while args.trace == 0 and not args.small and len(setups) < MIN_SETUPS:
        setups.append(_spawn(args, root, workdir, len(setups), ["--setup-only"]))
    return results, setups


def end_to_end(results, setups):
    """Medians over runs; job latencies pooled.  Times are the runs' scaled
    seconds (see child.REFERENCE_S); job latencies are CPU seconds."""
    jobs = [t for r in results for t in r["job_cpu_s"]]
    p = statistics.quantiles(jobs, n=10, method="inclusive") if len(jobs) > 1 else jobs * 9
    out = {name: _summary([r[name] for r in results], END_TO_END[name])
           for name in ("run_s", "cpu_s", "peak_rss_mb")}
    out["setup_s"] = _summary([r["setup_s"] for r in setups], "s")
    out["job_p50_s"] = {"value": statistics.median(jobs), "unit": "s", "samples": len(jobs)}
    out["job_p90_s"] = {"value": p[8], "unit": "s", "samples": len(jobs)}
    out["work_per_s"] = _summary([r["work"] / r["run_s"] for r in results], "1/s")
    return out


def _medians(results, key):
    """Medians over runs of the run results' `key` dict."""
    return {name: statistics.median(r[key][name] for r in results) for name in results[0][key]}


def per_layer(results):
    traced = [r for r in results if r["traced"]]
    plain = [r for r in results if not r["traced"]]
    out = {}
    for name, (source, index, unit) in PER_LAYER.items():
        if name == "cli.report_bytes":
            values = [r["report_bytes"] for r in traced]
        elif name == "tracing.overhead_s":
            overhead = (statistics.median(r["run_s"] for r in traced)
                        - statistics.median(r["run_s"] for r in plain))
            out[name] = {"value": overhead, "unit": unit, "samples": len(traced),
                         "untraced_samples": len(plain)}
            continue
        else:
            values = [r["layers"][source][index] for r in traced]
        out[name] = _summary(values, unit)
    return out


def measure(args, root):
    workload = WORKLOADS[args.workload]
    workdir = os.path.join(args.out_dir, f"tmp-{os.getpid()}")
    os.makedirs(workdir)
    try:
        results, setups = run_children(args, root, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics = per_layer(results) if args.trace else end_to_end(results, setups)
    attempted = sum(r["attempted"] for r in results)
    failures = [f for r in results for f in r["failures"]]
    problems = [p for r in results for p in r["problems"]]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": workload.why,
        "stresses": workload.stresses,
        "bypasses": workload.bypasses,
        "work_unit": workload.work_unit,
        "runs": len(results),
        "jobs_per_run": results[0]["attempted"],
        "fail_ratio": {"value": len(failures) / attempted, "unit": "ratio",
                       "samples": attempted},
        "failures_by_kind": Counter(f"{f['label']}: {f['kind']}" for f in failures),
        "failure_messages": sorted({f"{f['label']}: {f['message']}" for f in failures}),
        "problems": problems,
        "metrics": metrics,
        "unscaled": dict(_medians(results, "unscaled"),
                         setup_s=statistics.median(r["unscaled"]["setup_s"] for r in setups)),
        "reference": _medians(results, "reference"),
    }
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }
    stem = os.path.join(args.out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    with open(stem + ".json", "w") as fh:
        per_job = results[0].get("per_job") if args.trace else None
        json.dump({"report": report, "result": result, "per_job": per_job}, fh, indent=1)
    return report, result


def smoke(args, root):
    """Every workload at its smallest size, traced and untraced; checks that
    each metric named in BENCHMARK.json is present with its unit."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ok = True
    for name in WORKLOADS:
        for trace, wanted in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            sub = argparse.Namespace(workload=name, seed=args.seed, seconds=0, trace=trace,
                                     small=True, out_dir=args.out_dir)
            _, result = measure(sub, root)
            missing = [m["name"] for m in wanted
                       if result["metrics"].get(m["name"], {}).get("unit") != m["unit"]]
            extra = set(result["metrics"]) - {m["name"] for m in wanted}
            good = result["correct"] and not missing and not extra
            ok = ok and good
            print(f"smoke {name} trace={trace}: {'ok' if good else 'FAILED'} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"missing={missing} extra={sorted(extra)}")
    return 0 if ok else 1


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    args = p.parse_args(argv)
    root = os.getcwd()
    for needed in ("src/groupwalk/cli.py", "tests/oracles.py"):
        if not os.path.exists(os.path.join(root, needed)):
            sys.stderr.write(f"perfbench: {needed} not found; run from a groupwalk checkout\n")
            return 2
    args.out_dir = os.path.join(root, ".perfbench")
    args.small = False
    os.makedirs(args.out_dir, exist_ok=True)
    if args.smoke:
        return smoke(args, root)
    if args.workload is None:
        p.error("--workload is required unless --smoke is given")
    report, result = measure(args, root)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
