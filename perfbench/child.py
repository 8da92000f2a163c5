"""One run of one workload, in a fresh single-threaded interpreter.

Started by run.py, never imported.  Set-up (import, seeded inputs, spec
and oracle files) runs first; the timed region runs the job list once in
a closed loop with one client; checks read the reports afterwards.  A
fixed reference loop, timed (wall and CPU) between jobs and every 25 ms
inside them (its own time taken back out), measures how fast the shared
machine runs at each moment.  The result goes to the JSON file named by --result.

    python3 perfbench/child.py --workload tree --seed 1 --run 0 \
        --spawned <monotonic> --tmp DIR --result FILE [--trace] [--small] [--spans FILE]
        [--setup-only]

The inputs are drawn from (seed, run).
"""

import argparse
import contextlib
import io
import json
import os
import random
import resource
import signal
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def _args():
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--run", type=int, default=0)
    p.add_argument("--spawned", type=float, required=True)
    p.add_argument("--tmp", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--small", action="store_true")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--spans")
    return p.parse_args()


class Checker:
    """What the output checks of one run share."""

    def __init__(self, gw, oracles, key):
        self.gw = gw
        self.oracles = oracles
        self.rng = random.Random(f"check:{key}")
        self.cache = {}


# On a 2-core VM shared with other tenants, speed was seen to drift by up
# to 70% over tens of seconds, more than any bound.  Each job's wall time is
# therefore multiplied by REFERENCE_S / (median wall time of reference_loop
# sampled during and just around that job), and its CPU time likewise by
# the reference loop's CPU time: seconds at the speed where the reference
# loop takes REFERENCE_S, its median on that VM when unloaded.
REFERENCE_S = 0.00085


def reference_loop():
    """Fixed pure-Python work of the program's kind (dict updates, int
    arithmetic) that allocates no tracked objects, so the garbage collector
    and the size of the program's heap do not change its time."""
    d = {}
    for i in range(3000):
        k = (i % 977) * 16 + (i & 15)
        d[k] = d.get(k, 0) + i
    return len(d)


class Speedometer:
    """Samples the wall and CPU time of reference_loop between jobs and,
    while `start`ed, every INTERVAL_S inside them from a SIGALRM handler.
    `spent_wall` and `spent_cpu` are the handler's own times, which the
    interrupted job's timings give back."""

    INTERVAL_S = 0.025

    def __init__(self):
        self.samples = []  # (monotonic time, wall seconds, CPU seconds)
        self.spent_wall = 0.0
        self.spent_cpu = 0.0
        self._busy = False

    def sample(self):
        self._busy = True
        t0, c0 = time.perf_counter(), time.process_time()
        reference_loop()
        self.samples.append((time.monotonic(), time.perf_counter() - t0,
                             time.process_time() - c0))
        self._busy = False

    def _on_alarm(self, signum, frame):
        if not self._busy:
            t0, c0 = time.monotonic(), time.process_time()
            self.sample()
            self.spent_wall += time.monotonic() - t0
            self.spent_cpu += time.process_time() - c0

    def start(self):
        signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def scales(self, start, end):
        """REFERENCE_S over the median wall and the median CPU sample taken
        within 0.1 s of [start, end]."""
        window = [s for s in self.samples if start - 0.1 <= s[0] <= end + 0.1]
        return (REFERENCE_S / statistics.median(s[1] for s in window),
                REFERENCE_S / statistics.median(s[2] for s in window))


def run_job(gw, job, out_path):
    """Returns (failure kind or None, error text)."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            if job.call is not None:
                job.call()
                return None, ""
            rc = gw.cli.main(job.argv + ["--out", out_path])
    except SystemExit as exc:  # argparse usage errors
        rc = exc.code if isinstance(exc.code, int) else 2
    except gw.errors.GroupwalkError as exc:
        return type(exc).__name__, str(exc)
    if rc == 0:
        return None, ""
    if rc == 3 and _typed_shortage(out_path):
        return None, ""
    return f"exit {rc}", err.getvalue().strip()


def _typed_shortage(out_path):
    """Exit 3 with a needs_oracle / oracle_exhausted verdict is a typed result."""
    try:
        with open(out_path) as fh:
            text = fh.read()
    except FileNotFoundError:
        return False
    return "verdict: needs_oracle" in text or "predictor: oracle_exhausted" in text


def main():
    args = _args()
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import groupwalk as gw
    import groupwalk.cli  # noqa: F401
    from workloads import WORKLOADS
    import tracing

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(gw)
        tracer.enabled = True
    key = f"{args.seed}:{args.run}"
    rng = random.Random(f"{args.workload}:{key}")
    jobs = workload.plan(rng, gw, args.tmp, args.small)
    outs = [os.path.join(args.tmp, f"job-{i}.txt") for i in range(len(jobs))]

    clock = time.monotonic
    speed = Speedometer()
    t_first = clock()
    speed.sample()  # taken before any job, this one sample scales the set-up
    setup = {"setup_s": (t_first - args.spawned) * REFERENCE_S / speed.samples[0][1],
             "unscaled": {"setup_s": t_first - args.spawned}}
    if args.setup_only:
        with open(args.result, "w") as fh:
            json.dump(setup, fh)
        return
    walls, cpus, intervals, failures, per_job = [], [], [], [], []
    if not tracer:  # a handler inside traced calls would count in their spans
        speed.start()
    for i, job in enumerate(jobs):
        speed.sample()
        if tracer:
            tracer.job = i
            before = tracer.snapshot()
        spent_wall, spent_cpu = speed.spent_wall, speed.spent_cpu
        t0, c0 = clock(), time.process_time()
        kind, message = run_job(gw, job, outs[i])
        t1, c1 = clock(), time.process_time()
        walls.append(t1 - t0 - (speed.spent_wall - spent_wall))
        cpus.append(c1 - c0 - (speed.spent_cpu - spent_cpu))
        intervals.append((t0, t1))
        if kind is not None:
            failures.append({"job": i, "label": job.label, "kind": kind, "message": message})
        if tracer:
            per_job.append({"job": i, "label": job.label,
                            "layers": tracing.per_job_delta(before, tracer.snapshot())})
    speed.stop()
    speed.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer:
        tracer.enabled = False

    sys.path.insert(0, os.path.join(ROOT, "tests"))
    import oracles

    # Every report is checked, a failed job's too: a wrong answer fails
    # the run and is not counted as a job failure.
    checker = Checker(gw, oracles, key)
    failed = {f["job"] for f in failures}
    problems, wrong, work, report_bytes = [], set(), 0, 0
    for i, job in enumerate(jobs):
        report = ""
        if job.argv is not None and os.path.exists(outs[i]):
            report_bytes += os.path.getsize(outs[i])
            with open(outs[i]) as fh:
                report = fh.read()
        if i in failed and not report:
            continue  # no answer to check
        found = workload.check(job, report, checker)
        if found:
            problems += found
            wrong.add(i)
        elif i not in failed:
            work += workload.units(job, report)
    failures = [f for f in failures if f["job"] not in wrong]

    scales = [speed.scales(t0, t1) for t0, t1 in intervals]
    job_cpu_s = [t * k for t, (_, k) in zip(cpus, scales)]
    result = {
        "setup_s": setup["setup_s"],
        "run_s": sum(t * k for t, (k, _) in zip(walls, scales)),
        "cpu_s": sum(job_cpu_s),
        "peak_rss_mb": peak_rss_mb,
        "job_cpu_s": job_cpu_s,
        "unscaled": dict(setup["unscaled"], run_s=sum(walls), cpu_s=sum(cpus)),
        "reference": {"wall_s": statistics.median(s[1] for s in speed.samples),
                      "cpu_s": statistics.median(s[2] for s in speed.samples)},
        "work": work,
        "attempted": len(jobs),
        "failures": failures,
        "problems": problems,
        "report_bytes": report_bytes,
        "traced": bool(tracer),
    }
    if tracer:
        result["layers"] = tracer.snapshot()
        result["per_job"] = per_job
        if args.spans:
            tracer.write_spans(args.spans)
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
