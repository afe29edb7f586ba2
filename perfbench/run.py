"""Benchmark of the kprime engine through its `kpi` command line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload genpi|testpi|sat --seed N \
        --seconds S --trace 0|1

Each job is one `kpi` argv (see jobs.py) run in process through
kprime.cli.main with stdout captured. Every job runs in its own forked
child, one child at a time, so each starts as cold as a fresh `kpi`
process. The children are forked by a child that the parent forks right
after importing kprime, before it builds jobs or keeps results (see
isolate.Forker), so a job's peak RSS is that of a process that has
imported kprime and the benchmark's own modules, plus the job. A job
that runs past JOB_LIMIT_S is killed and counted as failed.

A run makes one reference pass, whose outputs go through the correctness
gate in oracle.py outside the timed region, then repeats timed passes
over the same jobs for --seconds. Later passes must print exactly what
the reference pass printed, and the reference pass must print exactly
what the digests in digests.json record for every job.

The speed of a shared machine drifts by a third over tens of seconds, and
the program's times drift with it. Between passes the parent therefore
times a fixed arithmetic loop, and every time a pass measured is scaled
by REFERENCE_LOOP_S over the loop's time around that pass: reported
times are wall times at the speed where the loop takes REFERENCE_LOOP_S.
The same is done around the set-up runs. Unscaled figures go to stderr.

With --trace 0 the last stdout line reports the end-to-end metrics:
  setup_s         median wall time of a fresh interpreter importing
                  kprime.cli and running `kpi sat -e a`
  pass_s          median over passes of the summed job times
  job_geomean_ms  geometric mean over jobs of each job's median time
  job_max_ms      the largest median job time
  peak_rss_mb     the largest median peak RSS of a job's process
  ok_share        share of job runs that completed with the expected
                  exit code within the limit (1 - failed share; the
                  failed share itself is 0 at the seed)
With --trace 1, traced passes alternate with untraced ones and the line
reports per-layer self time and work counters (see layertrace.py), plus
trace_overhead, the traced pass_s over the untraced one. The counters of
every traced pass must be identical.
"""

import argparse
import io
import json
import math
import os
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import isolate
import layertrace

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

JOB_LIMIT_S = 30.0
SETUP_RUNS = 21
CALIB_LOOPS = 300_000
REFERENCE_LOOP_S = 0.025
SETUP_CODE = ("import sys\n"
              "import kprime.cli\n"
              "sys.exit(kprime.cli.main(['sat', '-e', 'a']))\n")


def load_program():
    if not os.path.isfile(os.path.join(SRC, "kprime", "cli.py")):
        sys.exit("perfbench: no kprime sources under %s" % SRC)
    sys.path.insert(0, SRC)
    import kprime.cli
    if not os.path.abspath(kprime.cli.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: imported kprime from %s, not from %s"
                 % (kprime.cli.__file__, SRC))
    return kprime.cli


def loop_time():
    """Seconds the calibration loop takes now, the best of three tries."""
    best = math.inf
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(CALIB_LOOPS):
            total += i * i % 7
        best = min(best, time.perf_counter() - t0)
    return best


def measure_setup():
    """Median wall time of fresh interpreters starting kpi on a trivial
    input, unscaled and scaled to the reference speed."""
    env = dict(os.environ, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", SETUP_CODE]
    before = loop_time()
    times = []
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        done = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                              text=True, timeout=60)
        spent = time.perf_counter() - t0
        if done.returncode != 0 or done.stdout != "sat\n":
            raise RuntimeError("set-up run failed: %r" % (done,))
        if i:  # the first run may compile bytecode
            times.append(spent)
    raw = statistics.median(times)
    return raw, raw * REFERENCE_LOOP_S / statistics.fmean((before, loop_time()))


def job_forker(cli):
    """The Forker that runs jobs: forker.run(argv, traced) runs one job."""
    return isolate.Forker(lambda argv, traced: _run_job(cli, argv, traced), JOB_LIMIT_S)


def _run_job(cli, argv, traced):
    tracer = None
    if traced:
        tracer = layertrace.Tracer()
        layertrace.install(tracer)
    out, err = io.StringIO(), io.StringIO()
    raised = None
    code = None
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            if traced:
                code = tracer.call("cli", cli.main, argv)
            else:
                code = cli.main(argv)
        except Exception as exc:
            raised = repr(exc)
        spent = time.perf_counter() - t0
    row = {"s": spent, "code": code, "out": out.getvalue(), "err": err.getvalue(),
           "raised": raised}
    if traced:
        row["self_ns"] = tracer.self_ns
        row["counters"] = tracer.counters()
    return row


class Bench:
    def __init__(self, forker, jobs):
        self.forker = forker
        self.jobs = jobs
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None

    def run_pass(self, traced=False):
        """Run every job once; returns one row per job."""
        rows = []
        for job in self.jobs:
            t0 = time.perf_counter()
            got = self.forker.run(job["argv"], traced)
            self.attempted += 1
            row = got.value if got.status == "ok" else None
            if row is None or row["raised"] is not None or row["code"] != job["code"]:
                self.failed += 1
                reason = (got.status if row is None else row["raised"]
                          or "exit %s: %s" % (row["code"], row["err"].strip()))
                print("perfbench: job %r failed: %s" % (job["name"], reason), file=sys.stderr)
            if row is None:
                row = {"s": time.perf_counter() - t0, "code": None, "out": None}
            row["rss_mb"] = got.maxrss_mb
            rows.append(row)
        outputs = [None if r["code"] is None else (r["code"], r["out"]) for r in rows]
        if self.reference is None:
            self.reference = outputs
        else:
            for job, now, ref in zip(self.jobs, outputs, self.reference):
                if now is not None and ref is not None and now != ref:
                    self.problems.append("%s: output changed between passes" % job["name"])
        for row in rows:
            row.pop("out")
            row.pop("err", None)
        return rows

    def gate(self, digests):
        """Run the correctness gate on the reference pass, in a child."""
        import oracle
        got = isolate.run_forked(
            lambda: oracle.check(self.jobs, self.reference, digests), 120)
        if got.status != "ok":
            self.problems.append("correctness gate did not complete: %s" % got.status)
            return
        self.problems += got.value
        print("perfbench: %d jobs checked, each against its oracle and its recorded digest"
              % len(self.jobs), file=sys.stderr)


def scaled(passes):
    """Each pass's rows with times scaled to the reference speed."""
    out = []
    for scale, rows in passes:
        out.append([dict(r, s=r["s"] * scale,
                         self_ns={k: v * scale for k, v in r.get("self_ns", {}).items()})
                    for r in rows])
    return out


def _median_per_job(passes, key):
    return [statistics.median(p[i][key] for p in passes)
            for i in range(len(passes[0]))]


def _pass_s(passes):
    return statistics.median(sum(r["s"] for r in p) for p in passes)


def end_to_end(bench, passes, setup_s):
    times = _median_per_job(passes, "s")
    rss = _median_per_job(passes, "rss_mb")
    return {
        "setup_s": (setup_s, "s"),
        "pass_s": (_pass_s(passes), "s"),
        "job_geomean_ms": (1000 * math.exp(statistics.fmean(math.log(t) for t in times)), "ms"),
        "job_max_ms": (1000 * max(times), "ms"),
        "peak_rss_mb": (max(rss), "MB"),
        "ok_share": ((bench.attempted - bench.failed) / bench.attempted, "share"),
    }


def per_layer(bench, plain, traced):
    counters = [_summed(p, "counters") for p in traced]
    if any(c != counters[0] for c in counters):
        bench.problems.append("work counters differ between traced passes")
    c = counters[0]
    out = {}
    for layer in layertrace.LAYERS:
        self_s = statistics.median(sum(r["self_ns"].get(layer, 0) for r in p)
                                   for p in traced) / 1e9
        out[layer + ".self_s"] = (self_s, "s")
    for name, value in c.items():
        out[name] = (value, "count")
    cand = c["generate.candidates"]
    out["generate.survivor_ratio"] = (c["generate.survivors"] / cand if cand else 0.0, "ratio")
    out["generate.comparisons_per_candidate"] = (
        c["decision.clause_entails_fast.calls"] / cand if cand else 0.0, "ratio")
    out["trace_overhead"] = (_pass_s(traced) / _pass_s(plain), "ratio")
    _report_jobs(bench, traced[0])
    return out


def _summed(rows, key):
    total = {}
    for r in rows:
        for name, value in r.get(key, {}).items():
            total[name] = total.get(name, 0) + value
    return total


def _report_jobs(bench, rows):
    order = sorted(range(len(rows)), key=lambda i: -rows[i]["s"])
    print("perfbench: slowest traced jobs and their nonzero counters", file=sys.stderr)
    for i in order[:8]:
        nonzero = {k: v for k, v in rows[i].get("counters", {}).items() if v}
        print("  %-32s %8.1f ms  %s" % (bench.jobs[i]["name"], 1000 * rows[i]["s"],
                                        json.dumps(nonzero)), file=sys.stderr)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    forker = job_forker(load_program())
    try:
        measure(ap, args, forker)
    finally:
        forker.close()


def measure(ap, args, forker):
    import jobs as workloads
    import oracle
    if args.workload not in workloads.WORKLOADS:
        ap.error("unknown workload %r; choose from %s"
                 % (args.workload, ", ".join(workloads.WORKLOADS)))
    setup = None if args.trace else measure_setup()
    built = isolate.run_forked(lambda: workloads.build(args.workload, args.seed), 120)
    if built.status != "ok":
        sys.exit("perfbench: building the %s jobs failed: %s" % (args.workload, built.status))
    bench = Bench(forker, built.value)
    bench.run_pass()
    bench.gate(oracle.load_digests())

    # (scale, rows) per timed pass; plain and traced passes alternate
    # under --trace 1
    plain, traced = [], []
    kinds = ((plain, False), (traced, True)) if args.trace else ((plain, False),)
    loops = [loop_time()]
    t0 = time.monotonic()
    while True:
        for passes, is_traced in kinds:
            rows = bench.run_pass(traced=is_traced)
            loops.append(loop_time())
            passes.append((REFERENCE_LOOP_S / statistics.fmean(loops[-2:]), rows))
        if (len(traced) >= 2 or not args.trace) and time.monotonic() - t0 >= args.seconds:
            break

    if args.trace:
        metrics = per_layer(bench, scaled(plain), scaled(traced))
    else:
        metrics = end_to_end(bench, scaled(plain), setup[1])
        print("perfbench: unscaled setup_s %.6f, pass_s %.6f; loop %.2f to %.2f ms"
              % (setup[0], _pass_s([rows for _, rows in plain]),
                 1000 * min(loops), 1000 * max(loops)), file=sys.stderr)
    for problem in bench.problems:
        print("perfbench: INCORRECT %s" % problem, file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print("  %-40s %14.6f %s" % (name, value, unit), file=sys.stderr)
    print("perfbench: %s seed %d, %d timed passes, %d job runs, %d failed"
          % (args.workload, args.seed, len(plain) + len(traced), bench.attempted,
             bench.failed), file=sys.stderr)
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
