#!/usr/bin/env python3
"""The repository benchmark: one command, three workloads.

    python3 perfbench/run.py --workload slack-fft|spec-fft|serve-sweep \
        --seed N --seconds S --trace 0|1

Builds the simulator and the load generator (perfbench_driver) from
source into $CARGO_TARGET_DIR (default .bench_build), runs the workload
for S seconds, checks every operation against the committed CC oracle
(perfbench/oracle.json) or the job's own report, and prints one JSON
object as the last stdout line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
(a separate, traced run). Every result is also written, stamped with
the host shape, to .perfbench_out/results/.

Other modes:
    --selftest          tiny inputs, every workload once, asserts every
                        metric is present with its unit and that a wrong
                        oracle value and a killed sweep job both count as
                        failed operations
    --compare A B       compare two result files, refusing when their
                        host shapes differ
    --record-oracle     re-measure the serial CC oracle into oracle.json

See METHODOLOGY.md for what each workload and metric means.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(os.getcwd(), ".perfbench_out")

NPROC = len(os.sched_getaffinity(0))
HOST_THREADS = min(4, NPROC)

# Workload sizes (METHODOLOGY.md, "Sizing").
SLACK_FFT_POINTS = 65536   # the paper's FFT input, about 7.8M uops
SPEC_FFT_POINTS = 4096     # see METHODOLOGY.md for why not 64K
SWEEP_UOPS = 200000        # per barnes job
SWEEP_MIN_JOBS = 100

# |core.exec_err_pct| above this fails a slack-fft operation. Measured
# spread on a 4-CPU host: +0.2% .. +2.5% (METHODOLOGY.md, "Oracle").
SLACK_ERR_TOL_PCT = 5.0

# Host speed drifts by tens of percent over seconds to minutes on a
# shared host, even in CPU time (METHODOLOGY.md, "Why CPU time"). A
# run's engine rate and set-up time are therefore its fastest decile of
# operations, not their median.
FAST_PCT = 90

OP_DEADLINE_S = 60         # one engine operation
SWEEP_DEADLINE_S = 120     # one sweep beyond its --seconds
# No operation may run past this many seconds after measuring starts,
# so a run that hangs still exits well within 180 s.
RUN_BUDGET_S = 170
budget_end = None          # monotonic time; None = no budget

ORACLE_KEYS = ["exec_cycles", "committed_uops", "bus_requests",
               "l1d_misses", "l2_hits", "l2_misses"]

PHASES = ["simulate", "queue-push", "wait-for-slack", "wait-inbound",
          "checkpoint", "rollback-replay", "other"]
SERVE_STAGES = ["submit_rtt_ms", "queue_ms", "launch_ms", "run_ms",
                "engine_ms", "isolation_ms", "delivery_ms"]

WORKLOADS = ["slack-fft", "spec-fft", "serve-sweep"]

# Every workload reports every end-to-end metric. They count host CPU
# time, not wall time: on a shared host the wall clock measures the
# other tenants (METHODOLOGY.md, "Why CPU time"). The wall-clock
# figures a user waits on are per-layer metrics.
END_TO_END = [("sim_uops_per_cpu_s", "uops/cpu-s"), ("setup_s", "s"),
              ("peak_rss_mb", "MiB")]

PER_LAYER = (
    [("sim_uops_per_s", "uops/s"), ("jobs_per_min", "jobs/min"),
     ("job_latency_p50_ms", "ms"), ("job_latency_p90_ms", "ms"),
     ("workload.gen_s", "s"), ("workload.trace_uops", "uops"),
     ("core.build_s", "s"), ("core.run_s", "s"),
     ("core.events_per_s", "events/s"),
     ("core.host_threads_used", "threads"),
     ("core.speedup_vs_ht1", "x"),
     ("core.manager_wakeups", "count"),
     ("core.core_park_events", "count"),
     ("core.max_observed_slack", "cycles"),
     ("core.checkpoint_s", "s"), ("core.checkpoint_async_s", "s"),
     ("core.checkpoints", "count"), ("core.checkpoint_bytes", "B"),
     ("core.rollbacks", "count"), ("core.wasted_cycles", "cycles"),
     ("core.replay_cycles", "cycles"),
     ("core.useful_cycle_ratio", "ratio"),
     ("core.exec_err_pct", "%")]
    + [("core.phase.%s_pct" % p, "%") for p in PHASES]
    + [("cpu.ipc", "uops/cycle"),
       ("cache.l1d_accesses", "count"), ("cache.l1d_miss_rate", "ratio"),
       ("uncore.bus_requests", "count"),
       ("uncore.bus_queueing_cycles", "cycles"),
       ("uncore.l2_miss_rate", "ratio"),
       ("uncore.bus_violations", "count"),
       ("uncore.map_violations", "count"),
       ("uncore.violations_per_kcycle", "1/kcycle"),
       ("obs.report_write_ms", "ms"), ("obs.trace_overhead_pct", "%"),
       ("serve.daemon_start_s", "s")]
    + [("serve.%s_%s" % (s, q), "ms")
       for s in SERVE_STAGES for q in ("p50", "p90")]
)


def log(*args):
    print(*args, flush=True)


def fail_setup(msg):
    """Exit non-zero without printing a result line."""
    sys.stderr.write("perfbench: %s\n" % msg)
    sys.exit(2)


# ------------------------------------------------------------------ build

def build_dir():
    return os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                        "perfbench")


def ensure_built():
    """Configure once, then build the driver and the daemon."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail_setup("simulator sources not found next to %s" % HERE)
    bdir = os.path.abspath(build_dir())
    os.makedirs(bdir, exist_ok=True)
    logpath = os.path.join(bdir, "build.log")
    with open(logpath, "a") as logf:
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", bdir, "-j", str(HOST_THREADS),
                      "--target", "perfbench_driver", "slacksim-serve"])
        for cmd in steps:
            rc = subprocess.call(cmd, stdout=logf, stderr=subprocess.STDOUT)
            if rc != 0:
                fail_setup("build failed (%s); see %s" % (" ".join(cmd),
                                                          logpath))
    driver = os.path.join(bdir, "perfbench_driver")
    serve = os.path.join(bdir, "slacksim", "src", "slacksim-serve")
    for path in (driver, serve):
        if not os.access(path, os.X_OK):
            fail_setup("missing build product %s" % path)
    return driver, serve


# ------------------------------------------------------------- operations

class Failure(Exception):
    pass


def run_driver(cmd, deadline_s):
    """Run one driver invocation in its own process group; kill the
    whole group at the deadline. @return the parsed last stdout line."""
    if budget_end is not None:
        deadline_s = min(deadline_s, budget_end - time.monotonic())
        if deadline_s < 1:
            raise Failure("run budget of %ds exhausted" % RUN_BUDGET_S)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=deadline_s)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise Failure("deadline of %.0fs exceeded (hang)" % deadline_s)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray children
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        tail = (err or "").strip().splitlines()[-1:] or [""]
        raise Failure("exit %d (crash): %s" % (proc.returncode, tail[0]))
    lines = out.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        raise Failure("no result line")


class Run:
    """Attempted/failed bookkeeping for one benchmark invocation."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def op(self, fn, *args):
        """Attempt one operation; a Failure is recorded, not raised."""
        self.attempted += 1
        try:
            return fn(*args)
        except Failure as e:
            self.record_failure(str(e))
            return None

    def record_failure(self, reason):
        self.failed += 1
        rec = {"workload": self.workload, "run_index": self.attempted - 1,
               "seed": self.seed, "reason": reason}
        self.failures.append(rec)
        log("failed op: %s" % json.dumps(rec))


def load_oracle():
    with open(os.path.join(HERE, "oracle.json")) as f:
        return json.load(f)["fft"]


def engine_cmd(driver, scheme, points, seed, host_threads=None, extra=()):
    cmd = [driver, "engine", "--scheme=" + scheme,
           "--fft-points=%d" % points, "--seed=%d" % seed]
    if host_threads is not None:
        cmd.append("--host-threads=%d" % host_threads)
    return cmd + list(extra)


def exec_err_pct(r, oracle):
    return 100.0 * (r["exec_cycles"] - oracle["exec_cycles"]) / \
        oracle["exec_cycles"]


def checked_engine_op(cmd, check, oracle):
    r = run_driver(cmd, OP_DEADLINE_S)
    if check == "exact":
        diff = [k for k in ORACLE_KEYS if r[k] != oracle[k]]
        if diff:
            raise Failure("oracle mismatch on %s: %s vs %s" % (
                ",".join(diff), [r[k] for k in diff],
                [oracle[k] for k in diff]))
    else:
        if r["committed_uops"] != oracle["committed_uops"]:
            raise Failure("oracle mismatch: committed %d vs %d" % (
                r["committed_uops"], oracle["committed_uops"]))
        err = exec_err_pct(r, oracle)
        if abs(err) > SLACK_ERR_TOL_PCT:
            raise Failure("oracle mismatch: exec error %.3f%% beyond "
                          "%.1f%%" % (err, SLACK_ERR_TOL_PCT))
    return r


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Linear-interpolated percentile of values, q in 0..100."""
    if not values:
        return 0.0
    v = sorted(values)
    pos = (len(v) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def rate(r):
    """Committed uops per wall second of the engine run() call."""
    return r["committed_uops"] / r["run_s"]


def cpu_rate(r):
    """Committed uops per CPU second of the engine run() call."""
    return r["committed_uops"] / r["run_cpu_s"]


# ------------------------------------------------------- engine workloads

ENGINE_WORKLOADS = {
    # name: (driver scheme, FFT points, oracle check).
    # Measured operations run inline (hostThreads=1): threaded runs on a
    # shared host measure the scheduler (METHODOLOGY.md, "Why CPU
    # time"). The traced run also measures them at min(4, nproc) host
    # threads.
    "slack-fft": ("bounded", SLACK_FFT_POINTS, "tolerance"),
    "spec-fft": ("speculative", SPEC_FFT_POINTS, "exact"),
}


def engine_end_to_end(run, driver, seconds):
    scheme, points, check = ENGINE_WORKLOADS[run.workload]
    oracle = load_oracle()[str(points)]
    cmd = engine_cmd(driver, scheme, points, run.seed, 1)
    results = []
    t0 = time.monotonic()
    while not results and run.attempted < 3 or \
            time.monotonic() - t0 < seconds:
        r = run.op(checked_engine_op, cmd, check, oracle)
        if r:
            results.append(r)
            log("op %d: %.4g uops/cpu-s (%.4g uops/s), setup %.4g cpu-s, "
                "exec error %+.3f%%" % (
                    run.attempted - 1, cpu_rate(r), rate(r),
                    r["build_cpu_s"], exec_err_pct(r, oracle)))
    metrics = {
        "sim_uops_per_cpu_s": percentile([cpu_rate(r) for r in results],
                                         FAST_PCT),
        "setup_s": percentile([r["build_cpu_s"] for r in results],
                              100 - FAST_PCT),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in results]),
    }
    log("%s: %d operations, %d ok" % (run.workload, run.attempted,
                                      len(results)))
    return metrics, engine_shape(results)


def engine_job_ms(r):
    """One engine "job" is what a library user waits for: the SimSystem
    constructor plus the engine run."""
    return 1e3 * (r["build_s"] + r["run_s"])


def engine_shape(results):
    r = results[0] if results else {}
    return {"host_threads_used": r.get("host_threads_used", 0),
            "isolation": "none", "build_type": r.get("build_type", ""),
            "git_hash": r.get("git_hash", "")}


def layer_counts(r, oracle):
    """cpu/cache/uncore and core counters of one engine result."""
    cycles = max(r["exec_cycles"], 1)
    accesses = r["l1d_hits"] + r["l1d_misses"]
    l2 = r["l2_hits"] + r["l2_misses"]
    return {
        "core.run_s": r["run_s"],
        "core.events_per_s": (r["committed_uops"] + r["bus_requests"]) /
        r["run_s"],
        "core.host_threads_used": r["host_threads_used"],
        "core.manager_wakeups": r["manager_wakeups"],
        "core.core_park_events": r["core_park_events"],
        "core.max_observed_slack": r["max_observed_slack"],
        "core.checkpoint_s": r["checkpoint_s"],
        "core.checkpoint_async_s": r["checkpoint_async_s"],
        "core.checkpoints": r["checkpoints"],
        "core.checkpoint_bytes": r["checkpoint_bytes"],
        "core.rollbacks": r["rollbacks"],
        "core.wasted_cycles": r["wasted_cycles"],
        "core.replay_cycles": r["replay_cycles"],
        "core.useful_cycle_ratio": r["exec_cycles"] /
        max(r["exec_cycles"] + r["wasted_cycles"], 1),
        "core.exec_err_pct": exec_err_pct(r, oracle),
        "cpu.ipc": r["committed_uops"] / cycles,
        "cache.l1d_accesses": accesses,
        "cache.l1d_miss_rate": r["l1d_misses"] / max(accesses, 1),
        "uncore.bus_requests": r["bus_requests"],
        "uncore.bus_queueing_cycles": r["bus_queueing_cycles"],
        "uncore.l2_miss_rate": r["l2_misses"] / max(l2, 1),
        "uncore.bus_violations": r["bus_violations"],
        "uncore.map_violations": r["map_violations"],
        "uncore.violations_per_kcycle":
            1000.0 * (r["bus_violations"] + r["map_violations"]) / cycles,
    }


def phase_pcts(phases_ns):
    total = max(phases_ns.get("total", 0), 1)
    return {"core.phase.%s_pct" % p: 100.0 * phases_ns.get(p, 0) / total
            for p in PHASES}


def engine_per_layer(run, driver, seconds):
    """The traced run: untraced, traced and other-thread-count operations
    in rotation; per-layer numbers come from the traced ones."""
    scheme, points, check = ENGINE_WORKLOADS[run.workload]
    oracle = load_oracle()[str(points)]
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, "%s-seed%d" % (run.workload, run.seed))
    plain = engine_cmd(driver, scheme, points, run.seed, 1)
    op_spans = "%s.op.spans.json" % stem
    traced = plain + ["--profile", "--gen",
                      "--report-out=%s.report.json" % stem,
                      "--spans-out=" + op_spans]
    # The same run on the threaded engine.
    other = engine_cmd(driver, scheme, points, run.seed, HOST_THREADS)
    got = {"plain": [], "traced": [], "other": []}
    spans = []
    t0 = time.monotonic()
    while min(len(v) for v in got.values()) == 0 and run.attempted < 9 \
            or time.monotonic() - t0 < seconds:
        for kind, cmd in (("plain", plain), ("traced", traced),
                          ("other", other)):
            r = run.op(checked_engine_op, cmd, check, oracle)
            if r:
                got[kind].append(r)
            if r and kind == "traced":
                with open(op_spans) as f:
                    spans.append(json.load(f))
    # Every traced operation's spans, one file per run.
    if os.path.exists(op_spans):
        os.unlink(op_spans)
    with open("%s.spans.json" % stem, "w") as f:
        json.dump({"schema": "perfbench.spans.v1", "ops": spans}, f)
    if not got["traced"]:
        return zero_layers(), engine_shape([])
    # Per-layer values of the median-rate traced operation.
    traced_sorted = sorted(got["traced"], key=rate)
    r = traced_sorted[len(traced_sorted) // 2]
    m = zero_layers()
    m.update(layer_counts(r, oracle))
    m.update(phase_pcts(r.get("phases_ns", {})))
    m["workload.gen_s"] = r["gen_s"]
    m["workload.trace_uops"] = r["trace_uops"]
    m["core.build_s"] = max(r["build_s"] - r["gen_s"], 0.0)
    job_ms = [engine_job_ms(x) for x in got["plain"]]
    if job_ms:
        m["jobs_per_min"] = 60e3 / median(job_ms)
        m["job_latency_p50_ms"] = percentile(job_ms, 50)
        m["job_latency_p90_ms"] = percentile(job_ms, 90)
    plain_rate = median([rate(x) for x in got["plain"]])
    other_rate = median([rate(x) for x in got["other"]])
    m["sim_uops_per_s"] = plain_rate
    if plain_rate and other_rate:
        m["core.speedup_vs_ht1"] = other_rate / plain_rate
    m["obs.report_write_ms"] = median(
        [x["report_write_ms"] for x in got["traced"]])
    if plain_rate:
        m["obs.trace_overhead_pct"] = 100.0 * (
            plain_rate - median([rate(x) for x in got["traced"]])) / \
            plain_rate
    return m, engine_shape(got["traced"])


def zero_layers():
    """Per-layer metrics a workload does not exercise read 0."""
    return {name: 0.0 for name, _ in PER_LAYER}


# ------------------------------------------------------------ serve sweep

def sweep_op(run, driver, serve, seconds, min_jobs, uops, profile,
             crash_job=0, tag="sweep"):
    d = os.path.join(OUT, "%s-seed%d" % (tag, run.seed))
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    cmd = [driver, "sweep", "--serve-bin=" + serve, "--dir=" + d,
           "--seed=%d" % run.seed, "--seconds=%g" % seconds,
           "--min-jobs=%d" % min_jobs, "--uops=%d" % uops]
    if profile:
        cmd += ["--profile", "--spans-out=%s/spans.json" % d]
    if crash_job:
        cmd.append("--crash-job=%d" % crash_job)
    try:
        sweep = run_driver(cmd, seconds + SWEEP_DEADLINE_S)
    except Failure as e:
        run.attempted += 1
        run.record_failure("sweep: %s" % e)
        return None, []
    finally:
        # The reports were streamed to the client; keep only the
        # daemon's journal, server report and log.
        out = os.path.join(d, "out")
        for name in os.listdir(out) if os.path.isdir(out) else ():
            if name.startswith("job-"):
                shutil.rmtree(os.path.join(out, name), ignore_errors=True)
    ok = []
    for job in sweep["jobs"]:
        ok_job = run.op(check_job, job, uops)
        if ok_job:
            ok.append(ok_job)
    return sweep, ok


def sweep_job_ms(job):
    """Client sends submit until it receives the end event."""
    return (job["end_ns"] - job["send_ns"]) / 1e6


def check_job(job, uops):
    if job["state"] != "done":
        raise Failure("job %d ended %r %s" % (job["id"], job["state"],
                                              job["error"]))
    if job["committed_uops"] < uops:
        raise Failure("job %d committed %d of %d uops" % (
            job["id"], job["committed_uops"], uops))
    return job


def stage_ms(job):
    ms = lambda a, b: (job[b] - job[a]) / 1e6
    engine = job["engine_s"] * 1e3
    run_ms = ms("started_ns", "ended_ns")
    return {
        "submit_rtt_ms": ms("send_ns", "ack_ns"),
        "queue_ms": ms("submitted_ns", "admitted_ns"),
        "launch_ms": ms("admitted_ns", "started_ns"),
        "run_ms": run_ms,
        "engine_ms": engine,
        "isolation_ms": run_ms - engine,
        "delivery_ms": ms("ended_ns", "end_ns"),
    }


def sweep_shape(sweep):
    return {"host_threads_used": 1, "isolation": "process",
            "build_type": sweep.get("build_type", "") if sweep else "",
            "git_hash": sweep.get("git_hash", "") if sweep else ""}


def sweep_end_to_end(run, driver, serve, seconds, min_jobs=SWEEP_MIN_JOBS,
                     uops=SWEEP_UOPS, crash_job=0):
    sweep, ok = sweep_op(run, driver, serve, seconds, min_jobs, uops,
                         False, crash_job)
    lat = [sweep_job_ms(j) for j in ok]
    uops = sum(j["committed_uops"] for j in ok)
    metrics = {
        "sim_uops_per_cpu_s": uops / sweep["daemon_cpu_s"] if sweep else 0.0,
        "setup_s": median(sweep["daemon_start_cpu_s"]) if sweep else 0.0,
        "peak_rss_mb": sweep["peak_rss_mb"] if sweep else 0.0,
    }
    log("serve-sweep: %d jobs, %d ok, %.4g jobs/min, latency p50 %.4g ms "
        "(wall clock)" % (len(sweep["jobs"]) if sweep else 0, len(ok),
                          60.0 * len(ok) / sweep["loop_s"] if sweep else 0,
                          percentile(lat, 50)))
    return metrics, sweep_shape(sweep)


def sweep_per_layer(run, driver, serve, seconds, min_jobs=SWEEP_MIN_JOBS,
                    uops=SWEEP_UOPS):
    """Traced sweep (profiled jobs, client spans) beside an untraced one,
    plus in-process runs of the four job configurations and their CC
    reference for the simulated counts the run report does not carry."""
    half = seconds / 2.0
    plain, plain_ok = sweep_op(run, driver, serve, half, min_jobs, uops,
                               False, tag="sweep-plain")
    traced, ok = sweep_op(run, driver, serve, half, min_jobs, uops, True,
                          tag="sweep-traced")
    m = zero_layers()
    if plain:
        lat = [sweep_job_ms(j) for j in plain_ok]
        m["sim_uops_per_s"] = sum(j["committed_uops"] for j in plain_ok) / \
            plain["loop_s"]
        m["jobs_per_min"] = 60.0 * len(plain_ok) / plain["loop_s"]
        m["job_latency_p50_ms"] = percentile(lat, 50)
        m["job_latency_p90_ms"] = percentile(lat, 90)
    if traced:
        m["serve.daemon_start_s"] = median(traced["daemon_start_s"])
        for stage in SERVE_STAGES:
            vals = [stage_ms(j)[stage] for j in ok]
            m["serve.%s_p50" % stage] = percentile(vals, 50)
            m["serve.%s_p90" % stage] = percentile(vals, 90)
        phases = {}
        for j in ok:
            for k, v in j.get("phases_ns", {}).items():
                phases[k] = phases.get(k, 0.0) + v
        m.update(phase_pcts(phases))
    if plain and traced and plain_ok:
        jpm = lambda s, good: 60.0 * len(good) / s["loop_s"]
        m["obs.trace_overhead_pct"] = 100.0 * (
            jpm(plain, plain_ok) - jpm(traced, ok)) / jpm(plain, plain_ok)

    def barnes(scheme, slack=None, profile=False):
        extra = ["--kernel=barnes", "--uops=%d" % uops]
        if slack:
            extra.append("--slack=%d" % slack)
        if profile:
            extra += ["--gen", "--report-out=%s/barnes.report.json" % OUT]
        ht = 1 if scheme != "cc" else None
        return run_driver(engine_cmd(driver, scheme, 0, run.seed, ht,
                                     extra), OP_DEADLINE_S)

    cc = run.op(barnes, "cc")
    refs = [run.op(barnes, "bounded", s, s == 64) for s in (1, 4, 16, 64)]
    refs = [r for r in refs if r]
    if cc and refs:
        per = [layer_counts(r, cc) for r in refs]
        for key in per[0]:
            m[key] = statistics.mean(p[key] for p in per)
        m["core.speedup_vs_ht1"] = 1.0  # jobs run at host_threads=1
        last = refs[-1]
        m["workload.gen_s"] = last["gen_s"]
        m["workload.trace_uops"] = last["trace_uops"]
        m["core.build_s"] = max(last["build_s"] - last["gen_s"], 0.0)
        m["obs.report_write_ms"] = last["report_write_ms"]
    return m, sweep_shape(traced)


# ------------------------------------------------------------------ output

def result_line(run, metrics, units):
    for name, unit in units:
        if name not in metrics:
            raise SystemExit("perfbench: metric %s missing" % name)
    return {"correct": run.failed == 0,
            "attempted": max(run.attempted, 1),
            "failed": run.failed if run.attempted else 1,
            "metrics": {name: {"value": metrics[name], "unit": unit}
                        for name, unit in units}}


def stamp(shape):
    s = {"nproc": NPROC}
    s.update(shape)
    return s


def write_result(run, trace, line, shape):
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    path = os.path.join(OUT, "results", "%s-seed%d-trace%d.json" % (
        run.workload, run.seed, trace))
    doc = {"schema": "perfbench.result.v1", "workload": run.workload,
           "seed": run.seed, "trace": trace, "host_shape": stamp(shape),
           "failures": run.failures}
    doc.update(line)
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
    return path


def measure(workload, seed, seconds, trace, driver, serve, tiny=False):
    global budget_end
    budget_end = time.monotonic() + RUN_BUDGET_S
    run = Run(workload, seed)
    if workload in ENGINE_WORKLOADS:
        fn = engine_per_layer if trace else engine_end_to_end
        metrics, shape = fn(run, driver, seconds)
    else:
        kw = {"min_jobs": 12, "uops": 20000} if tiny else {}
        fn = sweep_per_layer if trace else sweep_end_to_end
        metrics, shape = fn(run, driver, serve, seconds, **kw)
    units = PER_LAYER if trace else END_TO_END
    line = result_line(run, metrics, units)
    return run, line, shape


def print_result(run, trace, line, shape):
    log("host shape: %s" % json.dumps(stamp(shape)))
    for name, m in line["metrics"].items():
        log("%-34s %.6g %s" % (name, m["value"], m["unit"]))
    log("attempted %d, failed %d" % (line["attempted"], line["failed"]))
    log("result file: %s" % write_result(run, trace, line, shape))
    print(json.dumps(line), flush=True)


# ------------------------------------------------------------ other modes

SHAPE_KEYS = ["nproc", "host_threads_used", "isolation", "build_type"]


def compare(a_path, b_path):
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    sa, sb = a["host_shape"], b["host_shape"]
    diff = ["%s %r vs %r" % (k, sa.get(k), sb.get(k))
            for k in SHAPE_KEYS if sa.get(k) != sb.get(k)]
    for k in ("workload", "trace"):
        if a[k] != b[k]:
            diff.append("%s %r vs %r" % (k, a[k], b[k]))
    if diff:
        log("not comparable: %s" % ", ".join(diff))
        return 3
    for name, m in a["metrics"].items():
        other = b["metrics"].get(name)
        if other is None:
            continue
        ratio = other["value"] / m["value"] if m["value"] else float("nan")
        log("%-34s %.6g -> %.6g %s (x%.4f)" % (name, m["value"],
                                                other["value"], m["unit"],
                                                ratio))
    return 0


def record_oracle(driver):
    oracle = {}
    for points in (SPEC_FFT_POINTS, SLACK_FFT_POINTS):
        r = run_driver(engine_cmd(driver, "cc", points, 0), 600)
        oracle[str(points)] = {k: r[k] for k in ORACLE_KEYS}
        log("fft %d: %s" % (points, oracle[str(points)]))
    doc = {"schema": "perfbench.oracle.v1",
           "engine": "serial, cycle-by-cycle (SchemeKind::CycleByCycle)",
           "fft": oracle}
    with open(os.path.join(HERE, "oracle.json"), "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")
    return 0


def selftest(driver, serve):
    """Each workload once per trace mode: one engine operation of each
    kind, and a 12-job sweep of 20K-uop jobs."""
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            run, line, _ = measure(workload, 1, 0, trace, driver, serve,
                                   tiny=True)
            units = PER_LAYER if trace else END_TO_END
            for name, unit in units:
                got = line["metrics"].get(name)
                if got is None or got.get("unit") != unit or \
                        not isinstance(got.get("value"), (int, float)):
                    problems.append("%s trace=%d: %s missing or not in %s"
                                    % (workload, trace, name, unit))
            if line["failed"] or not line["correct"]:
                problems.append("%s trace=%d: %d failed: %s" % (
                    workload, trace, line["failed"], run.failures))

    # A wrong oracle value must count as a failed operation.
    global load_oracle
    real = load_oracle

    def wrong():
        o = real()
        key = str(SPEC_FFT_POINTS)
        o[key] = dict(o[key], exec_cycles=o[key]["exec_cycles"] + 1)
        return o
    load_oracle = wrong
    run, line, _ = measure("spec-fft", 1, 0, 0, driver, serve, tiny=True)
    load_oracle = real
    if line["failed"] != line["attempted"] or line["correct"]:
        problems.append("wrong oracle value not counted as failure")

    # A killed (crashed) sweep job must count as a failed operation.
    run = Run("serve-sweep", 1)
    sweep_end_to_end(run, driver, serve, 0, min_jobs=12, uops=20000,
                     crash_job=5)
    if run.failed != 1 or "crashed" not in json.dumps(run.failures):
        problems.append("killed sweep job not counted as failure (%d)"
                        % run.failed)

    for p in problems:
        log("SELFTEST FAIL: %s" % p)
    log("selftest: %s" % ("ok" if not problems else
                          "%d problem(s)" % len(problems)))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"))
    ap.add_argument("--record-oracle", action="store_true")
    args = ap.parse_args()

    if args.compare:
        return compare(*args.compare)
    driver, serve = ensure_built()
    if args.record_oracle:
        return record_oracle(driver)
    if args.selftest:
        return selftest(driver, serve)
    if not args.workload:
        ap.error("--workload is required")
    run, line, shape = measure(args.workload, args.seed, args.seconds,
                               args.trace, driver, serve)
    print_result(run, args.trace, line, shape)
    return 0


if __name__ == "__main__":
    sys.exit(main())
