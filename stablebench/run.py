#!/usr/bin/env python3
"""Benchmark for stablerep: cold CLI jobs and a warm library session.

    python3 stablebench/run.py --workload cli-spectral --seed 1 --seconds 20 --trace 0
    python3 stablebench/run.py --smoke

Run from the root of a source checkout; the package is imported from
./src.  The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
`--trace 0`, the per-module metrics with `--trace 1`.  See README.md.
"""

from __future__ import annotations

import os

# One BLAS thread: jobs are forked from this process, which must not own
# threads, and single-threaded kernels keep run-to-run spread low.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("cli-spectral", "cli-invariants", "session")
IMPORT_SAMPLES = 3
WARMUP_SAMPLES = 3

clock = time.perf_counter


def log(message):
    print(message, file=sys.stderr, flush=True)


def import_seconds():
    """Median wall time of a fresh interpreter importing the CLI."""
    env = dict(os.environ, PYTHONPATH=SRC)
    samples = []
    for _ in range(IMPORT_SAMPLES):
        start = clock()
        subprocess.run([sys.executable, "-c", "import stablerep.cli"], env=env, cwd=ROOT,
                       check=True)
        samples.append(clock() - start)
    return statistics.median(samples)


def rounds_for(seconds, run_round):
    """Whole rounds until the next one would end past `seconds`; at least one."""
    rounds, start = [], clock()
    while True:
        began = clock()
        rounds.append(run_round())
        if clock() - start + (clock() - began) > seconds:
            return rounds


def fork_call(body, usage_out):
    """Run body() in a forked child; returns its exit code and stores its rusage."""
    sys.stdout.flush()
    sys.stderr.flush()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = body()
        except BaseException:  # the child must never return into the parent's code
            traceback.print_exc()
        finally:
            os._exit(code if isinstance(code, int) else 1)
    _, status, usage = os.wait4(pid, 0)
    usage_out.append(usage)
    return os.waitstatus_to_exitcode(status)


# ---------------------------------------------------------------------------
# CLI workloads


def run_job(cli, job, workdir, tracer):
    out_path = os.path.join(workdir, "job.out")
    trace_path = os.path.join(workdir, "job.trace")

    def body():
        sys.stdout = open(out_path, "w", encoding="utf-8")
        sys.stderr = open(os.path.join(workdir, "job.err"), "w", encoding="utf-8")
        try:
            code = cli.main(job.argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # an uncaught error exits 1 with a traceback, as the CLI would
            traceback.print_exc()
            code = 1
        sys.stdout.flush()
        sys.stderr.flush()
        if tracer is not None:
            tracer.dump(trace_path)
        return code

    usage = []
    start = clock()
    rc = fork_call(body, usage)
    wall = clock() - start
    with open(out_path, encoding="utf-8") as fh:
        out = fh.read()
    trace = None
    if tracer is not None:
        with open(trace_path, encoding="utf-8") as fh:
            trace = json.load(fh)
    return {"name": job.name, "wall": wall, "rc": rc, "reason": job.check(rc, out),
            "kept_fault": job.kept_fault, "rss_mb": usage[0].ru_maxrss / 1024.0,
            "cpu": usage[0].ru_utime + usage[0].ru_stime, "bytes_out": len(out.encode()),
            "bytes_in": sum(os.path.getsize(a) for a in job.argv if os.path.isfile(a)),
            "trace": trace}


def cli_round(cli, jobs, workdir, tracer=None):
    results = [run_job(cli, job, workdir, tracer) for job in jobs]
    for r in results:
        log("%7.3f s %6.0f MB exit %d  %s" % (r["wall"], r["rss_mb"], r["rc"], r["name"]))
        if r["reason"]:
            log("%s: %s%s" % (r["name"], "kept fault, " if r["kept_fault"] else "FAILED, ",
                              r["reason"]))
    return results


def cli_summary(rounds):
    jobs = [r for rnd in rounds for r in rnd]
    failed = [r for r in jobs if r["reason"]]
    return {
        "attempted": len(jobs),
        "failed": len(failed),
        "correct": all(r["kept_fault"] for r in failed),
        "wall_s": statistics.median(sum(r["wall"] for r in rnd) for rnd in rounds),
        "op_p50_s": statistics.median(r["wall"] for r in jobs),
        "peak_rss_mb": max(r["rss_mb"] for r in jobs),
        "cpu_s": statistics.median(sum(r["cpu"] for r in rnd) for rnd in rounds),
    }


def cli_layers(rounds):
    totals = {}
    for rnd in rounds:
        for r in rnd:
            for name, value in r["trace"].items():
                totals[name] = totals.get(name, 0.0) + value
            totals["cli.bytes_in"] = totals.get("cli.bytes_in", 0) + r["bytes_in"]
            totals["cli.bytes_out"] = totals.get("cli.bytes_out", 0) + r["bytes_out"]
    return {name: value / len(rounds) for name, value in totals.items()}


def run_cli(name, seed, seconds, trace, size, workdir):
    import stablerep
    import stablerep.cli
    import workloads

    inputs = workloads.Inputs(workdir)
    build = workloads.spectral_jobs if name == "cli-spectral" else workloads.invariants_jobs
    jobs = build(random.Random(seed), inputs, size)
    if not trace:
        setup = import_seconds()
        rounds = rounds_for(seconds, lambda: cli_round(stablerep.cli, jobs, workdir))
        summary = cli_summary(rounds)
        return summary, {"setup_s": setup, **pick(summary, "wall_s", "op_p50_s", "peak_rss_mb")}

    from spans import Tracer

    plain = cli_summary(rounds_for(seconds / 2, lambda: cli_round(stablerep.cli, jobs, workdir)))
    tracer = Tracer().install(stablerep)
    rounds = rounds_for(seconds / 2, lambda: cli_round(stablerep.cli, jobs, workdir, tracer))
    summary = cli_summary(rounds)
    summary["correct"] = summary["correct"] and plain["correct"]
    layers = cli_layers(rounds)
    layers.update(cpu_s=summary["cpu_s"], trace_wall_s=summary["wall_s"],
                  trace_overhead_s=summary["wall_s"] - plain["wall_s"])
    return summary, layers


# ---------------------------------------------------------------------------
# Session workload


def session_child(seed, seconds, size, tracer, warmup_only, result_path):
    """Warm-up pass, then timed passes over fresh parameters; results go to a file."""
    import stablerep as sr
    import workloads

    def body():
        warm = workloads.Recorder()
        start = clock()
        workloads.session_pass(sr, random.Random("%d:warmup" % seed), size, warm)
        payload = {"warmup_s": clock() - start, "failures": warm.failures, "passes": []}

        def one_pass():
            rec = workloads.Recorder()
            before = os.times()
            workloads.session_pass(
                sr, random.Random("%d:pass:%d" % (seed, len(payload["passes"]))), size, rec)
            after = os.times()
            payload["passes"].append({
                "times": rec.times, "failures": rec.failures,
                "cpu": after.user - before.user + after.system - before.system})

        if not warmup_only:
            if tracer is not None:
                tracer.reset()
            rounds_for(seconds, one_pass)
            if tracer is not None:
                payload["trace"] = tracer.totals()
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        return 0

    usage = []
    rc = fork_call(body, usage)
    if rc != 0:
        raise RuntimeError("session process exited %d" % rc)
    with open(result_path, encoding="utf-8") as fh:
        payload = json.load(fh)
    payload["rss_mb"] = usage[0].ru_maxrss / 1024.0
    return payload


def session_summary(run):
    passes = run["passes"]
    failures = run["failures"] + [f for p in passes for f in p["failures"]]
    for reason in failures[:10]:
        log("session FAILED: %s" % reason)
    calls = [t for p in passes for t in p["times"]]
    return {
        "attempted": len(calls),
        "failed": sum(len(p["failures"]) for p in passes),
        "correct": not failures,
        "wall_s": statistics.median(sum(p["times"]) for p in passes),
        "op_p50_s": statistics.median(calls),
        "peak_rss_mb": run["rss_mb"],
        "cpu_s": statistics.median(p["cpu"] for p in passes),
    }


def run_session(seed, seconds, trace, size, workdir):
    import stablerep

    result = os.path.join(workdir, "session.json")
    if not trace:
        setup = import_seconds()
        main = session_child(seed, seconds, size, None, False, result)
        warmups = [main["warmup_s"]] + [
            session_child(seed, seconds, size, None, True, result)["warmup_s"]
            for _ in range(WARMUP_SAMPLES - 1)]
        summary = session_summary(main)
        return summary, {"setup_s": setup + statistics.median(warmups),
                         **pick(summary, "wall_s", "op_p50_s", "peak_rss_mb")}

    from spans import Tracer

    plain = session_summary(session_child(seed, seconds / 2, size, None, False, result))
    tracer = Tracer().install(stablerep)
    traced = session_child(seed, seconds / 2, size, tracer, False, result)
    summary = session_summary(traced)
    summary["correct"] = summary["correct"] and plain["correct"]
    layers = {name: value / len(traced["passes"]) for name, value in traced["trace"].items()}
    layers.update({"cli.bytes_in": 0, "cli.bytes_out": 0, "cpu_s": summary["cpu_s"],
                   "trace_wall_s": summary["wall_s"],
                   "trace_overhead_s": summary["wall_s"] - plain["wall_s"]})
    return summary, layers


# ---------------------------------------------------------------------------


UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_s": "s", "peak_rss_mb": "MB",
         "cli.bytes_in": "bytes", "cli.bytes_out": "bytes", "cpu_s": "s",
         "trace_wall_s": "s", "trace_overhead_s": "s", "fourier.svd_eig_s": "s"}


def unit_of(name):
    return UNITS.get(name, "s" if name.endswith(".s") else "count")


def pick(summary, *names):
    return {name: summary[name] for name in names}


def run_workload(name, seed, seconds, trace, size="full"):
    os.makedirs(os.path.join(ROOT, ".stablebench_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".stablebench_work"))
    try:
        if name == "session":
            summary, metrics = run_session(seed, seconds, trace, size, workdir)
        else:
            summary, metrics = run_cli(name, seed, seconds, trace, size, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return {"correct": summary["correct"], "attempted": summary["attempted"],
            "failed": summary["failed"],
            "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())}}


def smoke():
    """Oracle hand cases, then every workload at tiny size, timed and traced."""
    import oracle

    oracle.self_test()
    print("oracle hand cases: ok")
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            res = run_workload(name, 0, 0, trace, size="smoke")
            ok = ok and res["correct"]
            print("%-15s trace=%d correct=%s attempted=%d failed=%d metrics=%d"
                  % (name, trace, res["correct"], res["attempted"], res["failed"],
                     len(res["metrics"])))
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="check the oracles and run each workload at tiny size")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "stablerep", "__init__.py")):
        log("error: no stablerep source tree at %s; run from a checkout's root" % SRC)
        return 2
    sys.path.insert(0, SRC)
    import stablerep

    if os.path.dirname(os.path.abspath(stablerep.__file__)) != os.path.join(SRC, "stablerep"):
        log("error: stablerep imported from %s, not from %s" % (stablerep.__file__, SRC))
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    out = os.path.join(HERE, "results", "%s-seed%d-trace%d.json"
                       % (args.workload, args.seed, args.trace))
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
