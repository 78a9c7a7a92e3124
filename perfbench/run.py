#!/usr/bin/env python3
"""The condtd benchmark: one seeded command per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. It builds `condtd` and the harness in
.bench_build (Release only), generates the workload's inputs from the
seed, measures for S seconds and prints, as the last line of stdout, one
JSON object: {"correct", "attempted", "failed", "metrics"}. The line
before it is a context object (nproc, git sha, source digest, build
type, seed, input size and diagnostics). With --trace 0 the metrics are
the end-to-end ones, taken from the shipped binaries run as child
processes; with --trace 1 they are the per-layer ones from the harness's
traced in-process run. See perfbench/README.md and BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import threading
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(REPO, ".bench_build")
CONDTD = os.path.join(BUILD, "condtd", "tools", "condtd")
HARNESS = os.path.join(BUILD, "perfbench_harness")
JOBS = 4
WARMUP_PASSES = 9
DAEMON_STARTS = 21
WORKLOADS = ("infer_text", "infer_learn", "serve_mixed")
# Durability policy of every serve run: journal appends are not fsynced,
# so the figures measure the daemon, not the disk.
SERVE_FLAGS = ["--workers=%d" % JOBS, "--no-fsync"]
# The serve load generator gets the last CPU to itself and the daemon the
# others. Unpinned, runs of identical code fell into two modes by where
# the scheduler happened to place generator and daemon threads (QUERY
# p50 11 vs 14 ms with INGEST p50 0.20 vs 0.14 ms, anti-correlated).
_CPUS = sorted(os.sched_getaffinity(0))
GENERATOR_CPUS = set(_CPUS[-1:]) if len(_CPUS) > 1 else set(_CPUS)
DAEMON_CPUS = set(_CPUS[:-1]) if len(_CPUS) > 1 else set(_CPUS)


class BenchError(Exception):
    pass


def log(message):
    print("perfbench: " + message, file=sys.stderr, flush=True)


def pinned(cpus):
    """A preexec_fn that restricts the child to `cpus`."""
    return lambda: os.sched_setaffinity(0, cpus)


def run(cmd, timeout, capture=True, cpus=None):
    """Runs a helper to completion; returns its stdout."""
    try:
        done = subprocess.run(cmd, cwd=REPO, timeout=timeout,
                              stdout=subprocess.PIPE if capture else sys.stderr,
                              stderr=sys.stderr, check=False,
                              preexec_fn=pinned(cpus) if cpus else None)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(cmd[:3]))
    if done.returncode != 0:
        raise BenchError("failed (%d): %s" % (done.returncode,
                                                " ".join(cmd[:4])))
    return done.stdout.decode() if capture else ""


def harness(*args, timeout=170, cpus=None):
    out = run([HARNESS] + [str(a) for a in args], timeout, cpus=cpus)
    lines = out.strip().splitlines()
    return json.loads(lines[-1]) if lines else {}


def build():
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        raise BenchError("no condtd sources next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run(["cmake", "-S", os.path.join(REPO, "perfbench"), "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=Release"], 300, capture=False)
    run(["cmake", "--build", BUILD, "--target", "condtd_cli",
         "perfbench_harness", "-j%d" % JOBS], 880, capture=False)


def build_guard():
    """Refuses anything but a Release build; returns the build facts."""
    build_type = ""
    with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
        for line in cache:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                build_type = line.split("=", 1)[1].strip()
    info = harness("info")
    if build_type != "Release" or info.get("build_type") != "Release":
        raise BenchError("refusing a %r build; Release only" % build_type)
    return build_type


def source_identity():
    sha = "none"
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO,
                             stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                             timeout=10, check=True).stdout.decode().strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "tools"):
        path = os.path.join(REPO, top)
        names = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for name in sorted(names):
            digest.update(os.path.relpath(name, REPO).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return sha, digest.hexdigest()[:16]


def quantile(values, q):
    """Nearest rank, as the harness computes it."""
    ordered = sorted(values)
    index = int(q * (len(ordered) - 1) + 0.5)
    return ordered[min(index, len(ordered) - 1)]


def reap(proc):
    """Waits for a child; returns (exit code, its rusage)."""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def collect(proc, timeout):
    """Reads a child's stdout to EOF and reaps it, killing it if it runs
    past `timeout` seconds; returns (exit code, rusage, stdout bytes)."""
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        proc.stdout.close()
        code, usage = reap(proc)
    finally:
        watchdog.cancel()
    return code, usage, out


def rss_mb(usage):
    return usage.ru_maxrss / 1024.0


def cpu_s(usage):
    return usage.ru_utime + usage.ru_stime


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


# ---------------------------------------------------------------- batch

def infer_pass(files, reference):
    """One `condtd infer --jobs=4` pass: (wall s, rusage, ok)."""
    start = time.perf_counter()
    proc = subprocess.Popen([CONDTD, "infer", "--jobs=%d" % JOBS] + files,
                            cwd=REPO, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    code, usage, out = collect(proc, 120)
    wall = time.perf_counter() - start
    return wall, usage, code == 0 and out == reference


def batch_inputs(workload, seed, work):
    corpus = fresh_dir(os.path.join(work, "corpus"))
    size = harness("gen", workload, seed, corpus)
    ref_path = os.path.join(work, "reference.dtd")
    harness("engine", corpus, 1, ref_path)
    reference = read_bytes(ref_path)
    files = [os.path.relpath(os.path.join(corpus, name), REPO)
             for name in sorted(os.listdir(corpus))]
    return corpus, files, reference, size


def batch_e2e(workload, seed, seconds, work, context):
    _, files, reference, size = batch_inputs(workload, seed, work)
    context.update(files=size["files"], input_bytes=size["bytes"])
    setup = [infer_pass(files, reference) for _ in range(WARMUP_PASSES)]
    passes = []
    start = time.perf_counter()
    while len(passes) < 5 or time.perf_counter() - start < seconds:
        passes.append(infer_pass(files, reference))
    walls = [p[0] for p in passes]
    attempted = len(setup) + len(passes)
    failed = sum(1 for p in setup + passes if not p[2])
    context.update(passes=len(passes),
                   pass_p90_ms=1000 * quantile(walls, 0.9))
    metrics = {
        "schema_p50_ms": 1000 * statistics.median(walls),
        "cpu_ms_per_op": 1000 * statistics.median(cpu_s(p[1]) for p in passes),
        "setup_s": statistics.median(p[0] for p in setup),
        "peak_rss_mb": statistics.median(rss_mb(p[1]) for p in passes),
        "ok_ratio": (attempted - failed) / attempted,
    }
    return failed == 0, attempted, failed, metrics


# ---------------------------------------------------------------- serve

class Daemon:
    """One `condtd serve` child on a unix socket under `work`."""

    def __init__(self, work):
        self.socket = os.path.relpath(os.path.join(work, "s.sock"), REPO)
        self.data = os.path.relpath(os.path.join(work, "data"), REPO)
        os.makedirs(os.path.join(REPO, self.data), exist_ok=True)
        self.proc = None

    def start(self):
        """Spawns and waits for the readiness line; returns seconds."""
        sock = os.path.join(REPO, self.socket)
        if os.path.exists(sock):
            os.unlink(sock)
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [CONDTD, "serve", "--socket=" + self.socket,
             "--data-dir=" + self.data] + SERVE_FLAGS,
            cwd=REPO, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
            preexec_fn=pinned(DAEMON_CPUS))
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else b""
        elapsed = time.perf_counter() - start
        if b"listening" not in line:
            raise BenchError("daemon did not become ready")
        return elapsed

    def stop(self):
        """SHUTDOWN, then reap; returns the daemon's rusage."""
        harness("serve-shutdown", self.socket, timeout=30)
        code, usage, _ = collect(self.proc, 30)
        self.proc = None
        if code != 0:
            raise BenchError("daemon exited with %d" % code)
        return usage

    def kill(self):
        if self.proc is not None:
            self.proc.kill()
            self.proc.stdout.close()
            reap(self.proc)
            self.proc = None


def serve_window(seed, seconds, work, starts):
    """The serve_mixed scenario: prefill, restart `starts` times (each
    recovers the prefilled journal), then the measured window. Returns
    (load report, median start seconds, the serving daemon's rusage)."""
    daemon = Daemon(fresh_dir(work))
    try:
        daemon.start()
        run([HARNESS, "serve-prefill", str(seed), daemon.socket],
            120, cpus=GENERATOR_CPUS)
        daemon.stop()
        times = []
        for i in range(starts):
            times.append(daemon.start())
            if i + 1 < starts:
                daemon.stop()
        load = harness("serve-load", seed, daemon.socket, seconds,
                       cpus=GENERATOR_CPUS)
        usage = daemon.stop()
    finally:
        daemon.kill()
    return load, statistics.median(times), usage


def serve_e2e(workload, seed, seconds, work, context):
    load, setup, usage = serve_window(seed, seconds,
                                      os.path.join(work, "serve"),
                                      DAEMON_STARTS)
    context.update({k: load[k] for k in (
        "gen.late_p50_ms", "gen.late_p99_ms", "unsent", "acked", "ingest_attempted",
        "query_attempted", "ingest_p50_ms", "ingest_p99_ms", "query_p99_ms",
        "check")})
    attempted, failed = int(load["attempted"]), int(load["failed"])
    metrics = {
        "schema_p50_ms": load["query_p50_ms"],
        # The daemon's CPU over its recovery and the window, per request.
        "cpu_ms_per_op": 1000 * cpu_s(usage) / attempted,
        "setup_s": setup,
        "peak_rss_mb": rss_mb(usage),
        "ok_ratio": (attempted - failed) / attempted,
    }
    return load["correct"] == 1, attempted, failed, metrics


# ---------------------------------------------------------------- trace

PER_LAYER = None  # filled from BENCHMARK.json


def batch_round(corpus, work):
    """One traced pass and the two untraced engine runs, each in a fresh
    process; returns (metrics, [traced, jobs=1, jobs=4 DTD bytes])."""
    paths = [os.path.join(work, name + ".dtd")
             for name in ("traced", "serial", "parallel")]
    traced = harness("trace-pass", corpus, paths[0])
    serial = harness("engine", corpus, 1, paths[1])
    parallel = harness("engine", corpus, JOBS, paths[2])
    traced.update({
        "infer.engine_submit_s": parallel["submit_s"],
        "infer.engine_finish_s": parallel["finish_s"],
        "infer.parallel_speedup": (
            (serial["submit_s"] + serial["finish_s"]) /
            (parallel["submit_s"] + parallel["finish_s"])),
        "trace.untraced_wall_s": serial["wall_s"],
        "trace.overhead_s": traced["trace.wall_s"] - serial["wall_s"],
    })
    return traced, [read_bytes(p) for p in paths]


def trace(workload, seed, seconds, work, context):
    """Traced rounds of the batch pipeline over the workload's files, then
    the serve_mixed scenario, whatever the workload: the traced in-process
    serve run and one untraced wire window (for the transport split and
    the generator's lateness)."""
    if workload == "serve_mixed":
        corpus = fresh_dir(os.path.join(work, "corpus"))
        harness("gen", workload, seed, corpus)
        reference = None
        attempted, failed, correct = 0, 0, True
    else:
        corpus, files, reference, _ = batch_inputs(workload, seed, work)
        _, _, ok = infer_pass(files, reference)
        attempted, failed, correct = 1, 0 if ok else 1, ok
    rounds = []
    start = time.perf_counter()
    while len(rounds) < 3 or time.perf_counter() - start < seconds / 2:
        metrics, dtds = batch_round(corpus, work)
        reference = reference or dtds[1]
        correct = correct and all(dtd == reference for dtd in dtds)
        rounds.append(metrics)
    layers = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
    context["trace_rounds"] = len(rounds)
    layers.update(harness("serve-trace", seed, seconds,
                          fresh_dir(os.path.join(work, "trace_data"))))
    load, _, _ = serve_window(seed, seconds, os.path.join(work, "serve"), 1)
    attempted += int(load["attempted"])
    failed += int(load["failed"])
    correct = correct and load["correct"] == 1
    layers["gen.late_p99_ms"] = load["gen.late_p99_ms"]
    layers["serve.wire_query_p99_ms"] = load["query_p99_ms"]
    layers["serve.wire_ingest_p50_ms"] = load["ingest_p50_ms"]
    layers["serve.wire_ingest_p99_ms"] = load["ingest_p99_ms"]
    layers["serve.transport_ingest_p50_ms"] = (
        load["ingest_p50_ms"] - layers["serve.corpus_ingest_p50_ms"])
    if workload == "serve_mixed":
        # The query path is serve_mixed's traced unit.
        for name in ("wall_s", "unattributed_s", "untraced_wall_s",
                     "overhead_s"):
            layers["trace." + name] = layers["serve.trace_" + name]
    context.update({k: v for k, v in layers.items() if k not in PER_LAYER})
    metrics = {k: layers[k] for k in PER_LAYER}
    return correct, attempted, failed, metrics


# ---------------------------------------------------------------- main

def main():
    global PER_LAYER
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    PER_LAYER = [m["name"] for m in spec["per_layer"]]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    try:
        build()
        build_type = build_guard()
        sha, digest = source_identity()
        context = {"nproc": os.cpu_count(), "git_sha": sha,
                   "source_digest": digest, "build_type": build_type,
                   "workload": args.workload, "seed": args.seed,
                   "seconds": args.seconds, "trace": args.trace,
                   "jobs": JOBS, "serve_flags": " ".join(SERVE_FLAGS)}
        work = os.path.join(BUILD, "work", args.workload)
        fresh_dir(work)
        if args.trace:
            step = trace
        elif args.workload == "serve_mixed":
            step = serve_e2e
        else:
            step = batch_e2e
        correct, attempted, failed, metrics = step(
            args.workload, args.seed, args.seconds, work, context)
        shutil.rmtree(work, ignore_errors=True)
    except (BenchError, OSError, ValueError, KeyError) as error:
        log(str(error))
        return 1
    expected = PER_LAYER if args.trace else [
        m["name"] for m in spec["end_to_end"]]
    if sorted(metrics) != sorted(expected):
        log("metric set mismatch: %s" % sorted(set(metrics) ^ set(expected)))
        return 1
    if not correct:
        log("output check failed: %s" % context.get("check", ""))
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": bool(correct), "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in expected}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
