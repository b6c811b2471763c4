#!/usr/bin/env python3
"""Repo benchmark entry point.

Builds perfbench/ (which compiles slide_core from the repository sources),
runs one workload and prints its metrics; the last line of standard output
is the result record:

    python3 perfbench/run.py --workload train-amazon --seed 1 --seconds 20 --trace 0

With --trace 0 the record holds every end-to-end metric of BENCHMARK.json,
with --trace 1 every per-layer metric.  The exit code is 0 only when every
correctness gate passed.

Two more modes, both run from the repository root:

    python3 perfbench/run.py --repeat 10 [--workloads a,b] [--seconds S]
        runs every workload N times (seeds 1..N), alternating the workload
        order between rounds, and prints each end-to-end metric's median,
        quartiles and spread (IQR / median) against its bound.

    python3 perfbench/run.py --smoke
        runs every workload at a tiny scale, traced and untraced, and checks
        that each named metric is emitted with its unit and that the traced
        training phases add up to the batch wall time.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD_ROOT = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(REPO, ".bench_build")))
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
BINARY = os.path.join(BUILD_DIR, "slide_perfbench")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark; returns False on failure."""
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "slide_perfbench"])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log("perfbench: build failed:", " ".join(cmd))
            return False
    return True


def source_id():
    """The commit when run inside git, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(REPO, top))):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, REPO).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-sha1:" + h.hexdigest()[:16]


def run_binary(workload, seed, seconds, trace, tiny=False, echo=True):
    """Runs one workload; returns (exit code, result record or None)."""
    workdir = os.path.join(BUILD_ROOT, "work", "%s-%d-%d" % (workload, seed, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    cmd = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0", "--workdir", workdir]
    if tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s timed out after %d s" % (workload, RUN_TIMEOUT_S))
        return 1, None
    finally:
        # Keep only a traced run's spans; the generated inputs are large.
        for name in os.listdir(workdir):
            if not (trace and name == "spans.jsonl"):
                path = os.path.join(workdir, name)
                if os.path.isdir(path):
                    shutil.rmtree(path, ignore_errors=True)
                else:
                    os.remove(path)
        if not trace:
            os.rmdir(workdir)
    lines = proc.stdout.splitlines()
    if echo:
        for line in lines[:-1]:
            print(line)
        sys.stderr.write(proc.stderr)
    record = None
    if lines:
        try:
            record = json.loads(lines[-1])
        except ValueError:
            record = None
    if record is None:
        log(proc.stderr[-4000:])
        log("perfbench: %s printed no result record (exit %d)" % (workload, proc.returncode))
    return proc.returncode, record


def select_metrics(record, wanted):
    """Picks exactly the wanted metrics; returns (metrics, problems)."""
    out, problems = {}, []
    got = record.get("metrics", {})
    for m in wanted:
        v = got.get(m["name"])
        if v is None or v.get("value") is None or not math.isfinite(v["value"]):
            problems.append("missing or non-finite metric %s" % m["name"])
            continue
        if v.get("unit") != m["unit"]:
            problems.append("metric %s has unit %s, expected %s" % (m["name"], v.get("unit"), m["unit"]))
            continue
        out[m["name"]] = {"value": v["value"], "unit": v["unit"]}
    return out, problems


def cmd_single(args, spec):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log("perfbench: %r is not in BENCHMARK.json (%s); running it anyway" % (
            args.workload, ", ".join(names)))
    if not build():
        return 1
    print("stamp: commit=%s" % source_id())
    rc, record = run_binary(args.workload, args.seed, args.seconds, args.trace)
    if record is None:
        return 1
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, problems = select_metrics(record, wanted)
    for p in problems:
        log("perfbench:", p)
    if problems:
        return 1
    correct = bool(record.get("correct")) and rc == 0
    result = {"correct": correct, "attempted": int(record.get("attempted", 1)),
              "failed": int(record.get("failed", 0)), "metrics": metrics}
    print(json.dumps(result))
    return 0 if correct else 1


def cmd_repeat(args, spec):
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    if not build():
        return 1
    print("stamp: commit=%s" % source_id())
    values = {w: {m["name"]: [] for m in spec["end_to_end"]} for w in workloads}
    bad = 0
    for i in range(args.repeat):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            seed = args.seed + i
            rc, record = run_binary(w, seed, seconds, False, echo=False)
            if record is None or rc != 0 or not record.get("correct"):
                log("perfbench: %s seed %d failed (exit %d)" % (w, seed, rc))
                bad += 1
                continue
            metrics, problems = select_metrics(record, spec["end_to_end"])
            bad += bool(problems)
            for name, v in metrics.items():
                values[w][name].append(v["value"])
            log("round %d %s seed %d: %s" % (i, w, seed, " ".join(
                "%s=%.6g" % (k, v["value"]) for k, v in sorted(metrics.items()))))
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print("%-24s %-22s %3s %14s %14s %14s %8s %6s" % (
        "workload", "metric", "n", "median", "q1", "q3", "spread", "bound"))
    for w in workloads:
        for name, vals in values[w].items():
            if len(vals) < 2:
                print("%-24s %-22s %3d (too few samples)" % (w, name, len(vals)))
                continue
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds[name]["bound"]
            flag = "" if spread <= bound / 3 else ("  >bound/3" if spread <= bound else "  >BOUND")
            print("%-24s %-22s %3d %14.6g %14.6g %14.6g %8.4f %6.3f%s" % (
                w, name, len(vals), med, q1, q3, spread, bound, flag))
    return 1 if bad else 0


def cmd_smoke(spec):
    if not build():
        return 1
    failures = []
    for w in [x["name"] for x in spec["workloads"]]:
        for trace in (False, True):
            rc, record = run_binary(w, 1, 4, trace, tiny=True, echo=False)
            tag = "%s trace=%d" % (w, trace)
            if record is None:
                failures.append("%s: no result record" % tag)
                continue
            if rc != 0 or not record.get("correct"):
                failures.append("%s: gates failed (exit %d)" % (tag, rc))
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            metrics, problems = select_metrics(record, wanted)
            failures += ["%s: %s" % (tag, p) for p in problems]
            if trace and not problems:
                batch = metrics["core.batch_ms"]["value"]
                total = metrics["core.phase_sum_ms"]["value"]
                other = metrics["core.other_ms_per_batch"]["value"]
                # `other` is a remainder, so only rounding may take it below 0.
                if abs(total - batch) > 1e-9 * max(1.0, batch) or other < -1e-6:
                    failures.append("%s: phases %.6f ms vs batch %.6f ms (other %.6f)" % (
                        tag, total, batch, other))
            print("smoke %-40s %s" % (tag, "ok" if not any(f.startswith(tag) for f in failures) else "FAIL"))
    for f in failures:
        print("smoke failure:", f)
    return 1 if failures else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=0)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    spec = load_spec()
    if args.smoke:
        return cmd_smoke(spec)
    if args.repeat:
        return cmd_repeat(args, spec)
    if not args.workload:
        ap.error("--workload is required")
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return cmd_single(args, spec)


if __name__ == "__main__":
    sys.exit(main())
