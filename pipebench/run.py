#!/usr/bin/env python3
"""Pipeline benchmark: build, prepare inputs, run one workload.

    python3 pipebench/run.py --workload flat-lfr100k --seed 1 --seconds 20 --trace 0
    python3 pipebench/run.py --steadiness [--runs 10] [--workload NAME ...]

A run builds the oca library and the benchmark programs from this source
tree into .bench_build/ (Release), writes the workload's inputs for the
seed with pipebench_prep in its own process (cached under
.bench_build/inputs/ and reused), then runs pipebench_run and prints its
last line: one JSON object with correct, attempted, failed and metrics.

--steadiness runs two sets of --runs runs per workload, each run with
its own seed, and prints per metric each set's median and quartiles, the
spread (q3 - q1) / median and the set-to-set change against the bound
BENCHMARK.json gives. See pipebench/README.md.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = {
    # name: (prep kind, nodes, input instances per run)
    "flat-lfr100k": ("text", 100000, 4),
    "hier-wlfr50k": ("weighted", 50000, 2),
    "serve-mix": ("weighted", 50000, 2),
}
RUN_TIMEOUT_S = 170
# A run with seed s and k input instances uses generator seeds
# k*s .. k*s + k - 1; pipeline passes cycle over them, so a run's figures
# average over k graphs of the family instead of one.
# Input instances kept in the cache (~15-40 MB each).
INPUT_SETS_KEPT = 32


def fail(message):
    print("pipebench: " + message, file=sys.stderr)
    sys.exit(1)


def run_logged(cmd, log_path, timeout):
    with open(log_path, "ab") as log:
        proc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              timeout=timeout, check=False)
    if proc.returncode != 0:
        with open(log_path, "rb") as log:
            sys.stderr.write(log.read()[-4000:].decode(errors="replace"))
        fail("command failed: " + " ".join(cmd))


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no oca source tree next to pipebench/ (expected src/CMakeLists.txt)")
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", BUILD,
                    "-DCMAKE_BUILD_TYPE=Release"], log, 600)
    run_logged(["cmake", "--build", BUILD, "-j", "4", "--target",
                "pipebench_prep", "pipebench_run"], log, 900)


def evict_inputs(keep):
    """Drops all but the `keep` most recently used input sets."""
    root = os.path.join(BUILD, "inputs")
    sets = [os.path.join(root, d) for d in os.listdir(root)
            if ".tmp." not in d]
    sets.sort(key=os.path.getmtime, reverse=True)
    for old in sets[keep:]:
        shutil.rmtree(old, ignore_errors=True)


def prep_digest():
    """Short hash of the pipebench_prep binary. Inputs are cached under it,
    so a change to the generators or writers it is built from never
    reuses inputs another build of it wrote."""
    h = hashlib.sha256()
    with open(os.path.join(BUILD, "pipebench_prep"), "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:12]


def prepare(workload, seed):
    """Returns the input directories of the run's instances."""
    kind, nodes, instances = WORKLOADS[workload]
    digest = prep_digest()
    return [prepare_instance(kind, nodes, instances * seed + i, digest)
            for i in range(instances)]


def prepare_instance(kind, nodes, gen_seed, digest):
    inputs = os.path.join(BUILD, "inputs", "%s-%d-%d-%s" %
                          (kind, nodes, gen_seed, digest))
    if os.path.isdir(inputs):
        os.utime(inputs)
        return inputs
    os.makedirs(os.path.dirname(inputs), exist_ok=True)
    evict_inputs(INPUT_SETS_KEPT - 1)
    tmp = "%s.tmp.%d" % (inputs, os.getpid())
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    run_logged([os.path.join(BUILD, "pipebench_prep"), "--kind=" + kind,
                "--nodes=%d" % nodes, "--seed=%d" % gen_seed, "--out=" + tmp],
               os.path.join(BUILD, "prep.log"), RUN_TIMEOUT_S)
    try:
        os.rename(tmp, inputs)
    except OSError:  # another run prepared the same seed first
        shutil.rmtree(tmp, ignore_errors=True)
    return inputs


def run_once(workload, seed, seconds, trace):
    """Runs one measured process; returns (info line, result dict)."""
    inputs = prepare(workload, seed)
    work = os.path.join(BUILD, "work", "%s-%d-%d" % (workload, seed,
                                                     os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        proc = subprocess.run(
            [os.path.join(BUILD, "pipebench_run"), "--workload=" + workload,
             "--seed=%d" % seed, "--seconds=%s" % seconds,
             "--trace=%d" % trace, "--inputs=" + ",".join(inputs),
             "--work=" + work],
            stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, check=False)
        if trace:
            trace_file = os.path.join(work, "trace.jsonl")
            if os.path.isfile(trace_file):
                shutil.copy(trace_file, os.path.join(
                    BUILD, "trace-%s-%d.jsonl" % (workload, seed)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("pipebench_run exited with %d" % proc.returncode)
    info = "\n".join(line for line in lines[:-1] if line.startswith("#"))
    return info, json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steadiness(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    sets = [{}, {}]
    for s in range(2):
        for workload in workloads:
            runs = []
            for i in range(args.runs):
                seed = args.first_seed + i
                _, result = run_once(workload, seed, seconds, 0)
                runs.append(result)
                print("set %d %s seed %d: correct=%s attempted=%d failed=%d %s"
                      % (s + 1, workload, seed, result["correct"],
                         result["attempted"], result["failed"],
                         " ".join("%s=%.6g" % (k, v["value"])
                                  for k, v in sorted(result["metrics"].items()))),
                      flush=True)
            sets[s][workload] = runs
    verdicts = []
    print("\n%-13s %-13s %-32s %-32s %7s %7s %7s %6s" %
          ("workload", "metric", "set A q1/median/q3",
           "set B q1/median/q3", "sprA", "sprB", "change", "bound"))
    for workload in workloads:
        shares = set()
        for s in range(2):
            for r in sets[s][workload]:
                shares.add(r["failed"] / r["attempted"])
        for m in metrics:
            name, bound = m["name"], m["bound"]
            stats = []
            for s in range(2):
                values = [r["metrics"][name]["value"]
                          for r in sets[s][workload]]
                q1, med, q3 = quartiles(values)
                stats.append((q1, med, q3, (q3 - q1) / med))
            # Positive change = set B worse than set A; the sets agree
            # when the change is within the bound either way.
            change = (stats[1][1] - stats[0][1]) / stats[0][1]
            if m["better"] == "higher":
                change = -change
            spread = max(stats[0][3], stats[1][3])
            ok = abs(change) <= bound and spread <= bound
            verdicts.append(ok)
            print("%-13s %-13s %-32s %-32s %6.1f%% %6.1f%% %6.1f%% %5.0f%% %s" %
                  (workload, name,
                   "%.5g/%.5g/%.5g" % stats[0][:3],
                   "%.5g/%.5g/%.5g" % stats[1][:3],
                   100 * stats[0][3], 100 * stats[1][3], 100 * change,
                   100 * bound, "" if ok else "OUT"))
        verdicts.append(len(shares) == 1)
        print("%-13s failed share per run: %s" % (workload, sorted(shares)))
    ok = all(verdicts)
    print("\nsteady within bounds: %s" % ok)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    build()
    if args.steadiness:
        return steadiness(args)
    if not args.workload or len(args.workload) != 1 or \
            args.workload[0] not in WORKLOADS:
        fail("--workload must name one of " + ", ".join(WORKLOADS))
    if args.seconds <= 0 or args.seed < 0:
        fail("--seconds must be positive and --seed non-negative")
    info, result = run_once(args.workload[0], args.seed, args.seconds,
                            args.trace)
    if info:
        print(info)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
