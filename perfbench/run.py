#!/usr/bin/env python3
"""Builds and runs the MRTS benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/ (the runtime libraries from src/ plus the driver) into
$CARGO_TARGET_DIR, or .bench_build when that is unset; later runs only
re-check the build. The driver prints the values it measured by metric name;
this script gives them the units and order of BENCHMARK.json and prints the
result as the last line of standard output. Build output, host details and
diagnostics go to standard error. Any failure exits non-zero without
printing a result.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Time a run may take beyond --seconds: set-up, checks, probes and the
# sequential baseline of a traced run.
RUN_SLACK_S = 150


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build_steps(out, jobs):
    """Configures `out` if it has no cache yet and builds the driver; returns
    whether every step succeeded. Compiler temporaries go to a directory of
    the build tree, so the build writes nothing outside the checkout."""
    tmp = out / "tmp" / "build"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp), TMP=str(tmp), TEMP=str(tmp))
    steps = []
    if not (out / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B", str(out)])
    steps.append(["cmake", "--build", str(out), "--target", "mrts_perfbench",
                  "-j", str(jobs)])
    for cmd in steps:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            print(f"perfbench: build step failed: {' '.join(cmd)}",
                  file=sys.stderr)
            return False
    return (out / "mrts_perfbench").exists()


def build(out):
    """Builds mrts_perfbench into `out` and returns its path.

    A failed build is retried once in a clean tree with a single compiler
    job: that recovers from a tree left half-configured by an interrupted
    first run, and from a compiler killed for memory."""
    if build_steps(out, 4):
        return out / "mrts_perfbench"
    print("perfbench: retrying the build in a clean tree", file=sys.stderr)
    shutil.rmtree(out, ignore_errors=True)
    if build_steps(out, 1):
        return out / "mrts_perfbench"
    fail("build failed")


def host_line(out):
    cache = {}
    for line in (out / "CMakeCache.txt").read_text().splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    # perfbench/CMakeLists.txt always compiles tracing in.
    return (f"host: nproc={os.cpu_count()} cpu={cpu!r} compiler={version!r} "
            f"build_type={cache.get('CMAKE_BUILD_TYPE', '?')} MRTS_TRACE=ON")


def load_spec():
    """BENCHMARK.json, checked against the metric names of predictions.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    pred = json.loads((ROOT / "perfbench" / "predictions.json").read_text())
    if [m["name"] for m in pred["per_layer"]] != \
            [m["name"] for m in spec["per_layer"]]:
        fail("per_layer names of predictions.json differ from BENCHMARK.json")
    if sorted(pred["workloads"]) != sorted(w["name"] for w in spec["workloads"]):
        fail("workloads of predictions.json differ from BENCHMARK.json")
    if sorted(pred["end_to_end"]) != sorted(m["name"] for m in spec["end_to_end"]):
        fail("end_to_end names of predictions.json differ from BENCHMARK.json")
    return spec


def with_units(measured, metrics, trace):
    """Orders the measured values as `metrics` lists them and adds units.

    A per-layer metric the workload does not exercise reads 0; every
    end-to-end metric must have been measured."""
    unknown = set(measured) - {m["name"] for m in metrics}
    if unknown:
        fail(f"driver measured metrics not in BENCHMARK.json: {sorted(unknown)}")
    out = {}
    for m in metrics:
        value = measured.get(m["name"])
        if value is None:
            if not trace:
                fail(f"driver did not measure {m['name']}")
            value = 0.0
        out[m["name"]] = {"value": value, "unit": m["unit"]}
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    spec = load_spec()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")

    out = build_dir()
    binary = build(out)
    print(host_line(out), file=sys.stderr)

    # Spill directories of the run live inside the build tree and are
    # removed afterwards.
    tmp = out / "tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = out / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}-{args.seed}.json")]
    env = dict(os.environ, TMPDIR=str(tmp))
    timeout = args.seconds + RUN_SLACK_S
    started = time.monotonic()
    try:
        done = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {timeout:.0f} s")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(f"perfbench: run took {time.monotonic() - started:.1f} s",
          file=sys.stderr)
    if done.returncode < 0:
        fail(f"mrts_perfbench killed by {signal.Signals(-done.returncode).name}")
    if done.returncode != 0:
        fail(f"mrts_perfbench exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("mrts_perfbench printed no result")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"unexpected result keys {sorted(result)}")
    key = "per_layer" if args.trace else "end_to_end"
    result["metrics"] = with_units(result["metrics"], spec[key], args.trace)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
