#!/usr/bin/env python3
"""Build and run the repository benchmark (see wkbench/README.md).

    python3 wkbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds wkbench from wkbench/ and ../src with CMake into $CARGO_TARGET_DIR
(default .bench_build at the repository root), runs the workload's two
phases as separate processes (rt: open-loop load on three TCP-linked
thread-runtime sites; des: scenario cells on the deterministic simulator),
prints their reports, and ends with one JSON line that merges them:
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics; a correct run that misses one of them is an error. Exits
non-zero without a JSON line if the build, a phase, or that check fails.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PHASE_TIMEOUT_S = {"rt": 120, "des": 45}


def build():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(build_dir):
        build_dir = os.path.join(ROOT, build_dir)
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if shutil.which("ninja") and not os.path.exists(
            os.path.join(build_dir, "CMakeCache.txt")):
        configure += ["-G", "Ninja"]
    # Build chatter goes to stderr: stdout ends with the result line.
    subprocess.run(configure, stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", build_dir, "--target", "wkbench",
                    "--parallel", "4"], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "wkbench")


def run_phase(binary, phase, args):
    cmd = [binary, "--phase", phase, "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=PHASE_TIMEOUT_S[phase])
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    if proc.returncode != 0:
        raise RuntimeError(f"phase {phase} exited {proc.returncode}")
    return json.loads(lines[-1])


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    try:
        binary = build()
        # The DES phase goes first: right after the rt phase's load, the
        # simulator measured slower on a shared 4-core VM.
        results = [run_phase(binary, phase, args) for phase in ("des", "rt")]
        merged = {
            "correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": {},
        }
        want = expected_metrics(args.trace)
        for r in results:
            merged["metrics"].update(
                {k: v for k, v in r["metrics"].items() if k in want})
        got = set(merged["metrics"])
        # A run that failed its checks may stop before measuring everything;
        # it still reports correct=false.
        if merged["correct"] and got != want:
            raise RuntimeError(f"metrics missing {sorted(want - got)}")
    except (OSError, RuntimeError, ValueError, KeyError,
            subprocess.SubprocessError) as e:
        print(f"wkbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
