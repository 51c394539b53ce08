#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  The first run configures and
builds perfbench/ (the library sources under src/ plus nct_perfbench) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
rebuild incrementally.  nct_perfbench's last stdout line is the result
object; this script checks that its metric names are exactly the ones
BENCHMARK.json declares and warns on stderr when the host differs from
perfbench/host.json.  Traced runs write a Perfetto JSON trace to
<build dir>/traces/.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build(build_dir, env):
    jobs = str(os.cpu_count() or 1)
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(build_dir), "-j", jobs, "--target", "nct_perfbench"],
    ]
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(step)}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources at {ROOT / 'src'}; run from a source checkout", 2)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload}", 2)

    build_root = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = build_root / "perfbench"
    tmp = build_root / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    build(build_dir, env)

    cmd = [str(build_dir / "nct_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", args.trace, "--pins", str(HERE / "pins")]
    if args.trace == "1":
        traces = build_root / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{args.workload}-seed{args.seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if done.returncode != 0 or len(lines) < 2:
        fail(f"{args.workload} exited with code {done.returncode}")

    host = json.loads(lines[-2])["host"]
    reference = json.loads((HERE / "host.json").read_text())
    if host != reference:
        print(f"perfbench: WARNING: host {json.dumps(host)} differs from the reference "
              f"host {json.dumps(reference)}; compare figures only across runs on one host",
              file=sys.stderr)

    result = json.loads(lines[-1])
    declared = {m["name"] for m in spec["per_layer" if args.trace == "1" else "end_to_end"]}
    if set(result["metrics"]) != declared:
        fail(f"metrics {sorted(set(result['metrics']) ^ declared)} do not match BENCHMARK.json")
    print(json.dumps({"host": host}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
