#!/usr/bin/env python3
"""Run one workload of the repo benchmark and print its result.

    python3 perfbench/run.py --workload mnv1_f32_1t --seed 1 --seconds 10 --trace 0

Builds the edgebench libraries and the two perfbench binaries from this
checkout (CMake, RelWithDebInfo, the tree's own default flags) into
$CARGO_TARGET_DIR or .bench_build, then runs:

  --trace 0  perfbench_e2e --eval (int8-vs-fp32 accuracy, fixed eval
             set) and perfbench_e2e on the workload: the end-to-end
             metrics of BENCHMARK.json;
  --trace 1  perfbench_layers on the workload: the per-layer metrics,
             with a Chrome trace written under <build dir>/traces/.

The last stdout line is one JSON object with exactly the keys correct,
attempted, failed and metrics. The full record (host/build fingerprint,
sample counts, failed_frac) goes to <build dir>/results/ and to the
lines above it. Exits 1 when any timed operation threw or failed its
output check, 2 when the benchmark could not be built or run.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def run_logged(cmd, log, timeout):
    with open(log, "a") as f:
        f.write("$ " + " ".join(cmd) + "\n")
        f.flush()
        try:
            rc = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                                timeout=timeout).returncode
        except subprocess.TimeoutExpired:
            raise BenchError(f"timed out: {' '.join(cmd)} (log: {log})")
    if rc != 0:
        tail = Path(log).read_text().splitlines()[-20:]
        raise BenchError(f"failed ({rc}): {' '.join(cmd)}\n" +
                         "\n".join(tail))


def build(target):
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd, log, BUILD_TIMEOUT_S)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", str(out), "--target", target,
                "-j", jobs], log, BUILD_TIMEOUT_S)
    return out / target


def run_binary(cmd):
    """Run a benchmark binary; return (exit code, its JSON result line)."""
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"timed out: {' '.join(cmd)}")
    sys.stderr.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    if p.returncode not in (0, 1) or not lines:
        raise BenchError(f"{' '.join(cmd)} exited {p.returncode}")
    return p.returncode, json.loads(lines[-1])


def declared_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--corrupt-reference", action="store_true",
                    help="flip a byte of the first reference output "
                         "(self-test: the run must fail)")
    args = ap.parse_args()

    declared = declared_metrics(args.trace)
    target = "perfbench_layers" if args.trace else "perfbench_e2e"
    exe = str(build(target))
    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds)]
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    out = build_dir()
    if args.trace:
        traces = out / "traces"
        traces.mkdir(exist_ok=True)
        cmd += ["--trace-out", str(
            traces / f"{args.workload}-seed{args.seed}.trace.json")]

    measured = {}
    records = {}
    if not args.trace:
        _, ev = run_binary([exe, "--eval"])
        if not ev["correct"]:
            raise BenchError("the int8 eval failed")
        measured.update(ev["metrics"])
        records["eval"] = ev
    code, res = run_binary(cmd)
    measured.update(res["metrics"])
    records["workload"] = res

    metrics = {}
    for m in declared:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"] or got["value"] is None:
            raise BenchError(f"metric {m['name']} missing or malformed: "
                             f"{got}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    attempted = int(res["attempted"])
    failed = int(res["failed"])
    correct = bool(res["correct"]) and code == 0
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    results = out / "results"
    results.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  failed_frac=failed / attempted if attempted else 1.0,
                  fingerprint=res.get("fingerprint"), binaries=records)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")

    print(f"# workload {args.workload} seed {args.seed} "
          f"seconds {args.seconds} trace {args.trace}")
    print("# fingerprint " + json.dumps(res.get("fingerprint")))
    print("# info " + json.dumps(res.get("info")))
    print(f"# failed_frac {record['failed_frac']:.6g} "
          f"({failed}/{attempted})")
    for name, m in metrics.items():
        print(f"# {name:28s} {m['value']:14.6f} {m['unit']}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
