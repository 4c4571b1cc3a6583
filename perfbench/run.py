#!/usr/bin/env python3
"""Build and run the checker benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The first run configures and builds
perfbench/CMakeLists.txt (the tmw library from src/ plus perfbench_bin) into
$CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench when the variable is
unset; later runs rebuild only what changed. The binary's report lines are
passed through and the last line printed is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

whose metrics are exactly BENCHMARK.json's end_to_end metrics (--trace 0)
or per_layer metrics (--trace 1). Exits non-zero, printing no result, when
the sources are missing, the build fails, or the binary fails.
"""

import argparse
import hashlib
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
HERE = ROOT / "perfbench"
WORKLOADS = ("synth_x86", "matrix_replay", "serve_mixed", "store_restart")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src").is_dir():
        fail("no tmw sources next to perfbench/ (src/ is missing)")
    build_root = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build_root.is_absolute():
        build_root = ROOT / build_root
    build_dir = build_root / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    log = build_dir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perfbench_bin", "-j", jobs])
    with open(log, "w") as out:
        for step in steps:
            if subprocess.run(step, stdout=out, stderr=subprocess.STDOUT).returncode:
                tail = log.read_text().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed (see {log})")
    return build_dir / "perfbench_bin"


def commit_id():
    """The git commit when the checkout is a repository, else a digest of
    the sources the binary was built from."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for path in sorted((ROOT / base).rglob("*")):
            if path.is_file():
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return "tree-" + digest.hexdigest()[:16]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="corrupt one reference answer (self-check: the "
                             "run must then report a failure)")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    binary = build()
    out_dir = ROOT / ".perfbench_run"
    out_dir.mkdir(exist_ok=True)
    command = [str(binary), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--commit", commit_id(),
               "--out", str(out_dir), "--ref", str(HERE / "reference")]
    if args.corrupt_reference:
        command.append("--corrupt-reference")
    try:
        run = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                             text=True, timeout=170)
    except subprocess.TimeoutExpired:
        fail("the benchmark binary did not finish within 170 s")
    lines = run.stdout.rstrip("\n").splitlines()
    if run.returncode != 0 or not lines:
        sys.stdout.write(run.stdout)
        fail(f"the benchmark binary exited with code {run.returncode}")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        fail("the benchmark binary's last line is not JSON")
    for line in lines[:-1]:
        print(line)

    metrics = {}
    for entry in wanted:
        got = result["metrics"].get(entry["name"])
        if got is None:
            fail(f"metric {entry['name']} was not measured")
        if got["unit"] != entry["unit"]:
            fail(f"metric {entry['name']}: unit {got['unit']}, "
                 f"BENCHMARK.json says {entry['unit']}")
        metrics[entry["name"]] = got
    print(json.dumps({"correct": result["correct"],
                      "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": metrics}), flush=True)


if __name__ == "__main__":
    main()
