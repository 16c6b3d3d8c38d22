#!/usr/bin/env python3
"""Builds and runs the CloakDB repository benchmark (cloakbench).

One run, as BENCHMARK.json's command is invoked:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

prints the human report and, as its last stdout line, one JSON object with
the keys correct, attempted, failed and metrics. It exits non-zero when an
answer check fails or the program cannot be built.

    python3 perfbench/run.py --all [--seed N] [--seconds S]

runs every workload untraced and traced and prints each metric with its unit.

    python3 perfbench/run.py --self-test

feeds the checker deliberately broken inputs, then smoke-runs every workload
at a tiny size with all checks on and validates the result lines against
BENCHMARK.json.

The benchmark builds libcloakdb from ../src with its own CMake project into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) under the
repository root, and writes data directories, crash images, traces and
result files under .../out.
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


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def local_env() -> dict:
    """The environment for child processes, with temporary files (the
    compiler's too) kept inside the build directory."""
    tmp = build_dir() / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    return dict(os.environ, TMPDIR=str(tmp), CLOAKBENCH_GIT_SHA=git_sha())


def build() -> Path:
    """Configures (once) and builds cloakbench; returns the binary path."""
    out = build_dir()
    env = local_env()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        configured = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                    env=env)
        if configured.returncode != 0:
            (out / "CMakeCache.txt").unlink(missing_ok=True)
            sys.exit("cloakbench: configure failed")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    built = subprocess.run(
        ["cmake", "--build", str(out), "--target", "cloakbench", "-j", jobs],
        stdout=sys.stderr, stderr=sys.stderr, env=env)
    if built.returncode != 0:
        sys.exit("cloakbench: build failed")
    return out / "cloakbench"


def git_sha() -> str:
    if not (ROOT / ".git").exists() or not shutil.which("git"):
        return "unknown"
    got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return got.stdout.strip() if got.returncode == 0 else "unknown"


def run_binary(binary: Path, args, capture=False):
    env = local_env()
    cmd = [str(binary), *args, "--out-dir", str(build_dir() / "out")]
    if capture:
        return subprocess.run(cmd, env=env, capture_output=True, text=True,
                              timeout=600)
    return subprocess.run(cmd, env=env, timeout=600)


def result_line(stdout: str):
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads(lines[-1]) if lines else None


def spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run_all(binary: Path, seed: int, seconds: int) -> int:
    bench = spec()
    status = 0
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace in ("0", "1"):
            got = run_binary(binary, ["--workload", workload, "--seed",
                                      str(seed), "--seconds", str(seconds),
                                      "--trace", trace], capture=True)
            print(f"== {workload} trace={trace} (exit {got.returncode})")
            print("\n".join(got.stdout.splitlines()[:-1]))
            status = status or got.returncode
    return status


def self_test(binary: Path) -> int:
    failures = 0
    got = run_binary(binary, ["--self-test"], capture=True)
    print(got.stdout, end="")
    if got.returncode != 0:
        print("FAIL: the checker accepted a broken input")
        failures += 1
    bench = spec()
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            got = run_binary(binary, ["--workload", workload, "--seed", "3",
                                      "--seconds", "2", "--trace", trace,
                                      "--tiny"], capture=True)
            result = result_line(got.stdout)
            want = {m["name"]: m["unit"] for m in bench[key]}
            problems = []
            if got.returncode != 0:
                problems.append(f"exit {got.returncode}: {got.stderr[-400:]}")
            if result is None or set(result) != {"correct", "attempted",
                                                 "failed", "metrics"}:
                problems.append("malformed result line")
            else:
                if result["correct"] is not True:
                    problems.append("answer checks failed")
                have = {k: v["unit"] for k, v in result["metrics"].items()}
                if have != want:
                    problems.append(f"metrics differ from BENCHMARK.json: "
                                    f"{sorted(set(have) ^ set(want))}")
            verdict = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"smoke {workload:16s} trace={trace}: {verdict}")
            failures += bool(problems)
    print(f"self-test: {failures} failures")
    return 1 if failures else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", choices=["0", "1"], default="0")
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.all and not args.self_test and not args.workload:
        parser.error("give --workload, --all or --self-test")
    binary = build()
    if args.self_test:
        return self_test(binary)
    seconds = args.seconds or spec()["run_seconds"]
    if args.all:
        return run_all(binary, args.seed, seconds)
    sys.stdout.flush()
    return run_binary(binary, ["--workload", args.workload, "--seed",
                               str(args.seed), "--seconds", str(seconds),
                               "--trace", args.trace]).returncode


if __name__ == "__main__":
    sys.exit(main())
