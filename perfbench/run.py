"""hooktrees benchmark: one command, every metric by name with its unit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (brute-mix, recurrence-deep or cli-cold; see
``workloads.py``) against the working tree's ``src/``, checks every op's
output exactly, and prints two JSON lines on stdout: a details line with
provenance, then the result line

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
timed with GC on and no wrappers.  With ``--trace 1`` they are the
per-layer ones, from a separate traced pass (see ``spans.py``).  Set-up is
repeated in fresh interpreters and its median reported.  Uses only the
standard library.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
DEADLINE_S = 170  # every run must end within 180 s


def src_lines() -> int:
    return sum(len(path.read_text().splitlines()) for path in sorted((ROOT / "src").rglob("*.py")))


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def stream_digest(name: str, seed: int) -> str:
    """sha256 of the first eight blocks of a workload's op stream."""
    ops = workloads.first_blocks(workloads.WORKLOADS[name](), seed, 8)
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()


def provenance(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "cpu": cpu_model(),
        "git_commit": git_commit(),
        "src.lines": src_lines(),
        "op_stream_sha256": {name: stream_digest(name, seed) for name in workloads.WORKLOADS},
    }


def call_worker(args, deadline: float, *extra: str) -> dict:
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), *extra]
    if args.tiny:
        command.append("--tiny")
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def main() -> int:
    deadline = time.monotonic() + DEADLINE_S
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--tiny", action="store_true",
                        help="small sizes, for the benchmark's own self-test")
    args = parser.parse_args()

    if not (ROOT / "src" / "hooktrees" / "__init__.py").is_file():
        print(f"error: no hooktrees package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_REPEATS - 1):
                setups.append(call_worker(args, deadline, "--setup-only")["setup_s"])
        result = call_worker(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setups.append(result["setup_s"])

    values = dict(result["metrics"], setup_s=statistics.median(setups))
    info = provenance(args.seed)
    values["src.lines"] = info["src.lines"]
    section = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in section if m["name"] not in values]
    if missing:
        print(f"error: metrics not produced: {', '.join(missing)}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in section}

    failures = result["failures"]
    for message in failures[:10]:
        print(f"FAILED: {message}", file=sys.stderr)
    details = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
               "provenance": info, "setup_samples_s": setups, **result["details"]}
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": not failures, "attempted": result["attempted"],
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
