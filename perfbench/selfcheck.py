#!/usr/bin/env python3
"""Self-check of the benchmark: determinism of its counts, and a second seed.

Usage, from the repository root:

    python3 perfbench/selfcheck.py

For every workload it makes two traced runs of SECONDS with seed SEED, under
different hash seeds, and requires every count of the counting pass to
repeat exactly: instructions, memory checks, helper calls, verifier passes,
updates accepted and rejected, and the rest. It then runs every workload
untraced with OTHER_SEED and requires every output check to pass.
Exits 1 on any difference or failed check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
SEED = 1
OTHER_SEED = 2
SECONDS = 1


def exact_metrics(bench: dict) -> list[str]:
    """Metrics that come from the fixed-length counting pass.

    tail.op_samples is a count too, but it depends on machine speed.
    """
    return [
        m["name"]
        for m in bench["per_layer"]
        if m["unit"] in ("count", "bytes") and m["name"] != "tail.op_samples"
    ] + ["engine.verify_hit_ratio", "verifier.passes_per_verify"]


def run(workload: str, seed: int, trace: int, hash_seed: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(SECONDS), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True, env=env, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    result["exit"] = proc.returncode
    return result


def main() -> int:
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    exact = exact_metrics(bench)
    problems = []
    for entry in bench["workloads"]:
        name = entry["name"]
        first = run(name, SEED, 1, "1")
        second = run(name, SEED, 1, "2")
        for result in (first, second):
            if result["exit"] != 0 or not result["correct"]:
                problems.append(f"{name}: traced run with seed {SEED} failed its output checks")
        for metric in exact:
            a = first["metrics"].get(metric, {}).get("value")
            b = second["metrics"].get(metric, {}).get("value")
            if a is None or a != b:
                problems.append(f"{name}: {metric} differs between runs: {a} vs {b}")
        other = run(name, OTHER_SEED, 0, "3")
        if other["exit"] != 0 or not other["correct"]:
            problems.append(f"{name}: run with seed {OTHER_SEED} failed its output checks")
        counts = {m: first["metrics"][m]["value"] for m in exact if m in first["metrics"]}
        print(f"{name}: {len(exact)} counts compared; " + ", ".join(
            f"{m}={counts[m]:g}" for m in ("vm.instructions_per_op", "memory.checks_per_op",
                                         "facilities.helper_calls_per_op", "verifier.passes_per_verify",
                                         "update.accepted") if m in counts))
    for problem in problems:
        print(f"selfcheck: {problem}", file=sys.stderr)
    print("selfcheck:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
