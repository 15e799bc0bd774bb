"""``tools/costcount.py`` counts the same bytecodes and C calls per op in
every run and under every hash seed."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# compute's counts after 4 ops of warm-up, over 2 ops
COUNT = "import json, costcount; print(json.dumps(costcount.report({'compute': costcount.count('compute', 1, 4, 2)})))"


def _counts(hash_seed: str) -> dict:
    command = [sys.executable, "-c", COUNT]
    env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": str(ROOT / "tools")}
    return json.loads(subprocess.run(command, env=env, capture_output=True, text=True, check=True).stdout)


def test_two_runs_under_two_hash_seeds_count_the_same():
    first, second = _counts("0"), _counts("1")
    assert first == second
    compute = first["workloads"]["compute"]
    assert first["python"] == ".".join(map(str, sys.version_info[:3]))
    assert compute["bytecodes_per_op"] > 0 and compute["c_calls_per_op"] > 0
    # fletcher32_360's compiled loop decodes its words at once, in closed
    # form, and opens no stream: four containers, four decodes per op.
    assert compute["c_calls"]["unpack_from"] == 4 and "Struct.iter_unpack" not in compute["c_calls"]
