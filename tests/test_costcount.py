"""``tools/costcount.py`` counts the same bytecodes and C calls per op, and
per set-up, in every run and under every hash seed."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


# compute's counts after 4 ops of warm-up, over 2 ops
COUNT = "import json, costcount; print(json.dumps(costcount.report({'compute': costcount.count('compute', 1, 4, 2)})))"


def _counts(hash_seed: str, script: str = COUNT) -> dict:
    command = [sys.executable, "-c", script]
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


# fleet's counts for its second set-up in the process
COUNT_SETUP = (
    "import json, costcount; print(json.dumps(costcount.report({'fleet': costcount.count_setup('fleet', 1)})))"
)


def test_a_set_up_counts_the_same_in_two_runs_under_two_hash_seeds():
    first, second = _counts("0", COUNT_SETUP), _counts("1", COUNT_SETUP)
    assert first == second
    fleet = first["workloads"]["fleet"]
    assert fleet["setups_before"] == 1 and fleet["bytecodes_per_setup"] > 0 and fleet["c_calls_per_setup"] > 0
    # Its 4096 sensor samples are plain ints, which doc.literals reads in one
    # pass, not with one integer parse each.
    counts = fleet["bytecodes"]
    assert "src/femtoc/doc.py:literals" in counts
    per_value = ("src/femtoc/doc.py:literals", "src/femtoc/doc.py:_literal")  # and their comprehensions
    assert sum(n for key, n in counts.items() if key.startswith(per_value)) < 4096


# churn's counts after 4 ops of warm-up, over 16 ops
COUNT_CHURN = (
    "import json, costcount; print(json.dumps(costcount.report({'churn': costcount.count('churn', 1, 4, 16)})))"
)


def test_the_scan_of_a_churn_update_runs_its_plain_slots_in_columns():
    # Each accepted update verifies a 16-1024-slot payload that is nearly all
    # plain ALU slots; the column pass lowers those with no bytecode per slot.
    # The per-slot scan it replaced ran ~9500 bytecodes per op over these 16.
    counts = _counts("0", COUNT_CHURN)["workloads"]["churn"]["bytecodes"]
    assert 0 < counts["src/femtoc/verifier.py:_scan"] < 2000
