"""``tools/pairs.py`` runs interleaved benchmark pairs and writes a
``BENCH_<n>.json`` with the keys ``BENCH_8.json`` has."""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_two_short_pairs_of_the_working_tree_against_itself(tmp_path):
    out = tmp_path / "BENCH_pairs.json"
    command = [sys.executable, str(ROOT / "tools" / "pairs.py"), "--parent", str(ROOT), "--change", str(ROOT),
               "--workload", "fleet", "--seeds", "1-2", "--seconds", "0.2", "--no-counts", "--out", str(out)]
    started = time.perf_counter()
    done = subprocess.run(command, capture_output=True, text=True, timeout=60)
    elapsed = time.perf_counter() - started
    assert done.returncode == 0, done.stderr
    assert elapsed <= 15

    bench = json.loads(out.read_text())
    assert set(json.loads((ROOT / "BENCH_8.json").read_text())) <= set(bench)
    pairs = bench["pairs"]["fleet"]
    assert [(p["seed"], p["first"]) for p in pairs] == [(1, "parent"), (2, "change")]
    declared = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    for pair in pairs:
        assert pair["parent"]["correct"] and pair["change"]["correct"]
        assert sorted(pair["ratios"]) == sorted(declared)
        assert all(math.isfinite(ratio) and ratio > 0 for ratio in pair["ratios"].values())
    summary = bench["summary"]["fleet"]
    assert all(summary[name]["pairs"] == 2 and math.isfinite(summary[name]["ratio_of_medians"]) for name in declared)
    assert bench["host"]["python"] and len(bench["host"]["loadavg_at_start"]) == 3
    # one "median [q1–q3] → change (×ratio, n/N)" line per end-to-end metric
    lines = done.stdout.splitlines()
    assert [line.split()[0] for line in lines] == declared
    assert all(" → " in line and line.endswith("/2)") for line in lines)
