#!/usr/bin/env python3
"""Interleaved benchmark pairs, parent against change, written as a ``BENCH_<n>.json``.

Usage, from the repository root:

    python3 tools/pairs.py --parent REV [--change DIR] --workload W \\
        --seeds 1-10 --seconds 20 --out BENCH_<n>.json [--trace-runs N] [--no-counts]

``REV`` is exported with ``git archive`` into a temporary directory (a
directory given as ``--parent`` is used as it is); ``--change`` defaults to
this checkout's working tree.  Both trees are compiled with ``compileall``
first, so no run spends its time or memory compiling the package.  Then, for
each seed, ``perfbench/run.py`` runs from each tree in turn, in its own
process, parent first on odd seeds and change first on even ones; no two
runs overlap.  ``--trace-runs N`` adds N ``--trace 1`` runs per side.

The file keeps every run's JSON, each pair's change/parent ratios, the
host's load before and after, the Python version and, unless
``--no-counts``, both trees' ``tools/costcount.py`` counts for the workload
(per op and per set-up).  For each end-to-end metric it prints one line:

    ops_per_cal_s 1924 [1890–1961] → 2100 (×1.091, 10/10)

the parent's median [q1–q3], the change's median, the ratio of the
medians, and in how many pairs the change was better.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _seeds(text: str) -> list[int]:
    """'1-10' or '1,3,5' (or a mix) as a list of seeds."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def _git(*args: str) -> str:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True, check=True).stdout


def _export(rev: str, into: Path) -> str:
    """Write ``rev``'s tree into ``into`` with ``git archive``; return its commit."""
    commit = _git("rev-parse", "--verify", f"{rev}^{{commit}}").strip()
    tar = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", commit], capture_output=True, check=True)
    safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}  # Python 3.12 warns without one
    with tarfile.open(fileobj=io.BytesIO(tar.stdout)) as archive:
        archive.extractall(into, **safe)
    return commit


def _describe(tree: Path) -> str:
    """A tree's commit and how far its working files differ from it."""
    try:
        head = subprocess.run(["git", "-C", str(tree), "rev-parse", "HEAD"], capture_output=True, text=True,
                              check=True).stdout.strip()
        status = subprocess.run(["git", "-C", str(tree), "status", "--porcelain"], capture_output=True, text=True,
                                check=True).stdout.splitlines()
    except (OSError, subprocess.CalledProcessError):
        return "not a git checkout"
    return f"HEAD {head}, " + (f"{len(status)} paths differ from it" if status else "no uncommitted changes")


def _compile(tree: Path) -> None:
    for part in ("src", "perfbench"):
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(tree / part)], check=True,
                       stdout=subprocess.DEVNULL)


def _run(tree: Path, *args: str) -> dict:
    """One ``perfbench/run.py`` process; its last line of JSON, with its exit code and wall time."""
    started = time.perf_counter()
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}, "stderr": done.stderr[-2000:]}
    return {**result, "_exit": done.returncode, "_wall_s": round(time.perf_counter() - started, 2)}


def _counts(tree: Path, workload: str) -> dict | None:
    """The tree's own cost counts for the workload, per op and per set-up."""
    tool = tree / "tools" / "costcount.py"
    if not tool.exists():
        return None
    counted = {}
    for key, extra in (("ops", ()), ("setup", ("--setup",))):
        done = subprocess.run([sys.executable, str(tool), "--workload", workload, *extra], cwd=tree,
                              capture_output=True, text=True, check=True)
        report = json.loads(done.stdout)
        counted[key] = report["workloads"][workload]
        counted["python"] = report["python"]
    return counted


def _value(result: dict, metric: str) -> float | None:
    entry = result.get("metrics", {}).get(metric)
    return None if entry is None else entry["value"]


def _summary(pairs: list[dict], declared: list[dict]) -> dict:
    """Per metric: both sides' q1, median and q3, the ratio of medians, the
    median per-pair ratio, and in how many pairs the change was better."""
    summary: dict = {
        "attempted": {side: sum(p[side].get("attempted", 0) for p in pairs) for side in SIDES},
        "failed": {side: sum(p[side].get("failed", 0) for p in pairs) for side in SIDES},
    }
    for metric in declared:
        name, lower = metric["name"], metric["better"] == "lower"
        both = [(p["parent"], p["change"]) for p in pairs]
        values = [(_value(a, name), _value(b, name)) for a, b in both]
        values = [(a, b) for a, b in values if a is not None and b is not None]
        if not values:
            continue
        parent, change = [a for a, _ in values], [b for _, b in values]
        quartiles = {side: statistics.quantiles(v, n=4) if len(v) > 1 else [v[0]] * 3
                     for side, v in (("parent", parent), ("change", change))}
        summary[name] = {
            "pairs": len(values),
            "parent_q1_median_q3": quartiles["parent"],
            "change_q1_median_q3": quartiles["change"],
            "ratio_of_medians": quartiles["change"][1] / quartiles["parent"][1],
            "median_pair_ratio": statistics.median(b / a for a, b in values),
            "change_wins": sum((b < a) if lower else (b > a) for a, b in values),
            "median_gap_exceeds_parent_iqr":
                abs(quartiles["change"][1] - quartiles["parent"][1]) > quartiles["parent"][2] - quartiles["parent"][0],
        }
    return summary


def _line(name: str, entry: dict) -> str:
    q1, median, q3 = entry["parent_q1_median_q3"]
    return (f"{name} {median:.5g} [{q1:.5g}–{q3:.5g}] → {entry['change_q1_median_q3'][1]:.5g} "
            f"(×{entry['ratio_of_medians']:.3f}, {entry['change_wins']}/{entry['pairs']})")


def _host() -> dict:
    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu_model": model, "cpus": os.cpu_count(), "loadavg_at_start": list(os.getloadavg()),
            "platform": platform.platform(), "python": platform.python_version()}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="a git revision to export, or a directory")
    parser.add_argument("--change", type=Path, default=ROOT, help="the change's tree (default: this working tree)")
    parser.add_argument("--workload", required=True, choices=("compute", "fleet", "churn"))
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace-runs", type=int, default=0, help="--trace 1 runs per side, after the pairs")
    parser.add_argument("--no-counts", action="store_true", help="leave out tools/costcount.py's counts")
    parser.add_argument("--out", type=Path, required=True, help="the BENCH_<n>.json to write")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or not args.seeds:
        parser.error("--seconds must be positive and --seeds must name at least one seed")

    change = args.change.resolve()
    with tempfile.TemporaryDirectory(prefix="femtoc-pairs-") as scratch:
        if Path(args.parent).is_dir():
            parent, parent_commit = Path(args.parent).resolve(), None
        else:
            parent = Path(scratch) / "parent"
            parent_commit = _export(args.parent, parent)
        trees = {"parent": parent, "change": change}
        for tree in trees.values():
            _compile(tree)
        host = _host()
        declared = json.loads((change / "BENCHMARK.json").read_text())["end_to_end"]

        pairs = []
        for seed in args.seeds:
            order = SIDES if seed % 2 else SIDES[::-1]
            runs = {side: _run(trees[side], "--workload", args.workload, "--seed", str(seed),
                               "--seconds", str(args.seconds)) for side in order}
            ratios = {m["name"]: _value(runs["change"], m["name"]) / _value(runs["parent"], m["name"])
                      for m in declared
                      if _value(runs["parent"], m["name"]) and _value(runs["change"], m["name"]) is not None}
            pairs.append({"seed": seed, "first": order[0], **runs, "ratios": ratios})
            print(f"seed {seed}: " + " ".join(f"{k} ×{v:.3f}" for k, v in ratios.items()), file=sys.stderr)
        traced = {}
        if args.trace_runs:
            traced[args.workload] = {side: [] for side in SIDES}
            for seed in range(1, args.trace_runs + 1):
                for side in (SIDES if seed % 2 else SIDES[::-1]):
                    traced[args.workload][side].append(_run(trees[side], "--workload", args.workload, "--seed",
                                                            str(seed), "--seconds", str(args.seconds), "--trace", "1"))
        counts = None if args.no_counts else {side: _counts(trees[side], args.workload) for side in SIDES}
        host["loadavg_at_end"] = list(os.getloadavg())

    summary = _summary(pairs, declared)
    document = {
        "what": f"perfbench/run.py end-to-end metrics (--trace 0) for interleaved parent/change pairs on "
                f"{args.workload}, from tools/pairs.py",
        "parent_commit": parent_commit,  # None when --parent named a directory
        "change_tree": _describe(change),
        "host": host,
        "settings": {
            "order": "odd seeds run the parent first, even seeds the change first",
            "seconds": args.seconds,
            "seeds": args.seeds,
            "trace_runs": args.trace_runs,
            "compiled": "python -m compileall over both trees' src/ and perfbench/ before any run",
        },
        "pairs": {args.workload: pairs},
        "summary": {args.workload: summary},
        "traced": traced,
        "counts": {args.workload: counts},
    }
    args.out.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    for metric in declared:
        if metric["name"] in summary:
            print(_line(metric["name"], summary[metric["name"]]))
    failed = [p["seed"] for p in pairs for side in SIDES if not p[side].get("correct") or p[side]["_exit"]]
    if failed:
        print(f"pairs: runs failed or were incorrect for seeds {sorted(set(failed))}", file=sys.stderr)
        return 1
    return 0 if all(math.isfinite(v) for p in pairs for v in p["ratios"].values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
