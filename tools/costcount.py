#!/usr/bin/env python3
"""Deterministic cost counts per op: bytecode instructions and C calls.

Usage, from the repository root:

    python3 tools/costcount.py --workload compute|fleet|churn|all > counts.json
    python3 tools/costcount.py --workload fleet --setup > setup-counts.json

Each workload is built through ``perfbench/workloads.py`` (no perfbench file
is written) with seed 1, set up once and warmed with 2000 ops, so every hot
program has compiled.  Then 256 ops run under two counters, and only each
op's ``run`` is counted, not drawing it nor checking its result:

- bytecode instructions, by code object (``path:qualified name``): through
  ``sys.monitoring`` INSTRUCTION events on Python 3.12 and later, and
  ``sys.settrace`` with ``frame.f_trace_opcodes`` on 3.11;
- calls of C functions, by callee, through ``sys.setprofile``.

With ``--setup`` it counts one set-up instead (the workload's ``setup``,
its set-up ops included): the second in the process, since the first
fills caches that every later one reuses.

Garbage collection is off while counting, so its callbacks add nothing.
The counts repeat exactly, across runs and hash seeds, which wall time does
not.  The JSON it prints names the Python version: counts compare only
within one version.  Every counted op's result
is checked; a mismatch exits 1.
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import sysconfig
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
sys.dont_write_bytecode = True

from workloads import WORKLOADS  # noqa: E402

STDLIB = Path(sysconfig.get_paths()["stdlib"])
SEED, WARM, OPS = 1, 2000, 256  # a 32-op warm-up leaves fleet's containers interpreted


def _where(filename: str) -> str:
    """A code object's file, independent of where the checkout or Python lives."""
    path = Path(filename)
    for base, prefix in ((ROOT, ""), (STDLIB, "stdlib/")):
        if path.is_relative_to(base):
            return prefix + path.relative_to(base).as_posix()
    return filename  # generated code ("<femtoc compiled form>") and the like


class Counts:
    """Bytecodes by code object and C calls by callee, while active."""

    def __init__(self) -> None:
        self.codes: Counter = Counter()  # code object -> instructions
        self.c_calls: Counter = Counter()  # callee -> calls

    def _profile(self, frame, event, arg) -> None:
        if event == "c_call" and arg is not sys.setprofile:
            self.c_calls[getattr(arg, "__qualname__", None) or repr(arg)] += 1

    def _trace(self, frame, event, arg):
        if event == "call":
            frame.f_trace_opcodes = True
        elif event == "opcode":
            self.codes[frame.f_code] += 1
        return self._trace

    def _instruction(self, code, offset) -> None:
        self.codes[code] += 1

    def __enter__(self) -> "Counts":
        gc.collect()
        gc.disable()
        if sys.version_info >= (3, 12):
            mon = sys.monitoring
            mon.use_tool_id(mon.PROFILER_ID, "costcount")
            mon.register_callback(mon.PROFILER_ID, mon.events.INSTRUCTION, self._instruction)
            mon.set_events(mon.PROFILER_ID, mon.events.INSTRUCTION)
        else:
            sys.settrace(self._trace)
        sys.setprofile(self._profile)
        return self

    def __exit__(self, *exc) -> None:
        sys.setprofile(None)
        if sys.version_info >= (3, 12):
            mon = sys.monitoring
            mon.set_events(mon.PROFILER_ID, 0)
            mon.register_callback(mon.PROFILER_ID, mon.events.INSTRUCTION, None)
            mon.free_tool_id(mon.PROFILER_ID)
        else:
            sys.settrace(None)
        gc.enable()

    def by_function(self) -> Counter:
        functions: Counter = Counter()
        for code, n in self.codes.items():
            if code.co_filename != __file__:  # the counter's own way out
                functions[f"{_where(code.co_filename)}:{getattr(code, 'co_qualname', code.co_name)}"] += n
        return functions


def count(name: str, seed: int, warm: int, ops: int) -> dict:
    """One workload's counts per op."""
    workload = WORKLOADS[name](seed)
    workload.prepare()
    checked = [*workload.setup()]
    for _ in range(warm):
        op = workload.next_op()
        checked.append((op, workload.run(op)))
    counts = Counts()
    for _ in range(ops):
        op = workload.next_op()
        with counts:
            result = workload.run(op)
        checked.append((op, result))
    _check(name, workload, checked)
    return {"seed": seed, "warm_ops": warm, "ops": ops, **_per(counts, ops, "op")}


def count_setup(name: str, seed: int) -> dict:
    """One workload's counts for its second set-up in the process."""
    workload = WORKLOADS[name](seed)
    workload.prepare()
    checked = [*workload.setup()]
    workload.prepare()
    counts = Counts()
    with counts:
        checked += workload.setup()
    _check(name, workload, checked)
    return {"seed": seed, "setups_before": 1, **_per(counts, 1, "setup")}


def _check(name: str, workload, checked: list) -> None:
    problems = [problem for op, result in checked if (problem := workload.check(op, result))]
    if problems:
        raise SystemExit(f"costcount: {name}: {len(problems)} mismatched ops, first: {problems[0]}")


def _per(counts: Counts, n: int, unit: str) -> dict:
    """Totals and counts by code object and by callee, each divided by ``n``."""
    functions = counts.by_function()

    def per(counter: Counter) -> dict:
        return {key: v / n for key, v in sorted(counter.items(), key=lambda item: (-item[1], item[0]))}

    return {
        f"bytecodes_per_{unit}": sum(functions.values()) / n,
        f"c_calls_per_{unit}": sum(counts.c_calls.values()) / n,
        "bytecodes": per(functions),
        "c_calls": per(counts.c_calls),
    }


def report(workloads: dict) -> dict:
    """The JSON document: counts by workload, and the Python that made them."""
    return {
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "bytecode_counter": "sys.monitoring" if sys.version_info >= (3, 12) else "sys.settrace f_trace_opcodes",
        "workloads": workloads,
    }


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--setup", action="store_true", help="count one set-up instead of the ops")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    counted = {name: count_setup(name, SEED) if args.setup else count(name, SEED, WARM, OPS) for name in names}
    sys.stdout.write(json.dumps(report(counted), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
