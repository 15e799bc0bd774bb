#!/usr/bin/env python3
"""Deterministic cost counts per op: bytecode instructions and C calls.

Usage, from the repository root:

    python3 tools/costcount.py --workload compute|fleet|churn|all > counts.json

Each workload is built through ``perfbench/workloads.py`` (no perfbench file
is written) with seed 1, set up once and warmed with 2000 ops, so every hot
program has compiled.  Then 256 ops run under two counters, and only each
op's ``run`` is counted, not drawing it nor checking its result:

- bytecode instructions, by code object (``path:qualified name``): through
  ``sys.monitoring`` INSTRUCTION events on Python 3.12 and later, and
  ``sys.settrace`` with ``frame.f_trace_opcodes`` on 3.11;
- calls of C functions, by callee, through ``sys.setprofile``.

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
    problems = [problem for op, result in checked if (problem := workload.check(op, result))]
    if problems:
        raise SystemExit(f"costcount: {name}: {len(problems)} mismatched ops, first: {problems[0]}")
    functions = counts.by_function()

    def per_op(counter: Counter) -> dict:
        return {key: n / ops for key, n in sorted(counter.items(), key=lambda item: (-item[1], item[0]))}

    return {
        "seed": seed,
        "warm_ops": warm,
        "ops": ops,
        "bytecodes_per_op": sum(functions.values()) / ops,
        "c_calls_per_op": sum(counts.c_calls.values()) / ops,
        "bytecodes": per_op(functions),
        "c_calls": per_op(counts.c_calls),
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
    workload = parser.parse_args(argv).workload
    names = list(WORKLOADS) if workload == "all" else [workload]
    sys.stdout.write(json.dumps(report({name: count(name, SEED, WARM, OPS) for name in names}), indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
