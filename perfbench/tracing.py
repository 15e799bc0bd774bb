"""Per-layer tracing from outside the package.

``Recorder.spans()`` wraps the public entry points of each layer with a
timing wrapper. Each span (op id, span id, parent id, name, start, end) is
kept in memory and its duration is folded into per-name totals and self
times. Self time is a span's duration minus the part its child spans
cover, so the self times of all layers plus the harness add up to the op
spans. The same wrappers count the facts the time metrics divide by
(instructions, slots decoded and verified, helper calls, updates).

``Recorder.counters()`` adds counting-only wrappers around the hot inner
calls (memory checks, region scans, buffer allocations, capability-table
builds). They would distort the spans, so they run in a separate,
fixed-length counting pass whose counts repeat exactly for a seed.

Both are context managers that restore every wrapped attribute on exit, so
untraced runs execute the package unmodified.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

import femtoc.update as fupdate
import femtoc.verifier as fverifier
import femtoc.vm as fvm
from femtoc.engine import Engine
from femtoc.isa import Program
from femtoc.memory import AccessList, HostMemory, MemoryRegion
from femtoc.scenario import ScenarioRuntime
from femtoc.vm import SyscallTable

# Span name -> layer (module name); "op" is the benchmark's own loop.
LAYER_OF = {
    "op": "harness",
    "fire": "scenario",
    "trigger_hook": "engine",
    "replace_container": "engine",
    "check_program": "verifier",
    "verify": "verifier",
    "exec_program": "vm",
    "helper": "facilities",
    "apply_update": "update",
    "from_bytes": "isa",
}
LAYERS = ("harness", "scenario", "engine", "verifier", "vm", "facilities", "update", "isa")
SPAN_CAP = 20_000  # spans kept for the trace file; the aggregates cover all


def _rebind_function(original, replacement, undo: list) -> None:
    """Point every femtoc module attribute naming ``original`` at ``replacement``."""
    name = original.__name__
    for module_name, module in list(sys.modules.items()):
        if module_name.partition(".")[0] == "femtoc" and getattr(module, name, None) is original:
            setattr(module, name, replacement)
            undo.append(lambda m=module: setattr(m, name, original))


def _rebind_method(cls, name: str, make, undo: list) -> None:
    """Replace ``cls.name`` with ``make(original)``; classmethods stay classmethods."""
    raw = cls.__dict__[name]
    if isinstance(raw, classmethod):
        setattr(cls, name, classmethod(make(raw.__func__)))
    else:
        setattr(cls, name, make(raw))
    undo.append(lambda: setattr(cls, name, raw))


class Recorder:
    """Spans, per-name aggregates and counts for one traced pass."""

    def __init__(self):
        self.spans_kept: list[tuple] = []
        self.total_ns: Counter = Counter()  # span name -> summed duration
        self.self_ns: Counter = Counter()  # span name -> summed self time
        self.calls: Counter = Counter()  # span name -> completed spans
        self.counts: Counter = Counter()  # counted facts, named by the wrappers
        self._stack: list[list] = []  # open spans: [span id, child ns, name]
        self._next_id = 0
        self.op_id = 0
        self.op_exec_ns = 0  # exec_program time inside the current op

    def _timed(self, name: str, fn):
        stack, clock = self._stack, time.perf_counter_ns
        total, selft, calls, kept = self.total_ns, self.self_ns, self.calls, self.spans_kept

        def wrapper(*args, **kwargs):
            self._next_id += 1
            frame = [self._next_id, 0, name]
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                total[name] += duration
                selft[name] += duration - frame[1]
                calls[name] += 1
                if name == "exec_program":
                    self.op_exec_ns += duration
                if len(kept) < SPAN_CAP:
                    kept.append((self.op_id, frame[0], parent[0] if parent else 0, name, start, end))

        return wrapper

    def op_runner(self, fn):
        """``fn`` wrapped so that each call is the root span of a new op."""
        timed = self._timed("op", fn)

        def run(*args):
            self.op_id += 1
            self.op_exec_ns = 0
            return timed(*args)

        return run

    def _in_trigger(self) -> bool:
        return any(frame[2] == "trigger_hook" for frame in self._stack)

    @contextmanager
    def spans(self, engine: Engine | None):
        """Wrap each layer's public entry points with timing spans.

        Helpers are wrapped on ``engine``'s syscall table; pass None to trace
        a set-up, which creates its engine inside the traced region.
        """
        counts = self.counts
        timed = self._timed
        in_verify = [0]
        undo: list = []

        def counted(name, fn, after):
            inner = timed(name, fn)

            def wrapper(*args, **kwargs):
                result = inner(*args, **kwargs)
                after(result)
                return result

            return wrapper

        def after_exec(outcome):
            counts["slot_runs"] += 1
            counts["instructions"] += outcome.executed
            counts["faults"] += outcome.fault is not None

        def after_decode(program):
            counts["slots_decoded"] += len(program.slots)

        def after_update(outcome):
            if outcome.accepted:
                counts["update.accepted"] += 1
            else:
                counts[f"update.rejected.{outcome.reason.value}"] += 1

        def one_verification(program):
            counts["verifies"] += 1
            counts["slots_verified"] += len(program.slots)
            counts["verifies_in_trigger"] += self._in_trigger()

        # A verification is one verify() call, or a check_program() outside
        # verify() that rejects. Passes are check_program() scans; a verify()
        # that makes none still counts as one pass.
        def verify_entry(original):
            inner = timed("verify", original)

            def wrapper(program, *args, **kwargs):
                before = counts["nested_passes"]
                in_verify[0] += 1
                try:
                    return inner(program, *args, **kwargs)
                finally:
                    in_verify[0] -= 1
                    counts["passes"] += max(1, counts["nested_passes"] - before)
                    one_verification(program)

            return wrapper

        def check_entry(original):
            inner = timed("check_program", original)

            def wrapper(program, *args, **kwargs):
                errors = inner(program, *args, **kwargs)
                if in_verify[0]:
                    counts["nested_passes"] += 1
                else:
                    counts["passes"] += 1
                    if errors:
                        one_verification(program)
                return errors

            return wrapper

        def helper(name, fn):
            inner = timed("helper", fn)

            def wrapper(*args):
                counts[f"calls.{name}"] += 1
                return inner(*args)

            return wrapper

        _rebind_method(ScenarioRuntime, "fire", lambda f: timed("fire", f), undo)
        _rebind_method(Engine, "trigger_hook", lambda f: timed("trigger_hook", f), undo)
        _rebind_method(Engine, "replace_container", lambda f: timed("replace_container", f), undo)
        _rebind_method(Program, "from_bytes", lambda f: counted("from_bytes", f, after_decode), undo)
        _rebind_function(fverifier.check_program, check_entry(fverifier.check_program), undo)
        _rebind_function(fverifier.verify, verify_entry(fverifier.verify), undo)
        _rebind_function(fvm.exec_program, counted("exec_program", fvm.exec_program, after_exec), undo)
        _rebind_function(
            fupdate.apply_update, counted("apply_update", fupdate.apply_update, after_update), undo
        )
        if engine is not None:
            original_table = engine.syscall_table
            table = SyscallTable()
            for sys_id in sorted(original_table.ids()):
                entry = original_table.lookup(sys_id)
                table.register(sys_id, helper(entry.name, entry.fn), entry.argc, entry.name)
            engine.syscall_table = table
            undo.append(lambda: setattr(engine, "syscall_table", original_table))
        try:
            yield self
        finally:
            for restore in reversed(undo):
                restore()

    @contextmanager
    def counters(self, engine: Engine | None):
        """Spans plus counts of memory checks, allocations and table builds."""
        counts = self.counts
        undo: list = []

        def region_for(original):
            def wrapper(acl, addr, length, mode):
                region = original(acl, addr, length, mode)
                counts["checks"] += 1
                counts["denied"] += region is None
                return region

            return wrapper

        def covers(original):
            def wrapper(region, addr, length):
                counts["regions_scanned"] += 1
                return original(region, addr, length)

            return wrapper

        def alloc(original):
            def wrapper(memory, *args, **kwargs):
                before = len(memory.buf)
                region = original(memory, *args, **kwargs)
                counts["allocs"] += 1
                counts["bytes_allocated"] += len(memory.buf) - before
                return region

            return wrapper

        def restricted(original):
            def wrapper(table, allowed):
                counts["tables_built"] += 1
                return original(table, allowed)

            return wrapper

        _rebind_method(AccessList, "region_for", region_for, undo)
        _rebind_method(MemoryRegion, "covers", covers, undo)
        _rebind_method(HostMemory, "alloc", alloc, undo)
        _rebind_method(SyscallTable, "restricted", restricted, undo)
        try:
            with self.spans(engine):
                yield self
        finally:
            for restore in reversed(undo):
                restore()

    def write(self, path: Path) -> None:
        """Write the kept spans, one JSON array per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            for span in self.spans_kept:
                out.write(json.dumps(span) + "\n")
