"""Mutation runner: each seeded bug must make its tests fail.

Run from the repository root:

    python3 tests/mutants.py            # every mutant
    python3 tests/mutants.py NAME ...   # the named ones
    python3 tests/mutants.py --list

For each mutant the runner copies ``src/``, ``tests/``, ``perfbench/`` (some
tests drive its workloads) and ``pyproject.toml`` to a temporary directory,
replaces the mutant's old text, which must occur exactly once in its file,
with its new text, and runs ``pytest -x`` on the mutant's test files there.  A mutant whose tests pass survives.  The runner
exits 1 if any old text is stale or any mutant survives, and 0 when every
mutant is killed.  pytest runs with a fixed ``--hypothesis-seed``, so the
Hypothesis tests (the engine model's state machine among them) draw the
same examples in every run and a mutant's verdict does not depend on the
draws.  pytest does not collect this file.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
HYPOTHESIS_SEED = 0


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str  # must occur exactly once in the file
    new: str
    tests: tuple[str, ...]  # pytest arguments: test files, and -k expressions


VM_TESTS = ("tests/test_vm.py",)
LOOP_TESTS = ("tests/test_vm.py", "tests/test_differential.py")
STREAM_TESTS = ("tests/test_differential.py", "-k", "stream")
COUNTED_TESTS = ("tests/test_differential.py", "-k", "self_loops or stream")
MODEL_TESTS = ("tests/test_engine_model.py",)
BIND_TESTS = ("tests/test_engine.py", "tests/test_engine_model.py", "tests/test_update.py")
SHARING_TESTS = ("tests/test_engine.py", "-k", "shar or benchmark_workload or frees")
TRIGGER_TESTS = ("tests/test_engine.py", "-k", "every_change or compile_through or restart_at_a_replace")
STORE_TESTS = ("tests/test_facilities.py",)

MUTANTS = (
    # Versioned self-loops: the guard of a compiled self-loop.
    Mutant(
        "guard off by one pass",
        "src/femtoc/codegen.py",
        'terms.append(left if one else f"({left}) // {abs(d)} + 1")',
        'terms.append(_plus(left, 1) if one else f"({left}) // {abs(d)} + 2")',
        LOOP_TESTS,
    ),
    Mutant(
        "guard ignores the accumulators",
        "src/femtoc/codegen.py",
        '            guard += GROWS.format(reg=f"r{reg}", inc=grows, per_pass=bound[reg], mask=_M64)\n',
        "",
        LOOP_TESTS,
    ),
    # A counted self-loop's closed form: sums over its streams' values, and
    # its sunk induction registers.
    Mutant(
        "a stream starts one width late",
        "src/femtoc/codegen.py",
        'start=_plus(f"r{form[pc][3]} - base", off))',
        'start=_plus(f"r{form[pc][3]} - base", off + form[pc][1]))',
        STREAM_TESTS,
    ),
    Mutant(
        "a closed form drops a store",
        "src/femtoc/codegen.py",
        "        if pc not in dropped:\n",
        "        if pc not in dropped and form[pc][0] in _WRITES_DST:\n",
        VM_TESTS,
    ),
    Mutant(
        "a refused closed form still sinks a stream's base register",
        "src/femtoc/codegen.py",
        "            sunk = _sinks(form, body, steps, {})\n",
        "            sunk = _sinks(form, body, steps, streams)\n",
        STREAM_TESTS,
    ),
    Mutant(
        "a closed-form plan keeps its dropped steps for the 16-pass fallback",
        "src/femtoc/codegen.py",
        "            dropped = frozenset(pc for reg in sunk for pc, _ in steps[reg])\n",
        "        dropped = frozenset(pc for reg in sunk for pc, _ in steps[reg])\n",
        VM_TESTS,
    ),
    Mutant(
        "an accumulator of an accumulator keeps its source's entry value",
        "src/femtoc/codegen.py",
        'initial=r{reg})) - r{reg}"',
        'initial=r{reg}))"',
        STREAM_TESTS,
    ),
    Mutant(
        "a closed form sets its registers in body order",
        "src/femtoc/codegen.py",
        '"".join(reversed(finals))',
        '"".join(finals)',
        STREAM_TESTS,
    ),
    Mutant(
        "a closed form sums a source written later in the pass",
        "src/femtoc/codegen.py",
        "and writer.get(src, pc) < pc",
        "and src in writer",
        STREAM_TESTS,
    ),
    # Counted self-loops: the pass in which the branch first falls through, found on entry.
    Mutant(
        "a counted loop's trip is one pass late",
        "src/femtoc/codegen.py",
        'return f"gap if (gap := {gap}) > 0 else safe + 1"',
        'return f"gap + 1 if (gap := {gap}) > 0 else safe + 1"',
        COUNTED_TESTS,
    ),
    Mutant(
        "a signed compare is counted as its unsigned one",
        "src/femtoc/codegen.py",
        "    if not d or sub not in _TRIPS or",
        "    sub = sub - 5 if sub > 6 else sub\n    if not d or sub not in _TRIPS or",
        COUNTED_TESTS,
    ),
    Mutant(
        "a bound register the body writes is taken as fixed",
        "src/femtoc/codegen.py",
        "(code == JCOND_X and steps.get(src) != [])",
        "(code == JCOND_X and src == dst)",
        COUNTED_TESTS,
    ),
    # Stack rows held in locals across a self-loop's passes.
    Mutant(
        "no write-back before a promoted loop's all-taken handover",
        "src/femtoc/codegen.py",
        'branches += room\\n{spill}raise _Handover\\n"',
        'branches += room\\nraise _Handover\\n"',
        LOOP_TESTS,
    ),
    Mutant(
        "no write-back when a promoted loop exits",
        "src/femtoc/codegen.py",
        'LOOP_EXIT = "{spill}executed',
        'LOOP_EXIT = "executed',
        LOOP_TESTS,
    ),
    Mutant(
        "rows are promoted in a body with a checked access or a call",
        "src/femtoc/codegen.py",
        "held = {} if traps else {",
        "held = {",
        LOOP_TESTS,
    ),
    Mutant(
        "overlapping rows are promoted",
        "src/femtoc/codegen.py",
        "if not any(o < off + width and off < o + w and (o, w) != (off, width) for o, w in rows)",
        "",
        LOOP_TESTS,
    ),
    # One buffer per access list, and one check per access.
    Mutant(
        "an access list takes regions from two buffers",
        "src/femtoc/memory.py",
        "            if r.memory is not memory:\n"
        '                raise ValueError("access list regions must lie in one host buffer")\n',
        "",
        VM_TESTS,
    ),
    Mutant(
        "the check's first-window bound is one byte loose",
        "src/femtoc/codegen.py",
        "if addr < {mode[0]}lo or addr + {width} > {mode[0]}hi:",
        "if addr < {mode[0]}lo or addr + {width} > {mode[0]}hi + 1:",
        VM_TESTS,
    ),
    # The one scan of an access list's windows, behind every first-window miss.
    Mutant(
        "the scan's end bound is one byte loose",
        "src/femtoc/memory.py",
        "        if lo <= addr and end <= hi:\n",
        "        if lo <= addr and end <= hi + 1:\n",
        VM_TESTS,
    ),
    Mutant(
        "the scan's start bound is one byte loose",
        "src/femtoc/memory.py",
        "        if lo <= addr and end <= hi:\n",
        "        if lo - 1 <= addr and end <= hi:\n",
        VM_TESTS,
    ),
    Mutant(
        "the scan tests only the first window",
        "src/femtoc/memory.py",
        "    for lo, hi in windows:\n",
        "    for lo, hi in windows[:1]:\n",
        VM_TESTS,
    ),
    # Each fact in one home: an access list's first windows, the buffer's codec,
    # a hook's layout, the standard helper set and a scenario's names.
    Mutant(
        "run_state's first read window is the first write window",
        "src/femtoc/memory.py",
        "stack.base - memory.base, stack.base, *read[0], *write[0])",
        "stack.base - memory.base, stack.base, *write[0], *write[0])",
        VM_TESTS,
    ),
    Mutant(
        "checked_store cuts the value to 4 bytes",
        "src/femtoc/memory.py",
        "value & _WIDTH_MASK[size])",
        "value & _WIDTH_MASK[4])",
        VM_TESTS,
    ),
    Mutant(
        "introspection reads every context entry's size from the first region",
        "src/femtoc/engine.py",
        '"size": r.length,',
        '"size": next(iter(h.context.values())).length,',
        ("tests/test_engine.py",),
    ),
    Mutant(
        "a bind ranks a container's views by label, not by the hook's layout",
        "src/femtoc/engine.py",
        "key=_TEMPLATE_ORDER))",
        'key=attrgetter("label", "readable", "writable")))',
        ("tests/test_engine.py",),
    ),
    Mutant(
        "the standard helper set leaves out debug_log",
        "src/femtoc/facilities.py",
        '    table.register(SYS_DEBUG_LOG, debug_log, 1, "debug_log")\n',
        "",
        STORE_TESTS,
    ),
    Mutant(
        "a scenario resolves container names against a copy taken before set-up",
        "src/femtoc/scenario.py",
        '"container": self.container_ids}',
        '"container": dict(self.container_ids)}',
        ("tests/test_scenario.py",),
    ),
    # Strict documents: the readers every scenario, contract and manifest goes through.
    Mutant(
        "the object reader stops refusing unread keys",
        "src/femtoc/doc.py",
        "if spec.keys() <= keys:",
        "if spec.keys() or True:",
        ("tests/test_doc.py", "tests/test_cli.py", "-k", "key or misspelt or malformed"),
    ),
    Mutant(
        "the integer reader accepts true",
        "src/femtoc/doc.py",
        "    if type(value) is int:  # not isinstance",
        "    if isinstance(value, int):  # not isinstance",
        ("tests/test_doc.py", "tests/test_scenario.py"),
    ),
    # The boundary matrix.
    Mutant(
        "a compiled 32-bit shift by a constant cuts the count to 6 bits",
        "src/femtoc/codegen.py",
        'count = f"({b} & {width[\'shift\']})" if k is None else str(k & int(width["shift"]))',
        'count = f"({b} & {width[\'shift\']})" if k is None else str(k & 63)',
        ("tests/test_boundary_matrix.py",),
    ),
    Mutant(
        "the interpreter's exit does not check r10",
        "src/femtoc/codegen.py",
        "                if regs[10] != stack_base:\n"
        '                    raise RuntimeError("stack pointer register mutated during run")\n{exit}',
        "{exit}",
        VM_TESTS,
    ),
    # The interpreter's budget per straight run.
    Mutant(
        "lddw does not move start on",
        "src/femtoc/codegen.py",
        "                start += 1\n                pc += 2\n",
        "                pc += 2\n",
        VM_TESTS,
    ),
    Mutant(
        "the stepped loop never hands a taken jump over",
        "src/femtoc/codegen.py",
        '"handover": "off < 0",',
        '"handover": "False",',
        VM_TESTS,
    ),
    Mutant(
        "the counted loop's entry bound is one step loose",
        "src/femtoc/codegen.py",
        "if pc < 0 or executed + n - pc > budget:",
        "if pc < 0 or executed + n - pc > budget + 1:",
        VM_TESTS,
    ),
    Mutant(
        "the counted loop's jump bound is one step loose",
        "src/femtoc/codegen.py",
        '"handover": "off < 0 or executed + n - off > budget",',
        '"handover": "off < 0 or executed + n - off - 1 > budget",',
        VM_TESTS,
    ),
    Mutant(
        "a run that exits counts pc - start",
        "src/femtoc/codegen.py",
        "            elif code == {EXIT}:\n                executed += pc - start + 1\n",
        "            elif code == {EXIT}:\n                executed += pc - start\n",
        VM_TESTS,
    ),
    Mutant(
        "a run that faults counts pc - start",
        "src/femtoc/codegen.py",
        "    except _Trap as trap:\n        executed += pc - start + 1\n",
        "    except _Trap as trap:\n        executed += pc - start\n",
        VM_TESTS,
    ),
    # The verifier's column pass: a slot it takes as plain skips every check.
    Mutant(
        "the register column treats dst r10 as plain",
        "src/femtoc/verifier.py",
        "(b & 0x0F < 10 and b >> 4 <= 10)",
        "(b & 0x0F <= 10 and b >> 4 <= 10)",
        ("tests/test_verifier.py", "tests/test_vm.py"),
    ),
    Mutant(
        "the opcode column takes the byte swaps as plain",
        "src/femtoc/verifier.py",
        "(ALU64_K, ALU64_X, ALU32_K, ALU32_X, EXIT)",
        "(ALU64_K, ALU64_X, ALU32_K, ALU32_X, EXIT, END)",
        ("tests/test_verifier.py",),
    ),
    Mutant(
        "the sign column is dropped, so a negative 64-bit immediate is not sign-extended",
        "src/femtoc/verifier.py",
        "data[7::SLOT_SIZE].translate(_SIGNS)",
        "bytes(n)",
        ("tests/test_verifier.py",),
    ),
    # Warnings raised compiling generated source fail the tests.
    Mutant(
        "an invalid escape in the xor template",
        "src/femtoc/codegen.py",
        '    "{a} ^ {b}",  # xor',
        "    \"{a} ^ {b} ^ len('\\\\d') * 0\",  # xor",
        VM_TESTS,
    ),
    Mutant(
        "an invalid escape in a self-loop's passes",
        "src/femtoc/codegen.py",
        "    if not ({taken}):\n        break\n",
        "    if not ({taken}) and '\\\\d':\n        break\n",
        VM_TESTS,
    ),
    # An access list's r1: the base of its first region that is not the stack.
    Mutant(
        "r1 is the first region even when it is the stack",
        "src/femtoc/memory.py",
        "self.r1 = context[0].base if context else 0",
        "self.r1 = self.regions[0].base",
        VM_TESTS,
    ),
    Mutant(
        "r1 is the last non-stack region",
        "src/femtoc/memory.py",
        "self.r1 = context[0].base if context else 0",
        "self.r1 = context[-1].base if context else 0",
        VM_TESTS,
    ),
    # A hook's slots carry their capabilities.
    Mutant(
        "remove does not relink the hook",
        "src/femtoc/engine.py",
        "            hook.slots = hook.slots[:start] + hook.slots[start + 1 :]\n            self._link(hook, start)\n",
        "            hook.slots = hook.slots[:start] + hook.slots[start + 1 :]\n",
        MODEL_TESTS,
    ),
    Mutant(
        "replace does not link its container",
        "src/femtoc/engine.py",
        "        self._link(hook, start)\n        return container_id\n",
        "        if old is None:\n            self._link(hook, start)\n        return container_id\n",
        MODEL_TESTS,
    ),
    Mutant(
        "replace keeps the old container's access list",
        "src/femtoc/engine.py",
        "        env = SyscallEnv(None, self._helpers(",
        "        env = SyscallEnv(old.env.acl if (old := self.containers.get(container_id)) else None,"
        " self._helpers(",
        MODEL_TESTS + ("tests/test_engine.py",),
    ),
    Mutant(
        "remove keeps the removed container in the hook's slots",
        "src/femtoc/engine.py",
        "            hook.slots = hook.slots[:start] + hook.slots[start + 1 :]\n",
        "",
        MODEL_TESTS,
    ),
    Mutant(
        "a trigger does not reset the hook's buffer",
        "src/femtoc/engine.py",
        "            memory.reset()\n",
        "",
        MODEL_TESTS + ("tests/test_engine.py",),
    ),
    Mutant(
        "the helper table setter does not re-cut the containers' tables",
        "src/femtoc/engine.py",
        "            for container in self.containers.values():\n"
        "                container.env.helpers = self._helpers(container.granted.syscalls)\n",
        "",
        MODEL_TESTS + ("tests/test_engine.py",),
    ),
    Mutant(
        "an append does not link its slot",
        "src/femtoc/engine.py",
        "        start = slots.index(old) if old else len(slots)\n",
        "        start = slots.index(old) if old else len(slots) + 1\n",
        ("tests/test_engine.py", "-k", "access_list"),
    ),
    # What depends only on the grant is shared.
    Mutant(
        "a shared helper table crosses a grant",
        "src/femtoc/engine.py",
        "        table = self._tables.get(syscalls)\n"
        "        if table is None:\n"
        "            table = self._tables[syscalls] =",
        "        table = self._tables.get(())\n"
        "        if table is None:\n"
        "            table = self._tables[()] =",
        ("tests/test_engine.py", "-k", "table"),
    ),
    # The trigger loop's stats.
    Mutant(
        "a compiled run's fault is not counted",
        "src/femtoc/engine.py",
        "                if outcome.fault is not None:\n",
        "                if outcome.fault is not None and container.verified.compiled is None:\n",
        TRIGGER_TESTS,
    ),
    Mutant(
        "a replace leaves the old container in its slot",
        "src/femtoc/engine.py",
        "        hook.slots = (*slots[:start], container, *slots[start + 1 :])\n",
        "        hook.slots = slots if old else (*slots, container)\n",
        TRIGGER_TESTS,
    ),
    # The store helpers, which do KeyValueStore.put and get inline.
    Mutant(
        "a store helper refuses an existing key when the store is full",
        "src/femtoc/facilities.py",
        "            if key not in entries and len(entries) >= store.capacity:\n",
        "            if len(entries) >= store.capacity:\n",
        STORE_TESTS,
    ),
    Mutant(
        "a store helper keeps the value uncut",
        "src/femtoc/facilities.py",
        "            value &= MASK64\n            entries[key] = value - (1 << 64) if value & (1 << 63) else value\n",
        "            entries[key] = value\n",
        STORE_TESTS,
    ),
    # Signed updates and binds.
    Mutant(
        "an update records its sequence before it binds",
        "src/femtoc/engine.py",
        "            container_id = self._bind(hook, tenant_id, replaced, program, contract)\n"
        "            self._update_seqs[(tenant_id, hook_id)] = sequence\n",
        "            self._update_seqs[(tenant_id, hook_id)] = sequence\n"
        "            container_id = self._bind(hook, tenant_id, replaced, program, contract)\n",
        MODEL_TESTS + ("tests/test_update.py",),
    ),
    Mutant(
        "an update always installs at a new slot",
        "src/femtoc/engine.py",
        "            replaced = self.tenant_container_on_hook(tenant_id, hook_id)\n",
        "            replaced = None\n",
        MODEL_TESTS + ("tests/test_update.py",),
    ),
    Mutant(
        "a rejected replace or update empties the container store",
        "src/femtoc/engine.py",
        "        verified = self.verify_for(hook, program, contract)\n",
        "        if container_id is not None:\n"
        "            self.facilities.stores.bind_container(tenant_id, container_id, ())\n"
        "        verified = self.verify_for(hook, program, contract)\n",
        MODEL_TESTS,
    ),
    Mutant(
        "a replace keeps the old container store",
        "src/femtoc/engine.py",
        "        stores = self.facilities.stores.bind_container(tenant_id, container_id, granted.syscalls)\n",
        "        stores = (self.containers[container_id].env.stores if container_id in self.containers\n"
        "                  else self.facilities.stores.bind_container(tenant_id, container_id, granted.syscalls))\n",
        MODEL_TESTS,
    ),
    Mutant(
        "every container shares one container store",
        "src/femtoc/facilities.py",
        "        container_store = KeyValueStore(SCOPE_CONTAINER, container_id, CONTAINER_STORE_CAPACITY)\n",
        "        container_store = (next(iter(self.container_stores.values())) if self.container_stores\n"
        "                           else KeyValueStore(SCOPE_CONTAINER, container_id, CONTAINER_STORE_CAPACITY))\n",
        MODEL_TESTS,
    ),
    Mutant(
        "a bind checks the slot limit before it verifies",
        "src/femtoc/engine.py",
        "        verified = self.verify_for(hook, program, contract)\n        if container_id is None:\n",
        "        if container_id is None and len(hook.slots) >= hook.slot_limit:\n"
        "            raise SlotLimitReached(hook.name)\n"
        "        verified = self.verify_for(hook, program, contract)\n        if container_id is None:\n",
        BIND_TESTS,
    ),
    Mutant(
        "a bind draws an id before it verifies",
        "src/femtoc/engine.py",
        "        verified = self.verify_for(hook, program, contract)\n        if container_id is None:\n",
        "        drawn = self._new_id() if container_id is None else None\n"
        "        verified = self.verify_for(hook, program, contract)\n        if container_id is None:\n",
        BIND_TESTS,
    ),
    Mutant(
        "a bind closes the setup phase before it verifies",
        "src/femtoc/engine.py",
        "        verified = self.verify_for(hook, program, contract)\n        if container_id is None:\n",
        "        self._setup_open = container_id is not None and self._setup_open\n"
        "        verified = self.verify_for(hook, program, contract)\n        if container_id is None:\n",
        BIND_TESTS,
    ),
    # One verdict per distinct program, weakly held.
    Mutant(
        "the verdict cache ignores the granted helper ids",
        "src/femtoc/engine.py",
        "key = (program.to_bytes(), self.limits, granted)",
        "key = (program.to_bytes(), self.limits)",
        SHARING_TESTS,
    ),
    Mutant(
        "the verdict cache ignores the limits",
        "src/femtoc/engine.py",
        "key = (program.to_bytes(), self.limits, granted)",
        "key = (program.to_bytes(), granted)",
        SHARING_TESTS,
    ),
    Mutant(
        "containers that share a verdict share one count toward compiling",
        "src/femtoc/engine.py",
        "        verdict = self._verdicts.get(key)\n"
        "        if verdict is not None:\n"
        "            return VerifiedProgram(program, verdict)\n"
        "        verified = verify(program, self.limits, granted)\n"
        "        self._verdicts[key] = verified.verdict\n"
        "        return verified\n",
        "        verified = self._verdicts.get(key)\n"
        "        if verified is None:\n"
        "            verified = self._verdicts[key] = verify(program, self.limits, granted)\n"
        "        return verified\n",
        SHARING_TESTS,
    ),
    Mutant(
        "the verdict cache holds its verdicts strongly",
        "src/femtoc/engine.py",
        "Verdict] = weakref.WeakValueDictionary()",
        "Verdict] = {}",
        SHARING_TESTS,
    ),
)


def run(mutant: Mutant) -> str:
    """'killed', 'survived' or 'stale' for one mutant."""
    text = (ROOT / mutant.path).read_text()
    if text.count(mutant.old) != 1:
        return "stale"
    with tempfile.TemporaryDirectory(prefix="femtoc-mutant-") as tmp:
        work = Path(tmp)
        for part in ("src", "tests", "perfbench"):
            shutil.copytree(ROOT / part, work / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", work)
        (work / mutant.path).write_text(text.replace(mutant.old, mutant.new))
        env = {**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   f"--hypothesis-seed={HYPOTHESIS_SEED}", *mutant.tests]
        result = subprocess.run(command, cwd=work, env=env, capture_output=True, text=True)
    return "survived" if result.returncode == 0 else "killed"


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for mutant in MUTANTS:
            print(f"{mutant.name}: {mutant.path} ({' '.join(mutant.tests)})")
        return 0
    unknown = set(argv) - {mutant.name for mutant in MUTANTS}
    if unknown:
        print(f"no such mutant: {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    failed = 0
    for mutant in MUTANTS:
        if argv and mutant.name not in argv:
            continue
        verdict = run(mutant)
        failed += verdict != "killed"
        print(f"{verdict:8} {mutant.name}", flush=True)
    print(f"{failed} of {len(argv) or len(MUTANTS)} mutants not killed" if failed else "every mutant killed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
