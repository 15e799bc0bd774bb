"""Differential test: the package's interpreter against the reference loop.

Every generated program runs twice, once under ``femtoc.vm.exec_program``
(which dispatches on the verifier's predecoded form) and once under
``refvm.exec_program`` (the plain loop that re-derives each instruction),
each on its own freshly built host memory. The outcomes (return value,
step and branch counts, the full fault) and every byte of host memory must
be equal.

The host has two context regions, read-only then writable, so memory
accesses land in either region, in the guard between them or outside.
Half of the programs also call helpers from a six-helper table, which
covers every shape a helper's adapter must pass on:
- one returns a value, one raises SyscallError for a third of its inputs,
  and one writes through the access list and raises AccessViolation when
  that is denied (each takes two arguments);
- one takes no argument and returns None;
- one takes one argument and returns a negative or a wider-than-64-bit
  value;
- one takes five arguments and raises a plain KeyError for a fifth of its
  inputs, which must read as a helper failure, not as a missing id.
One more id is granted by the verifier but missing from the table.

The access list holds the stack first for odd-numbered programs and last,
as the engine orders it, for even-numbered ones.  Both tiers test a run's
first window inline and scan all windows when it misses, so either order
exercises both paths.

Each program runs once, so the streams above stay on the interpreter. Two
more streams run with the compile threshold at 0: every program then runs
its compiled form, whose blocks check the budget once each and hand over to
the interpreter when a block might not fit.  These streams also count, and
require, programs whose compiled form has a self-loop block (one that
counts its passes), runs that hand over from such a loop, faults raised
inside one of its passes, and first-window misses that the scan served.

The interpreter counts steps by straight runs and checks the budget only on
entry and at taken jumps; where a run might not fit, it hands over to the
stepped loop, which checks every step.  One more stream per tier runs each
program under a budget within a few steps of its run's length or of its
own length, and requires handovers on entry and at taken jumps, and
handed-over runs that ran out of budget and that ended otherwise.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

import refvm
from femtoc import codegen, vm
from femtoc.memory import GUARD_LEN, AccessList, HostMemory, checked_store, fresh_stack
from femtoc.verifier import JCOND_K, JCOND_X, VerifyLimits, verify
from femtoc.vm import SyscallEnv, SyscallError, SyscallTable
from genprog import random_accepted_program

PROGRAMS = 12_000  # per stream; two streams
COMPILED_PROGRAMS = 4_000  # per stream with the compiled tier forced on; each compiles once
LIMITS = VerifyLimits(64, 8)
RO_LEN = 32
RW_LEN = 32
CTX_SPAN = RO_LEN + GUARD_LEN + RW_LEN
HELPER_IDS = (0x1, 0x2, 0x3, 0x4, 0x5, 0x6, 0x7)  # 0x4 is granted but not in the table


# Helper name -> calls of it that returned, by both interpreters together.
RETURNED: Counter = Counter()
# What the compiled streams exercised, by the probes below.
COVERAGE: Counter = Counter()
HANDOVERS: list[int] = []  # where the current compiled run handed over to the stepped loop
STEPPED: list[tuple[int, int]] = []  # (slot, steps) where the current run entered the stepped loop


class _Scanned(tuple):
    """A run's read or write windows, counting each scan of them: a miss of
    the first window."""

    def __iter__(self):
        COVERAGE["first-window misses served"] += 1
        return super().__iter__()


def _self_loops(form) -> dict[int, int]:
    """Slot -> the start of its block, for each slot of a self-loop block."""
    inside = {}
    for start, slots in codegen._basic_blocks(form).items():
        code, off = form[slots[-1]][0], form[slots[-1]][4]
        if (code == JCOND_K or code == JCOND_X) and off == start:
            inside.update(dict.fromkeys(slots, start))
    return inside


def _probe(form, outcome) -> None:
    """Count what one compiled run exercised; its scans are counted as they happen."""
    inside = _self_loops(form)
    COVERAGE["self-loop programs"] += bool(inside)
    COVERAGE["counted-loop handovers"] += any(pc in inside.values() for pc in HANDOVERS)
    fault = outcome.fault
    if fault is not None and fault.note in ("read denied", "write denied"):
        COVERAGE["first-window misses served"] -= 1  # the scan found no window
    if not HANDOVERS and fault is not None and fault.pc in inside:
        COVERAGE["traps inside a pass"] += 1


def _mix(env, r1, r2):
    return r1 * 31 + r2


def _refuse(env, r1, r2):
    if (r1 + r2) % 3 == 0:
        raise SyscallError(f"refused {r1:#x}, {r2:#x}")
    return r1 >> 1


def _poke(env, r1, r2):
    addr = r1 + (r2 & 63)  # from the context base: read-only, guard or writable
    checked_store(env.acl, addr, 8, r2)
    return 0


def _nothing(env):
    RETURNED["_nothing"] += 1
    return None  # r0 reads 0


def _wide(env, r1):
    RETURNED["_wide"] += 1
    return -r1 if r1 & 1 else r1 << 64 | 7  # r0 takes the low 64 bits


def _five(env, r1, r2, r3, r4, r5):
    if (r1 ^ r5) % 5 == 0:
        raise KeyError(r1)
    RETURNED["_five"] += 1
    return r1 + 3 * r2 + 5 * r3 + 7 * r4 + 11 * r5


def _helper_table() -> SyscallTable:
    table = SyscallTable()
    table.register(0x1, _mix, 2)
    table.register(0x2, _refuse, 2)
    table.register(0x3, _poke, 2)
    table.register(0x5, _nothing, 0)
    table.register(0x6, _wide, 1)
    table.register(0x7, _five, 5)
    return table


def _host(init: bytes, stack_last: bool):
    memory = HostMemory()
    ro = memory.alloc(RO_LEN, "ro", readable=True, writable=False, init=init[:RO_LEN])
    rw = memory.alloc(RW_LEN, "rw", readable=True, writable=True, init=init[RO_LEN:])
    stack = fresh_stack(memory)
    return memory, ro, AccessList([ro, rw, stack] if stack_last else [stack, ro, rw])


def _handovers(outcome) -> None:
    """Count where the run that gave ``outcome`` entered the stepped loop
    (STEPPED: its slot and step count) and how that run ended."""
    if not STEPPED:
        return
    COVERAGE["handovers to the stepped loop"] += 1
    # An interpreted run enters the counted loop at step 0, so a later
    # handover is at a taken jump; a compiled run hands over part-way.
    COVERAGE["handovers on entry" if STEPPED[0][1] == 0 else "handovers at a taken jump"] += 1
    exhausted = outcome.fault is not None and outcome.fault.kind is vm.FaultKind.BUDGET_EXCEEDED
    COVERAGE["handed-over runs that ran out" if exhausted else "handed-over runs that ended otherwise"] += 1


def _mismatches(
    seed: int, allowed: tuple[int, ...], programs: int, probe: bool = False, near_budget: bool = False
) -> tuple[list[str], list]:
    """The mismatches of a stream of ``programs``, and the package's
    outcomes; with ``probe``, count into COVERAGE what each run exercised.
    With ``near_budget``, each program runs under a budget within three
    steps of what its run takes or of its length, where the counted
    interpreter's bound (a straight run from slot s takes at most n - s
    steps) stops fitting, so that it hands over to the stepped loop;
    COVERAGE counts the handovers."""
    rng = random.Random(seed)
    table = _helper_table()
    found = []
    outcomes = []
    for index in range(programs):
        program = random_accepted_program(
            rng, max_slots=48, allowed_syscalls=allowed, ctx_span=CTX_SPAN
        )
        vp = verify(program, LIMITS, allowed)
        init = rng.randbytes(RO_LEN + RW_LEN)
        budget = None
        if near_budget:
            _, ctx, acl = _host(init, stack_last=index % 2 == 0)
            steps = refvm.exec_program(vp, ctx, SyscallEnv(acl, table)).executed
            budget = max(0, rng.choice((steps, len(vp.form))) + rng.randint(-3, 3))
        results = []
        for interpreter in (vm.exec_program, refvm.exec_program):
            memory, ctx, acl = _host(init, stack_last=index % 2 == 0)
            if probe and interpreter is vm.exec_program:
                acl.run_state = (_Scanned(acl.read_windows), _Scanned(acl.write_windows), *acl.run_state[2:])
                HANDOVERS.clear()
            STEPPED.clear()
            outcome = interpreter(vp, ctx, SyscallEnv(acl, table), budget)
            results.append((outcome, bytes(memory.buf)))
            if interpreter is vm.exec_program:
                _handovers(outcome)
        (got, got_buf), (want, want_buf) = results
        if probe:
            _probe(vp.form, got)
        outcomes.append(got)
        if got != want or got_buf != want_buf:
            found.append(f"program {index}: {program.to_bytes().hex()}\n  vm:  {got}\n  ref: {want}")
    return found, outcomes


def _check_stream(allowed: tuple[int, ...], outcomes: list) -> None:
    """The stream exercised clean exits and faults and, with helpers, every
    helper shape: each helper returned at least once, and each way a call
    can fault happened."""
    notes = [o.fault.note for o in outcomes if o.fault is not None]
    assert 0 < len(notes) < len(outcomes)
    if allowed:
        assert all(RETURNED[name] for name in ("_nothing", "_wide", "_five"))
        for head in ("refused 0x", "helper _poke denied", "helper _five failed: KeyError(",
                     "helper id 0x4 not available"):
            assert any(note.startswith(head) for note in notes), head


@pytest.mark.parametrize("allowed", [(), HELPER_IDS], ids=["no-helpers", "helpers"])
def test_interpreter_matches_reference(allowed):
    RETURNED.clear()
    mismatches, outcomes = _mismatches(0xD1FF + len(allowed), allowed, PROGRAMS)
    assert mismatches == [], f"{len(mismatches)} mismatches, first:\n{mismatches[0]}"
    _check_stream(allowed, outcomes)


@pytest.mark.parametrize("allowed", [(), HELPER_IDS], ids=["no-helpers", "helpers"])
def test_compiled_tier_matches_reference(allowed, compiled_tier, monkeypatch):
    RETURNED.clear()
    COVERAGE.clear()
    stepped, inside = vm._stepped, []

    def handed_over(form, regs, pc, *rest):  # the threshold is 0: every outer call is compiled code's
        if not inside:
            HANDOVERS.append(pc)
        inside.append(pc)
        try:
            return stepped(form, regs, pc, *rest)
        finally:
            inside.pop()

    monkeypatch.setattr(vm, "_stepped", handed_over)
    mismatches, outcomes = _mismatches(0xC0DE + len(allowed), allowed, COMPILED_PROGRAMS, probe=True)
    assert mismatches == [], f"{len(mismatches)} mismatches, first:\n{mismatches[0]}"
    _check_stream(allowed, outcomes)
    assert len(compiled_tier) == COMPILED_PROGRAMS
    for what in ("self-loop programs", "counted-loop handovers", "traps inside a pass",
                 "first-window misses served"):
        assert COVERAGE[what] > 0, what


NEAR_BUDGET_PROGRAMS = {"interpreted": 3_000, "compiled": 1_000}  # each compiled program compiles once


@pytest.fixture
def stepped_entries(monkeypatch):
    """Record in STEPPED each entry into the stepped loop."""
    stepped = vm._stepped

    def entered(form, regs, pc, executed, *rest):
        STEPPED.append((pc, executed))
        return stepped(form, regs, pc, executed, *rest)

    monkeypatch.setattr(vm, "_stepped", entered)


@pytest.mark.parametrize("tier", ["interpreted", "compiled"])
def test_budgets_near_each_runs_length_match_the_reference(tier, stepped_entries, request):
    RETURNED.clear()
    COVERAGE.clear()
    if tier == "compiled":
        request.getfixturevalue("compiled_tier")
    programs = NEAR_BUDGET_PROGRAMS[tier]
    mismatches, outcomes = _mismatches(0xB0D6 + len(tier), HELPER_IDS, programs, near_budget=True)
    assert mismatches == [], f"{len(mismatches)} mismatches, first:\n{mismatches[0]}"
    _check_stream((), outcomes)
    required = ["handovers to the stepped loop", "handed-over runs that ran out",
                "handed-over runs that ended otherwise"]
    if tier == "interpreted":
        required += ["handovers on entry", "handovers at a taken jump"]
    for what in required:
        assert COVERAGE[what] > 0, what
