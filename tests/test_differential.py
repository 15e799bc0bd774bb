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

One more compiled stream per helper table runs self-loops from
``genprog.random_self_loop``.  Compiled code versions each self-loop: a
guard finds on entry how many passes cannot fail the checks it proved, and
those passes run without them.  A LoopProbe follows the reference run,
finds each entry's guard, and requires loops that ran versioned passes,
guards that fell short of a wrap or a window's edge that a later, checked
pass then reached, and loops with no guard; a proven check that fails in a
versioned pass fails the stream.  Half the guarded loops, and one in five
of the streamed loops below, leave by ``genprog._counted_exit``: compiled
code finds on entry the pass in which such a counted loop leaves, and its
versioned passes test no branch.  These streams require counted entries,
entries that leave in the pass found, and entries whose pass lies beyond
the versioned ones; an entry that leaves in another pass than the one
found, before the versioned passes end, fails the stream.  Counted loops
that store sink their induction registers all the same, and the streams
require entries that do.

One more compiled stream per helper table runs self-loops from
``genprog.random_stack_loop``, whose bodies load and store stack rows
([r10+off]).  Compiled code holds a loop's rows in locals when its body
can reach the stack no other way, and writes the stored ones back on its
way out.  These streams require promoted loop entries, handovers out of
a promoted loop, loops left unpromoted for an access through a copy of
r10 or a helper call, and rows left unpromoted because they overlap
another row; every third program runs under a budget near its run's
length.

One more compiled stream runs self-loops from
``genprog.random_stream_loop``, whose walks step by a load's width per
pass, over the context or over a stack filled with random bytes, most of
them from the edge of the first read window.  The versioned passes of a
counted loop drop the steps of an induction register that nothing else in
them reads, setting it once on the way out.  When there are more than
``codegen.PLAIN_PASSES`` of them and the loop's other slots only add along
chains from loads whose base steps up by their width (``genprog`` draws
chains of depth 0 to 3, some of them near a wrap), compiled code runs
them in closed form, reading those loads as streams; a body that breaks
that rule runs its passes one by one and steps the loads' bases.  Its
LoopProbe counts, of each counted entry with more than
``codegen.PLAIN_PASSES`` versioned passes, the closed forms and their
streamed loads, the sunk registers, the entries that sink in a body that
stores, and the refused closed forms that step a stream's base.  The
stream requires all of them, at least 100 closed-form entries, traps
inside a pass and handovers out of a loop; every third program runs under
a budget near its run's length, and one loop in eight stores at a load's
address before it in a pass, which keeps that loop from a closed form.
The stream runs twice: with the package's ``PLAIN_PASSES`` and with none.

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
from femtoc.memory import GUARD_LEN, STACK_LABEL, STACK_SIZE, AccessList, HostMemory, checked_store
from femtoc.verifier import (
    ALU64_K, ALU64_X, LDX, MASK64, ST, ST_STACK, STX, STX_STACK, VerifyLimits, verify,
)
from femtoc.vm import SyscallEnv, SyscallError, SyscallTable
from genprog import random_accepted_program, random_self_loop, random_stack_loop, random_stream_loop

PROGRAMS = 12_000  # per stream; two streams
COMPILED_PROGRAMS = 4_000  # per stream with the compiled tier forced on; each compiles once
LIMITS = VerifyLimits(64, 8)
RO_LEN = 32
RW_LEN = 32
CTX_SPAN = RO_LEN + GUARD_LEN + RW_LEN
HELPER_IDS = (0x1, 0x2, 0x3, 0x4, 0x5, 0x6, 0x7)  # 0x4 is granted but not in the table
STORES = (STX, ST, STX_STACK, ST_STACK)


# Helper name -> calls of it that returned, by both interpreters together.
RETURNED: Counter = Counter()
# What the compiled streams exercised, by the probes below.
COVERAGE: Counter = Counter()
HANDOVERS: list[int] = []  # where the current compiled run handed over to the stepped loop
HANDOVER_STEPS: list[int] = []  # and its step count there, where a test records it
STEPPED: list[tuple[int, int]] = []  # (slot, steps) where the current run entered the stepped loop


class _Scanned(tuple):
    """A run's read or write windows, counting each scan of them: a miss of
    the first window."""

    def __iter__(self):
        COVERAGE["first-window misses served"] += 1
        return super().__iter__()


def _probe(form, outcome) -> None:
    """Count what one compiled run exercised; its scans are counted as they happen."""
    plans = codegen.loop_plans(form)
    inside = {pc for plan in plans.values() for pc in plan.slots}
    COVERAGE["self-loop programs"] += bool(plans)
    handed = {pc for pc in HANDOVERS if pc in plans}
    COVERAGE["counted-loop handovers"] += bool(handed)
    COVERAGE["handovers out of a promoted loop"] += any(plans[pc].rows for pc in handed)
    fault = outcome.fault
    if fault is not None and fault.note in ("read denied", "write denied"):
        COVERAGE["first-window misses served"] -= 1  # the scan found no window
    if not HANDOVERS and fault is not None and fault.pc in inside:
        COVERAGE["traps inside a pass"] += 1


def stream_coverage(form, plan: codegen.LoopPlan) -> Counter:
    """What a counted self-loop whose plan is ``plan`` runs in its proven
    passes, when they are over ``codegen.PLAIN_PASSES``: whether it runs
    them in closed form, and the loads it reads there as streams; its sunk
    induction registers, and whether it sinks them in a body that stores;
    and whether a body with no closed form steps a stream's base there."""
    reduced = plan.closed is not None
    steps_a_base = not reduced and any(form[pc][3] not in plan.sunk for pc in plan.streams)
    return Counter({"streamed loads": len(plan.streams) * reduced, "sunk induction registers": len(plan.sunk),
                    "sunk in a storing body": bool(plan.sunk) and any(form[pc][0] in STORES for pc in plan.slots),
                    "reduced entries": reduced, "refused closed forms that step a stream's base": steps_a_base})


def guard_safe(guard: str, regs: list[int], room: int, acl: AccessList) -> int:
    """The ``safe`` that a compiled self-loop's ``guard`` finds on entry with
    ``regs``, ``room`` whole passes left and ``acl``'s first windows."""
    (rlo, rhi), (wlo, whi) = acl.read_windows[0], acl.write_windows[0]
    names = {f"r{i}": value for i, value in enumerate(regs)}
    names.update(room=room, rlo=rlo, rhi=rhi, wlo=wlo, whi=whi)
    exec(guard, {}, names)
    return names["safe"]


def counted_trip(trip: str, regs: list[int], safe: int) -> int:
    """The pass in which a counted loop whose trip's source is ``trip``
    leaves, as compiled code finds it on entry with ``regs`` and ``safe``."""
    return eval(trip, {}, {**{f"r{i}": value for i, value in enumerate(regs)}, "safe": safe})


def proven_check_fails(row, regs: list[int], acl: AccessList) -> bool:
    """Whether the check that a guard proved for ``row`` fails with ``regs``:
    its add or sub wraps, or its access leaves the first window."""
    code, sub, dst, src, off, imm = row
    if code == ALU64_K or code == ALU64_X:
        b = regs[src] if code == ALU64_X else imm - (imm >> 63 << 64)
        return not 0 <= (regs[dst] + b if sub == 0 else regs[dst] - b) <= MASK64
    windows, base = (acl.read_windows, src) if code == LDX else (acl.write_windows, dst)
    lo, hi = windows[0]
    return not lo <= regs[base] + off <= hi - sub


def stack_coverage(form, plan: codegen.LoopPlan) -> Counter:
    """What an entry of a self-loop whose plan is ``plan`` counts of its
    stack rows: whether compiled code holds any in locals, whether it holds
    none because a slot could reach the stack through a pointer or a
    helper, and how many it leaves in memory for an overlap."""
    rows = {(form[pc][4], form[pc][1]) for pc in plan.slots if form[pc][0] in codegen._STACK_ROWS}
    return Counter({"promoted loop entries": bool(plan.rows),
                    "loops left unpromoted for an alias or a call": bool(rows) and plan.traps and not plan.rows,
                    "rows left unpromoted for an overlap": 0 if plan.traps else len(rows - plan.rows.keys())})


class LoopProbe:
    """An ``on_step`` for ``refvm.exec_program`` that follows a run through
    the self-loops of ``form`` up to step ``until`` (where the compiled run
    handed over, if it did), by their plans.  On each entry it finds the
    ``safe`` of the loop's guard; it counts into COVERAGE the loops with no
    guard, the loops that ran versioned passes, the loops whose proven
    checks fail in a pass after ``safe`` (the checked remainder), and any
    that fail in a pass before it, and each entry's ``stack_coverage``.  Of a
    counted loop's entries, it counts those whose trip lies beyond ``safe``
    (or that have none), and those that leave in the pass the trip names,
    and the ``stream_coverage`` of those with more than
    ``codegen.PLAIN_PASSES`` proven passes."""

    def __init__(self, form, acl: AccessList, budget: int, until: float):
        self.form, self.acl, self.budget, self.until = form, acl, budget, until
        self.plans = codegen.loop_plans(form)
        self.entry = None  # (plan, executed at entry, safe, trip or None) of the loop running
        self.short = False  # whether that entry's guard has fallen short yet

    def __call__(self, pc: int, regs: list[int], executed: int) -> None:
        if executed >= self.until:
            return
        if self.entry is not None and pc not in self.entry[0].slots:
            plan, entered, _, trip = self.entry
            if trip is not None:  # it leaves by its branch, in a pass the trip must name
                left = (executed - entered) // len(plan.slots) == trip
                COVERAGE["left at the counted pass" if left else "counted trips that missed"] += 1
            self.entry = None
        if self.entry is None and pc in self.plans:
            plan = self.plans[pc]
            room = (self.budget - executed) // len(plan.slots)
            if room:
                safe = guard_safe(plan.guard, regs, room, self.acl) if plan.proven else room
                COVERAGE["versioned loop entries" if safe and plan.proven else
                         "loop entries with no guard" if not plan.proven else "loop entries with no safe pass"] += 1
                COVERAGE.update(stack_coverage(self.form, plan))
                trip = plan.trip and counted_trip(plan.trip, regs, safe)
                if trip:
                    COVERAGE["counted entries"] += 1
                    COVERAGE["counted trip beyond safe"] += trip > safe
                    if min(trip, safe) > codegen.PLAIN_PASSES:
                        COVERAGE.update(stream_coverage(self.form, plan))
                known = trip if trip and trip <= safe else None  # where it leaves, if its proven passes end there
                self.entry, self.short = (plan, executed, safe, known), False
        if self.entry is None:
            return
        plan, entered, safe, _ = self.entry
        if pc not in plan.proven:
            return
        if proven_check_fails(self.form[pc], regs, self.acl):
            if (executed - entered) // len(plan.slots) < safe:
                COVERAGE["proven checks that failed"] += 1
            elif not self.short:
                self.short = True
                COVERAGE["guards that fell short, then wrapped or left the window"] += 1


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
    """The host of one run: ``init`` fills the context's two regions, and the
    stack with what is left of it, if anything."""
    memory = HostMemory()
    ro = memory.alloc(RO_LEN, "ro", readable=True, writable=False, init=init[:RO_LEN])
    rw = memory.alloc(RW_LEN, "rw", readable=True, writable=True, init=init[RO_LEN:RO_LEN + RW_LEN])
    stack = memory.alloc(STACK_SIZE, STACK_LABEL, readable=True, writable=True, init=init[RO_LEN + RW_LEN:])
    return memory, AccessList([ro, rw, stack] if stack_last else [stack, ro, rw])


LOOPS = {  # the self-loop streams' generators: (rng, allowed helper ids, stack last) -> program
    "self": lambda rng, allowed, _: random_self_loop(rng, CTX_SPAN, allowed),
    "stack rows": lambda rng, allowed, _: random_stack_loop(rng, allowed),
    # (the first read window's base register, its length): the context's read-only region, or the stack
    "streams": lambda rng, allowed, stack_last: random_stream_loop(
        rng, CTX_SPAN, (1, RO_LEN) if stack_last else (10, STACK_SIZE)),
}


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
    seed: int, allowed: tuple[int, ...], programs: int, probe: bool = False, near_budget: int = 0,
    loops: str = "",
) -> tuple[list[str], list]:
    """The mismatches of a stream of ``programs``, and the package's
    outcomes; with ``probe``, count into COVERAGE what each run exercised.
    With ``near_budget`` k, every k-th program runs under a budget within
    three steps of what its run takes or of its length, where the counted
    interpreter's bound (a straight run from slot s takes at most n - s
    steps) stops fitting, so that it hands over to the stepped loop;
    COVERAGE counts the handovers.  With ``loops``, a key of LOOPS, each
    program is a self-loop from that generator, and a LoopProbe follows the
    reference run (``probe`` must be on)."""
    rng = random.Random(seed)
    table = _helper_table()
    found = []
    outcomes = []
    for index in range(programs):
        stack_last = index % 2 == 0
        if loops:
            program = LOOPS[loops](rng, allowed, stack_last)
        else:
            program = random_accepted_program(
                rng, max_slots=48, allowed_syscalls=allowed, ctx_span=CTX_SPAN
            )
        vp = verify(program, LIMITS, allowed)
        init = rng.randbytes(RO_LEN + RW_LEN + (STACK_SIZE if loops == "streams" else 0))  # streams walk the stack
        budget = None
        if near_budget and index % near_budget == 0:
            _, acl = _host(init, stack_last)
            steps = refvm.exec_program(vp, SyscallEnv(acl, table)).executed
            budget = max(0, rng.choice((steps, len(vp.form))) + rng.randint(-3, 3))
        results = []
        for interpreter in (vm.exec_program, refvm.exec_program):
            memory, acl = _host(init, stack_last)
            if probe and interpreter is vm.exec_program:
                acl.run_state = (_Scanned(acl.read_windows), _Scanned(acl.write_windows), *acl.run_state[2:])
                HANDOVERS.clear()
                HANDOVER_STEPS.clear()
            STEPPED.clear()
            if loops and interpreter is refvm.exec_program:
                until = HANDOVER_STEPS[0] if HANDOVER_STEPS else float("inf")
                on_step = LoopProbe(vp.form, acl, vp.budget if budget is None else budget, until)
                outcome = interpreter(vp, SyscallEnv(acl, table), budget, on_step)
            else:
                outcome = interpreter(vp, SyscallEnv(acl, table), budget)
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
    mismatches, outcomes = _mismatches(0xB0D6 + len(tier), HELPER_IDS, programs, near_budget=1)
    assert mismatches == [], f"{len(mismatches)} mismatches, first:\n{mismatches[0]}"
    _check_stream((), outcomes)
    required = ["handovers to the stepped loop", "handed-over runs that ran out",
                "handed-over runs that ended otherwise"]
    if tier == "interpreted":
        required += ["handovers on entry", "handovers at a taken jump"]
    for what in required:
        assert COVERAGE[what] > 0, what


LOOP_PROGRAMS = 1_000  # per stream, with the compiled tier forced on
COUNTED = ("counted entries", "left at the counted pass", "counted trip beyond safe")  # see LoopProbe


@pytest.mark.parametrize("allowed", [(), HELPER_IDS], ids=["no-helpers", "helpers"])
def test_compiled_self_loops_match_the_reference(allowed, compiled_tier, monkeypatch):
    """Self-loops from ``random_self_loop``: each loop's guard is found on
    every entry from the reference run's registers, and the stream must
    run versioned passes, fall short of a wrap or a window's edge and then
    reach it in the checked remainder, run loops with no guard, and sink
    induction registers in counted loops that store.  No
    check that a guard proved may fail before its ``safe`` passes are over."""
    RETURNED.clear()
    COVERAGE.clear()
    stepped = vm._stepped

    def handed_over(form, regs, pc, executed, *rest):  # the threshold is 0: only compiled code calls it
        HANDOVERS.append(pc)
        HANDOVER_STEPS.append(executed)
        return stepped(form, regs, pc, executed, *rest)

    monkeypatch.setattr(vm, "_stepped", handed_over)
    mismatches, outcomes = _mismatches(0x100B + len(allowed), allowed, LOOP_PROGRAMS, probe=True, loops="self")
    assert mismatches == [], f"{len(mismatches)} mismatches, first:\n{mismatches[0]}"
    assert len(compiled_tier) == LOOP_PROGRAMS
    assert COVERAGE["self-loop programs"] == LOOP_PROGRAMS
    assert COVERAGE["proven checks that failed"] == COVERAGE["counted trips that missed"] == 0
    for what in ("versioned loop entries", "guards that fell short, then wrapped or left the window",
                 "loop entries with no guard", "traps inside a pass", "first-window misses served",
                 "sunk in a storing body", *COUNTED):
        assert COVERAGE[what] > 0, what


@pytest.mark.parametrize("allowed", [(), HELPER_IDS], ids=["no-helpers", "helpers"])
def test_compiled_stack_row_loops_match_the_reference(allowed, compiled_tier, monkeypatch):
    """Self-loops from ``random_stack_loop``, every third under a budget near
    its run's length: the stream must enter loops whose rows compiled code
    holds in locals, hand over out of one, and leave loops and rows in
    memory where a pointer, a helper or an overlap could reach them."""
    RETURNED.clear()
    COVERAGE.clear()
    stepped = vm._stepped

    def handed_over(form, regs, pc, executed, *rest):  # the threshold is 0: only compiled code calls it
        HANDOVERS.append(pc)
        HANDOVER_STEPS.append(executed)
        return stepped(form, regs, pc, executed, *rest)

    monkeypatch.setattr(vm, "_stepped", handed_over)
    mismatches, _ = _mismatches(0x57AC + len(allowed), allowed, LOOP_PROGRAMS, probe=True, near_budget=3,
                                loops="stack rows")
    assert mismatches == [], f"{len(mismatches)} mismatches, first:\n{mismatches[0]}"
    assert len(compiled_tier) == LOOP_PROGRAMS
    assert COVERAGE["self-loop programs"] == LOOP_PROGRAMS
    assert COVERAGE["proven checks that failed"] == 0
    for what in ("promoted loop entries", "handovers out of a promoted loop",
                 "loops left unpromoted for an alias or a call", "rows left unpromoted for an overlap"):
        assert COVERAGE[what] > 0, what


@pytest.mark.parametrize("plain", [codegen.PLAIN_PASSES, 0], ids=["plain-passes-first", "streamed-from-pass-1"])
def test_compiled_stream_loops_match_the_reference(compiled_tier, monkeypatch, plain):
    """Self-loops from ``random_stream_loop``, every third under a budget near
    its run's length: the stream must run at least 100 counted loop entries
    in closed form, reading loads as streams there; sink induction
    registers, also in counted loops that store; step the base of a stream
    in a counted loop whose closed form was refused; fall short of a
    window's edge or a wrap and reach it in the checked remainder; trap
    inside a pass and hand over out of a loop.  No check that a guard proved
    may fail before its ``safe`` passes are over.  Counted loops of up to
    ``codegen.PLAIN_PASSES`` proven passes run no closed form, so the
    stream runs once more with none."""
    monkeypatch.setattr(codegen, "PLAIN_PASSES", plain)
    COVERAGE.clear()
    stepped = vm._stepped

    def handed_over(form, regs, pc, executed, *rest):  # the threshold is 0: only compiled code calls it
        HANDOVERS.append(pc)
        HANDOVER_STEPS.append(executed)
        return stepped(form, regs, pc, executed, *rest)

    monkeypatch.setattr(vm, "_stepped", handed_over)
    mismatches, _ = _mismatches(0x57E4, (), LOOP_PROGRAMS, probe=True, near_budget=3, loops="streams")
    assert mismatches == [], f"{len(mismatches)} mismatches, first:\n{mismatches[0]}"
    assert len(compiled_tier) == LOOP_PROGRAMS
    assert COVERAGE["self-loop programs"] == LOOP_PROGRAMS
    assert COVERAGE["proven checks that failed"] == COVERAGE["counted trips that missed"] == 0
    assert COVERAGE["reduced entries"] >= 100
    for what in ("streamed loads", "sunk induction registers", "sunk in a storing body",
                 "refused closed forms that step a stream's base", "versioned loop entries",
                 "guards that fell short, then wrapped or left the window", "traps inside a pass",
                 "counted-loop handovers", *COUNTED):
        assert COVERAGE[what] > 0, what
