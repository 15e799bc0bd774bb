"""The execution tiers: run verified programs under an access list and a
step budget.

Register semantics follow the 64-bit convention: all registers hold
unsigned 64-bit values, 32-bit ALU ops zero-extend their result, immediates
are sign-extended to 64 bits, divide/modulo are unsigned and yield 0 on a
zero divisor, shifts mask their amount, and signed comparisons reinterpret
the operands as two's complement.  Memory loads zero-extend.

Every instruction costs one budget step; a helper call costs one step for
the call itself and nothing for the host-side body.  Execution ends with an
exit, a fault, or budget exhaustion — never anything else.

There are two tiers, and both are generated from ``codegen``'s one table of
per-operation templates.  A program first runs on the interpreter, which
dispatches on the verifier's rows one slot at a time.  It counts the budget
per straight run, not per step: with no taken jump the program counter only
grows, so a run from slot s takes at most n - s steps.  The interpreter
checks that bound on entry and at each taken jump, and adds a run's steps
when it ends, at a taken jump, an exit or a fault.  Where the bound does not
fit in the budget left, it hands its registers and counters to the stepped
loop, ``_stepped``: the same loop body with a budget test before each step,
so the budget runs out on the exact slot.  Its entry reports the spent
budget, or a counter that escaped a hand-built form.  Each VerifiedProgram
counts the instructions the interpreter has executed for it over all its
runs; once that reaches ``HOT_STEPS_PER_SLOT`` (64) per slot, its next run
compiles the form into one Python function: its registers are locals and
its basic blocks are arms of one dispatch loop.  The function is kept on
the program's ``Verdict``, which an engine shares among the containers
bound with the same bytes, limits and granted helper ids: once one of them
has compiled it, all of them run it, and it lives as long as any of them
is installed.  A program that runs once never compiles.

What each tier checks is the same.  Every load and store tests the access
list's first read or write window inline and, on a miss, asks
``memory.in_windows`` whether any window covers it, faulting when none does;
then it converts the bytes once, on the access list's one buffer.  Stack rows,
the [r10+off] accesses the verifier proved to lie inside the stack, take
no check, so the engine puts the stack last; a compiled self-loop with no
other access and no call converts each row once per entry, not per pass.
A counted compiled self-loop finds on entry the pass where it leaves, and
its proven passes up to it test no branch and drop the steps of a
register that nothing else in them reads, setting it once where those
passes end.  A counted self-loop whose other slots only add the values of
loads whose base steps by their width per pass, or such sums, into
registers runs no pass in Python when it has more than 16 proven passes:
it decodes each load's values at once (``struct.unpack_from``,
little-endian like the codec) and sets each register from sums over them.  The checked passes
after the proven ones are unchanged.
The compiled tier checks the budget once per block: a block that might not
fit in what is left hands its registers and counters to the stepped loop
at its first slot.  A block that jumps back to its own start counts passes
instead: it computes once how many whole passes fit and hands over at its
start when all of them took the branch.  A fault inside a block reports the
same slot, step and branch counts as the interpreter.  Every register holds
a value in [0, 2**64) on both tiers, so compiled 8-byte stores and
zero-offset addresses use the register with no mask.  Compiled code keeps
r10 in a local that only its prologue assigns, and ``codegen`` refuses to
generate code for a row that writes r10, so it never tests r10 at run time.

A run gets its container's SyscallEnv whole: the one record of what the
container may reach (its access list, which gives r1 and r10, its
restricted helper table, its stores and its response view), an argument of
every run, never part of the compiled function.  A call runs the entry for
its constant helper id in the record's table directly; ``_helper_fault``
maps what it raises to the run's fault.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate, islice  # noqa: F401  (generated code's, with unpack_from)
from struct import unpack_from  # noqa: F401
from typing import TYPE_CHECKING, Callable, Mapping, NamedTuple

from .codegen import COUNTED, STEPPED, compiled_source, interpreter_source
# The buffer's codec and in_windows are generated code's.
from .memory import (  # noqa: F401
    _PACK, _RUN_FORMATS, _UNPACK, _WIDTH_MASK, AccessList, AccessViolation, MemoryRegion, in_windows,
)
from .verifier import MASK32, MASK64, VerifiedProgram  # noqa: F401  (MASK32 is re-exported)

if TYPE_CHECKING:
    from uuid import UUID

    from .facilities import KeyValueStore


class FaultKind(Enum):
    MEMORY_VIOLATION = "MemoryViolation"
    BUDGET_EXCEEDED = "BudgetExceeded"
    BAD_SYSCALL = "BadSyscall"


class Fault(NamedTuple):
    kind: FaultKind
    pc: int
    addr: int | None = None
    length: int | None = None
    note: str = ""

    def __str__(self) -> str:
        loc = f" ({self.length}B at {self.addr:#x})" if self.addr is not None else ""
        note = f": {self.note}" if self.note else ""
        return f"{self.kind.value} at slot {self.pc}{loc}{note}"


class ExecOutcome(NamedTuple):
    return_value: int
    executed: int
    branches_taken: int
    fault: Fault | None = None

    @property
    def ok(self) -> bool:
        return self.fault is None


class _Trap(Exception):
    def __init__(self, fault: Fault):
        self.fault = fault


class _Handover(Exception):
    """Raised by compiled code when its next block might not fit in the
    budget left: the stepped loop takes over at that block."""


class DuplicateId(ValueError):
    pass


class SyscallError(Exception):
    """Raised by a helper to abort the run with a BadSyscall fault."""


_ADAPTERS = (  # by argc: fn(env, r1..r_argc) taking r1..r5, its result cut to 64 bits (None is 0)
    lambda fn: lambda env, r1, r2, r3, r4, r5: (fn(env) or 0) & MASK64,
    lambda fn: lambda env, r1, r2, r3, r4, r5: (fn(env, r1) or 0) & MASK64,
    lambda fn: lambda env, r1, r2, r3, r4, r5: (fn(env, r1, r2) or 0) & MASK64,
    lambda fn: lambda env, r1, r2, r3, r4, r5: (fn(env, r1, r2, r3) or 0) & MASK64,
    lambda fn: lambda env, r1, r2, r3, r4, r5: (fn(env, r1, r2, r3, r4) or 0) & MASK64,
    lambda fn: lambda env, r1, r2, r3, r4, r5: (fn(env, r1, r2, r3, r4, r5) or 0) & MASK64,
)


class SyscallEntry(NamedTuple):
    id: int
    fn: Callable[..., int]
    argc: int
    name: str
    call: Callable[..., int]  # fn adapted to (env, r1..r5), returning r0


class SyscallTable:
    """Helper registry: id -> host callback taking (env, r1..r_argc).  Both
    tiers call a helper from ``calls``: id -> its entry's ``call``."""

    def __init__(self) -> None:
        self._entries: dict[int, SyscallEntry] = {}
        self.calls: dict[int, Callable[..., int]] = {}

    def register(self, sys_id: int, fn: Callable[..., int], argc: int, name: str = "") -> None:
        if not 0 <= argc <= 5:
            raise ValueError("helpers take at most five register arguments")
        if sys_id in self._entries:
            raise DuplicateId(f"helper id {sys_id:#x} already registered")
        entry = self._entries[sys_id] = SyscallEntry(sys_id, fn, argc, name or fn.__name__, _ADAPTERS[argc](fn))
        self.calls[sys_id] = entry.call

    def lookup(self, sys_id: int) -> SyscallEntry | None:
        return self._entries.get(sys_id)

    def ids(self) -> frozenset[int]:
        return frozenset(self._entries)

    def restricted(self, allowed: frozenset[int] | set[int]) -> "SyscallTable":
        """A view exposing only the granted ids."""
        sub = SyscallTable()
        sub._entries = {sys_id: e for sys_id, e in self._entries.items() if sys_id in allowed}
        sub.calls = {sys_id: e.call for sys_id, e in sub._entries.items()}
        return sub


@dataclass(slots=True, eq=False)
class SyscallEnv:
    """The capability record of one container, handed whole to every run
    and to every helper it calls: its access list (with the stack), its
    restricted helper table, its id, the store of each scope its grant
    reaches, and its ``response`` view.  A record with no container has no
    stores and no response view."""

    acl: AccessList | None
    helpers: SyscallTable = field(default_factory=SyscallTable)
    container_id: UUID | None = None
    stores: Mapping[str, KeyValueStore] = field(default_factory=dict)
    response: MemoryRegion | None = None


def _helper_fault(helpers: SyscallTable, pc: int, sys_id: int, exc: Exception) -> Fault:
    """The run's fault at slot ``pc`` for ``exc``, raised calling helper ``sys_id``."""
    entry = helpers.lookup(sys_id)
    if entry is None:
        return Fault(FaultKind.BAD_SYSCALL, pc, note=f"helper id {sys_id:#x} not available")
    if isinstance(exc, AccessViolation):
        return Fault(FaultKind.MEMORY_VIOLATION, pc, exc.addr, exc.length, f"helper {entry.name} denied")
    if isinstance(exc, SyscallError):
        return Fault(FaultKind.BAD_SYSCALL, pc, note=str(exc))
    return Fault(FaultKind.BAD_SYSCALL, pc, note=f"helper {entry.name} failed: {exc!r}")  # a crash


_new = tuple.__new__  # builds a NamedTuple from all its fields, without its Python __new__


def _define(source: str, name: str, filename: str) -> Callable:
    """Run generated ``source`` in this module's namespace; return its ``name``."""
    namespace: dict = {}
    exec(compile(source, filename, "exec"), globals(), namespace)
    return namespace[name]


_stepped = _define(interpreter_source(STEPPED), "_stepped", "<femtoc stepped interpreter>")
_interpret = _define(interpreter_source(COUNTED), "_interpret", "<femtoc interpreter>")

# A program's form is compiled once the interpreter has run this many of its
# instructions per slot.  On a 2-core Xeon host the interpreter takes ~0.2-0.25
# us a step on straight ALU code, so that is ~13-16 us per slot, about what
# compiling a large form costs per slot (~14-17 ms for 1024 slots); small
# forms add a fixed ~0.4 ms.
HOT_STEPS_PER_SLOT = 64


def compile_form(form: tuple[tuple[int, ...], ...]) -> Callable[..., ExecOutcome]:
    """The compiled tier of a verified form: ``run(r1, env, budget)``, which
    returns the ExecOutcome the interpreter would."""
    source, after = compiled_source(form)
    return _define(source, "bind", "<femtoc compiled form>")(form, after)


def exec_program(vp: VerifiedProgram, env: SyscallEnv, budget: int | None = None) -> ExecOutcome:
    """Run a verified program to completion with the capabilities in ``env``.

    Registers start zeroed except r1 (``env.acl.r1``, its context's base)
    and r10 (the base of ``env.acl``'s stack).  The outcome's
    ``executed`` count is exact: the number of instructions that started
    executing, capped at the budget.  Every helper the run calls gets
    ``env`` itself.

    A program runs on the interpreter until ``vp`` has executed
    ``HOT_STEPS_PER_SLOT`` instructions per slot over its runs; the run
    that finds it there compiles its form into the verdict, and it and
    every later run of any holder of that verdict call the compiled
    function.
    """
    verdict = vp.verdict
    budget = verdict.budget if budget is None else budget
    run = verdict.compiled
    if run is None:
        form = verdict.form
        if vp.interpreted < len(form) * HOT_STEPS_PER_SLOT:
            regs = [0, env.acl.r1, 0, 0, 0, 0, 0, 0, 0, 0, env.acl.stack.base]
            outcome = _interpret(form, regs, 0, 0, 0, budget, env)
            vp.interpreted += outcome.executed
            return outcome
        run = verdict.compiled = compile_form(form)
    return run(env.acl.r1, env, budget)
