"""The interpreter: executes verified programs under an access list and a
step budget.

Register semantics follow the 64-bit convention: all registers hold
unsigned 64-bit values, 32-bit ALU ops zero-extend their result, immediates
are sign-extended to 64 bits, divide/modulo are unsigned and yield 0 on a
zero divisor, shifts mask their amount, and signed comparisons reinterpret
the operands as two's complement.  Memory loads zero-extend.

Every instruction costs one budget step; a helper call costs one step for
the call itself and nothing for the host-side body.  Execution ends with an
exit, a fault, or budget exhaustion — never anything else.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, NamedTuple

from .isa import OPCODE_INFO, OpKind, Program
from .memory import AccessList, AccessViolation, MemoryRegion, Mode
from .verifier import VerifiedProgram

if TYPE_CHECKING:
    from .facilities import CallerIdentity

MASK64 = (1 << 64) - 1
MASK32 = (1 << 32) - 1


def _s64(x: int) -> int:
    return x - (1 << 64) if x & (1 << 63) else x


def _s32(x: int) -> int:
    x &= MASK32
    return x - (1 << 32) if x & (1 << 31) else x


class FaultKind(Enum):
    MEMORY_VIOLATION = "MemoryViolation"
    BUDGET_EXCEEDED = "BudgetExceeded"
    BAD_SYSCALL = "BadSyscall"


@dataclass(frozen=True)
class Fault:
    kind: FaultKind
    pc: int
    addr: int | None = None
    length: int | None = None
    note: str = ""

    def __str__(self) -> str:
        loc = f" ({self.length}B at {self.addr:#x})" if self.addr is not None else ""
        note = f": {self.note}" if self.note else ""
        return f"{self.kind.value} at slot {self.pc}{loc}{note}"


@dataclass(frozen=True)
class ExecOutcome:
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


class SyscallEnv(NamedTuple):
    """Host-side context handed to helpers: the run's access list, the call's
    slot, and the identity of the container making the call (None when the
    run has no caller)."""

    acl: AccessList
    pc: int
    caller: CallerIdentity | None


SyscallFn = Callable[..., int]


class DuplicateId(ValueError):
    pass


class SyscallError(Exception):
    """Raised by a helper to abort the run with a BadSyscall fault."""


@dataclass(frozen=True)
class SyscallEntry:
    id: int
    fn: SyscallFn
    argc: int
    name: str


class SyscallTable:
    """Helper registry: id -> host callback taking (env, r1..r_argc)."""

    def __init__(self) -> None:
        self._entries: dict[int, SyscallEntry] = {}

    def register(self, sys_id: int, fn: SyscallFn, argc: int, name: str = "") -> None:
        if not 0 <= argc <= 5:
            raise ValueError("helpers take at most five register arguments")
        if sys_id in self._entries:
            raise DuplicateId(f"helper id {sys_id:#x} already registered")
        self._entries[sys_id] = SyscallEntry(sys_id, fn, argc, name or fn.__name__)

    def lookup(self, sys_id: int) -> SyscallEntry | None:
        return self._entries.get(sys_id)

    def ids(self) -> frozenset[int]:
        return frozenset(self._entries)

    def restricted(self, allowed: frozenset[int] | set[int]) -> "SyscallTable":
        """A view exposing only the granted ids."""
        sub = SyscallTable()
        for sys_id, entry in self._entries.items():
            if sys_id in allowed:
                sub._entries[sys_id] = entry
        return sub


_ALU64 = {
    "add": lambda a, b: (a + b) & MASK64,
    "sub": lambda a, b: (a - b) & MASK64,
    "mul": lambda a, b: (a * b) & MASK64,
    "div": lambda a, b: a // b if b else 0,
    "or": lambda a, b: a | b,
    "and": lambda a, b: a & b,
    "lsh": lambda a, b: (a << (b & 63)) & MASK64,
    "rsh": lambda a, b: a >> (b & 63),
    "mod": lambda a, b: a % b if b else 0,
    "xor": lambda a, b: a ^ b,
    "mov": lambda a, b: b,
    "arsh": lambda a, b: (_s64(a) >> (b & 63)) & MASK64,
}

_ALU32 = {
    "add": lambda a, b: (a + b) & MASK32,
    "sub": lambda a, b: (a - b) & MASK32,
    "mul": lambda a, b: (a * b) & MASK32,
    "div": lambda a, b: a // b if b else 0,
    "or": lambda a, b: a | b,
    "and": lambda a, b: a & b,
    "lsh": lambda a, b: (a << (b & 31)) & MASK32,
    "rsh": lambda a, b: a >> (b & 31),
    "mod": lambda a, b: a % b if b else 0,
    "xor": lambda a, b: a ^ b,
    "mov": lambda a, b: b,
    "arsh": lambda a, b: (_s32(a) >> (b & 31)) & MASK32,
}

_CMP = {
    "jeq": lambda a, b: a == b,
    "jgt": lambda a, b: a > b,
    "jge": lambda a, b: a >= b,
    "jset": lambda a, b: (a & b) != 0,
    "jne": lambda a, b: a != b,
    "jsgt": lambda a, b: _s64(a) > _s64(b),
    "jsge": lambda a, b: _s64(a) >= _s64(b),
    "jlt": lambda a, b: a < b,
    "jle": lambda a, b: a <= b,
    "jslt": lambda a, b: _s64(a) < _s64(b),
    "jsle": lambda a, b: _s64(a) <= _s64(b),
}


def exec_program(
    vp: VerifiedProgram,
    ctx: MemoryRegion | None,
    acl: AccessList,
    syscalls: SyscallTable | None = None,
    budget: int | None = None,
    caller: CallerIdentity | None = None,
) -> ExecOutcome:
    """Run a verified program to completion.

    Registers start zeroed except r1 (context base, when a context region is
    given) and r10 (stack base).  The outcome's ``executed`` count is exact:
    the number of instructions that started executing, capped at the budget.
    Helpers see ``caller`` in their SyscallEnv.
    """
    slots = vp.program.slots
    n = len(slots)
    budget = vp.budget if budget is None else budget
    syscalls = syscalls or SyscallTable()

    regs = [0] * 11
    if ctx is not None:
        regs[1] = ctx.base
    stack_base = acl.stack.base
    regs[10] = stack_base

    pc = 0
    executed = 0
    branches = 0

    def mem_load(addr: int, size: int, at: int) -> int:
        region = acl.region_for(addr, size, Mode.READ)
        if region is None:
            raise _Trap(Fault(FaultKind.MEMORY_VIOLATION, at, addr, size, "read denied"))
        return region.memory.load(addr, size)

    def mem_store(addr: int, size: int, value: int, at: int) -> None:
        region = acl.region_for(addr, size, Mode.WRITE)
        if region is None:
            raise _Trap(Fault(FaultKind.MEMORY_VIOLATION, at, addr, size, "write denied"))
        region.memory.store(addr, size, value)

    try:
        while True:
            if executed >= budget:
                raise _Trap(Fault(FaultKind.BUDGET_EXCEEDED, pc, note=f"budget {budget} exhausted"))
            if not 0 <= pc < n:
                # Unreachable for verified programs; kept as a hard stop.
                raise _Trap(Fault(FaultKind.BAD_SYSCALL, pc, note="program counter escaped"))
            ins = slots[pc]
            executed += 1
            info = OPCODE_INFO[ins.opcode]
            kind = info.kind

            if kind is OpKind.ALU64 or kind is OpKind.ALU32:
                table = _ALU64 if kind is OpKind.ALU64 else _ALU32
                if info.alu_op == "neg":
                    a = regs[ins.dst]
                    regs[ins.dst] = (-a) & MASK64 if kind is OpKind.ALU64 else (-a) & MASK32
                else:
                    a = regs[ins.dst]
                    b = regs[ins.src] if info.source == "reg" else ins.imm & MASK64
                    if kind is OpKind.ALU32:
                        a &= MASK32
                        b &= MASK32
                    regs[ins.dst] = table[info.alu_op](a, b)
                pc += 1
            elif kind is OpKind.LDX:
                addr = (regs[ins.src] + ins.offset) & MASK64
                regs[ins.dst] = mem_load(addr, info.width, pc)
                pc += 1
            elif kind is OpKind.STX:
                addr = (regs[ins.dst] + ins.offset) & MASK64
                mem_store(addr, info.width, regs[ins.src], pc)
                pc += 1
            elif kind is OpKind.ST:
                addr = (regs[ins.dst] + ins.offset) & MASK64
                mem_store(addr, info.width, ins.imm & MASK64, pc)
                pc += 1
            elif kind is OpKind.JCOND:
                a = regs[ins.dst]
                b = regs[ins.src] if info.source == "reg" else ins.imm & MASK64
                if _CMP[info.name](a, b):
                    branches += 1
                    pc = pc + 1 + ins.offset
                else:
                    pc += 1
            elif kind is OpKind.JA:
                branches += 1
                pc = pc + 1 + ins.offset
            elif kind is OpKind.EXIT:
                if regs[10] != stack_base:
                    raise RuntimeError("stack pointer register mutated during run")
                return ExecOutcome(regs[0], executed, branches)
            elif kind is OpKind.LDDW:
                lo = slots[pc].imm & MASK32
                hi = slots[pc + 1].imm & MASK32
                regs[ins.dst] = lo | (hi << 32)
                pc += 2
            elif kind is OpKind.CALL:
                entry = syscalls.lookup(ins.imm)
                if entry is None:
                    raise _Trap(
                        Fault(FaultKind.BAD_SYSCALL, pc, note=f"helper id {ins.imm:#x} not available")
                    )
                env = SyscallEnv(acl=acl, pc=pc, caller=caller)
                args = regs[1 : 1 + entry.argc]
                try:
                    result = entry.fn(env, *args)
                except AccessViolation as exc:
                    raise _Trap(
                        Fault(
                            FaultKind.MEMORY_VIOLATION,
                            pc,
                            exc.addr,
                            exc.length,
                            f"helper {entry.name} denied",
                        )
                    ) from None
                except SyscallError as exc:
                    raise _Trap(Fault(FaultKind.BAD_SYSCALL, pc, note=str(exc))) from None
                except _Trap:
                    raise
                except Exception as exc:  # defensive: helpers must not crash the host
                    raise _Trap(
                        Fault(FaultKind.BAD_SYSCALL, pc, note=f"helper {entry.name} failed: {exc!r}")
                    ) from None
                regs[0] = (result or 0) & MASK64
                pc += 1
            elif kind is OpKind.END:
                width = ins.imm
                value = regs[ins.dst] & ((1 << width) - 1)
                if info.alu_op == "be":
                    value = int.from_bytes(value.to_bytes(width // 8, "little"), "big")
                regs[ins.dst] = value
                pc += 1
            else:  # pragma: no cover
                raise _Trap(Fault(FaultKind.BAD_SYSCALL, pc, note=f"unhandled kind {kind}"))
    except _Trap as trap:
        if regs[10] != stack_base:
            raise RuntimeError("stack pointer register mutated during run")
        return ExecOutcome(regs[0], executed, branches, trap.fault)
