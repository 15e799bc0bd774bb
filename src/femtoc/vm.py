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

Every load and store is checked against the access list inline: the loop
scans the list's read or write windows for the first one that covers the
access, and converts the bytes straight on that window's host buffer.
Stack rows, the [r10+off] accesses the verifier proved to lie inside the
stack, index the stack's bytes with no scan.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Callable, NamedTuple

from .memory import AccessList, AccessViolation, MemoryRegion
from .verifier import (
    ADD, ALU32_K, ALU32_X, ALU64_K, ALU64_X, AND, ARSH, BE, CALL, DIV, END, EXIT, JA, JCOND_K,
    JCOND_X, JEQ, JGE, JGT, JLE, JLT, JNE, JSET, JSGE, JSGT, JSLT, LDDW, LDX, LDX_STACK, LSH,
    MASK32, MASK64, MOD, MOV, MUL, OR, RSH, ST, ST_STACK, STX, STX_STACK, SUB, XOR,
    VerifiedProgram,
)

if TYPE_CHECKING:
    from .facilities import CallerIdentity


# Little-endian unsigned codecs and value masks, indexed by access width.
_FORMATS = {1: "<B", 2: "<H", 4: "<I", 8: "<Q"}
_UNPACK = tuple(struct.Struct(_FORMATS[w]).unpack_from if w in _FORMATS else None for w in range(9))
_PACK = tuple(struct.Struct(_FORMATS[w]).pack_into if w in _FORMATS else None for w in range(9))
_WIDTH_MASK = tuple((1 << 8 * w) - 1 for w in range(9))


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

    The loop runs the verifier's executable form, one row per slot, and
    tests handler codes in order of how often programs execute them.
    """
    form = vp.form
    n = len(form)
    budget = vp.budget if budget is None else budget
    syscalls = syscalls or SyscallTable()
    read_windows, write_windows = acl.read_windows, acl.write_windows
    unpack, pack, width_mask = _UNPACK, _PACK, _WIDTH_MASK

    regs = [0] * 11
    if ctx is not None:
        regs[1] = ctx.base
    stack = acl.stack
    stack_base = stack.base
    regs[10] = stack_base
    stack_buf = stack.memory.buf
    stack_at = stack_base - stack.memory.base  # the stack's offset in stack_buf

    pc = 0
    executed = 0
    branches = 0

    try:
        while True:
            if executed >= budget:
                raise _Trap(Fault(FaultKind.BUDGET_EXCEEDED, pc, note=f"budget {budget} exhausted"))
            if not 0 <= pc < n:
                # Unreachable for verified programs; kept as a hard stop.
                raise _Trap(Fault(FaultKind.BAD_SYSCALL, pc, note="program counter escaped"))
            code, sub, dst, src, off, imm = form[pc]
            executed += 1

            if code <= ALU64_X:
                a = regs[dst]
                b = imm if code == ALU64_K else regs[src]
                if sub == ADD:
                    a = (a + b) & MASK64
                elif sub == SUB:
                    a = (a - b) & MASK64
                elif sub == MOV:
                    a = b
                elif sub == XOR:
                    a ^= b
                elif sub == MUL:
                    a = (a * b) & MASK64
                elif sub == AND:
                    a &= b
                elif sub == OR:
                    a |= b
                elif sub == LSH:
                    a = (a << (b & 63)) & MASK64
                elif sub == RSH:
                    a >>= b & 63
                elif sub == MOD:
                    a = a % b if b else 0
                elif sub == DIV:
                    a = a // b if b else 0
                elif sub == ARSH:
                    a = (_s64(a) >> (b & 63)) & MASK64
                else:  # NEG
                    a = -a & MASK64
                regs[dst] = a
                pc += 1
            elif code == JCOND_K or code == JCOND_X:
                a = regs[dst]
                b = imm if code == JCOND_K else regs[src]
                if sub == JNE:
                    taken = a != b
                elif sub == JEQ:
                    taken = a == b
                elif sub == JGT:
                    taken = a > b
                elif sub == JGE:
                    taken = a >= b
                elif sub == JLT:
                    taken = a < b
                elif sub == JLE:
                    taken = a <= b
                elif sub == JSET:
                    taken = (a & b) != 0
                elif sub == JSGT:
                    taken = _s64(a) > _s64(b)
                elif sub == JSGE:
                    taken = _s64(a) >= _s64(b)
                elif sub == JSLT:
                    taken = _s64(a) < _s64(b)
                else:  # JSLE
                    taken = _s64(a) <= _s64(b)
                if taken:
                    branches += 1
                    pc = off
                else:
                    pc += 1
            elif code == LDX:
                addr = (regs[src] + off) & MASK64
                end = addr + sub
                for lo, hi, buf, buf_base in read_windows:
                    if lo <= addr and end <= hi:
                        regs[dst] = unpack[sub](buf, addr - buf_base)[0]
                        break
                else:
                    raise _Trap(Fault(FaultKind.MEMORY_VIOLATION, pc, addr, sub, "read denied"))
                pc += 1
            elif code == LDX_STACK:
                regs[dst] = unpack[sub](stack_buf, stack_at + off)[0]
                pc += 1
            elif code == STX or code == ST:
                addr = (regs[dst] + off) & MASK64
                end = addr + sub
                for lo, hi, buf, buf_base in write_windows:
                    if lo <= addr and end <= hi:
                        value = regs[src] & width_mask[sub] if code == STX else imm
                        pack[sub](buf, addr - buf_base, value)
                        break
                else:
                    raise _Trap(Fault(FaultKind.MEMORY_VIOLATION, pc, addr, sub, "write denied"))
                pc += 1
            elif code == STX_STACK:
                pack[sub](stack_buf, stack_at + off, regs[src] & width_mask[sub])
                pc += 1
            elif code == JA:
                branches += 1
                pc = off
            elif code == ALU32_K or code == ALU32_X:
                a = regs[dst] & MASK32
                b = imm if code == ALU32_K else regs[src] & MASK32
                if sub == ADD:
                    a = (a + b) & MASK32
                elif sub == SUB:
                    a = (a - b) & MASK32
                elif sub == MOV:
                    a = b
                elif sub == XOR:
                    a ^= b
                elif sub == MUL:
                    a = (a * b) & MASK32
                elif sub == AND:
                    a &= b
                elif sub == OR:
                    a |= b
                elif sub == LSH:
                    a = (a << (b & 31)) & MASK32
                elif sub == RSH:
                    a >>= b & 31
                elif sub == MOD:
                    a = a % b if b else 0
                elif sub == DIV:
                    a = a // b if b else 0
                elif sub == ARSH:
                    a = (_s32(a) >> (b & 31)) & MASK32
                else:  # NEG
                    a = -a & MASK32
                regs[dst] = a
                pc += 1
            elif code == ST_STACK:
                pack[sub](stack_buf, stack_at + off, imm)
                pc += 1
            elif code == CALL:
                entry = syscalls.lookup(imm)
                if entry is None:
                    raise _Trap(
                        Fault(FaultKind.BAD_SYSCALL, pc, note=f"helper id {imm:#x} not available")
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
            elif code == EXIT:
                if regs[10] != stack_base:
                    raise RuntimeError("stack pointer register mutated during run")
                return ExecOutcome(regs[0], executed, branches)
            elif code == LDDW:
                regs[dst] = imm
                pc += 2
            elif code == END:
                value = regs[dst] & ((1 << imm) - 1)
                if sub == BE:
                    value = int.from_bytes(value.to_bytes(imm // 8, "little"), "big")
                regs[dst] = value
                pc += 1
            else:  # pragma: no cover
                raise _Trap(Fault(FaultKind.BAD_SYSCALL, pc, note=f"unhandled handler code {code}"))
    except _Trap as trap:
        if regs[10] != stack_base:
            raise RuntimeError("stack pointer register mutated during run")
        return ExecOutcome(regs[0], executed, branches, trap.fault)
