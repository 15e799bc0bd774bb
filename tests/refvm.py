"""Reference interpreter: the executable specification of the ISA semantics.

This is the plain step-by-step loop that ``femtoc.vm.exec_program`` ran
before it dispatched on the verifier's predecoded form. It re-derives every
instruction from ``OPCODE_INFO`` on each step and is kept only so the
differential tests can compare the package's interpreter against it:
return value, step and branch counts, the full fault and every byte of
host memory must agree.
"""

from __future__ import annotations

from typing import Callable

from femtoc.isa import OPCODE_INFO, OpKind
from femtoc.memory import AccessViolation, HostMemory, Mode
from femtoc.verifier import VerifiedProgram
from femtoc.vm import (
    MASK32,
    MASK64,
    ExecOutcome,
    Fault,
    FaultKind,
    SyscallEnv,
    SyscallError,
)


def _load(memory: HostMemory, addr: int, size: int) -> int:
    i = addr - memory.base
    return int.from_bytes(memory.buf[i : i + size], "little")


def _s64(x: int) -> int:
    return x - (1 << 64) if x & (1 << 63) else x


def _s32(x: int) -> int:
    x &= MASK32
    return x - (1 << 32) if x & (1 << 31) else x


class _Trap(Exception):
    def __init__(self, fault: Fault):
        self.fault = fault


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
    env: SyscallEnv,
    budget: int | None = None,
    on_step: Callable[[int, list[int], int], None] | None = None,
) -> ExecOutcome:
    """Run a verified program to completion under ``env``'s access list and
    helper table.

    Registers start zeroed except r1 (the base of the access list's first
    region other than its stack, or 0 when it has none) and r10 (stack
    base).  The outcome's ``executed`` count is exact: the number of
    instructions that started executing, capped at the budget.  Every
    helper gets ``env`` itself.  ``on_step(pc, regs, executed)``, when
    given, sees each instruction before it runs.
    """
    slots = vp.program.slots
    n = len(slots)
    budget = vp.budget if budget is None else budget
    acl, syscalls = env.acl, env.helpers

    regs = [0] * 11
    regs[1] = next((region.base for region in acl.regions if region is not acl.stack), 0)
    stack_base = acl.stack.base
    regs[10] = stack_base

    pc = 0
    executed = 0
    branches = 0

    def mem_load(addr: int, size: int, at: int) -> int:
        region = acl.region_for(addr, size, Mode.READ)
        if region is None:
            raise _Trap(Fault(FaultKind.MEMORY_VIOLATION, at, addr, size, "read denied"))
        return _load(region.memory, addr, size)

    def mem_store(addr: int, size: int, value: int, at: int) -> None:
        region = acl.region_for(addr, size, Mode.WRITE)
        if region is None:
            raise _Trap(Fault(FaultKind.MEMORY_VIOLATION, at, addr, size, "write denied"))
        i = addr - region.memory.base
        region.memory.buf[i : i + size] = (value & ((1 << 8 * size) - 1)).to_bytes(size, "little")

    try:
        while True:
            if executed >= budget:
                raise _Trap(Fault(FaultKind.BUDGET_EXCEEDED, pc, note=f"budget {budget} exhausted"))
            if not 0 <= pc < n:
                # Unreachable for verified programs; kept as a hard stop.
                raise _Trap(Fault(FaultKind.BAD_SYSCALL, pc, note="program counter escaped"))
            ins = slots[pc]
            if on_step is not None:
                on_step(pc, regs, executed)
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
