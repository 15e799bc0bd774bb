"""Pre-flight structural checks run once before a program may execute.

The checks are purely static: register fields must name r0..r10, nothing may
write r10 (it is the read-only stack pointer; store and compare instructions
only *read* their dst field, so they may use it as a base or comparand),
every jump must land on an instruction boundary inside the program, wide
loads must carry their continuation slot, helper calls must use granted ids,
the program must fit the instruction limit, and control flow must not be
able to fall off the end (at least one exit, and the final instruction is an
exit or an unconditional jump).

All violations are collected and reported together rather than stopping at
the first one.

The scan reads the program's encoded bytes, one ``(opcode, regs, off, imm)``
tuple per slot, and splits the register byte itself; it never decodes the
program to ``Instruction`` objects.  Error mnemonics come from the opcode
table, or from the slot's raw bytes for an unknown opcode.

The scan also proves some memory accesses safe once: a load or store whose
base register is r10 and whose [off, off+width) lies within the stack
lowers to a stack row, which the interpreter runs with no access-list
check.  r10 holds the stack base for the whole run, because nothing may
write it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .isa import (
    _SLOT,
    OPCODE_INFO,
    SLOT_SIZE,
    OpcodeInfo,
    OpKind,
    Program,
    continuation_slots,
    opcode_info,
)
from .memory import STACK_SIZE

DEFAULT_MAX_INSTRUCTIONS = 4096
DEFAULT_MAX_BRANCHES = 256

MASK64 = (1 << 64) - 1
MASK32 = (1 << 32) - 1

# -- the executable form ----------------------------------------------------
#
# verify() lowers every slot to one row (code, sub, dst, src, off, imm):
#   code  the interpreter's handler;
#   sub   the ALU operation, the comparison or the byte order; for loads
#         and stores, the access width in bytes;
#   off   the memory offset, or a jump's absolute target slot;
#   imm   the immediate, sign-extended to 64 bits or cut to 32 as the
#         operation reads it (st cuts it to the access width); lddw's
#         joined 64-bit value; a call's helper id and a byte swap's bit
#         width as encoded.
# A load or store at [r10+off] with 0 <= off and off + width <= STACK_SIZE
# lowers to LDX_STACK, STX_STACK or ST_STACK; its off is then the offset
# into the stack.  Every other access keeps LDX, STX or ST.
# The second slot of a wide load lowers to a row the interpreter refuses to
# run; verified control flow never reaches it.
# Codes and sub-ops are numbered in the order the interpreter tests them.

(ALU64_K, ALU64_X, JCOND_K, LDX, LDX_STACK, STX, STX_STACK, JA, JCOND_X, ALU32_K, ALU32_X, ST,
 ST_STACK, CALL, EXIT, LDDW, END, NOT_RUNNABLE) = range(18)

ALU_OPS = ("add", "sub", "mov", "xor", "mul", "and", "or", "lsh", "rsh", "mod", "div", "arsh",
           "neg")
ADD, SUB, MOV, XOR, MUL, AND, OR, LSH, RSH, MOD, DIV, ARSH, NEG = range(len(ALU_OPS))
CMP_OPS = ("jne", "jeq", "jgt", "jge", "jlt", "jle", "jset", "jsgt", "jsge", "jslt", "jsle")
JNE, JEQ, JGT, JGE, JLT, JLE, JSET, JSGT, JSGE, JSLT, JSLE = range(len(CMP_OPS))
BYTE_ORDERS = ("le", "be")
LE, BE = range(len(BYTE_ORDERS))

_NOT_RUNNABLE = (NOT_RUNNABLE, 0, 0, 0, 0, 0)

_CODE_OF_KIND = {OpKind.LDX: LDX, OpKind.STX: STX, OpKind.ST: ST, OpKind.JA: JA,
                 OpKind.CALL: CALL, OpKind.EXIT: EXIT, OpKind.LDDW: LDDW}
_STACK_CODE = {LDX: LDX_STACK, STX: STX_STACK, ST: ST_STACK}


def _row(info: OpcodeInfo) -> tuple[str, bool, int, int, int, int]:
    """What the scan needs of one opcode: (name, writes_dst, code, sub,
    immediate mask, stack code); a mask of -1 keeps the immediate as
    encoded, and the stack code is 0 for everything but loads and stores."""
    kind, reg = info.kind, info.source == "reg"
    if kind is OpKind.ALU64:
        code, sub, mask = ALU64_X if reg else ALU64_K, ALU_OPS.index(info.alu_op), MASK64
    elif kind is OpKind.ALU32:
        code, sub, mask = ALU32_X if reg else ALU32_K, ALU_OPS.index(info.alu_op), MASK32
    elif kind is OpKind.JCOND:
        code, sub, mask = JCOND_X if reg else JCOND_K, CMP_OPS.index(info.name), MASK64
    elif kind is OpKind.END:
        code, sub, mask = END, BYTE_ORDERS.index(info.alu_op), -1
    else:
        code, sub = _CODE_OF_KIND[kind], info.width or 0
        mask = {OpKind.CALL: -1, OpKind.LDDW: MASK32, OpKind.ST: (1 << 8 * sub) - 1}.get(kind, MASK64)
    return info.name, info.writes_dst, code, sub, mask, _STACK_CODE.get(code, 0)


_ROWS = {opcode: _row(info) for opcode, info in OPCODE_INFO.items()}


@dataclass(frozen=True)
class VerifyLimits:
    """Static size limit and the two factors of the run-time step budget."""

    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS
    max_branches: int = DEFAULT_MAX_BRANCHES

    def __post_init__(self):
        if self.max_instructions < 1 or self.max_branches < 1:
            raise ValueError("limits must be at least 1")

    @property
    def budget(self) -> int:
        return self.max_instructions * self.max_branches


class VerifyErrorKind(Enum):
    BAD_REGISTER_FIELD = "BadRegisterField"
    WRITE_TO_R10 = "WriteToR10"
    JUMP_OUT_OF_BOUNDS = "JumpOutOfBounds"
    TRUNCATED_WIDE_LOAD = "TruncatedWideLoad"
    UNKNOWN_OPCODE = "UnknownOpcode"
    NO_EXIT = "NoExit"
    TOO_LONG = "TooLong"
    UNKNOWN_SYSCALL = "UnknownSyscall"


@dataclass(frozen=True)
class VerifyError:
    kind: VerifyErrorKind
    slot_index: int
    mnemonic: str
    detail: str

    def __str__(self) -> str:
        return f"slot {self.slot_index}: {self.mnemonic}: {self.detail}"


@dataclass(frozen=True)
class VerifiedProgram:
    """A program that passed all checks, with its derived run-time budget
    and its executable form: one row per slot, as described above."""

    program: Program
    limits: VerifyLimits
    form: tuple[tuple[int, ...], ...]

    @property
    def budget(self) -> int:
        return self.limits.budget


class VerifyRejected(ValueError):
    """Raised by verify() with the complete list of violations."""

    def __init__(self, errors: list[VerifyError]):
        super().__init__(verification_report(errors))
        self.errors = errors


def _mnemonic(data: bytes, at: int) -> str:
    """Slot ``at``'s opcode name, or its raw bytes if the opcode has none."""
    start = at * SLOT_SIZE
    info = opcode_info(data[start])
    if info is None:
        return f"raw {data[start:start + SLOT_SIZE].hex()}"
    return info.name


def _scan(
    program: Program,
    limits: VerifyLimits,
    allowed_syscalls: Iterable[int],
) -> tuple[list[VerifyError], tuple[tuple[int, ...], ...]]:
    """Run every check and lower each slot to its executable row.

    Returns all violations, in slot order, and the executable form; the
    form is meaningful only when there are no violations.
    """
    allowed = frozenset(allowed_syscalls)
    data = program.to_bytes()
    n = len(data) // SLOT_SIZE
    errors: list[VerifyError] = []
    form: list[tuple[int, ...]] = []
    is_cont = continuation_slots(data[::SLOT_SIZE])

    def fail(kind: VerifyErrorKind, at: int, mnemonic: str, detail: str) -> None:
        errors.append(VerifyError(kind, at, mnemonic, detail))

    if n > limits.max_instructions:
        at = limits.max_instructions
        detail = f"program has {n} slots, limit is {at}"
        fail(VerifyErrorKind.TOO_LONG, at, _mnemonic(data, at), detail)

    has_exit = False
    last_real = -1
    in_wide_load = False
    for i, (opcode, regs, off, imm) in enumerate(_SLOT.iter_unpack(data)):
        if in_wide_load:  # lowered with the wide load's first slot
            in_wide_load = False
            continue
        row = _ROWS.get(opcode)
        last_real = i
        if row is None:
            detail = f"opcode {opcode:#04x} is not part of the supported set"
            fail(VerifyErrorKind.UNKNOWN_OPCODE, i, _mnemonic(data, i), detail)
            form.append(_NOT_RUNNABLE)
            continue
        name, writes_dst, code, sub, imm_mask, stack_code = row
        dst, src, imm = regs & 0x0F, regs >> 4, imm & imm_mask
        if stack_code and (src if code == LDX else dst) == 10 and 0 <= off <= STACK_SIZE - sub:
            code = stack_code

        if dst > 10 or src > 10:
            bad = f"r{dst}" if dst > 10 else f"r{src}"
            detail = f"register field names {bad}; only r0..r10 exist"
            fail(VerifyErrorKind.BAD_REGISTER_FIELD, i, name, detail)
        elif dst == 10 and writes_dst:
            detail = "r10 is the read-only stack pointer and cannot be written"
            fail(VerifyErrorKind.WRITE_TO_R10, i, name, detail)

        if code == END and imm not in (16, 32, 64):
            detail = f"byte-order width {imm} is not one of 16/32/64"
            fail(VerifyErrorKind.UNKNOWN_OPCODE, i, name, detail)

        if code == JCOND_K or code == JCOND_X or code == JA:
            off = i + 1 + off
            if not 0 <= off < n:
                detail = f"jump target {off} falls outside slots [0, {n})"
                fail(VerifyErrorKind.JUMP_OUT_OF_BOUNDS, i, name, detail)
            elif is_cont[off]:
                detail = f"jump target {off} lands inside a wide load"
                fail(VerifyErrorKind.TRUNCATED_WIDE_LOAD, i, name, detail)
        elif code == CALL:
            if imm not in allowed:
                detail = f"helper id {imm:#x} is not granted to this program"
                fail(VerifyErrorKind.UNKNOWN_SYSCALL, i, name, detail)
        elif code == EXIT:
            has_exit = True
        elif code == LDDW:
            if i + 1 >= n:
                detail = "wide load is missing its continuation slot"
                fail(VerifyErrorKind.TRUNCATED_WIDE_LOAD, i, name, detail)
            elif data[SLOT_SIZE * (i + 1)] != 0:
                detail = "wide load continuation slot must have a zero opcode"
                fail(VerifyErrorKind.TRUNCATED_WIDE_LOAD, i, name, detail)
            else:
                imm |= (_SLOT.unpack_from(data, SLOT_SIZE * (i + 1))[3] & MASK32) << 32
                form += ((code, sub, dst, src, off, imm), _NOT_RUNNABLE)
                in_wide_load = True
                continue
        form.append((code, sub, dst, src, off, imm))

    # A single NoExit covers both ways control can escape: no exit anywhere,
    # or a final instruction that can fall through past the last slot.
    last_row = _ROWS.get(data[SLOT_SIZE * last_real]) if last_real >= 0 else None
    if not has_exit or last_row is None or last_row[2] not in (EXIT, JA):
        at = max(last_real, 0)
        mnem = _mnemonic(data, at) if n else "<empty>"
        detail = (
            "program contains no exit instruction"
            if not has_exit
            else "control can fall off the end; the last instruction must be exit or ja"
        )
        fail(VerifyErrorKind.NO_EXIT, at, mnem, detail)

    errors.sort(key=lambda e: e.slot_index)
    return errors, tuple(form)


def check_program(
    program: Program,
    limits: VerifyLimits | None = None,
    allowed_syscalls: Iterable[int] = (),
) -> list[VerifyError]:
    """Run every check and return all violations, in slot order."""
    return _scan(program, limits or VerifyLimits(), allowed_syscalls)[0]


def verify(
    program: Program,
    limits: VerifyLimits | None = None,
    allowed_syscalls: Iterable[int] = (),
) -> VerifiedProgram:
    """Return a VerifiedProgram or raise VerifyRejected with all violations.

    The same scan that checks the program lowers it to the executable form
    the interpreter runs."""
    limits = limits or VerifyLimits()
    errors, form = _scan(program, limits, allowed_syscalls)
    if errors:
        raise VerifyRejected(errors)
    return VerifiedProgram(program, limits, form)


def verification_report(errors: list[VerifyError]) -> str:
    """Human-readable outcome: 'OK' or one line per violation."""
    if not errors:
        return "OK"
    return "\n".join(f"slot {e.slot_index}: {e.mnemonic}: {e.detail} [{e.kind.value}]" for e in errors)
