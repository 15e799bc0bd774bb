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

The scan reads the program's encoded bytes and never decodes it to
``Instruction`` objects.  Its first step is a column pass: byte tables
indexed by opcode and by register byte (``bytes.translate`` over the
slots' first and second bytes), immediates and offsets widened in C and
read with explicit little-endian ``struct`` formats, and ``zip`` over
the columns lower every slot as if it were plain.  A plain slot, an ALU
operation or an exit whose register byte names a dst below r10 and a src
in r0..r10, passes every check by construction, so its row is final.  Only
the other slots take the per-slot checks above, which replace their rows
and report their errors.  Error mnemonics come from the opcode table, or
from the slot's raw bytes for an unknown opcode.

The scan also proves some memory accesses safe once: a load or store whose
base register is r10 and whose [off, off+width) lies within the stack
lowers to a stack row, which the interpreter runs with no access-list
check.  r10 holds the stack base for the whole run, because nothing may
write it.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Iterable

from .isa import (
    OP_EXIT,
    OP_LDDW,
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

# The column tables (see above), each indexed by one byte of a slot.  By
# opcode: the row's code and sub (the opcode table's, so they are right for
# every known opcode), whether the slot can be plain, and whether its
# immediate is read as 64 bits, sign-extended; by register byte: dst, src,
# and whether it names a dst below r10 and a src in r0..r10; by the
# immediate's top byte: the byte that sign-extends it.
_ALL = range(256)
_CODES = bytes(_ROWS[b][2] if b in _ROWS else NOT_RUNNABLE for b in _ALL)
_SUBS = bytes(_ROWS[b][3] if b in _ROWS else 0 for b in _ALL)
_PLAIN_OPS = bytes(0xFF * (b in _ROWS and _ROWS[b][2] in (ALU64_K, ALU64_X, ALU32_K, ALU32_X, EXIT)) for b in _ALL)
_WIDE_OPS = bytes(0xFF * (b in _ROWS and _ROWS[b][4] == MASK64) for b in _ALL)
_DSTS = bytes(b & 0x0F for b in _ALL)
_SRCS = bytes(b >> 4 for b in _ALL)
_PLAIN_REG_BYTES = bytes(0xFF * (b & 0x0F < 10 and b >> 4 <= 10) for b in _ALL)
_SIGNS = bytes(0xFF * (b >= 0x80) for b in _ALL)


@functools.lru_cache(maxsize=64)
def _fields(n: int) -> tuple[Callable, Callable]:
    """The column pass's reads of n 8-byte immediates and of n offsets."""
    return struct.Struct(f"<{n}Q").unpack_from, struct.Struct(f"<{n}h").unpack


@dataclass(frozen=True)
class VerifyLimits:
    """Static size limit and the two factors of the run-time step budget."""

    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS
    max_branches: int = DEFAULT_MAX_BRANCHES

    def __post_init__(self):
        if self.max_instructions < 1 or self.max_branches < 1:
            raise ValueError("limits must be at least 1")


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


@dataclass(eq=False)
class Verdict:
    """What verification found for one program's bytes under one set of
    limits and granted helper ids: the executable form, one row per slot as
    described above, and the run-time budget.  ``compiled`` is where the
    execution tiers keep the compiled form once a run has made it hot (see
    ``femtoc.vm``).  An engine hands one Verdict to every container bound
    with the same bytes, limits and granted ids (see ``Engine.verify_for``),
    so they share one form and one compiled function."""

    form: tuple[tuple[int, ...], ...]
    budget: int  # the run-time step cap: max_instructions x max_branches
    compiled: Callable | None = None


@dataclass
class VerifiedProgram:
    """A program that passed all checks, with its verdict.

    ``interpreted`` counts the instructions the interpreter has executed for
    this VerifiedProgram over all its runs, its own steps toward compiling
    the verdict's form; once any holder of the verdict has compiled it,
    every holder runs the compiled function."""

    program: Program
    verdict: Verdict
    interpreted: int = field(default=0, compare=False, repr=False)

    @property
    def form(self) -> tuple[tuple[int, ...], ...]:
        return self.verdict.form

    @property
    def budget(self) -> int:
        return self.verdict.budget

    @property
    def compiled(self) -> Callable | None:
        return self.verdict.compiled


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

    The column pass lowers every slot as if it were plain; then each slot
    that is not plain takes its checks, in slot order, and gets its row.
    Returns all violations, in slot order, and the executable form; the
    form is meaningful only when there are no violations.
    """
    data = program.to_bytes()
    n = len(data) // SLOT_SIZE
    ops, regs = data[::SLOT_SIZE], data[1::SLOT_SIZE]
    # One AND over two column pairs: whether each slot is plain (its opcode
    # and its register byte both are), then its immediate's sign-extension
    # byte (0xFF where the opcode reads 64 bits and the immediate is negative).
    flags = (
        int.from_bytes(ops.translate(_PLAIN_OPS) + ops.translate(_WIDE_OPS), "little")
        & int.from_bytes(regs.translate(_PLAIN_REG_BYTES) + data[7::SLOT_SIZE].translate(_SIGNS), "little")
    ).to_bytes(2 * n, "little")
    # Each immediate is read as 8 bytes of a copy of the slots: its own 4,
    # then its sign-extension byte 4 times over the next slot's first 4.  The
    # offsets are read from the slots themselves (the cast only copies their
    # bytes, so the one byte order is the format's).
    lanes = bytearray(data + b"\0\0\0\0")
    lanes[8::SLOT_SIZE] = lanes[9::SLOT_SIZE] = lanes[10::SLOT_SIZE] = lanes[11::SLOT_SIZE] = bytearray(flags[n:])
    read_imms, read_offs = _fields(n)
    form = list(zip(ops.translate(_CODES), ops.translate(_SUBS), regs.translate(_DSTS), regs.translate(_SRCS),
                    read_offs(memoryview(data).cast("H")[1::4].tobytes()), read_imms(lanes, 4)))

    errors: list[VerifyError] = []
    if n > limits.max_instructions:
        at = limits.max_instructions
        detail = f"program has {n} slots, limit is {at}"
        errors.append(VerifyError(VerifyErrorKind.TOO_LONG, at, _mnemonic(data, at), detail))

    allowed = None  # the granted ids, as a set once a call needs them
    is_cont = continuation_slots(ops) if OP_LDDW in ops else bytes(n)  # with no lddw, none is
    last_real = n - 1
    continuation = -1
    i = -1
    for run in flags[:n].split(b"\0")[:-1]:  # the plain slots before each slot that is not
        i += len(run) + 1
        row = _ROWS.get(ops[i])
        if row is None:
            if i == continuation:  # lowered with the wide load's first slot
                continue
            detail = f"opcode {ops[i]:#04x} is not part of the supported set"
            errors.append(VerifyError(VerifyErrorKind.UNKNOWN_OPCODE, i, _mnemonic(data, i), detail))
            form[i] = _NOT_RUNNABLE
            continue
        name, writes_dst, code, sub, imm_mask, stack_code = row
        _, _, dst, src, off, imm = form[i]
        # The column read imm at 64 bits where imm_mask is MASK64, else at 32;
        # a mask of -1 (a call, a byte swap) keeps it as encoded, signed.
        imm = imm & imm_mask if imm_mask >= 0 else (imm ^ 0x80000000) - 0x80000000
        if stack_code and (src if code == LDX else dst) == 10 and 0 <= off <= STACK_SIZE - sub:
            code = stack_code

        if dst > 10 or src > 10:
            bad = f"r{dst}" if dst > 10 else f"r{src}"
            detail = f"register field names {bad}; only r0..r10 exist"
            errors.append(VerifyError(VerifyErrorKind.BAD_REGISTER_FIELD, i, name, detail))
        elif dst == 10 and writes_dst:
            detail = "r10 is the read-only stack pointer and cannot be written"
            errors.append(VerifyError(VerifyErrorKind.WRITE_TO_R10, i, name, detail))

        if code == END and imm not in (16, 32, 64):
            detail = f"byte-order width {imm} is not one of 16/32/64"
            errors.append(VerifyError(VerifyErrorKind.UNKNOWN_OPCODE, i, name, detail))

        if code == JCOND_K or code == JCOND_X or code == JA:
            off = i + 1 + off
            if not 0 <= off < n:
                detail = f"jump target {off} falls outside slots [0, {n})"
                errors.append(VerifyError(VerifyErrorKind.JUMP_OUT_OF_BOUNDS, i, name, detail))
            elif is_cont[off]:
                detail = f"jump target {off} lands inside a wide load"
                errors.append(VerifyError(VerifyErrorKind.TRUNCATED_WIDE_LOAD, i, name, detail))
        elif code == CALL:
            if allowed is None:
                allowed = frozenset(allowed_syscalls)
            if imm not in allowed:
                detail = f"helper id {imm:#x} is not granted to this program"
                errors.append(VerifyError(VerifyErrorKind.UNKNOWN_SYSCALL, i, name, detail))
        elif code == LDDW:
            if i + 1 >= n:
                detail = "wide load is missing its continuation slot"
                errors.append(VerifyError(VerifyErrorKind.TRUNCATED_WIDE_LOAD, i, name, detail))
            elif ops[i + 1] != 0:
                detail = "wide load continuation slot must have a zero opcode"
                errors.append(VerifyError(VerifyErrorKind.TRUNCATED_WIDE_LOAD, i, name, detail))
            else:  # the continuation's opcode 0 reads its immediate at 32 bits
                imm |= form[i + 1][5] << 32
                form[i + 1] = _NOT_RUNNABLE
                continuation = i + 1
                if continuation == last_real:
                    last_real = i
        form[i] = (code, sub, dst, src, off, imm)

    # A single NoExit covers both ways control can escape: no exit anywhere,
    # or a final instruction that can fall through past the last slot.
    has_exit = OP_EXIT in ops
    if not has_exit or last_real < 0 or form[last_real][0] not in (EXIT, JA):
        at = max(last_real, 0)
        mnem = _mnemonic(data, at) if n else "<empty>"
        detail = (
            "program contains no exit instruction"
            if not has_exit
            else "control can fall off the end; the last instruction must be exit or ja"
        )
        errors.append(VerifyError(VerifyErrorKind.NO_EXIT, at, mnem, detail))

    if n > limits.max_instructions:  # every other error came in slot order
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
    return VerifiedProgram(program, Verdict(form, limits.max_instructions * limits.max_branches))


def verification_report(errors: list[VerifyError]) -> str:
    """Human-readable outcome: 'OK' or one line per violation."""
    if not errors:
        return "OK"
    return "\n".join(f"slot {e.slot_index}: {e.mnemonic}: {e.detail} [{e.kind.value}]" for e in errors)
