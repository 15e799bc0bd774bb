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
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

from .isa import (
    OP_LDDW,
    OpKind,
    Instruction,
    Program,
    continuation_slots,
    encode_instruction,
    opcode_info,
)

DEFAULT_MAX_INSTRUCTIONS = 4096
DEFAULT_MAX_BRANCHES = 256


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
    """A program that passed all checks, with its derived run-time budget."""

    program: Program
    limits: VerifyLimits

    @property
    def budget(self) -> int:
        return self.limits.budget


class VerifyRejected(ValueError):
    """Raised by verify() with the complete list of violations."""

    def __init__(self, errors: list[VerifyError]):
        super().__init__(verification_report(errors))
        self.errors = errors


def _mnemonic(ins: Instruction) -> str:
    info = opcode_info(ins.opcode)
    if info is None:
        return f"raw {encode_instruction(ins).hex()}"
    return info.name


def check_program(
    program: Program,
    limits: VerifyLimits | None = None,
    allowed_syscalls: Iterable[int] = (),
) -> list[VerifyError]:
    """Run every check and return all violations, in slot order."""
    limits = limits or VerifyLimits()
    allowed = frozenset(allowed_syscalls)
    slots = program.slots
    n = len(slots)
    errors: list[VerifyError] = []
    is_cont = continuation_slots(slots)

    if n > limits.max_instructions:
        errors.append(
            VerifyError(
                VerifyErrorKind.TOO_LONG,
                limits.max_instructions,
                _mnemonic(slots[limits.max_instructions]),
                f"program has {n} slots, limit is {limits.max_instructions}",
            )
        )

    has_exit = False
    last_real = -1
    i = 0
    while i < n:
        ins = slots[i]
        info = opcode_info(ins.opcode)
        last_real = i
        if info is None:
            errors.append(
                VerifyError(
                    VerifyErrorKind.UNKNOWN_OPCODE,
                    i,
                    _mnemonic(ins),
                    f"opcode {ins.opcode:#04x} is not part of the supported set",
                )
            )
            i += 1
            continue

        if ins.dst > 10 or ins.src > 10:
            bad = f"r{ins.dst}" if ins.dst > 10 else f"r{ins.src}"
            errors.append(
                VerifyError(
                    VerifyErrorKind.BAD_REGISTER_FIELD,
                    i,
                    info.name,
                    f"register field names {bad}; only r0..r10 exist",
                )
            )
        elif info.writes_dst and ins.dst == 10:
            errors.append(
                VerifyError(
                    VerifyErrorKind.WRITE_TO_R10,
                    i,
                    info.name,
                    "r10 is the read-only stack pointer and cannot be written",
                )
            )

        if info.kind is OpKind.END and ins.imm not in (16, 32, 64):
            errors.append(
                VerifyError(
                    VerifyErrorKind.UNKNOWN_OPCODE,
                    i,
                    info.name,
                    f"byte-order width {ins.imm} is not one of 16/32/64",
                )
            )

        if info.is_jump:
            target = i + 1 + ins.offset
            if not 0 <= target < n:
                errors.append(
                    VerifyError(
                        VerifyErrorKind.JUMP_OUT_OF_BOUNDS,
                        i,
                        info.name,
                        f"jump target {target} falls outside slots [0, {n})",
                    )
                )
            elif is_cont[target]:
                errors.append(
                    VerifyError(
                        VerifyErrorKind.TRUNCATED_WIDE_LOAD,
                        i,
                        info.name,
                        f"jump target {target} lands inside a wide load",
                    )
                )
        elif info.kind is OpKind.CALL:
            if ins.imm not in allowed:
                errors.append(
                    VerifyError(
                        VerifyErrorKind.UNKNOWN_SYSCALL,
                        i,
                        info.name,
                        f"helper id {ins.imm:#x} is not granted to this program",
                    )
                )
        elif info.kind is OpKind.EXIT:
            has_exit = True
        elif info.kind is OpKind.LDDW:
            if i + 1 >= n:
                errors.append(
                    VerifyError(
                        VerifyErrorKind.TRUNCATED_WIDE_LOAD,
                        i,
                        info.name,
                        "wide load is missing its continuation slot",
                    )
                )
            elif slots[i + 1].opcode != 0:
                errors.append(
                    VerifyError(
                        VerifyErrorKind.TRUNCATED_WIDE_LOAD,
                        i,
                        info.name,
                        "wide load continuation slot must have a zero opcode",
                    )
                )
            else:
                i += 2
                continue
        i += 1

    # A single NoExit covers both ways control can escape: no exit anywhere,
    # or a final instruction that can fall through past the last slot.
    terminal_ok = False
    if last_real >= 0:
        last_info = opcode_info(slots[last_real].opcode)
        terminal_ok = last_info is not None and last_info.kind in (OpKind.EXIT, OpKind.JA)
    if not has_exit or not terminal_ok:
        at = max(last_real, 0)
        mnem = _mnemonic(slots[at]) if n else "<empty>"
        detail = (
            "program contains no exit instruction"
            if not has_exit
            else "control can fall off the end; the last instruction must be exit or ja"
        )
        errors.append(VerifyError(VerifyErrorKind.NO_EXIT, at, mnem, detail))

    errors.sort(key=lambda e: e.slot_index)
    return errors


def verify(
    program: Program,
    limits: VerifyLimits | None = None,
    allowed_syscalls: Iterable[int] = (),
) -> VerifiedProgram:
    """Return a VerifiedProgram or raise VerifyRejected with all violations."""
    limits = limits or VerifyLimits()
    errors = check_program(program, limits, allowed_syscalls)
    if errors:
        raise VerifyRejected(errors)
    return VerifiedProgram(program, limits)


def verification_report(errors: list[VerifyError]) -> str:
    """Human-readable outcome: 'OK' or one line per violation."""
    if not errors:
        return "OK"
    return "\n".join(f"slot {e.slot_index}: {e.mnemonic}: {e.detail} [{e.kind.value}]" for e in errors)
