"""Reference scan: the verifier's slot loop before plain ALU slots took
their fast path.

``femtoc.verifier._scan`` lowers a plain ALU slot (dst below r10, src in
r0..r10) with no test.  This is the loop it ran before, every slot through
every check, kept only so that ``tests/test_verifier.py`` can require the
package's scan to report the same errors and build the same form on every
program.
"""

from __future__ import annotations

from typing import Iterable

from femtoc.isa import _SLOT, SLOT_SIZE, Program, continuation_slots
from femtoc.memory import STACK_SIZE
from femtoc.verifier import (
    _NOT_RUNNABLE, _ROWS, CALL, END, EXIT, JA, JCOND_K, JCOND_X, LDDW, LDX, MASK32, VerifyError, VerifyErrorKind,
    VerifyLimits, _mnemonic,
)


def scan(
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
