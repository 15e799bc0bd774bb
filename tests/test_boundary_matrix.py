"""A deterministic boundary matrix over every ALU, comparison and byte-order
operation, on the reference loop (``tests/refvm.py``), the interpreter and
the compiled tier.

Random program streams reach an operand edge only by luck.  Here every
ALU opcode (each operation at 64 and 32 bits, with an immediate and with a
register source), every comparison with either source, and ``le``/``be``
at 16, 32 and 64 bits run on each pair drawn from fixed boundary sets:
register operands 0, 1, 2^31-1, 2^31, 2^32-1, 2^32, 2^63-1, 2^63 and
2^64-1; shift counts 0, 31, 32, 63 and 64; immediates 0, 1, 2^31-1, -1
and -2^31.  The cases are batched into straight-line programs under the
slot limit.  Each case stores its result in its own 8 bytes of one
writable context region, so the three runs are compared by their outcomes
and every byte of their host buffers.  A comparison stores 1 when it takes
its one-slot jump over ``mov64 r0, 0``, and 0 when it does not.

The test also derives, from ``verifier.ALU_OPS``, ``CMP_OPS`` and
``BYTE_ORDERS``, the (handler, operation) keys a verified row can carry,
and fails when the runs of either package tier leave one unexercised.
"""

from __future__ import annotations

import pytest

import refvm
from femtoc import vm
from femtoc.isa import OP_EXIT, OP_LDDW, OPCODE_INFO, Instruction, OpKind, Program
from femtoc.memory import AccessList, HostMemory, fresh_stack
from femtoc.verifier import (
    ALU32_K, ALU32_X, ALU64_K, ALU64_X, ALU_OPS, BYTE_ORDERS, CMP_OPS, END, JCOND_K, JCOND_X, MASK32,
    MASK64, NEG, VerifyLimits, verify,
)
from femtoc.vm import SyscallEnv, SyscallTable

OPERANDS = (0, 1, (1 << 31) - 1, 1 << 31, MASK32, 1 << 32, (1 << 63) - 1, 1 << 63, MASK64)
SHIFT_COUNTS = (0, 31, 32, 63, 64)
IMMEDIATES = (0, 1, (1 << 31) - 1, -1, -(1 << 31))
END_WIDTHS = (16, 32, 64)
SHIFTS = ("lsh", "rsh", "arsh")

MAX_SLOTS = 4000  # per program, under the default 4096-slot limit
OUT_CASES = 4096  # 8-byte results per program: the largest offset [r1+off] reaches

# Opcode by (name, source): ("add64", "reg"), ("neg32", None), ("jeq", "imm"), ("be", None), ...
OPCODE = {(info.name, info.source): opcode for opcode, info in OPCODE_INFO.items()}
ALU_KINDS = (OpKind.ALU64, OpKind.ALU32)
MATRIX_KINDS = (*ALU_KINDS, OpKind.JCOND, OpKind.END)


def _imm32(value: int) -> int:
    """``value``'s low 32 bits as the signed immediate field holds them."""
    value &= MASK32
    return value - (1 << 32) if value >> 31 else value


def _lddw(dst: int, value: int) -> list[Instruction]:
    return [Instruction(OP_LDDW, dst, imm=_imm32(value)), Instruction(0, imm=_imm32(value >> 32))]


def _store(case: int, reg: int) -> Instruction:
    return Instruction(OPCODE[("stxdw", "reg")], 1, reg, 8 * case)


def _alu(name: str, source: str | None, operand: int) -> list[Instruction]:
    """r3 = r2 <name> (r4, or the immediate ``operand``); the result is stored."""
    op = OPCODE[(name, source)]
    alu = Instruction(op, 3, 4) if source == "reg" else Instruction(op, 3, imm=operand)
    return [Instruction(OPCODE[("mov64", "reg")], 3, 2), alu]


def _compare(name: str, source: str, operand: int) -> list[Instruction]:
    """r0 = 1 if the comparison of r2 with (r4, or ``operand``) takes its jump, else 0."""
    op = OPCODE[(name, source)]
    jump = Instruction(op, 2, 4, 1) if source == "reg" else Instruction(op, 2, offset=1, imm=operand)
    return [Instruction(OPCODE[("mov64", "imm")], 0, imm=1), jump, Instruction(OPCODE[("mov64", "imm")], 0)]


def _groups():
    """(operand loads, [(case label, its slots, result register)]) per operand pair."""
    alu = [info for info in OPCODE_INFO.values() if info.kind in ALU_KINDS]
    compares = [info for info in OPCODE_INFO.values() if info.kind is OpKind.JCOND]
    for a in OPERANDS:
        for b in (*OPERANDS, *(c for c in SHIFT_COUNTS if c not in OPERANDS)):
            shift_only = b not in OPERANDS
            cases = [
                (f"{info.name} {a:#x}, {b:#x}", _alu(info.name, "reg", 0), 3)
                for info in alu if info.source == "reg" and (info.alu_op in SHIFTS or not shift_only)
            ]
            if not shift_only:
                cases += [(f"{info.name} {a:#x}, {b:#x}", _compare(info.name, "reg", 0), 0)
                          for info in compares if info.source == "reg"]
            yield _lddw(2, a) + _lddw(4, b), cases
        for k in (*IMMEDIATES, *(c for c in SHIFT_COUNTS if c not in IMMEDIATES)):
            shift_only = k not in IMMEDIATES
            cases = [
                (f"{info.name} {a:#x}, {k}", _alu(info.name, "imm", k), 3)
                for info in alu if info.source == "imm" and (info.alu_op in SHIFTS or not shift_only)
            ]
            if not shift_only:
                cases += [(f"{info.name} {a:#x}, {k}", _compare(info.name, "imm", k), 0)
                          for info in compares if info.source == "imm"]
            yield _lddw(2, a), cases
        cases = [(f"{info.name} {a:#x}", _alu(info.name, None, 0), 3) for info in alu if info.source is None]
        ends = [info for info in OPCODE_INFO.values() if info.kind is OpKind.END]
        cases += [
            (f"{info.name}{bits} {a:#x}", [Instruction(OPCODE[("mov64", "reg")], 3, 2),
                                           Instruction(info.opcode, 3, imm=bits)], 3)
            for info in ends for bits in END_WIDTHS
        ]
        yield _lddw(2, a), cases


def matrix_programs() -> list[tuple[Program, list[str]]]:
    """The matrix as programs of at most MAX_SLOTS slots and OUT_CASES
    results, each with its cases' labels in result order."""
    programs = []
    slots: list[Instruction] = []
    labels: list[str] = []

    def close():
        programs.append((Program([*slots, Instruction(OPCODE[("mov64", "imm")], 0), Instruction(OP_EXIT)]),
                         list(labels)))
        slots.clear()
        labels.clear()

    for loads, cases in _groups():
        size = len(loads) + sum(len(body) + 1 for _, body, _ in cases)
        if len(slots) + size + 2 > MAX_SLOTS or len(labels) + len(cases) > OUT_CASES:
            close()
        slots += loads
        for label, body, reg in cases:
            slots += [*body, _store(len(labels), reg)]
            labels.append(label)
    close()
    return programs


def _run(exec_program, vp, cases: int):
    memory = HostMemory()
    out = memory.alloc(8 * cases, "out", readable=True, writable=True)
    acl = AccessList([out, fresh_stack(memory)])
    return exec_program(vp, SyscallEnv(acl, SyscallTable())), bytes(memory.buf), out.base - memory.base


def _key(row: tuple[int, ...]) -> tuple[int, int, int]:
    """A row's matrix key: (handler, operation, byte-swap width or 0)."""
    code, sub, _dst, _src, _off, imm = row
    return code, sub, imm if code == END else 0


def _exercised(form) -> set[tuple[int, int, int]]:
    """The ALU, comparison and byte-order keys a run of a matrix form that
    exits executes: every row but the ``mov64 r0, 0`` a taken jump skips."""
    matrix = (ALU64_K, ALU64_X, ALU32_K, ALU32_X, JCOND_K, JCOND_X, END)
    return {_key(row) for pc, row in enumerate(form)
            if row[0] in matrix and form[pc - 1][0] not in (JCOND_K, JCOND_X)}


def required_keys() -> set[tuple[int, int, int]]:
    """Every key a verified row can carry: each ALU operation at both widths
    with either source (the ISA encodes neg with an immediate only), each
    comparison with either source, and each byte order at each width."""
    keys = {(code, sub, 0) for code in (ALU64_K, ALU64_X, ALU32_K, ALU32_X) for sub in range(len(ALU_OPS))}
    keys -= {(ALU64_X, NEG, 0), (ALU32_X, NEG, 0)}
    keys |= {(code, sub, 0) for code in (JCOND_K, JCOND_X) for sub in range(len(CMP_OPS))}
    return keys | {(END, sub, bits) for sub in range(len(BYTE_ORDERS)) for bits in END_WIDTHS}


def _first_difference(labels: list[str], got: bytes, want: bytes, at: int) -> str:
    for case, label in enumerate(labels):
        lo = at + 8 * case
        if got[lo : lo + 8] != want[lo : lo + 8]:
            value = (int.from_bytes(got[lo : lo + 8], "little"), int.from_bytes(want[lo : lo + 8], "little"))
            return f"{label}: {value[0]:#x}, reference {value[1]:#x}"
    return "outside the results"


def test_the_boundary_matrix_agrees_on_the_reference_the_interpreter_and_the_compiled_tier(request):
    programs = matrix_programs()
    encoded = {ins.opcode for program, _ in programs for ins in program.slots}
    assert encoded >= {op for op, info in OPCODE_INFO.items() if info.kind in MATRIX_KINDS}
    limits = VerifyLimits()
    want = []
    for program, labels in programs:
        outcome, buf, at = _run(refvm.exec_program, verify(program, limits), len(labels))
        assert outcome.fault is None and outcome.executed > len(labels)
        want.append((outcome, buf, at))

    def check(tier: str) -> set[tuple[int, int, int]]:
        exercised = set()
        for (program, labels), (ref, ref_buf, at) in zip(programs, want):
            vp = verify(program, limits)  # a new verdict: nothing compiled yet
            outcome, buf, _ = _run(vm.exec_program, vp, len(labels))
            assert buf == ref_buf, f"{tier}: {_first_difference(labels, buf, ref_buf, at)}"
            assert outcome == ref, tier
            assert (vp.verdict.compiled is not None) == (tier == "compiled"), tier
            exercised |= _exercised(vp.form)
        return exercised

    interpreted = check("interpreted")
    request.getfixturevalue("compiled_tier")
    compiled = check("compiled")
    required = required_keys()
    assert required - interpreted == set(), "keys the interpreter left unexercised"
    assert required - compiled == set(), "keys the compiled tier left unexercised"
