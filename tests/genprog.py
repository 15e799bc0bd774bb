"""Random program generator whose output always passes the pre-flight checks.

Used by the fuzz suites: programs are accepted by construction (registers in
range, jumps land on real instruction boundaries, final instruction is exit)
but are otherwise unconstrained, so runs routinely end in memory or budget
faults. That is the point: the sandbox must contain whatever the checks let
through.
"""

from __future__ import annotations

import random
from dataclasses import replace

from femtoc import isa
from femtoc.isa import Instruction, Program

_INFO = isa.OPCODE_INFO
ALU_OPS = sorted(
    op for op, info in _INFO.items() if info.kind in (isa.OpKind.ALU64, isa.OpKind.ALU32)
)
END_OPS = sorted(op for op, info in _INFO.items() if info.kind is isa.OpKind.END)
LDX_OPS = sorted(op for op, info in _INFO.items() if info.kind is isa.OpKind.LDX)
ST_OPS = sorted(op for op, info in _INFO.items() if info.kind is isa.OpKind.ST)
STX_OPS = sorted(op for op, info in _INFO.items() if info.kind is isa.OpKind.STX)
JCOND_OPS = sorted(op for op, info in _INFO.items() if info.kind is isa.OpKind.JCOND)

IMM32 = (-(1 << 31), (1 << 31) - 1)


def _mem_offset(rng: random.Random, base_reg: int, ctx_span: int) -> int:
    # Bias r10-based accesses into the stack (r10 is the region start, so
    # valid offsets are 0..511), with extra weight at both of its ends so
    # that wide accesses straddle them, and, when ctx_span is given, r1-based
    # ones into the ctx_span bytes from the context base, which may cover
    # several regions and the guards between them; everything else may be
    # wild and fault.
    if base_reg == 10 and rng.random() < 0.8:
        roll = rng.random()
        if roll < 0.1:
            return rng.randint(-8, -1)
        if roll < 0.2:
            return rng.randint(504, 511)
        return rng.randint(0, 511)
    if base_reg == 1 and ctx_span and rng.random() < 0.8:
        return rng.randint(0, ctx_span - 1)
    return rng.randint(-256, 256)


def random_accepted_program(
    rng: random.Random,
    max_slots: int = 64,
    allowed_syscalls: tuple[int, ...] = (),
    ctx_span: int = 0,
) -> Program:
    """A program that passes the pre-flight checks under ``allowed_syscalls``.

    ``allowed_syscalls`` adds helper calls to the mix; ``ctx_span`` biases
    r1-based memory accesses into that many bytes from the context base.
    """
    target_len = rng.randint(1, max_slots - 1)
    slots: list[Instruction] = []
    jump_sites: list[int] = []

    while len(slots) < target_len:
        remaining = target_len - len(slots)
        roll = rng.random()
        if roll < 0.35:
            op = rng.choice(ALU_OPS)
            info = _INFO[op]
            src = rng.randint(0, 10) if info.source == "reg" else 0
            slots.append(
                Instruction(op, dst=rng.randint(0, 9), src=src, imm=rng.randint(*IMM32))
            )
        elif roll < 0.40:
            slots.append(
                Instruction(rng.choice(END_OPS), dst=rng.randint(0, 9), imm=rng.choice((16, 32, 64)))
            )
        elif roll < 0.50 and remaining >= 2:
            slots.append(Instruction(isa.OP_LDDW, dst=rng.randint(0, 9), imm=rng.randint(*IMM32)))
            slots.append(Instruction(0, imm=rng.randint(*IMM32)))
        elif roll < 0.60:
            base = rng.randint(0, 10)
            slots.append(
                Instruction(
                    rng.choice(LDX_OPS),
                    dst=rng.randint(0, 9),
                    src=base,
                    offset=_mem_offset(rng, base, ctx_span),
                )
            )
        elif roll < 0.70:
            # With a context span, a third of the stores aim at the context.
            base = rng.choice((10, 1 if ctx_span else 10, rng.randint(0, 10)))
            if rng.random() < 0.5:
                slots.append(
                    Instruction(
                        rng.choice(ST_OPS),
                        dst=base,
                        offset=_mem_offset(rng, base, ctx_span),
                        imm=rng.randint(*IMM32),
                    )
                )
            else:
                slots.append(
                    Instruction(
                        rng.choice(STX_OPS),
                        dst=base,
                        src=rng.randint(0, 10),
                        offset=_mem_offset(rng, base, ctx_span),
                    )
                )
        elif roll < 0.85:
            op = rng.choice(JCOND_OPS) if rng.random() < 0.8 else isa.OP_JA
            info = _INFO[op]
            dst = rng.randint(0, 10) if info.kind is isa.OpKind.JCOND else 0
            src = rng.randint(0, 10) if info.source == "reg" else 0
            jump_sites.append(len(slots))
            slots.append(Instruction(op, dst=dst, src=src, imm=rng.randint(*IMM32)))
        elif roll < 0.90 and allowed_syscalls:
            slots.append(Instruction(isa.OP_CALL, imm=rng.choice(allowed_syscalls)))
        elif roll < 0.93:
            slots.append(Instruction(isa.OP_EXIT))
        else:
            slots.append(Instruction(0xB7, dst=rng.randint(0, 9), imm=rng.randint(*IMM32)))

    slots.append(Instruction(isa.OP_EXIT))

    continuation = isa.continuation_slots(bytes(ins.opcode for ins in slots))
    targets = [i for i in range(len(slots)) if not continuation[i]]
    for site in jump_sites:
        target = rng.choice(targets)
        slots[site] = replace(slots[site], offset=target - site - 1)
    return Program(tuple(slots))
