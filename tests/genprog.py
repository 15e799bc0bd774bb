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
from femtoc.asm import assemble
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


# -- self-loops -------------------------------------------------------------------
#
# Compiled code runs a block that jumps back to its own start as a loop whose
# guard proves, once per entry, how many passes cannot wrap an add or sub or
# leave the first window; it tells apart the registers the body writes:
# induction (r += K, r -= K), load-bounded (loads only), accumulator (r += x,
# x load-bounded or an accumulator) and unknown (anything else).

MASK64 = (1 << 64) - 1
_SUFFIX = {1: "b", 2: "h", 4: "w", 8: "dw"}


def _step(rng: random.Random, reg: int, step: int) -> str:
    """``reg`` moves by ``step`` per pass: an add or a sub of either sign."""
    return rng.choice((f"add64 r{reg}, {step}", f"sub64 r{reg}, {-step}"))


def random_self_loop(rng: random.Random, ctx_span: int, allowed_syscalls: tuple[int, ...] = ()) -> Program:
    """A program that passes the pre-flight checks and whose one self-loop
    mixes the four register classes, entered with values near the wrap edges
    and near the context's and the stack's edges, so that a pass past the
    guard's count wraps or leaves the first window.

    r2 counts the passes, r3 walks from r1 or r10 in steps of a few bytes, r4
    steps near a wrap edge, r5 and r9 are loaded, r6 and r7 accumulate (r7
    from r6), and r8 is unknown; one loop in eight writes only unknown
    registers and so gets no guard."""
    unguarded = rng.random() < 0.125
    pointer = rng.choice((1, 10))
    span = ctx_span if pointer == 1 else 512
    lines = [
        f"mov64 r3, r{pointer}",
        f"add64 r3, {rng.choice((0, span, rng.randint(0, span))) + rng.randint(-4, 4)}",
        f"lddw r4, {rng.choice((rng.randint(0, 40), MASK64 - rng.randint(0, 40))):#x}",
        f"mov64 r8, r{rng.choice((1, 10))}",
    ]
    for reg in (6, 7):  # below the wrap by ~60 loaded values or fewer, by ~2**40 or less, or by anything
        headroom = rng.choice((rng.randint(0, 60) * rng.choice((0xFF, 0xFFFF, MASK64 >> 32)),
                               rng.randint(0, 1 << 40), rng.randint(0, MASK64)))
        lines.append(f"lddw r{reg}, {MASK64 - headroom:#x}")
    if unguarded:
        lines.append(f"mov64 r2, {rng.randint(1, 60)}")
        counter = rng.choice(("add32 r2, -1", "sub32 r2, 1"))
    elif rng.random() < 0.25:  # a counter that wraps to 0 on its way up
        lines.append(f"lddw r2, {MASK64 - rng.randint(0, 30):#x}")
        counter = _step(rng, 2, 1)
    else:
        lines.append(f"mov64 r2, {rng.randint(1, 60)}")
        counter = _step(rng, 2, -1)
    width, other = rng.choice(sorted(_SUFFIX)), rng.choice(sorted(_SUFFIX))
    kinds = {
        "walk": _step(rng, 3, rng.choice((1, 2, 4, 8, -1, -2, -4, -8))),
        "wrap": _step(rng, 4, rng.choice((1, 2, 5, -1, -3))),
        "load": f"ldx{_SUFFIX[width]} r5, [r3{rng.randint(-2, 6):+d}]",
        "load from r1": f"ldx{_SUFFIX[other]} r9, [r1+{rng.randint(0, rng.choice((8, ctx_span)))}]",
        "store": f"stx{_SUFFIX[width]} [r3{rng.randint(-2, 6):+d}], r{rng.choice((4, 5, 6))}",
        "accumulate": f"add64 r6, r{rng.choice((5, 9))}",
        "chain": "add64 r7, r6",
        "unknown": rng.choice(("mul64 r8, 3", "add32 r8, 1", "mov64 r8, r5")),
        "load from r8": f"ldxb r9, [r8+{rng.randint(0, 2)}]",
    }
    if allowed_syscalls:
        kinds["call"] = f"call {rng.choice(allowed_syscalls)}"
    if unguarded:
        body = [kinds["unknown"], kinds["load from r8"], "mul64 r5, 5"]
    else:
        body = [text for kind, text in kinds.items() if kind != "unknown" and rng.random() < 0.5]
        body += [rng.choice((kinds["unknown"], "add64 r6, r8"))] * (rng.random() < 0.2)
    body.append(counter)
    rng.shuffle(body)
    branch = rng.choice(("jne r2, 0", "jne r2, 0", "jne r2, 0", "jgt r2, 3", "jsgt r2, 0"))
    lines += [f"loop: {body[0]}", *body[1:], f"{branch}, loop", f"mov64 r0, r{rng.randint(2, 9)}", "exit"]
    return assemble("\n".join(lines))
