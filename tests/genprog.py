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


def _counted_exit(rng: random.Random, reg: int, bound: int,
                  trips: tuple[int, ...]) -> tuple[list[str], str, str]:
    """The set-up, the step and the branch (without its target) of a counter
    ``reg`` that steps up or down by 1 to 3 per pass and leaves by an
    unsigned jne, jgt, jge, jlt or jle against a constant or against register
    ``bound``, which the body must not write: compiled code counts such a
    loop, finding on entry the pass in which it leaves.  The counter is set to meet its
    bound in a pass drawn from ``trips``, or one time in four a step to
    either side of it; a bound near 0 or 2**64 makes many counters wrap first,
    and a branch that the counter moves away from leaves in pass 1 or not
    before a wrap."""
    op = rng.choice(("jne", "jgt", "jge", "jlt", "jle"))
    d = rng.choice((1, -1, 1, -1, 2, -3))
    b = rng.choice((rng.randint(0, 40), rng.randint(0, 1 << 20), MASK64 - rng.randint(0, 40)))
    r = rng.randrange(abs(d))  # how far short of the edge of the leaving values the counter lands
    leaves = {"jne": b, "jgt": b - r, "jge": b - 1 - r, "jlt": b + r, "jle": b + 1 + r}[op]
    leaves += rng.choice((-d, d)) * (rng.random() < 0.25)
    setup = [f"lddw r{reg}, {(leaves - rng.choice(trips) * d) & MASK64:#x}"]
    if rng.random() < 0.5:
        setup.append(f"lddw r{bound}, {b:#x}")
        return setup, _step(rng, reg, d), f"{op} r{reg}, r{bound}"
    return setup, _step(rng, reg, d), f"{op} r{reg}, {b if b < 1 << 31 else b - (1 << 64)}"


def random_self_loop(rng: random.Random, ctx_span: int, allowed_syscalls: tuple[int, ...] = ()) -> Program:
    """A program that passes the pre-flight checks and whose one self-loop
    mixes the four register classes, entered with values near the wrap edges
    and near the context's and the stack's edges, so that a pass past the
    guard's count wraps or leaves the first window.

    r2 counts the passes, in about half the guarded loops as a
    ``_counted_exit`` against r0; r3 walks from r1 or r10 in steps of a few
    bytes, r4 steps near a wrap edge, r5 and r9 are loaded, r6 and r7
    accumulate (r7 from r6), and r8 is unknown; one loop in eight writes only
    unknown registers and so gets no guard."""
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
    branch = rng.choice(("jne r2, 0", "jne r2, 0", "jne r2, 0", "jgt r2, 3", "jsgt r2, 0"))
    if unguarded:
        lines.append(f"mov64 r2, {rng.randint(1, 60)}")
        counter = rng.choice(("add32 r2, -1", "sub32 r2, 1"))
    elif rng.random() < 0.5:  # against r0, which only a call writes
        setup, counter, branch = _counted_exit(rng, 2, 0, (1, 16, 17, rng.randint(1, 60)))
        lines += setup
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
    lines += [f"loop: {body[0]}", *body[1:], f"{branch}, loop", f"mov64 r0, r{rng.randint(2, 9)}", "exit"]
    return assemble("\n".join(lines))


# -- stack-row loops ----------------------------------------------------------------
#
# Compiled code holds the stack rows of a self-loop in locals when nothing in
# its body can reach the stack another way: no load or store through a
# pointer, no helper call.  Each row that overlaps no other distinct row is
# loaded once per entry and written back on the way out.


def random_stack_loop(rng: random.Random, allowed_syscalls: tuple[int, ...] = ()) -> Program:
    """A program that passes the pre-flight checks and whose one self-loop
    mixes ALU steps with loads and stores at [r10+off] of all four widths.

    r9 counts the passes, by a 32-bit step in half the bodies, so that
    those loops get no guard unless an accumulator gives them one; r0, r2
    and r4..r8 carry data.  Rows lie in distinct 8-byte cells, half the
    time all in the stack's first 64 bytes, so they do not overlap, except
    that one body in three adds a row of another width inside a cell
    already used.  One body in three also loads or stores at a row's offset
    through r3, a copy of r10 that compiled code cannot tell from any other
    pointer, or, with helpers, calls one with r1 = r10 (a helper that
    writes at r1 then writes the stack)."""
    rows = []
    for cell in rng.sample(range(rng.choice((8, 64))), rng.randint(1, 4)):
        width = rng.choice(sorted(_SUFFIX))
        rows.append((cell * 8 + rng.randrange(9 - width), width))
    if rng.random() < 1 / 3:
        off, width = rng.choice(rows)
        other = rng.choice([w for w in _SUFFIX if w != width])
        rows.append((min(off + rng.randrange(width), 512 - other), other))
    data = (0, 2, 4, 5, 6, 7, 8)
    lines = [f"lddw r{reg}, {rng.getrandbits(64):#x}" for reg in rng.sample(data, 3)]
    lines += [f"mov64 r9, {rng.randint(1, 24)}", "mov64 r3, r10"]
    body = []
    for _ in range(rng.randint(2, 8)):
        off, width = rng.choice(rows)
        a, b = rng.choice(data), rng.choice(data)
        body.append(rng.choice((
            f"ldx{_SUFFIX[width]} r{a}, [r10+{off}]",
            f"stx{_SUFFIX[width]} [r10+{off}], r{a}",
            f"st{_SUFFIX[width]} [r10+{off}], {rng.randint(*IMM32)}",
            f"{rng.choice(('add64', 'xor64', 'sub64', 'add32'))} r{a}, r{b}",
            f"mul64 r{a}, {rng.randrange(1, 1 << 20) | 1}",
        )))
    if rng.random() < 1 / 3:
        off, width = rng.choice(rows)
        width = rng.choice((width, rng.choice(sorted(_SUFFIX))))
        reach = rng.choice((f"ldx{_SUFFIX[width]} r{rng.choice(data)}, [r3+{off}]",
                            f"stx{_SUFFIX[width]} [r3+{off}], r{rng.choice(data)}"))
        if allowed_syscalls and rng.random() < 0.5:
            lines.append("mov64 r1, r10")
            reach = f"call {rng.choice(allowed_syscalls)}"
        body.append(reach)
    body.append(rng.choice(("sub64 r9, 1", "sub32 r9, 1")))
    rng.shuffle(body)
    lines += [f"loop: {body[0]}", *body[1:], "jne r9, 0, loop", f"mov64 r0, r{rng.choice(data)}", "exit"]
    return assemble("\n".join(lines))


# -- streamed loops ------------------------------------------------------------------
#
# The proven passes of a counted self-loop drop the steps of each induction
# register but r0 that nothing else in them reads, setting it once where they
# end.  When there are more than 16 of them, and the loop's other slots only
# add along chains from loads whose base steps up by the load's width per
# pass, compiled code runs them in closed form: it reads each such load as
# one stream of values and sums over them.  A body that breaks that rule runs
# its proven passes one by one, stepping the loads' bases.


def _accumulator_start(rng: random.Random, unit: int, small: bool) -> int:
    """A small value, or, unless ``small``, one below 2**64 by a few dozen
    ``unit``s (at most 2**56 each) or any."""
    if small:
        return rng.randint(0, 1 << 20)
    return rng.choice((rng.randint(0, 1 << 20), rng.randint(0, 1 << 20),
                       MASK64 - rng.randint(0, 80) * min(unit, 1 << 56), rng.getrandbits(64)))


def random_stream_loop(rng: random.Random, ctx_span: int, window: tuple[int, int]) -> Program:
    """A program that passes the pre-flight checks and whose one self-loop
    walks r3 by a load's width per pass (all four widths, in one step or
    two) for up to 80 passes, and loads r5 through it at that width.

    Half the loops are drawn for a closed form: r3 walks up the first read
    window, ``window`` (its base register and its length), from where every
    access of pass 1 lies inside it at its lower edge; r2 counts 17 to 80
    passes down to 0, and the accumulators start small.  The others walk
    r1's context or, twice as often, r10's stack either way, from the edge
    they leave, from a few bytes off it, or from anywhere; r2 counts the
    passes, in two loops in five as a ``_counted_exit`` against r1, else by
    jne or by a signed compare, which is not counted, or the branch tests r3.

    r4 steps near a wrap edge; r0 and r9 may be loaded too.  An accumulator
    chain of depth 0 to 3 (r6 += r5, r7 += r6, r0 += r7), its links in order
    after the load in the loops drawn for a closed form and in half the
    others, and in one loop in four an add of r5 or r6 to r9 (a second
    reader of a sum's values, or a second write of r9), start small, a few
    dozen loaded values below 2**64, or anywhere, so that the guard's caps
    cut the passes short.  Loops that sum no closed form or sink less mix
    in, each kind in one loop in four but none in one loop in three nor in a
    loop drawn for a closed form: a load through r3 of another width, an add
    that reads r4, a step of r0, an unknown pointer that leaves its window in
    some pass, and an op on a chain register that is not an add; also a
    second load through r3, and, in one loop in four not drawn for a closed
    form, a store at a streamed load's address before it.  The exit folds
    r2..r9 into r0."""
    closed = rng.random() < 0.5  # drawn for a closed form, which the accumulators' caps may still cut short
    pointer, span = window if closed else rng.choice(((1, ctx_span), (10, 512), (10, 512)))
    width = rng.choice(sorted(_SUFFIX))
    d = width * (1 if closed else rng.choice((1, -1)))  # a closed form reads its values upwards
    lines = [
        f"mov64 r3, r{pointer}",
        "",  # r3's start, once the body is known
        f"lddw r4, {rng.choice((rng.randint(0, 40), MASK64 - rng.randint(0, 40))):#x}",
        f"mov64 r8, r{pointer}",
    ]
    lines += [f"lddw r{reg}, {_accumulator_start(rng, (1 << 8 * width) - 1, closed):#x}" for reg in (6, 7, 0)]
    first = rng.randint(-8, 8) if rng.random() < 0.3 else d
    body = [_step(rng, 3, first)] + [_step(rng, 3, d - first)] * (first != d)
    walk = dict(zip(body, (first, d - first)))  # r3's steps -> their amounts
    offsets = [rng.choice((0, 0, rng.randint(-2, 6))) for _ in range(2)]
    loads = [f"ldx{_SUFFIX[width]} r5, [r3{offsets[0]:+d}]"]
    other = rng.choice([w for w in _SUFFIX if w != width])
    second = f"ldx{_SUFFIX[width]} r{rng.choice((0, 5, 9))}, [r3{offsets[1]:+d}]"
    store = f"stx{_SUFFIX[width]} [r3{offsets[0]:+d}], r6"
    extra = {
        "second stream": second,
        "other width": f"ldx{_SUFFIX[other]} r9, [r3{offsets[1]:+d}]",
        "wrap": _step(rng, 4, rng.choice((1, 3, -1, -5))),
        "fan": f"add64 r9, r{rng.choice((5, 6))}",
        "read r4": "add64 r7, r4",
        "step r0": _step(rng, 0, rng.choice((1, 2))),
        "unknown pointer": "ldxb r9, [r8+0]\nadd32 r8, 1",
        "not an add": rng.choice(("xor64 r7, r5", "mul64 r6, 3", "add32 r6, r5", "sub64 r7, r6")),
    }
    # The odds of each kind that keeps a counted loop from a closed form:
    rare = 0 if closed or rng.random() < 1 / 3 else 0.25
    odds = {"fan": 0.25, **dict.fromkeys(("other width", "read r4", "step r0", "unknown pointer", "not an add"), rare)}
    chosen = [text for kind, text in extra.items() if rng.random() < odds.get(kind, 0.5)]
    loads += [text for text in chosen if text.startswith("ldx")]
    body += [text for text in chosen if not text.startswith("ldx")]
    reach = {loads[0]: (offsets[0], width), second: (offsets[1], width), store: (offsets[0], width),
             extra["other width"]: (offsets[1], other)}  # accesses through r3 -> their offsets and widths
    if closed:  # counted down from past the 16 passes that a closed form needs
        lines.append(f"mov64 r2, {rng.randint(17, 80)}")
        body.append(_step(rng, 2, -1))
        branch = "jne r2, 0"
    elif rng.random() < 0.2:  # a branch on the walk itself
        lines += ["mov64 r2, r3", f"add64 r2, {rng.randint(1, 80) * d}"]
        branch = "jne r3, r2"
    elif rng.random() < 0.5:  # against r1, which the loop does not read
        setup, counter, branch = _counted_exit(rng, 2, 1, (1, 16, 17, rng.randint(1, 80)))
        lines += setup
        body.append(counter)
    else:
        lines.append(f"mov64 r2, {rng.randint(1, 80)}")
        body.append(_step(rng, 2, -1))
        branch = rng.choice(("jne r2, 0", "jsgt r2, 0", "jsgt r2, 3"))  # a signed compare is not counted
    body += loads
    rng.shuffle(body)
    ordered, at = closed or rng.random() < 0.5, body.index(loads[0])
    for link in ("add64 r6, r5", "add64 r7, r6", "add64 r0, r7")[:rng.randint(0, 3)]:
        at = rng.randint(at + 1, len(body)) if ordered else rng.randint(0, len(body))
        body.insert(at, link)
    if not closed and rng.random() < 0.25:  # the value a streamed load reads is stored earlier in its pass
        body.insert(body.index(loads[0]), store)
    body = "\n".join(body).splitlines()
    moved, ends = 0, []  # r3's steps so far in pass 1; where each access through r3 begins and ends
    for line in body:
        moved += walk.get(line, 0)
        if line in reach:
            ends += [moved + reach[line][0], moved + sum(reach[line])]
    inside = -min(ends) if d > 0 else span - max(ends)  # pass 1's accesses lie in the window, at its edge
    lines[1] = f"add64 r3, {inside + (0 if closed else rng.choice((0, rng.randint(-4, 4), rng.randint(-span, span))))}"
    lines += [f"loop: {body[0]}", *body[1:], f"{branch}, loop"]
    lines += [f"xor64 r0, r{reg}" for reg in range(2, 10)] + ["exit"]
    return assemble("\n".join(lines))
