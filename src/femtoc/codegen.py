"""Python source for both execution tiers, generated from one table.

The run-time semantics of every operation is written once, below, as a
template of Python source over named fields.  ``interpreter_source`` fills
the templates with the interpreter's run-time operands (``a``, ``b``,
``regs[dst]``, ``off``, ...) and joins them into a dispatch loop over the
verifier's rows, whose sub-operation chains are binary searches; one loop
body makes both the counted loop and the stepped loop, which adds a budget
test before each step and takes every run near its budget, from the counted
loop and from compiled code.  ``compiled_source`` fills them with one slot's
registers and constants and joins each basic block's slots into one arm of
a dispatch loop over block starts, with registers as locals; a block that
jumps back to its own start becomes a loop over its passes, with one budget
check for all of them.  ``femtoc.vm`` executes both sources in its own
namespace, so the names they use (``_Trap``, ``Fault``, ``ExecOutcome``,
``_helper_fault``, ...) are ``vm``'s.

Fields: ``{a}`` and ``{b}`` are an operation's operands, already cut to its
width; ``{mask}``, ``{wrap}``, ``{shift}`` and ``{sign}`` are the width's
value mask, modulus, shift-amount mask and sign bit (for a byte swap,
``{mask}`` covers the swapped bits and ``{nbytes}`` counts their bytes).
Signed operations map two's complement onto unsigned order by flipping the
sign bit.  Every result lies in [0, {wrap}), so every register holds a
value in [0, 2**64); ``add`` and ``sub`` wrap by a comparison, which is
cheaper than a mask for the usual small values.
"""

from __future__ import annotations

from .verifier import (
    ALU32_K, ALU32_X, ALU64_K, ALU64_X, CALL, END, EXIT, JA, JCOND_K, JCOND_X, LDDW, LDX, LDX_STACK,
    MASK32, MASK64, ST, ST_STACK, STX, STX_STACK,
)

# -- the semantics table --------------------------------------------------

ALU = (  # by verifier.ALU_OPS
    "t - {wrap} if (t := {a} + {b}) > {mask} else t",  # add
    "t + {wrap} if (t := {a} - {b}) < 0 else t",  # sub
    "{b}",  # mov
    "{a} ^ {b}",  # xor
    "({a} * {b}) & {mask}",  # mul
    "{a} & {b}",  # and
    "{a} | {b}",  # or
    "({a} << ({b} & {shift})) & {mask}",  # lsh
    "{a} >> ({b} & {shift})",  # rsh
    "{a} % {b} if {b} else 0",  # mod: unsigned, 0 on a zero divisor
    "{a} // {b} if {b} else 0",  # div: unsigned, 0 on a zero divisor
    "((({a} ^ {sign}) - {sign}) >> ({b} & {shift})) & {mask}",  # arsh
    "-{a} & {mask}",  # neg
)

CMP = (  # by verifier.CMP_OPS; a true value takes the jump
    "{a} != {b}",  # jne
    "{a} == {b}",  # jeq
    "{a} > {b}",  # jgt
    "{a} >= {b}",  # jge
    "{a} < {b}",  # jlt
    "{a} <= {b}",  # jle
    "{a} & {b}",  # jset
    "({a} ^ {sign}) > ({b} ^ {sign})",  # jsgt
    "({a} ^ {sign}) >= ({b} ^ {sign})",  # jsge
    "({a} ^ {sign}) < ({b} ^ {sign})",  # jslt
    "({a} ^ {sign}) <= ({b} ^ {sign})",  # jsle
)

END_OPS = (  # by verifier.BYTE_ORDERS
    "{a} & {mask}",  # le
    "int.from_bytes(({a} & {mask}).to_bytes({nbytes}, 'little'), 'big')",  # be
)

# Loads and stores test the first window of the access list inline, then
# scan all its windows for the first one that covers the access; a stack row
# indexes the stack's bytes with no scan.  ``{addr}`` is the access's
# address: ADDRESS, or the base register itself at offset 0 (registers hold
# values in [0, 2**64) on both tiers).
ADDRESS = "({base} + {off}) & {mask64}"
LOAD = """\
addr = {addr}
if rlo <= addr and addr + {width} <= rhi:
    {dst} = unpack[{width}](rbuf, addr - rbase)[0]
else:
    end = addr + {width}
    for lo, hi, buf, buf_base in read_windows:
        if lo <= addr and end <= hi:
            {dst} = unpack[{width}](buf, addr - buf_base)[0]
            break
    else:
        raise _Trap(Fault(FaultKind.MEMORY_VIOLATION, {pc}, addr, {width}, "read denied"))
"""

STORE = """\
addr = {addr}
if wlo <= addr and addr + {width} <= whi:
    pack[{width}](wbuf, addr - wbase, {value})
else:
    end = addr + {width}
    for lo, hi, buf, buf_base in write_windows:
        if lo <= addr and end <= hi:
            pack[{width}](buf, addr - buf_base, {value})
            break
    else:
        raise _Trap(Fault(FaultKind.MEMORY_VIOLATION, {pc}, addr, {width}, "write denied"))
"""

LOAD_STACK = "{dst} = unpack[{width}](stack_buf, stack_at + {off})[0]\n"
STORE_STACK = "pack[{width}](stack_buf, stack_at + {off}, {value})\n"
STORE_VALUE = "{src} & {wmask}"  # stx cuts the register to the access width
CALL_HELPER = """\
try:
    {r0} = calls[{imm}](env, {args})
except Exception as exc:
    raise _Trap(_helper_fault(env.helpers, {pc}, {imm}, exc)) from None
"""
LOAD_WIDE = "{dst} = {imm}\n"

EXIT_RUN = "return _new(ExecOutcome, ({r0}, executed, branches, None))\n"

# What one run sets up from its SyscallEnv: its access list's ``run_state``, the
# first read and write windows (the stack is both, so each list has one) and
# its helper table's callables.
PROLOGUE = """\
read_windows, write_windows, stack_buf, stack_at, stack_base = env.acl.run_state
rlo, rhi, rbuf, rbase = read_windows[0]
wlo, whi, wbuf, wbase = write_windows[0]
calls = env.helpers.calls
unpack, pack = _UNPACK, _PACK
"""

_W64 = {"mask": hex(MASK64), "wrap": hex(1 << 64), "shift": "63", "sign": hex(1 << 63)}
_W32 = {"mask": hex(MASK32), "wrap": hex(1 << 32), "shift": "31", "sign": hex(1 << 31)}
_M64 = hex(MASK64)


def _address(base: str, off: int | str) -> str:
    """The address of ``[base+off]``: at offset 0, the base register itself."""
    return base if off == 0 else ADDRESS.format(base=base, off=off, mask64=_M64)


def _stored(src: str, width: int) -> str:
    """The value a ``width``-byte stx stores: the register, cut unless it is 8 bytes."""
    return src if width == 8 else STORE_VALUE.format(src=src, wmask=hex((1 << 8 * width) - 1))


def _indent(text: str, depth: int) -> str:
    pad = "    " * depth
    return "".join(pad + line + "\n" for line in text.splitlines())


def _switch(selector: str, target: str, exprs: tuple[str, ...], fields: dict, depth: int) -> str:
    """A binary search on ``selector`` (0, 1, ...) assigning ``target`` the
    selected template's value."""

    def arms(lo: int, hi: int) -> str:
        if hi - lo == 1:
            return f"{target} = {exprs[lo].format(**fields)}\n"
        mid = (lo + hi) // 2
        return f"if {selector} < {mid}:\n{_indent(arms(lo, mid), 1)}else:\n{_indent(arms(mid, hi), 1)}"

    return _indent(arms(0, len(exprs)), depth)


# -- the interpreter ---------------------------------------------------------
#
# One loop body, filled as the counted loop (COUNTED; see ``femtoc.vm``) and
# as the stepped loop (STEPPED), which also tests the budget before each step.
# ``start`` is the first slot of the running straight run, which adds its
# ``pc - start + 1`` steps where it ends; lddw takes one step for two slots,
# so it moves ``start`` on by one.  A loop that cannot go on (a run that might
# not fit, a spent budget, a pc that escaped a form the verifier did not make)
# counts its steps so far and enters the stepped loop at ``pc``, whose entry
# reports the budget fault or the escape.

_INTERPRETER = """\
def {name}(form, regs, pc, executed, branches, budget, env):
    n = len(form)
{prologue}\
    width_mask = _WIDTH_MASK
    start = pc
    try:
{entry}\
        while True:
{step}\
            code, sub, dst, src, off, imm = form[pc]
            if code <= {ALU64_X}:
                a = regs[dst]
                b = imm if code == {ALU64_K} else regs[src]
{alu64}\
                regs[dst] = a
                pc += 1
            elif code == {JCOND_K} or code == {JCOND_X}:
                a = regs[dst]
                b = imm if code == {JCOND_K} else regs[src]
{cmp}\
                if taken:
{taken}\
                else:
                    pc += 1
            elif code == {LDX}:
{ldx}\
                pc += 1
            elif code == {LDX_STACK}:
{ldx_stack}\
                pc += 1
            elif code == {STX} or code == {ST}:
{st}\
                pc += 1
            elif code == {STX_STACK}:
{stx_stack}\
                pc += 1
            elif code == {JA}:
{jump}\
            elif code == {ALU32_K} or code == {ALU32_X}:
                a = regs[dst] & {mask32}
                b = imm if code == {ALU32_K} else regs[src] & {mask32}
{alu32}\
                regs[dst] = a
                pc += 1
            elif code == {ST_STACK}:
{st_stack}\
                pc += 1
            elif code == {CALL}:
{call}\
                pc += 1
            elif code == {EXIT}:
                executed += pc - start + 1
                if regs[10] != stack_base:
                    raise RuntimeError("stack pointer register mutated during run")
{exit}\
            elif code == {LDDW}:
{lddw}\
                start += 1
                pc += 2
            elif code == {END}:
{end}\
                regs[dst] = a
                pc += 1
            else:  # pragma: no cover
                raise _Trap(Fault(FaultKind.BAD_SYSCALL, pc, note="unhandled handler code %d" % code))
    except _Trap as trap:
        executed += pc - start + 1
        if regs[10] != stack_base:
            raise RuntimeError("stack pointer register mutated during run")
        return _new(ExecOutcome, (regs[0], executed, branches, trap.fault))
    except IndexError:  # ran off the end of a form the verifier did not make
        if 0 <= pc < n:
            raise
    executed += pc - start
    return _stepped(form, regs, pc, executed, branches, budget, env)
"""

# A taken jump ends the running straight run; ``{handover}`` tests whether the
# run it starts goes on in this loop.
_JUMP = """\
executed += pc - start + 1
branches += 1
pc = start = off
if {handover}:
    break
"""

STEPPED = {  # its entry reports through the trap path, which adds pc - start + 1 steps
    "name": "_stepped",
    "entry": """\
if executed >= budget:
    start += 1  # the slot at pc does not start
    raise _Trap(Fault(FaultKind.BUDGET_EXCEEDED, pc, note="budget %d exhausted" % budget))
if not 0 <= pc < n:  # unreachable for verified programs; kept as a hard stop
    start += 1
    raise _Trap(Fault(FaultKind.BAD_SYSCALL, pc, note="program counter escaped"))
""",
    "step": "if executed + pc - start >= budget:\n    break\n",
    "handover": "off < 0",  # form[pc] would read a negative pc from the end
}

COUNTED = {  # a straight run from slot s takes at most n - s steps
    "name": "_interpret",
    "entry": """\
if pc < 0 or executed + n - pc > budget:
    return _stepped(form, regs, pc, executed, branches, budget, env)
""",
    "step": "",
    "handover": "off < 0 or executed + n - off > budget",
}


def interpreter_source(loop: dict[str, str]) -> str:
    """``loop["name"](form, regs, pc, executed, branches, budget, env)``: run
    ``form`` from slot ``pc`` with the given registers and counters, one row
    per step, and return its ExecOutcome.  ``loop`` is STEPPED or COUNTED."""
    arm = 4  # the indent of an arm's body
    operands = {"a": "a", "b": "b"}
    memory = {"width": "sub", "pc": "pc"}
    codes = {
        "ALU64_K": ALU64_K, "ALU64_X": ALU64_X, "JCOND_K": JCOND_K, "JCOND_X": JCOND_X, "LDX": LDX,
        "LDX_STACK": LDX_STACK, "STX": STX, "ST": ST, "STX_STACK": STX_STACK, "JA": JA,
        "ALU32_K": ALU32_K, "ALU32_X": ALU32_X, "ST_STACK": ST_STACK, "CALL": CALL, "EXIT": EXIT,
        "LDDW": LDDW, "END": END,
    }
    stx_value = STORE_VALUE.format(src="regs[src]", wmask="width_mask[sub]")
    args = ", ".join(f"regs[{i}]" for i in range(1, 6))
    jump = _JUMP.format(handover=loop["handover"])
    return _INTERPRETER.format(
        name=loop["name"],
        prologue=_indent(PROLOGUE, 1),
        entry=_indent(loop["entry"], 2),
        step=_indent(loop["step"], 3),
        alu64=_switch("sub", "a", ALU, {**operands, **_W64}, arm),
        alu32=_switch("sub", "a", ALU, {**operands, **_W32}, arm),
        cmp=_switch("sub", "taken", CMP, {**operands, **_W64}, arm),
        taken=_indent(jump, arm + 1),
        jump=_indent(jump, arm),
        end=_switch("sub", "a", END_OPS, {"a": "regs[dst]", "mask": "((1 << imm) - 1)",
                                          "nbytes": "(imm >> 3)"}, arm),
        ldx=_indent(LOAD.format(addr=_address("regs[src]", "off"), dst="regs[dst]", **memory), arm),
        ldx_stack=_indent(LOAD_STACK.format(dst="regs[dst]", width="sub", off="off"), arm),
        st=_indent(STORE.format(addr=_address("regs[dst]", "off"),
                                value=f"{stx_value} if code == {STX} else imm", **memory), arm),
        stx_stack=_indent(STORE_STACK.format(width="sub", off="off", value=stx_value), arm),
        st_stack=_indent(STORE_STACK.format(width="sub", off="off", value="imm"), arm),
        call=_indent(CALL_HELPER.format(r0="regs[0]", pc="pc", imm="imm", args=args), arm),
        exit=_indent(EXIT_RUN.format(r0="regs[0]"), arm),
        lddw=_indent(LOAD_WIDE.format(dst="regs[dst]", imm="imm"), arm),
        mask32=hex(MASK32),
        **codes,
    )


# -- the compiled tier ---------------------------------------------------------

_BRANCHES = (JCOND_K, JCOND_X, JA)
_ENDS_BLOCK = (JCOND_K, JCOND_X, JA, EXIT)
_WRITES_DST = (ALU64_K, ALU64_X, ALU32_K, ALU32_X, LDX, LDX_STACK, LDDW, END)


def _basic_blocks(form: tuple[tuple[int, ...], ...]) -> dict[int, list[int]]:
    """The reachable basic blocks of a verified form: first slot -> the
    slots of its instructions, in order.  A block ends at a jump or an
    exit, or before the next jump target."""
    n = len(form)
    leaders = {0}
    for i, (code, _sub, _dst, _src, off, _imm) in enumerate(form):
        if code in _BRANCHES:
            leaders.add(off)
        if code in _ENDS_BLOCK and i + 1 < n:
            leaders.add(i + 1)
    blocks: dict[int, list[int]] = {}
    todo = [0]
    while todo:
        start = todo.pop()
        if start in blocks:
            continue
        slots = blocks[start] = []
        at = start
        while True:
            code, off = form[at][0], form[at][4]
            slots.append(at)
            at += 2 if code == LDDW else 1
            if code in _BRANCHES:
                todo.append(off)
            if code == JCOND_K or code == JCOND_X or (code not in _ENDS_BLOCK and at in leaders):
                todo.append(at)
            if code in _ENDS_BLOCK or at in leaders:
                break
    return blocks


def _slot_source(pc: int, row: tuple[int, ...]) -> str:
    """One non-branching slot's statements, with registers as locals."""
    code, sub, dst, src, off, imm = row
    if dst == 10 and code in _WRITES_DST:  # the verifier refuses it; r10 stays the stack base
        raise ValueError(f"slot {pc}: handler code {code} writes r10")
    rd, rs = f"r{dst}", f"r{src}"
    if code == ALU64_K or code == ALU64_X:
        b = str(imm) if code == ALU64_K else rs
        return f"{rd} = {ALU[sub].format(a=rd, b=b, **_W64)}\n"
    if code == ALU32_K or code == ALU32_X:
        m = _W32["mask"]
        b = str(imm) if code == ALU32_K else f"({rs} & {m})"
        return f"{rd} = {ALU[sub].format(a=f'({rd} & {m})', b=b, **_W32)}\n"
    if code == LDX:
        return LOAD.format(addr=_address(rs, off), dst=rd, width=sub, pc=pc)
    if code == LDX_STACK:
        return LOAD_STACK.format(dst=rd, width=sub, off=off)
    if code == STX or code == ST:
        value = _stored(rs, sub) if code == STX else imm
        return STORE.format(addr=_address(rd, off), width=sub, value=value, pc=pc)
    if code == STX_STACK:
        return STORE_STACK.format(width=sub, off=off, value=_stored(rs, sub))
    if code == ST_STACK:
        return STORE_STACK.format(width=sub, off=off, value=imm)
    if code == CALL:
        return CALL_HELPER.format(r0="r0", pc=pc, imm=imm, args="r1, r2, r3, r4, r5")
    if code == LDDW:
        return LOAD_WIDE.format(dst=rd, imm=imm)
    if code == END:
        expr = END_OPS[sub].format(a=rd, mask=hex((1 << imm) - 1), nbytes=imm // 8)
        return f"{rd} = {expr}\n"
    raise ValueError(f"slot {pc}: handler code {code} has no compiled form")


# A block that jumps back to its own start: ``room`` whole passes fit in the
# budget left.  Leaving in pass ``it`` (its branch not taken, or a trap) counts
# ``it`` passes and ``it - 1`` taken branches; if all ``room`` took it, hand over.
SELF_LOOP = """\
room = (budget - executed) // {length}
try:
    for it in range(1, room + 1):
{body}\
        if not ({taken}):
            break
    else:
        executed += room * {length}
        branches += room
        raise _Handover
except _Trap:
    executed += it * {length}
    branches += it - 1
    raise
executed += it * {length}
branches += it - 1
pc = {next}
"""


def _block_source(form: tuple[tuple[int, ...], ...], start: int, slots: list[int]) -> str:
    """One block: the budget check, its slots, and where control goes next.

    A block that might not fit in the remaining budget raises _Handover,
    whose handler gives the live state to the stepped loop at the block's
    first slot (``pc`` is always the running block's start), so the budget
    runs out on the exact slot.  A block that jumps back to its own start
    loops in place (SELF_LOOP), counting its passes instead of its steps.
    """
    length = len(slots)
    last = slots[-1]
    code, sub, dst, src, off, imm = form[last]
    head = f"if executed + {length} > budget:\n    raise _Handover\nexecuted += {length}\n"
    body = "".join(_slot_source(pc, form[pc]) for pc in slots if form[pc][0] not in _ENDS_BLOCK)
    if code == EXIT:
        return head + body + EXIT_RUN.format(r0="r0")
    if code == JA:
        return head + body + f"branches += 1\npc = {off}\n"
    if code != JCOND_K and code != JCOND_X:
        return head + body + f"pc = {last + (2 if code == LDDW else 1)}\n"
    taken = CMP[sub].format(a=f"r{dst}", b=str(imm) if code == JCOND_K else f"r{src}", **_W64)
    if off == start:
        return SELF_LOOP.format(length=length, body=_indent(body, 2), taken=taken, next=last + 1)
    return head + body + f"if {taken}:\n    branches += 1\n    pc = {off}\nelse:\n    pc = {last + 1}\n"


def _dispatch(form, blocks: dict[int, list[int]], starts: list[int], depth: int) -> str:
    """A binary search on ``pc`` over the sorted block starts, with each
    block's source at its leaf."""
    if len(starts) == 1:
        return _indent(_block_source(form, starts[0], blocks[starts[0]]), depth)
    mid = len(starts) // 2
    return (
        _indent(f"if pc < {starts[mid]}:", depth)
        + _dispatch(form, blocks, starts[:mid], depth + 1)
        + _indent("else:", depth)
        + _dispatch(form, blocks, starts[mid:], depth + 1)
    )


_COMPILED = """\
def bind(form, after):
    def run(r1, env, budget):
{prologue}\
        r0 = r2 = r3 = r4 = r5 = r6 = r7 = r8 = r9 = 0
        r10 = stack_base
        executed = branches = pc = 0
        try:
            while True:
{dispatch}\
        except _Handover:
            regs = [r0, r1, r2, r3, r4, r5, r6, r7, r8, r9, r10]
            return _stepped(form, regs, pc, executed, branches, budget, env)
        except _Trap as trap:
            # A block counts all its steps on entry; give back the ones
            # after the faulting slot.
            return _new(ExecOutcome, (r0, executed - after[trap.fault.pc], branches, trap.fault))
    return run
"""


def compiled_source(form: tuple[tuple[int, ...], ...]) -> tuple[str, tuple[int, ...]]:
    """The source of ``bind(form, after)``, and its ``after``: per slot, the
    steps its block runs after it.  ``bind`` returns ``run(r1, env,
    budget)``, which runs the verified ``form`` block by block and
    returns the ExecOutcome the interpreter would."""
    blocks = _basic_blocks(form)
    after = [0] * len(form)
    for slots in blocks.values():
        for position, pc in enumerate(slots):
            after[pc] = len(slots) - 1 - position
    source = _COMPILED.format(
        prologue=_indent(PROLOGUE, 2), dispatch=_dispatch(form, blocks, sorted(blocks), 4)
    )
    return source, tuple(after)
