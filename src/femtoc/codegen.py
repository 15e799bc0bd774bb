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
check for all of them.  Such a loop is versioned: a guard on each entry
finds how many of its passes cannot wrap an add or sub whose operands it
can bound, nor leave the first window with an access whose address steps
by a constant, and runs those passes through a copy of the body filled
without those checks, then the rest through the checked body; a counted
self-loop, whose branch compares an induction register with a fixed bound,
also finds the pass where it leaves, and its proven passes test no branch
and drop the steps of each induction register but r0 that nothing else in
them reads, setting it once where they end.  A counted self-loop whose
other slots only add loads whose base steps by their width per pass, or
such adds, into registers runs more than 16 proven passes in closed form:
one ``unpack_from`` per load, then sums (``accumulate`` for a chain) from
the registers' entry values.  A self-loop with no load or store through a
pointer and no helper call can reach the stack only through its stack
rows: it holds each row that overlaps no other in a local, loaded once on
entry, and writes the stored ones back on its two ways out.  A self-loop's
``LoopPlan`` is the one list of those decisions (``guard``, ``proven``, ``trip``,
``streams``, ``closed``, ``sunk``, ``dropped``, ``rows``, ``spills`` and
``traps``): ``loop_plans`` makes them once, and ``_self_loop`` only renders them.
On both tiers a load or store tests the first window, whose bounds the
prologue unpacks from the access list's ``run_state`` with the rest of it,
calls ``in_windows`` only on a miss, and converts once on the access list's
one buffer, through ``memory``'s codec.  ``femtoc.vm`` executes both
sources in its own namespace, so the names they use (``_Trap``, ``Fault``,
``in_windows``, ``_PACK``, ``_RUN_FORMATS``, ``_helper_fault``, ...) are
``vm``'s.

Fields: ``{a}`` and ``{b}`` are an operation's operands, already cut to its
width; ``{mask}``, ``{wrap}`` and ``{sign}`` are the width's value mask,
modulus and sign bit, and ``{count}`` is a shift's amount, cut by the
width's ``shift`` mask (for a byte swap, ``{mask}`` covers the swapped bits
and ``{nbytes}`` counts their bytes).
Signed operations map two's complement onto unsigned order by flipping the
sign bit.  Every result lies in [0, {wrap}), so every register holds a
value in [0, 2**64); ``add`` and ``sub`` wrap by a comparison, which is
cheaper than a mask for the usual small values.
"""

from __future__ import annotations

from typing import NamedTuple

from .verifier import (
    ALU32_K, ALU32_X, ALU64_K, ALU64_X, ALU_OPS, CALL, END, EXIT, JA, JCOND_K, JCOND_X, LDDW, LDX,
    LDX_STACK, MASK32, MASK64, ST, ST_STACK, STX, STX_STACK,
)

# -- the semantics table --------------------------------------------------

SUM = ("{a} + {b}", "{a} - {b}")  # add, sub, before their wrap test
QUOTIENT = ("{a} % {b}", "{a} // {b}")  # mod, div, by a divisor that is not 0

ALU = (  # by verifier.ALU_OPS
    "t - {wrap} if (t := " + SUM[0] + ") > {mask} else t",  # add
    "t + {wrap} if (t := " + SUM[1] + ") < 0 else t",  # sub
    "{b}",  # mov
    "{a} ^ {b}",  # xor
    "({a} * {b}) & {mask}",  # mul
    "{a} & {b}",  # and
    "{a} | {b}",  # or
    "({a} << {count}) & {mask}",  # lsh
    "{a} >> {count}",  # rsh
    QUOTIENT[0] + " if {b} else 0",  # mod: unsigned, 0 on a zero divisor
    QUOTIENT[1] + " if {b} else 0",  # div: unsigned, 0 on a zero divisor
    "((({a} ^ {sign}) - {sign}) >> {count}) & {mask}",  # arsh
    "-{a} & {mask}",  # neg
)
_ADD, _SUB, _MOD, _DIV = (ALU_OPS.index(op) for op in ("add", "sub", "mod", "div"))

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

# A load or store is one CHECK, then one READ or WRITE at ``addr`` on the buffer.
# The check tests the first window (``rlo``/``rhi`` or ``wlo``/``whi``) inline
# and, only on a miss, faults unless ``in_windows`` finds one that covers the
# access.  A proven access (see ``_self_loop``) is the READ or WRITE alone;
# a stack row indexes the stack's bytes.  ``{address}`` is ADDRESS, or the base
# register itself at offset 0 (registers hold values in [0, 2**64) on both tiers).
ADDRESS = "({base} + {off}) & {mask64}"
READ = "{dst} = unpack[{width}](buf, {addr} - base)[0]\n"
WRITE = "pack[{width}](buf, {addr} - base, {value})\n"
CHECK = """\
addr = {address}
if addr < {mode[0]}lo or addr + {width} > {mode[0]}hi:
    if not in_windows({mode}_windows, addr, {width}):
        raise _Trap(Fault(FaultKind.MEMORY_VIOLATION, {pc}, addr, {width}, "{mode} denied"))
"""
LOAD, STORE = CHECK + READ, CHECK + WRITE
# The fields LOAD and STORE take besides the access's own.
READS, WRITES = {"addr": "addr", "mode": "read"}, {"addr": "addr", "mode": "write"}

LOAD_STACK = "{dst} = unpack[{width}](buf, stack_at + {off})[0]\n"
STORE_STACK = "pack[{width}](buf, stack_at + {off}, {value})\n"
STORE_VALUE = "{src} & {wmask}"  # stx cuts the register to the access width
CALL_HELPER = """\
try:
    {r0} = calls[{imm}](env, {args})
except Exception as exc:
    raise _Trap(_helper_fault(env.helpers, {pc}, {imm}, exc)) from None
"""
LOAD_WIDE = "{dst} = {imm}\n"

EXIT_RUN = "return _new(ExecOutcome, ({r0}, executed, branches, None))\n"

# What one run sets up from its SyscallEnv: its access list's ``run_state``,
# which ends with the first read and write windows, and its helper table's callables.
PROLOGUE = """\
read_windows, write_windows, buf, base, stack_at, stack_base, rlo, rhi, wlo, whi = env.acl.run_state
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
        alu64=_switch("sub", "a", ALU, {**operands, **_W64, "count": "(b & 63)"}, arm),
        alu32=_switch("sub", "a", ALU, {**operands, **_W32, "count": "(b & 31)"}, arm),
        cmp=_switch("sub", "taken", CMP, {**operands, **_W64}, arm),
        taken=_indent(jump, arm + 1),
        jump=_indent(jump, arm),
        end=_switch("sub", "a", END_OPS, {"a": "regs[dst]", "mask": "((1 << imm) - 1)",
                                          "nbytes": "(imm >> 3)"}, arm),
        ldx=_indent(LOAD.format(address=_address("regs[src]", "off"), dst="regs[dst]", **memory, **READS), arm),
        ldx_stack=_indent(LOAD_STACK.format(dst="regs[dst]", width="sub", off="off"), arm),
        st=_indent(STORE.format(address=_address("regs[dst]", "off"),
                                value=f"{stx_value} if code == {STX} else imm", **memory, **WRITES), arm),
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
_TRAPS = (LDX, STX, ST, CALL)  # slots whose checked form can raise _Trap
_STACK_ROWS = (LDX_STACK, STX_STACK, ST_STACK)


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


def _plus(expr: str, n: int) -> str:
    """``expr + n``, folded."""
    return expr if n == 0 else f"{expr} + {n}" if n > 0 else f"{expr} - {-n}"


def _alu(sub: int, a: str, b: str, k: int | None, width: dict) -> str:
    """ALU[sub] of ``a`` and ``b``.  With a constant operand ``k``, a shift's
    amount is cut here and a divisor's zero test is decided here."""
    if k is not None and (sub == _MOD or sub == _DIV):
        return QUOTIENT[sub - _MOD].format(a=a, b=b) if k else "0"
    count = f"({b} & {width['shift']})" if k is None else str(k & int(width["shift"]))
    return ALU[sub].format(a=a, b=b, count=count, **width)


def _slot_source(pc: int, row: tuple[int, ...], proven: frozenset[int] = frozenset(),
                 rows: dict[tuple[int, int], str] = {}) -> str:
    """One non-branching slot's statements, with registers as locals.  A slot
    in ``proven`` runs without its check: a loop guard proved that its add or
    sub does not wrap, or that its access lies inside the first window.  A
    stack row in ``rows`` (offset, width -> local) reads or assigns its local."""
    code, sub, dst, src, off, imm = row
    if dst == 10 and code in _WRITES_DST:  # the verifier refuses it; r10 stays the stack base
        raise ValueError(f"slot {pc}: handler code {code} writes r10")
    rd, rs = f"r{dst}", f"r{src}"
    if code == ALU64_K or code == ALU64_X:
        k = imm if code == ALU64_K else None
        b = rs if k is None else str(k)
        if pc in proven:  # an add or sub; a constant of 2**63 or more steps the other way
            if k is not None and k >> 63:
                sub, b = 1 - sub, str((1 << 64) - k)
            return f"{rd} = {SUM[sub].format(a=rd, b=b)}\n"
        return f"{rd} = {_alu(sub, rd, b, k, _W64)}\n"
    if code == ALU32_K or code == ALU32_X:
        m = _W32["mask"]
        k = imm if code == ALU32_K else None
        b = f"({rs} & {m})" if k is None else str(k)
        return f"{rd} = {_alu(sub, f'({rd} & {m})', b, k, _W32)}\n"
    if code == LDX:
        if pc in proven:
            return READ.format(dst=rd, width=sub, addr=_plus(rs, off))
        return LOAD.format(address=_address(rs, off), dst=rd, width=sub, pc=pc, **READS)
    if code == STX or code == ST:
        value = _stored(rs, sub) if code == STX else imm
        if pc in proven:
            return WRITE.format(width=sub, addr=_plus(rd, off), value=value)
        return STORE.format(address=_address(rd, off), width=sub, value=value, pc=pc, **WRITES)
    if code in _STACK_ROWS:
        local = rows.get((off, sub))
        if code == LDX_STACK:
            return f"{rd} = {local}\n" if local else LOAD_STACK.format(dst=rd, width=sub, off=off)
        value = _stored(rs, sub) if code == STX_STACK else imm
        return f"{local} = {value}\n" if local else STORE_STACK.format(width=sub, off=off, value=value)
    if code == CALL:
        return CALL_HELPER.format(r0="r0", pc=pc, imm=imm, args="r1, r2, r3, r4, r5")
    if code == LDDW:
        return LOAD_WIDE.format(dst=rd, imm=imm)
    if code == END:
        expr = END_OPS[sub].format(a=rd, mask=hex((1 << imm) - 1), nbytes=imm // 8)
        return f"{rd} = {expr}\n"
    raise ValueError(f"slot {pc}: handler code {code} has no compiled form")


# -- self-loops ------------------------------------------------------------------
#
# A block that jumps back to its own start: ``room`` whole passes fit in the
# budget left.  Its guard (see ``_loop_guard``) finds how many of them, ``safe``,
# cannot fail the checks it proved; those passes run first, through the body
# filled without those checks, and the rest through the checked body, so the
# first pass that could fail one runs checked.  Leaving in pass ``it`` (its
# branch not taken, or a trap) counts ``it`` passes and ``it - 1`` taken
# branches; if all ``room`` took it, hand over.  Only a body with a slot that
# can trap (``_TRAPS``) counts a trap's pass (TRAPPED).  A loop whose guard
# proves nothing has no guard and runs every pass checked.  A body with no
# such slot reaches the stack only through its stack rows, and holds each row
# that overlaps no other in a local (``LoopPlan.rows``): loaded on entry, even
# with no room; read and assigned by both copies of the body; and, if stored,
# written back ({spill}) before ALL_TAKEN's handover, so the stepped loop
# resumes from current bytes, and before LOOP_EXIT.
#
# A counted self-loop (``_trip``) runs ``proven``, the lesser of ``trip`` and
# ``safe``, proven passes with no branch test, leaves in pass ``trip`` if it
# is the last of them (LEAVE_AT_TRIP), and else runs checked passes after it.
# Its proven passes drop the steps of each induction register but r0 that
# nothing else in them reads (``_sinks``), and step it once by all of them
# where they end; the guard bounds it for ``safe`` passes, so no mask, and a
# trap returns only r0, so a trap sets nothing.  A helper reads r1-r5, so a
# body that calls one sinks nothing.  An uncounted self-loop's proven passes
# test its branch and drop nothing.
#
# A counted self-loop whose every slot is a load whose base steps by its
# width per pass (``LoopPlan.streams``), a dropped step, or a proven ``add64 rA, rB``
# whose rB such a load or such an add wrote earlier in the pass, with no
# register written twice, runs its proven passes in closed form when there
# are more than PLAIN_PASSES of them (``_reduced``): each such load is one
# UNPACK_RUN of ``proven`` values, decoded little-endian as ``memory``'s codec
# does, into a tuple, and each register is set once, from the entry values,
# to its last loaded value or to its entry value plus the sum of rB's values,
# prefix sums (``accumulate``) for an rB that an add wrote.  The guard's GROWS
# caps make every such sum exact in the proven passes.  A tuple holds no
# export of the buffer, so ``HostMemory.alloc`` can still grow it.  Fewer
# proven passes, PLAIN_PASSES at most, run one by one through the proven body
# and drop nothing.  A body that the closed form refuses runs its proven
# passes one by one; its loads read their base registers there, so it keeps
# their steps.
PASSES = """\
for it in range({first}, {last} + 1):
{body}\
    if not ({taken}):
        break
else:
{then}\
"""
ALL_TAKEN = "executed += room * {length}\nbranches += room\n{spill}raise _Handover\n"
TRAPPED = """\
try:
{passes}\
except _Trap:
    executed += it * {length}
    branches += it - 1
    raise
"""
LOOP_EXIT = "{spill}executed += it * {length}\nbranches += it - 1\npc = {next}\n"
PLAIN_PASSES = 16  # the most proven passes a counted self-loop runs one by one when it has a closed form
UNPACK_RUN = "v{pc} = unpack_from(_RUN_FORMATS[{width}] % proven, buf, {start})\n"
TRIP = "trip = {trip}\nproven = trip if trip < safe else safe\n"
LEAVE_AT_TRIP = "if proven == trip:\n    it = trip\nelse:\n{checked}"

# The guard classifies each register the body writes by the slots that write it:
# - induction: only ``r += K`` and ``r -= K`` (a K of 2**63 or more steps down),
#   so in pass k it is its entry value plus k - 1 passes' steps plus the steps
#   before the slot; a register the body never writes steps by 0;
# - load-bounded: only loads, so it stays below 2**(8 * width);
# - accumulator: only ``r += x``, with x load-bounded or an accumulator resolved
#   before it, so each pass adds at most x's bound;
# - anything else keeps every check that depends on it.
# An induction register's add or sub, and a load or store based on one, gives
# linear bounds in the pass number, tested at the first pass and solved for
# the last.  Each accumulator caps ``safe`` where its bound would pass 2**64.
Steps = dict[int, list[tuple[int, int]]]  # induction register -> (slot, step) of each of its steps

GROWS = """\
if {reg} + safe * {inc} > {mask}:
    safe = ({mask} - {reg}) // {per_pass}
"""


def _linear_guard(reg: str, q: int, d: int, lo: tuple[str | None, int], hi: tuple[str | None, int],
                  terms: list[str], conds: list[str]) -> None:
    """Bound ``lo <= reg + q + (k - 1) * d <= hi`` for passes k = 1 .. safe:
    a cap on ``safe`` in ``terms`` where the value moves towards a bound, and a
    first-pass test in ``conds`` for each bound that the first pass could miss.
    ``lo`` and ``hi`` are (a run-time name or None, a constant)."""
    (lo_name, lo_c), (hi_name, hi_c) = lo, hi
    one = abs(d) == 1  # (hi - reg - q) // d + 1 passes stay at or below hi, and likewise above lo
    if d > 0:
        c = hi_c - q + one
        left = f"{hex(c)} - {reg}" if hi_name is None else _plus(f"{hi_name} - {reg}", c)
    elif d < 0:
        left = _plus(reg if lo_name is None else f"{reg} - {lo_name}", q - lo_c + one)
    if d:
        terms.append(left if one else f"({left}) // {abs(d)} + 1")
    if d <= 0 and (hi_name is not None or q > hi_c - MASK64):
        conds.append(f"{reg} <= {hex(hi_c - q)}" if hi_name is None else f"{_plus(reg, q - hi_c)} <= {hi_name}")
    if d >= 0 and (lo_name is not None or q < lo_c):
        conds.append(f"{lo_c - q} <= {reg}" if lo_name is None else f"{lo_name} <= {_plus(reg, q - lo_c)}")


def _loop_guard(form: tuple[tuple[int, ...], ...], body: list[int]) -> tuple[str, frozenset[int], Steps]:
    """The guard of a self-loop whose non-branching slots are ``body``: source
    that sets ``safe``, the slots whose checks cannot fail in its passes, and
    the induction registers' steps."""
    writes: dict[int, list[tuple[int, str | None, int]]] = {}  # register -> (slot, kind, arg)
    for pc in body:
        code, sub, dst, src, off, imm = form[pc]
        if code == CALL:
            writes.setdefault(0, []).append((pc, None, 0))
        elif code in _WRITES_DST:
            if code == ALU64_K and (sub == _ADD or sub == _SUB):
                step = imm - (imm >> 63 << 64)
                kind, arg = "step", step if sub == _ADD else -step
            elif code == ALU64_X and sub == _ADD and src != dst:
                kind, arg = "add", src
            elif code == LDX or code == LDX_STACK:
                kind, arg = "load", sub
            else:
                kind, arg = None, 0
            writes.setdefault(dst, []).append((pc, kind, arg))
    kinds = {reg: {kind for _, kind, _ in ws} for reg, ws in writes.items()}
    steps = {reg: [(pc, s) for pc, _, s in writes.get(reg, ())]
             for reg in range(11) if kinds.get(reg, {"step"}) == {"step"}}
    loads = {reg: ((1 << 8 * max(w for _, _, w in writes[reg])) - 1, writes[reg][0][0])
             for reg in writes if kinds[reg] == {"load"}}
    adds = {reg: ws for reg, ws in writes.items() if kinds[reg] == {"add"}}
    terms: list[str] = ["room"]
    conds: list[str] = []
    proven: set[int] = set()
    for reg, ss in steps.items():
        d = sum(s for _, s in ss)
        q = 0
        for pc, s in ss:
            q += s
            _linear_guard(f"r{reg}", q, d, (None, 0), (None, MASK64), terms, conds)
            proven.add(pc)
    for pc in body:
        code, sub, dst, src, off, imm = form[pc]
        base, window = (src, "r") if code == LDX else (dst, "w") if code == STX or code == ST else (None, "")
        if base in steps:
            ss = steps[base]
            q = sum(s for at, s in ss if at < pc) + off
            _linear_guard(f"r{base}", q, sum(s for _, s in ss), (f"{window}lo", 0), (f"{window}hi", -sub),
                          terms, conds)
            proven.add(pc)
    guard = f"safe = max(0, min({', '.join(terms)}))" if len(terms) > 1 else "safe = room"
    guard += f" if {' and '.join(conds)} else 0\n" if conds else "\n"
    bound: dict[int, str] = {}  # accumulator -> its bound over the passes so far
    while True:
        ready = [reg for reg in adds if reg not in bound
                 and all(x in loads or x in bound for _, _, x in adds[reg])]
        if not ready:
            break
        for reg in ready:
            const, parts = 0, []
            for pc, _, x in adds[reg]:
                if x in bound:
                    parts.append(f"r{x} + safe * {bound[x]}")
                elif loads[x][1] < pc:  # loaded earlier in every pass
                    const += loads[x][0]
                else:
                    parts.append(f"max(r{x}, {hex(loads[x][0])})")
                proven.add(pc)
            inc = " + ".join(parts + [hex(const)] * bool(const))
            bound[reg] = f"inc{reg}" if parts else inc  # a name for a bound known only at run time
            grows = f"({bound[reg]} := {inc})" if parts else inc
            guard += GROWS.format(reg=f"r{reg}", inc=grows, per_pass=bound[reg], mask=_M64)
    return guard, frozenset(proven), steps


_TRIPS = {0: 0, 2: 0, 3: -1, 4: 0, 5: 1}  # jne, jgt, jge, jlt, jle (CMP index) -> where x leaves, less b


def _trip(form: tuple[tuple[int, ...], ...], slots: list[int], steps: Steps) -> str | None:
    """Source for the pass in which the self-loop block ``slots`` leaves, over
    the registers on entry (``safe + 1`` for none before a wrap), or None
    unless its branch tests an induction register x, stepped by d per pass,
    by jne or an unsigned compare with a constant or a register the body never
    writes, b.  While no step wraps, pass k sees x + k * d, and ``gap`` is how
    far x has to go to leave."""
    code, sub, dst, src, _off, imm = form[slots[-1]]
    d = sum(s for _, s in steps.get(dst, ()))
    if not d or sub not in _TRIPS or (code == JCOND_X and steps.get(src) != []):
        return None
    adj, e = _TRIPS[sub], abs(d)
    if code == JCOND_K:
        gap = f"{imm + adj} - r{dst}" if d > 0 else _plus(f"r{dst}", -imm - adj)
    else:
        gap = _plus(f"r{src} - r{dst}", adj) if d > 0 else _plus(f"r{dst} - r{src}", -adj)
    if sub == 0:  # jne: x meets b in a whole number of passes, or not before a wrap
        if e == 1:
            return f"gap if (gap := {gap}) > 0 else safe + 1"
        return f"gap // {e} if (gap := {gap}) > 0 and gap % {e} == 0 else safe + 1"
    if (sub >= 4) == (d > 0):  # x moves towards the bound
        return f"max(1, {gap})" if e == 1 else f"max(1, ({gap} + {e - 1}) // {e})"
    return f"1 if {gap} >= {e} else safe + 1"


def _sinks(form: tuple[tuple[int, ...], ...], body: list[int], steps: Steps,
           streams: dict[int, int]) -> dict[int, int]:
    """The induction registers whose steps the proven passes of a counted
    self-loop body drop: each but r0 that no slot of ``body`` reads but its
    own steps and ``streams``, register -> its step per pass.  A body that
    calls a helper (which reads r1-r5) sinks none."""
    if any(form[pc][0] == CALL for pc in body):
        return {}
    stepping = {pc for ss in steps.values() for pc, _ in ss}
    read = {reg for pc in body if pc not in streams and pc not in stepping for reg in form[pc][2:4]}
    return {reg: d for reg, ss in steps.items() if reg and reg not in read and (d := sum(s for _, s in ss))}


def _reduced(form: tuple[tuple[int, ...], ...], body: list[int], streams: dict[int, int],
             dropped: set[int], proven: frozenset[int]) -> str | None:
    """The closed form of a counted self-loop's ``proven`` passes, or None:
    source that sets each register the body writes from the registers' entry
    values, when each slot of ``body`` is a stream, a dropped step or a proven
    ``add64 rA, rB`` whose rB a stream or such an add wrote earlier in the
    pass, and no register is written twice (so no slot stores or calls).
    Each stream is one tuple ``v{pc}`` of its values; each register is then
    set, in reverse body order so that what it reads has not been set yet,
    to its last value (a load) or to its entry value plus the sum of rB's
    values (an add)."""
    writer: dict[int, int] = {}  # register -> the one slot that writes it
    for pc in body:
        if pc not in dropped:
            if form[pc][2] in writer:
                return None
            writer[form[pc][2]] = pc
    for pc in writer.values():
        code, sub, dst, src, _off, _imm = form[pc]
        if pc not in streams and not (code == ALU64_X and sub == _ADD and dst != src and pc in proven
                                      and writer.get(src, pc) < pc):
            return None

    def values(reg: int) -> str:  # an iterable of reg's value after its slot, pass by pass
        pc = writer[reg]
        return f"v{pc}" if pc in streams else f"islice(accumulate({values(form[pc][3])}, initial=r{reg}), 1, None)"

    def total(reg: int) -> str:  # the sum of those values
        pc = writer[reg]
        return f"sum(v{pc})" if pc in streams else f"sum(accumulate({values(form[pc][3])}, initial=r{reg})) - r{reg}"

    decode = "".join(UNPACK_RUN.format(pc=pc, width=form[pc][1], start=_plus(f"r{form[pc][3]} - base", off))
                     for pc, off in streams.items())
    finals = [f"r{reg} = v{pc}[-1]\n" if pc in streams else f"r{reg} = r{reg} + {total(form[pc][3])}\n"
              for reg, pc in writer.items()]
    return decode + "".join(reversed(finals))


class LoopPlan(NamedTuple):
    """Every decision about one self-loop block (``loop_plans``); ``_self_loop`` only renders it."""

    slots: list[int]  # the block's slots; the last is its branch back to the first
    guard: str  # source that sets ``safe`` (``_loop_guard``); empty when it proves nothing
    proven: frozenset[int]  # the slots whose checks cannot fail in the first ``safe`` passes
    trip: str | None  # source for the pass in which a counted loop leaves (``_trip``); None if uncounted
    streams: dict[int, int]  # a counted loop's loads whose base steps by their width: slot -> first address - base
    closed: str | None  # the closed form of a counted loop's proven passes (``_reduced``), or None
    sunk: dict[int, int]  # register -> step per pass, set once where a counted loop's proven passes end
    dropped: frozenset[int]  # the steps its proven passes drop when they run one by one
    rows: dict[tuple[int, int], str]  # the stack rows held in locals: (offset, width) -> local
    spills: tuple[tuple[int, int], ...]  # the stored ones, written back on each way out
    traps: bool  # whether a slot of the body can raise _Trap (``_TRAPS``)


def loop_plans(form: tuple[tuple[int, ...], ...]) -> dict[int, LoopPlan]:
    """The plan of each self-loop block of a verified form, by its start."""
    return {start: _plan(form, slots) for start, slots in _basic_blocks(form).items()
            if form[slots[-1]][0] in (JCOND_K, JCOND_X) and form[slots[-1]][4] == start}


def _plan(form: tuple[tuple[int, ...], ...], slots: list[int]) -> LoopPlan:
    """The plan of the self-loop block ``slots``, by the rules above."""
    body = slots[:-1]
    guard, proven, steps = _loop_guard(form, body)
    trip = _trip(form, slots, steps) if proven else None
    streams, closed, sunk, dropped = {}, None, {}, frozenset()
    if trip is not None:
        per_pass = {reg: sum(s for _, s in ss) for reg, ss in steps.items()}
        streams = {pc: off + sum(s for at, s in steps[src] if at < pc)
                   for pc in body for code, sub, _dst, src, off, _imm in [form[pc]]
                   if code == LDX and per_pass.get(src) == sub}
        sunk = _sinks(form, body, steps, streams)
        if streams:
            closed = _reduced(form, body, streams, {pc for reg in sunk for pc, _ in steps[reg]}, proven)
        if closed is None:  # each load runs, and reads its base register
            sunk = _sinks(form, body, steps, {})
            dropped = frozenset(pc for reg in sunk for pc, _ in steps[reg])
    traps = any(form[pc][0] in _TRAPS for pc in body)
    rows = sorted({(form[pc][4], form[pc][1]) for pc in body if form[pc][0] in _STACK_ROWS})
    held = {} if traps else {(off, width): f"s{off}_{width}" for off, width in rows
                             if not any(o < off + width and off < o + w and (o, w) != (off, width) for o, w in rows)}
    stored = {(form[pc][4], form[pc][1]) for pc in body if form[pc][0] in (STX_STACK, ST_STACK)}
    return LoopPlan(slots, guard if proven else "", proven, trip, streams, closed, sunk, dropped, held,
                    tuple(row for row in held if row in stored), traps)


def _self_loop(form: tuple[tuple[int, ...], ...], plan: LoopPlan, taken: str) -> str:
    """A self-loop block as ``plan`` decides it: its guard, its trip if it is
    counted, its stack locals' loads, its proven and checked passes, and its
    exits, each of which writes the stored locals back."""
    proven, rows, length, body = plan.proven, plan.rows, len(plan.slots), plan.slots[:-1]
    last = "safe" if plan.trip is None else "proven"  # the last pass that runs unchecked
    fill = "".join(LOAD_STACK.format(dst=local, width=width, off=off) for (off, width), local in rows.items())
    spill = "".join(STORE_STACK.format(width=width, off=off, value=rows[off, width]) for off, width in plan.spills)
    checked = "".join(_slot_source(pc, form[pc], rows=rows) for pc in body)
    passes = PASSES.format(first=f"{last} + 1" if proven else 1, last="room", body=_indent(checked, 1),
                           taken=taken, then=_indent(ALL_TAKEN.format(length=length, spill=spill), 1))
    guard = plan.guard
    if plan.trip is not None:  # its proven passes: in closed form if it has one and they are over PLAIN_PASSES
        guard += TRIP.format(trip=plan.trip)
        sink = "".join(f"r{reg} = r{reg} + proven * {d}\n" for reg, d in plan.sunk.items())
        kept = "".join(_slot_source(pc, form[pc], proven, rows) for pc in body if pc not in plan.dropped)
        loop = f"for it in range(1, proven + 1):\n{_indent(kept or 'pass', 1)}"
        counted = loop + sink if plan.closed is None else (
            f"if proven > {PLAIN_PASSES}:\n{_indent(plan.closed + sink, 1)}else:\n{_indent(loop, 1)}")
        passes = counted + LEAVE_AT_TRIP.format(checked=_indent(passes, 1))
    elif proven:
        unchecked = "".join(_slot_source(pc, form[pc], proven, rows) for pc in body)
        passes = PASSES.format(first=1, last="safe", body=_indent(unchecked, 1), taken=taken,
                               then=_indent(passes, 1))
    if plan.traps:
        passes = TRAPPED.format(passes=_indent(passes, 1), length=length)
    room = f"room = (budget - executed) // {length}\n"
    leave = LOOP_EXIT.format(spill=spill, length=length, next=plan.slots[-1] + 1)
    return room + guard + fill + passes + leave


def _block_source(form: tuple[tuple[int, ...], ...], start: int, slots: list[int], plans: dict[int, LoopPlan]) -> str:
    """One block: the budget check, its slots, and where control goes next.

    A block that might not fit in the remaining budget raises _Handover,
    whose handler gives the live state to the stepped loop at the block's
    first slot (``pc`` is always the running block's start), so the budget
    runs out on the exact slot.  A block that jumps back to its own start
    loops in place (``_self_loop``), counting its passes instead of its steps.
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
    if start in plans:
        return _self_loop(form, plans[start], taken)
    return head + body + f"if {taken}:\n    branches += 1\n    pc = {off}\nelse:\n    pc = {last + 1}\n"


def _dispatch(form, blocks: dict[int, list[int]], plans: dict[int, LoopPlan], starts: list[int], depth: int) -> str:
    """A binary search on ``pc`` over the sorted block starts, with each
    block's source at its leaf."""
    if len(starts) == 1:
        return _indent(_block_source(form, starts[0], blocks[starts[0]], plans), depth)
    mid = len(starts) // 2
    return (
        _indent(f"if pc < {starts[mid]}:", depth)
        + _dispatch(form, blocks, plans, starts[:mid], depth + 1)
        + _indent("else:", depth)
        + _dispatch(form, blocks, plans, starts[mid:], depth + 1)
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
        prologue=_indent(PROLOGUE, 2), dispatch=_dispatch(form, blocks, loop_plans(form), sorted(blocks), 4)
    )
    return source, tuple(after)
