"""Two-pass assembler and total disassembler for the instruction set.

Grammar (one instruction per line, ``;`` starts a comment):

    label:                      defines a jump target at the next slot
    add64 rD, rS | add64 rD, IMM    and the other 64/32-bit ALU ops
    neg64 rD / neg32 rD
    le16/le32/le64 rD, be16/be32/be64 rD
    lddw rD, IMM64              occupies two slots
    ldxdw rD, [rS+OFF]          and the b/h/w widths
    stxdw [rD+OFF], rS          store register
    stdw [rD+OFF], IMM          store immediate
    ja TARGET
    jeq rD, rS|IMM, TARGET      and the other conditional jumps
    call IMM
    exit
    raw HEX16                   verbatim 8-byte slot

Registers are written ``r0``..``r15`` (the verifier, not the assembler,
rejects fields above ``r10``). A TARGET is either a label or an explicit
slot offset such as ``+3`` or ``-1``; a label resolves to the slot distance
minus one. Immediates accept decimal or ``0x`` hex.

Disassembly is total: any slot that has no canonical text form (unknown
opcode, or nonzero bits in fields the mnemonic cannot express) is rendered
as a ``raw`` line, so reassembling always reproduces the input bytes.
"""

from __future__ import annotations

import re

from .isa import (
    OP_LDDW,
    OpKind,
    Instruction,
    Program,
    decode_instruction,
    encode_instruction,
    opcode_by_name,
    opcode_info,
)


class AsmError(ValueError):
    """Assembly failure, carrying the 1-based source line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


class UnknownMnemonic(AsmError):
    pass


class UndefinedLabel(AsmError):
    pass


_LABEL_RE = re.compile(r"^([A-Za-z_.][\w.]*)\s*:\s*(.*)$")
_REG_RE = re.compile(r"^r(\d+)$")
_MEM_RE = re.compile(r"^\[\s*r(\d+)\s*(?:([+-])\s*(\w+))?\s*\]$")

_ALU_NAMES = {f"{op}{w}" for op, _ in (
    ("add", 0), ("sub", 0), ("mul", 0), ("div", 0), ("or", 0), ("and", 0),
    ("lsh", 0), ("rsh", 0), ("mod", 0), ("xor", 0), ("mov", 0), ("arsh", 0),
) for w in ("32", "64")}
_NEG_NAMES = {"neg32", "neg64"}
_END_NAMES = {f"{o}{w}" for o in ("le", "be") for w in (16, 32, 64)}
_LDX_NAMES = {"ldxb", "ldxh", "ldxw", "ldxdw"}
_ST_NAMES = {"stb", "sth", "stw", "stdw"}
_STX_NAMES = {"stxb", "stxh", "stxw", "stxdw"}
_JCOND_NAMES = {
    "jeq", "jgt", "jge", "jset", "jne", "jsgt", "jsge", "jlt", "jle", "jslt", "jsle",
}

_KNOWN = (
    _ALU_NAMES | _NEG_NAMES | _END_NAMES | _LDX_NAMES | _ST_NAMES | _STX_NAMES
    | _JCOND_NAMES | {"lddw", "ja", "call", "exit", "raw"}
)


def _parse_reg(tok: str, line: int) -> int:
    m = _REG_RE.match(tok)
    if not m or int(m.group(1)) > 15:
        raise AsmError(line, f"expected register r0..r15, got {tok!r}")
    return int(m.group(1))


def _parse_int(tok: str, line: int) -> int:
    try:
        return int(tok, 0)
    except ValueError:
        raise AsmError(line, f"expected integer, got {tok!r}") from None


def _parse_imm32(tok: str, line: int) -> int:
    value = _parse_int(tok, line)
    if value >= 1 << 31:
        # Allow u32 spellings like 0xffffffff for the 32-bit ops.
        if value < 1 << 32:
            value -= 1 << 32
        else:
            raise AsmError(line, f"immediate {tok} does not fit 32 bits (use lddw)")
    if value < -(1 << 31):
        raise AsmError(line, f"immediate {tok} does not fit 32 bits (use lddw)")
    return value


def _parse_mem(tok: str, line: int) -> tuple[int, int]:
    m = _MEM_RE.match(tok)
    if not m:
        raise AsmError(line, f"expected memory operand like [r1+8], got {tok!r}")
    reg = int(m.group(1))
    if reg > 15:
        raise AsmError(line, f"expected register r0..r15 in {tok!r}")
    off = 0
    if m.group(2):
        off = _parse_int(m.group(3), line)
        if m.group(2) == "-":
            off = -off
    if not -0x8000 <= off <= 0x7FFF:
        raise AsmError(line, f"offset {off} does not fit 16 bits")
    return reg, off


def _split_operands(rest: str, line: int, expect: int) -> list[str]:
    parts = [p.strip() for p in rest.split(",")] if rest.strip() else []
    if len(parts) != expect or any(not p for p in parts):
        raise AsmError(line, f"expected {expect} operand(s), got {rest.strip()!r}")
    return parts


def _slot_cost(mnemonic: str) -> int:
    return 2 if mnemonic == "lddw" else 1


def assemble(text: str) -> Program:
    """Assemble source text into a Program; raises AsmError with line info."""
    # Pass 1: strip comments, collect labels and instruction positions.
    items: list[tuple[int, int, str, str]] = []  # (line, slot, mnemonic, rest)
    labels: dict[str, int] = {}
    slot = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split(";", 1)[0].strip()
        while True:
            m = _LABEL_RE.match(line)
            if not m or _REG_RE.match(m.group(1)):
                break
            name = m.group(1)
            if name in labels:
                raise AsmError(lineno, f"duplicate label {name!r}")
            labels[name] = slot
            line = m.group(2).strip()
        if not line:
            continue
        split = line.split(None, 1)
        mnemonic, rest = split[0].lower(), (split[1] if len(split) > 1 else "")
        if mnemonic not in _KNOWN:
            raise UnknownMnemonic(lineno, f"unknown mnemonic {mnemonic!r}")
        items.append((lineno, slot, mnemonic, rest.strip()))
        slot += _slot_cost(mnemonic)

    def resolve_target(tok: str, line: int, at_slot: int) -> int:
        if re.fullmatch(r"[+-]\d+", tok):
            off = int(tok)
        else:
            name = tok[1:] if tok.startswith("+") else tok
            if name not in labels:
                raise UndefinedLabel(line, f"undefined label {name!r}")
            off = labels[name] - (at_slot + 1)
        if not -0x8000 <= off <= 0x7FFF:
            raise AsmError(line, f"jump offset {off} does not fit 16 bits")
        return off

    # Pass 2: emit slots.
    out: list[Instruction] = []
    for lineno, at_slot, mnemonic, rest in items:
        if mnemonic in _ALU_NAMES:
            dst_tok, src_tok = _split_operands(rest, lineno, 2)
            dst = _parse_reg(dst_tok, lineno)
            if _REG_RE.match(src_tok):
                op = opcode_by_name(mnemonic, "reg")
                out.append(Instruction(op, dst, _parse_reg(src_tok, lineno)))
            else:
                op = opcode_by_name(mnemonic, "imm")
                out.append(Instruction(op, dst, imm=_parse_imm32(src_tok, lineno)))
        elif mnemonic in _NEG_NAMES:
            (dst_tok,) = _split_operands(rest, lineno, 1)
            out.append(Instruction(opcode_by_name(mnemonic), _parse_reg(dst_tok, lineno)))
        elif mnemonic in _END_NAMES:
            (dst_tok,) = _split_operands(rest, lineno, 1)
            op = opcode_by_name(mnemonic[:2])
            width = int(mnemonic[2:])
            out.append(Instruction(op, _parse_reg(dst_tok, lineno), imm=width))
        elif mnemonic == "lddw":
            dst_tok, imm_tok = _split_operands(rest, lineno, 2)
            dst = _parse_reg(dst_tok, lineno)
            value = _parse_int(imm_tok, lineno)
            if not -(1 << 63) <= value < (1 << 64):
                raise AsmError(lineno, f"wide immediate {imm_tok} does not fit 64 bits")
            value &= (1 << 64) - 1
            lo, hi = value & 0xFFFF_FFFF, value >> 32
            out.append(Instruction(OP_LDDW, dst, imm=_as_s32(lo)))
            out.append(Instruction(0, imm=_as_s32(hi)))
        elif mnemonic in _LDX_NAMES:
            dst_tok, mem_tok = _split_operands(rest, lineno, 2)
            base, off = _parse_mem(mem_tok, lineno)
            op = opcode_by_name(mnemonic, "reg")
            out.append(Instruction(op, _parse_reg(dst_tok, lineno), base, off))
        elif mnemonic in _STX_NAMES:
            mem_tok, src_tok = _split_operands(rest, lineno, 2)
            base, off = _parse_mem(mem_tok, lineno)
            op = opcode_by_name(mnemonic, "reg")
            out.append(Instruction(op, base, _parse_reg(src_tok, lineno), off))
        elif mnemonic in _ST_NAMES:
            mem_tok, imm_tok = _split_operands(rest, lineno, 2)
            base, off = _parse_mem(mem_tok, lineno)
            op = opcode_by_name(mnemonic, "imm")
            out.append(Instruction(op, base, 0, off, _parse_imm32(imm_tok, lineno)))
        elif mnemonic == "ja":
            (target,) = _split_operands(rest, lineno, 1)
            out.append(Instruction(opcode_by_name("ja"), offset=resolve_target(target, lineno, at_slot)))
        elif mnemonic in _JCOND_NAMES:
            dst_tok, other_tok, target = _split_operands(rest, lineno, 3)
            dst = _parse_reg(dst_tok, lineno)
            off = resolve_target(target, lineno, at_slot)
            if _REG_RE.match(other_tok):
                op = opcode_by_name(mnemonic, "reg")
                out.append(Instruction(op, dst, _parse_reg(other_tok, lineno), off))
            else:
                op = opcode_by_name(mnemonic, "imm")
                out.append(Instruction(op, dst, 0, off, _parse_imm32(other_tok, lineno)))
        elif mnemonic == "call":
            (imm_tok,) = _split_operands(rest, lineno, 1)
            out.append(Instruction(opcode_by_name("call", "imm"), imm=_parse_imm32(imm_tok, lineno)))
        elif mnemonic == "exit":
            if rest:
                raise AsmError(lineno, "exit takes no operands")
            out.append(Instruction(opcode_by_name("exit")))
        elif mnemonic == "raw":
            (hex_tok,) = _split_operands(rest, lineno, 1)
            try:
                blob = bytes.fromhex(hex_tok)
            except ValueError:
                raise AsmError(lineno, f"raw expects 16 hex digits, got {hex_tok!r}") from None
            if len(blob) != 8:
                raise AsmError(lineno, f"raw expects exactly 8 bytes, got {len(blob)}")
            out.append(decode_instruction(blob))
    return Program(tuple(out))


def _as_s32(u32: int) -> int:
    return u32 - (1 << 32) if u32 >= 1 << 31 else u32


def _render(ins: Instruction) -> str | None:
    """Canonical text for one slot, or None if it has no exact rendering."""
    info = opcode_info(ins.opcode)
    if info is None:
        return None
    k = info.kind
    if k in (OpKind.ALU64, OpKind.ALU32):
        if info.alu_op == "neg":
            if ins.src or ins.offset or ins.imm:
                return None
            return f"{info.name} r{ins.dst}"
        if info.source == "reg":
            if ins.offset or ins.imm:
                return None
            return f"{info.name} r{ins.dst}, r{ins.src}"
        if ins.src or ins.offset:
            return None
        return f"{info.name} r{ins.dst}, {ins.imm}"
    if k is OpKind.END:
        if ins.src or ins.offset or ins.imm not in (16, 32, 64):
            return None
        return f"{info.name}{ins.imm} r{ins.dst}"
    if k is OpKind.LDX:
        if ins.imm:
            return None
        return f"{info.name} r{ins.dst}, [r{ins.src}{ins.offset:+d}]"
    if k is OpKind.ST:
        if ins.src:
            return None
        return f"{info.name} [r{ins.dst}{ins.offset:+d}], {ins.imm}"
    if k is OpKind.STX:
        if ins.imm:
            return None
        return f"{info.name} [r{ins.dst}{ins.offset:+d}], r{ins.src}"
    if k is OpKind.JA:
        if ins.dst or ins.src or ins.imm:
            return None
        return f"ja {ins.offset:+d}"
    if k is OpKind.JCOND:
        if info.source == "reg":
            if ins.imm:
                return None
            return f"{info.name} r{ins.dst}, r{ins.src}, {ins.offset:+d}"
        if ins.src:
            return None
        return f"{info.name} r{ins.dst}, {ins.imm}, {ins.offset:+d}"
    if k is OpKind.CALL:
        if ins.dst or ins.src or ins.offset:
            return None
        return f"call {ins.imm:#x}" if ins.imm >= 0 else f"call {ins.imm}"
    if k is OpKind.EXIT:
        if ins.dst or ins.src or ins.offset or ins.imm:
            return None
        return "exit"
    return None


def disassemble(program: Program) -> str:
    """Render a program as text that reassembles to identical bytes."""
    lines: list[str] = []
    slots = program.slots
    i = 0
    while i < len(slots):
        ins = slots[i]
        if ins.opcode == OP_LDDW and i + 1 < len(slots):
            nxt = slots[i + 1]
            if (
                ins.src == 0
                and ins.offset == 0
                and nxt.opcode == 0
                and nxt.dst == 0
                and nxt.src == 0
                and nxt.offset == 0
            ):
                value = (ins.imm & 0xFFFF_FFFF) | ((nxt.imm & 0xFFFF_FFFF) << 32)
                lines.append(f"lddw r{ins.dst}, {value:#x}")
                i += 2
                continue
        text = _render(ins)
        lines.append(text if text is not None else f"raw {encode_instruction(ins).hex()}")
        i += 1
    return "\n".join(lines) + ("\n" if lines else "")
