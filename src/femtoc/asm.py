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

Mnemonics and opcodes come from ``isa.OPCODE_INFO``, and one table,
``_OPERANDS``, gives each kind's operand syntax to both directions.

Disassembly is total: any slot that has no canonical text form (unknown
opcode, or nonzero bits in fields the mnemonic cannot express) is rendered
as a ``raw`` line, so reassembling always reproduces the input bytes.
"""

from __future__ import annotations

import re
import struct

from .isa import (
    OP_LDDW,
    OPCODE_INFO,
    Instruction,
    OpcodeInfo,
    OpKind,
    Program,
    decode_instruction,
    encode_instruction,
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

# Operand syntax of each (kind, source) of the opcode table, in text order.
# ``[dst]`` and ``[src]`` are a memory operand ``[rX+off]`` based on that
# register; ``target`` is the jump offset.
_OPERANDS: dict[tuple[OpKind, str | None], tuple[str, ...]] = {
    (OpKind.ALU64, "reg"): ("dst", "src"),
    (OpKind.ALU64, "imm"): ("dst", "imm"),
    (OpKind.ALU64, None): ("dst",),
    (OpKind.ALU32, "reg"): ("dst", "src"),
    (OpKind.ALU32, "imm"): ("dst", "imm"),
    (OpKind.ALU32, None): ("dst",),
    (OpKind.END, None): ("dst",),
    (OpKind.LDX, "reg"): ("dst", "[src]"),
    (OpKind.ST, "imm"): ("[dst]", "imm"),
    (OpKind.STX, "reg"): ("[dst]", "src"),
    (OpKind.JA, None): ("target",),
    (OpKind.JCOND, "reg"): ("dst", "src", "target"),
    (OpKind.JCOND, "imm"): ("dst", "imm", "target"),
    (OpKind.CALL, "imm"): ("imm",),
    (OpKind.EXIT, None): (),
}

# Memory operands are parsed first and a jump target right after the
# destination, so a line with several faulty operands reports one fixed fault.
_PARSE_RANK = {"[dst]": 0, "[src]": 0, "dst": 1, "target": 2}

# A byte-order conversion spells its width, its immediate, in the mnemonic.
_END_WIDTHS = (16, 32, 64)


def _mnemonics() -> dict[str, tuple[dict[str | None, OpcodeInfo], int]]:
    """Mnemonic -> (its opcode table entries by operand source, the immediate it spells)."""
    table: dict[str, tuple[dict[str | None, OpcodeInfo], int]] = {}
    for info in OPCODE_INFO.values():
        for imm in _END_WIDTHS if info.kind is OpKind.END else (0,):
            table.setdefault(f"{info.name}{imm or ''}", ({}, imm))[0][info.source] = info
    return table


_MNEMONICS = _mnemonics()


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
        if mnemonic not in _MNEMONICS and mnemonic != "raw":
            raise UnknownMnemonic(lineno, f"unknown mnemonic {mnemonic!r}")
        items.append((lineno, slot, mnemonic, rest.strip()))
        slot += 2 if mnemonic == "lddw" else 1

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
        if mnemonic == "lddw":
            dst_tok, imm_tok = _split_operands(rest, lineno, 2)
            dst = _parse_reg(dst_tok, lineno)
            value = _parse_int(imm_tok, lineno)
            if not -(1 << 63) <= value < (1 << 64):
                raise AsmError(lineno, f"wide immediate {imm_tok} does not fit 64 bits")
            lo, hi = struct.unpack("<ii", (value & (1 << 64) - 1).to_bytes(8, "little"))
            out.append(Instruction(OP_LDDW, dst, imm=lo))
            out.append(Instruction(0, imm=hi))
        elif mnemonic == "raw":
            (hex_tok,) = _split_operands(rest, lineno, 1)
            try:
                blob = bytes.fromhex(hex_tok)
            except ValueError:
                raise AsmError(lineno, f"raw expects 16 hex digits, got {hex_tok!r}") from None
            if len(blob) != 8:
                raise AsmError(lineno, f"raw expects exactly 8 bytes, got {len(blob)}")
            out.append(decode_instruction(blob))
        else:
            forms, imm = _MNEMONICS[mnemonic]
            info = next(iter(forms.values()))  # both forms take as many operands
            tokens = _split_operands(rest, lineno, len(_OPERANDS[info.kind, info.source]))
            if len(forms) > 1:  # a register or an immediate second operand picks the form
                info = forms["reg" if _REG_RE.match(tokens[1]) else "imm"]
            fields = {"imm": imm}
            syntax = _OPERANDS[info.kind, info.source]
            for operand, tok in sorted(zip(syntax, tokens), key=lambda pair: _PARSE_RANK.get(pair[0], 3)):
                if operand == "target":
                    fields["offset"] = resolve_target(tok, lineno, at_slot)
                elif operand == "imm":
                    fields["imm"] = _parse_imm32(tok, lineno)
                elif operand[0] == "[":
                    fields[operand[1:-1]], fields["offset"] = _parse_mem(tok, lineno)
                else:
                    fields[operand] = _parse_reg(tok, lineno)
            out.append(Instruction(info.opcode, **fields))
    return Program(tuple(out))


def _render(ins: Instruction) -> str | None:
    """Canonical text for one slot, or None if it has no exact rendering."""
    info = opcode_info(ins.opcode)
    if info is None or (info.kind, info.source) not in _OPERANDS:
        return None
    name = info.name
    hidden = {"dst": ins.dst, "src": ins.src, "offset": ins.offset, "imm": ins.imm}
    if info.kind is OpKind.END:
        if ins.imm not in _END_WIDTHS:
            return None
        name += str(hidden.pop("imm"))
    words = []
    for operand in _OPERANDS[info.kind, info.source]:
        if operand == "target":
            words.append(f"{hidden.pop('offset'):+d}")
        elif operand == "imm":
            imm = hidden.pop("imm")
            words.append(f"{imm:#x}" if info.kind is OpKind.CALL and imm >= 0 else str(imm))
        elif operand[0] == "[":
            words.append(f"[r{hidden.pop(operand[1:-1])}{hidden.pop('offset'):+d}]")
        else:
            words.append(f"r{hidden.pop(operand)}")
    if any(hidden.values()):  # a nonzero field the syntax does not show
        return None
    return f"{name} {', '.join(words)}" if words else name


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
