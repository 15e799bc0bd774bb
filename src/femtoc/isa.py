"""Instruction set model: 8-byte slots, binary codec, and the opcode taxonomy.

Every instruction occupies one 64-bit slot laid out little-endian as

    byte 0     opcode
    byte 1     destination register (low nibble), source register (high nibble)
    bytes 2-3  signed 16-bit offset
    bytes 4-7  signed 32-bit immediate

The only multi-slot instruction is the wide immediate load (``lddw``), whose
second slot carries the upper 32 bits of the immediate and must have a zero
opcode.

A ``Program`` is its encoded bytes.  Decoding a payload checks its length and
keeps the bytes; the ``Instruction`` objects of its slots are built only when
something asks for them (the disassembler, an error listing, a test).
Building a ``Program`` from ``Instruction``s encodes them at once, so a field
that does not fit its width raises ``FieldOverflow`` there.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable

SLOT_SIZE = 8

_SLOT = struct.Struct("<BBhi")

# Instruction class field (opcode & 0x07).
CLS_LDX = 0x01
CLS_ST = 0x02
CLS_STX = 0x03
CLS_ALU32 = 0x04
CLS_JMP = 0x05
CLS_ALU64 = 0x07

# Operand source bit for ALU and conditional jumps.
SRC_K = 0x00  # immediate
SRC_X = 0x08  # register

# Memory access width field (opcode & 0x18).
SIZE_W = 0x00
SIZE_H = 0x08
SIZE_B = 0x10
SIZE_DW = 0x18

# Memory mode field (opcode & 0xe0).
MODE_MEM = 0x60

OP_LDDW = 0x18
OP_JA = 0x05
OP_CALL = 0x85
OP_EXIT = 0x95


class FieldOverflow(ValueError):
    """An instruction field does not fit its encoded width."""


@dataclass(frozen=True)
class Instruction:
    opcode: int
    dst: int = 0
    src: int = 0
    offset: int = 0
    imm: int = 0


def encode_instruction(ins: Instruction) -> bytes:
    """Pack one instruction into its 8-byte slot."""
    if not 0 <= ins.opcode <= 0xFF:
        raise FieldOverflow(f"opcode {ins.opcode:#x} out of range")
    if not 0 <= ins.dst <= 0xF:
        raise FieldOverflow(f"dst register field {ins.dst} out of range")
    if not 0 <= ins.src <= 0xF:
        raise FieldOverflow(f"src register field {ins.src} out of range")
    if not -0x8000 <= ins.offset <= 0x7FFF:
        raise FieldOverflow(f"offset {ins.offset} out of range")
    if not -0x8000_0000 <= ins.imm <= 0x7FFF_FFFF:
        raise FieldOverflow(f"immediate {ins.imm} out of range")
    return _SLOT.pack(ins.opcode, (ins.src << 4) | ins.dst, ins.offset, ins.imm)


def decode_instruction(slot: bytes) -> Instruction:
    """Unpack one 8-byte slot. Total: any bit pattern decodes."""
    if len(slot) != SLOT_SIZE:
        raise ValueError(f"slot must be {SLOT_SIZE} bytes, got {len(slot)}")
    opcode, regs, offset, imm = _SLOT.unpack(slot)
    return Instruction(opcode, regs & 0x0F, regs >> 4, offset, imm)


@dataclass(frozen=True, init=False)
class Program:
    """An encoded program: ``SLOT_SIZE`` bytes per instruction slot.

    The bytes are the program.  ``Program.from_bytes`` keeps them as given;
    ``Program(slots)`` encodes the instructions once and raises
    ``FieldOverflow`` if a field does not fit its width.  ``slots`` decodes
    to ``Instruction``s on first use and keeps the result; the verifier
    reads the bytes and never asks for it.  Programs are immutable, and
    equality and hashing follow the bytes.
    """

    _data: bytes
    _slots: tuple[Instruction, ...] | None = field(default=None, compare=False, repr=False)

    def __init__(self, slots: Iterable[Instruction]):
        slots = tuple(slots)
        object.__setattr__(self, "_data", b"".join(map(encode_instruction, slots)))
        object.__setattr__(self, "_slots", slots)

    @classmethod
    def from_bytes(cls, data: bytes) -> "Program":
        if len(data) % SLOT_SIZE != 0:
            raise ValueError(f"program length {len(data)} is not a multiple of {SLOT_SIZE}")
        program = cls.__new__(cls)
        object.__setattr__(program, "_data", bytes(data))
        object.__setattr__(program, "_slots", None)
        return program

    @property
    def slots(self) -> tuple[Instruction, ...]:
        if self._slots is None:
            decoded = tuple(
                Instruction(opcode, regs & 0x0F, regs >> 4, offset, imm)
                for opcode, regs, offset, imm in _SLOT.iter_unpack(self._data)
            )
            object.__setattr__(self, "_slots", decoded)
        return self._slots

    @property
    def byte_len(self) -> int:
        return len(self._data)

    def to_bytes(self) -> bytes:
        return self._data


class OpKind(Enum):
    ALU64 = "alu64"
    ALU32 = "alu32"
    END = "end"
    LDDW = "lddw"
    LDX = "ldx"
    ST = "st"
    STX = "stx"
    JA = "ja"
    JCOND = "jcond"
    CALL = "call"
    EXIT = "exit"


@dataclass(frozen=True)
class OpcodeInfo:
    opcode: int
    kind: OpKind
    name: str
    source: str | None = None  # "imm" | "reg" | None
    width: int | None = None  # memory access width in bytes
    alu_op: str | None = None

    @property
    def writes_dst(self) -> bool:
        return self.kind in (OpKind.ALU64, OpKind.ALU32, OpKind.END, OpKind.LDX, OpKind.LDDW)


_ALU_BINOPS = (
    ("add", 0x00),
    ("sub", 0x10),
    ("mul", 0x20),
    ("div", 0x30),
    ("or", 0x40),
    ("and", 0x50),
    ("lsh", 0x60),
    ("rsh", 0x70),
    ("mod", 0x90),
    ("xor", 0xA0),
    ("mov", 0xB0),
    ("arsh", 0xC0),
)
_ALU_NEG = 0x80
_ALU_END = 0xD0

_JMP_CONDS = (
    ("jeq", 0x10),
    ("jgt", 0x20),
    ("jge", 0x30),
    ("jset", 0x40),
    ("jne", 0x50),
    ("jsgt", 0x60),
    ("jsge", 0x70),
    ("jlt", 0xA0),
    ("jle", 0xB0),
    ("jslt", 0xC0),
    ("jsle", 0xD0),
)

_WIDTHS = ((SIZE_W, 4, "w"), (SIZE_H, 2, "h"), (SIZE_B, 1, "b"), (SIZE_DW, 8, "dw"))


def _build_table() -> dict[int, OpcodeInfo]:
    table: dict[int, OpcodeInfo] = {}

    def put(info: OpcodeInfo) -> None:
        assert info.opcode not in table, f"duplicate opcode {info.opcode:#x}"
        table[info.opcode] = info

    for cls, kind, suffix in ((CLS_ALU64, OpKind.ALU64, "64"), (CLS_ALU32, OpKind.ALU32, "32")):
        for name, code in _ALU_BINOPS:
            put(OpcodeInfo(cls | code | SRC_K, kind, name + suffix, "imm", alu_op=name))
            put(OpcodeInfo(cls | code | SRC_X, kind, name + suffix, "reg", alu_op=name))
        put(OpcodeInfo(cls | _ALU_NEG | SRC_K, kind, "neg" + suffix, None, alu_op="neg"))
    # Byte-order conversions live in the 32-bit ALU class; the source bit
    # picks the target order and the immediate picks the width.
    put(OpcodeInfo(CLS_ALU32 | _ALU_END | SRC_K, OpKind.END, "le", None, alu_op="le"))
    put(OpcodeInfo(CLS_ALU32 | _ALU_END | SRC_X, OpKind.END, "be", None, alu_op="be"))

    put(OpcodeInfo(OP_LDDW, OpKind.LDDW, "lddw", "imm", width=8))
    for size_bits, width, wname in _WIDTHS:
        put(OpcodeInfo(CLS_LDX | MODE_MEM | size_bits, OpKind.LDX, "ldx" + wname, "reg", width))
        put(OpcodeInfo(CLS_ST | MODE_MEM | size_bits, OpKind.ST, "st" + wname, "imm", width))
        put(OpcodeInfo(CLS_STX | MODE_MEM | size_bits, OpKind.STX, "stx" + wname, "reg", width))

    put(OpcodeInfo(OP_JA, OpKind.JA, "ja", None))
    for name, code in _JMP_CONDS:
        put(OpcodeInfo(CLS_JMP | code | SRC_K, OpKind.JCOND, name, "imm"))
        put(OpcodeInfo(CLS_JMP | code | SRC_X, OpKind.JCOND, name, "reg"))
    put(OpcodeInfo(OP_CALL, OpKind.CALL, "call", "imm"))
    put(OpcodeInfo(OP_EXIT, OpKind.EXIT, "exit", None))
    return table


OPCODE_INFO: dict[int, OpcodeInfo] = _build_table()


def opcode_info(opcode: int) -> OpcodeInfo | None:
    """Look up the taxonomy entry for an opcode; None if unsupported."""
    return OPCODE_INFO.get(opcode)


def opcode_by_name(name: str, source: str | None = None) -> int:
    """Reverse lookup used by the assembler; raises KeyError if absent."""
    return _BY_NAME[(name, source)]


_BY_NAME: dict[tuple[str, str | None], int] = {
    (info.name, info.source): op for op, info in OPCODE_INFO.items()
}


def continuation_slots(opcodes: bytes) -> list[bool]:
    """Mark slots that are the second half of a wide load, given one opcode
    byte per slot (``program.to_bytes()[::SLOT_SIZE]``).

    The scan is sequential: a slot already consumed as a continuation cannot
    itself start a wide load.
    """
    marks = [False] * len(opcodes)
    i = opcodes.find(OP_LDDW)
    while 0 <= i < len(opcodes) - 1:
        marks[i + 1] = True
        i = opcodes.find(OP_LDDW, i + 2)
    return marks
