"""Slot encoding and decoding against hand-rolled byte oracles."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from femtoc import isa
from femtoc.isa import (
    FieldOverflow,
    Instruction,
    Program,
    continuation_slots,
    decode_instruction,
    encode_instruction,
)


def oracle_decode(raw: bytes) -> tuple:
    """Independent decoder: plain masks and int.from_bytes, no isa reuse."""
    return (
        raw[0],
        raw[1] & 0x0F,
        (raw[1] >> 4) & 0x0F,
        int.from_bytes(raw[2:4], "little", signed=True),
        int.from_bytes(raw[4:8], "little", signed=True),
    )


def test_decode_mov64_imm_42():
    ins = decode_instruction(bytes.fromhex("b70100002a000000"))
    assert ins == Instruction(opcode=0xB7, dst=1, src=0, offset=0, imm=42)


def test_decode_exit():
    ins = decode_instruction(bytes.fromhex("9500000000000000"))
    assert ins == Instruction(opcode=0x95, dst=0, src=0, offset=0, imm=0)


def test_decode_all_zero_slot():
    assert decode_instruction(bytes(8)) == Instruction(0, 0, 0, 0, 0)


def test_encode_matches_frozen_bytes():
    assert encode_instruction(Instruction(0x95)) == bytes.fromhex("9500000000000000")
    assert encode_instruction(Instruction(0xB7, dst=1, imm=42)) == bytes.fromhex(
        "b70100002a000000"
    )


def test_decode_is_total_and_matches_oracle(rng):
    for _ in range(10_000):
        raw = rng.randbytes(8)
        ins = decode_instruction(raw)
        assert (ins.opcode, ins.dst, ins.src, ins.offset, ins.imm) == oracle_decode(raw)


def test_encode_decode_round_trip(rng):
    for _ in range(10_000):
        ins = Instruction(
            opcode=rng.randrange(256),
            dst=rng.randrange(16),
            src=rng.randrange(16),
            offset=rng.randint(-(1 << 15), (1 << 15) - 1),
            imm=rng.randint(-(1 << 31), (1 << 31) - 1),
        )
        assert decode_instruction(encode_instruction(ins)) == ins


@given(
    st.integers(0, 255),
    st.integers(0, 15),
    st.integers(0, 15),
    st.integers(-(1 << 15), (1 << 15) - 1),
    st.integers(-(1 << 31), (1 << 31) - 1),
)
def test_round_trip_property(opcode, dst, src, offset, imm):
    ins = Instruction(opcode, dst, src, offset, imm)
    raw = encode_instruction(ins)
    assert decode_instruction(raw) == ins
    assert (ins.opcode, ins.dst, ins.src, ins.offset, ins.imm) == oracle_decode(raw)


@pytest.mark.parametrize(
    "bad",
    [
        Instruction(256),
        Instruction(0xB7, dst=16),
        Instruction(0xB7, src=16),
        Instruction(0xB7, offset=1 << 15),
        Instruction(0xB7, offset=-(1 << 15) - 1),
        Instruction(0xB7, imm=1 << 31),
        Instruction(0xB7, imm=-(1 << 31) - 1),
        Instruction(-1),
        Instruction(0xB7, dst=-1),
    ],
)
def test_encode_rejects_out_of_width_fields(bad):
    with pytest.raises(FieldOverflow):
        encode_instruction(bad)
    with pytest.raises(FieldOverflow):
        Program((Instruction(isa.OP_EXIT), bad))


def test_decode_requires_exactly_eight_bytes():
    with pytest.raises(ValueError):
        decode_instruction(b"\x95\x00\x00")


def test_program_bytes_round_trip(rng):
    slots = tuple(
        Instruction(rng.randrange(256), rng.randrange(11), rng.randrange(11))
        for _ in range(17)
    )
    program = Program(slots)
    assert program.byte_len == 17 * 8
    decoded = Program.from_bytes(program.to_bytes())
    assert decoded == program
    assert hash(decoded) == hash(program)
    assert decoded.slots == slots
    assert decoded != Program(slots[:-1])


def test_program_keeps_its_bytes_and_decodes_slots_on_demand(rng):
    for _ in range(200):
        data = rng.randbytes(8 * rng.randrange(40))
        program = Program.from_bytes(data)
        assert program.to_bytes() == data
        assert program.byte_len == len(data)
        expected = tuple(decode_instruction(data[i : i + 8]) for i in range(0, len(data), 8))
        assert program.slots == expected
        assert program.slots is program.slots
        assert Program(expected) == program


def test_program_is_immutable():
    program = Program.from_bytes(bytes.fromhex("9500000000000000"))
    with pytest.raises(AttributeError):
        program.slots = ()
    with pytest.raises(AttributeError):
        program._data = b""


def test_program_from_bytes_rejects_ragged_input():
    with pytest.raises(ValueError):
        Program.from_bytes(bytes(12))


def test_continuation_slot_marking():
    opcodes = bytes((0xB7, isa.OP_LDDW, 0, isa.OP_EXIT))
    assert continuation_slots(opcodes) == [False, False, True, False]


def test_lddw_continuation_is_not_double_counted():
    # A zero-opcode slot only continues the lddw directly before it.
    opcodes = bytes((isa.OP_LDDW, 0, 0, isa.OP_EXIT))
    assert continuation_slots(opcodes) == [False, True, False, False]


def test_opcode_table_flags():
    assert isa.opcode_info(0xB7).writes_dst
    assert isa.opcode_info(0x61).writes_dst  # ldxw loads into dst
    assert not isa.opcode_info(0x62).writes_dst  # stw dst is a base address
    assert not isa.opcode_info(0x15).writes_dst  # jeq dst is a comparand
    assert isa.opcode_info(0x06) is None


def test_opcode_by_name():
    assert isa.opcode_by_name("mov64", "imm") == 0xB7
    assert isa.opcode_by_name("mov64", "reg") == 0xBF
    assert isa.opcode_by_name("exit", None) == 0x95
