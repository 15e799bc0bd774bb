"""Assembler and disassembler: grammar, label resolution, round trips."""

import hashlib
import itertools
import random
import struct

import pytest

from femtoc import isa
from femtoc.asm import AsmError, UndefinedLabel, UnknownMnemonic, assemble, disassemble
from femtoc.fixtures import FIXTURE_SOURCES, fixture_program
from genprog import random_accepted_program


def test_exit_only():
    program = assemble("exit")
    assert program.to_bytes() == bytes.fromhex("9500000000000000")


def test_mov_imm_frozen_bytes():
    program = assemble("mov64 r1, 42\nexit")
    assert program.to_bytes()[:8] == bytes.fromhex("b70100002a000000")


def test_minimal_two_slot_program():
    program = assemble("mov64 r0, 5\nexit")
    assert len(program.slots) == 2


def test_comments_blank_lines_and_tabs():
    program = assemble("; header\n\n\tmov64\tr0, 1 ; trailing\n  exit\n")
    assert len(program.slots) == 2


def test_lddw_spans_two_slots():
    program = assemble("lddw r1, 0x1122334455667788\nexit")
    assert len(program.slots) == 3
    lo, hi = program.slots[0], program.slots[1]
    assert lo.opcode == isa.OP_LDDW
    assert hi.opcode == 0
    assert (lo.imm & 0xFFFFFFFF) | ((hi.imm & 0xFFFFFFFF) << 32) == 0x1122334455667788


def test_label_jump_offset_is_slot_distance_minus_one():
    program = assemble(
        """
        ja done
        mov64 r0, 1
done:   exit
"""
    )
    assert program.slots[0].opcode == isa.OP_JA
    assert program.slots[0].offset == 1  # two slots ahead


def test_label_before_lddw_counts_both_slots():
    program = assemble(
        """
        ja target
        lddw r1, 0xdeadbeefcafebabe
target: exit
"""
    )
    assert program.slots[0].offset == 2


def test_backward_label():
    program = assemble(
        """
top:    add64 r0, 1
        jlt r0, 10, top
        exit
"""
    )
    assert program.slots[1].offset == -2


def test_numeric_jump_targets():
    program = assemble("ja +1\nmov64 r0, 1\nexit")
    assert program.slots[0].offset == 1


def test_memory_operand_forms():
    program = assemble(
        """
        ldxdw r2, [r10-8]
        stxw [r1+4], r3
        stb [r10-1], 7
        exit
"""
    )
    assert program.slots[0].offset == -8
    assert program.slots[1].offset == 4
    assert program.slots[2].imm == 7


def test_call_and_negative_imm():
    program = assemble("call 0x10\nmov64 r0, -1\nexit")
    assert program.slots[0].opcode == isa.OP_CALL
    assert program.slots[0].imm == 0x10
    assert program.slots[1].imm == -1
    # A u32 spelling of a 32-bit immediate is its two's complement.
    program = assemble("mov32 r1, 0xffffffff\nmov64 r2, 0x80000000\nmov32 r0, 0x7fffffff\nexit")
    assert [slot.imm for slot in program.slots[:3]] == [-1, -(1 << 31), (1 << 31) - 1]


def test_unknown_mnemonic_reports_line_number():
    with pytest.raises(UnknownMnemonic) as err:
        assemble("mov64 r0, 1\nfrobnicate r1\nexit")
    assert "2" in str(err.value)


def test_undefined_label_reports_name():
    with pytest.raises(UndefinedLabel) as err:
        assemble("ja nowhere\nexit")
    assert "nowhere" in str(err.value)


def test_bad_register_is_an_error():
    with pytest.raises(AsmError):
        assemble("mov64 r16, 1\nexit")


def test_raw_directive_round_trips():
    program = assemble("raw 0600000000000000\nexit")
    assert program.slots[0].opcode == 0x06
    text = disassemble(program)
    assert "raw" in text
    assert assemble(text).to_bytes() == program.to_bytes()


def test_disassemble_exit_only():
    assert disassemble(assemble("exit")).strip() == "exit"


@pytest.mark.parametrize("name", sorted(FIXTURE_SOURCES))
def test_fixture_sources_round_trip(name):
    program = fixture_program(name)
    assert assemble(disassemble(program)).to_bytes() == program.to_bytes()


def test_fletcher32_listing_has_four_branches_and_one_exit():
    program = fixture_program("fletcher32_360")
    kinds = [isa.opcode_info(ins.opcode).kind for ins in program.slots if isa.opcode_info(ins.opcode)]
    branches = sum(1 for k in kinds if k in (isa.OpKind.JA, isa.OpKind.JCOND))
    exits = sum(1 for k in kinds if k is isa.OpKind.EXIT)
    assert branches == 4
    assert exits == 1


def test_random_programs_round_trip(rng):
    for _ in range(300):
        program = random_accepted_program(rng)
        listing = disassemble(program)
        assert assemble(listing).to_bytes() == program.to_bytes()


def _field(rng, *choices):
    """Zero half the time, else one of ``choices``."""
    return 0 if rng.random() < 0.5 else rng.choice(choices)


def _payload_corpus():
    """5600 seeded 1-8-slot payloads. Each of the table's opcodes and the
    unknown 0x00, 0x06 and 0xff opens at least 50 of them; fields are zero
    half the time, so both canonical and ``raw`` lines occur, and a wide load
    is followed by a good, a mis-continued or no second slot."""
    rng = random.Random(0xA5E)
    opcodes = sorted(isa.OPCODE_INFO) + [0x00, 0x06, 0xFF]
    corpus = []
    for n in range(5600):
        slots = []
        for i in range(rng.randint(1, 8)):
            op = opcodes[n % len(opcodes)] if i == 0 else rng.choice(opcodes)
            regs = _field(rng, rng.randrange(16), rng.randrange(16) << 4 | rng.randrange(16), rng.randrange(256))
            offset = _field(rng, rng.randint(-16, 16), rng.randint(-0x8000, 0x7FFF))
            imm = _field(rng, 8, 16, 32, 64, rng.randint(-100, 100), rng.randint(-(1 << 31), (1 << 31) - 1))
            slots.append(struct.pack("<BBhi", op, regs, offset, imm))
            if op == isa.OP_LDDW:
                kind = rng.random()
                if kind < 0.15:
                    break  # truncated: the wide load is the last slot
                high = rng.randint(-(1 << 31), (1 << 31) - 1)
                if kind < 0.7:
                    slots.append(struct.pack("<BBhi", 0, 0, 0, high))
                else:  # mis-continued: its opcode, registers or offset is nonzero
                    second = [0, 0, 0]
                    second[rng.randrange(3)] = rng.randint(1, 127)
                    slots.append(struct.pack("<BBhi", *second, high))
        corpus.append(isa.Program.from_bytes(b"".join(slots)))
    return corpus


# sha256 of every listing of the corpus. It pins the disassembler's text, so
# any change to that text fails here until the digest is deliberately re-recorded.
_CORPUS_LISTINGS_SHA256 = "a7e0ff71e67cb5f4174351284560ac7d4b2561928adc8290b9271d932d4ebfce"


def test_disassembly_of_a_seeded_corpus_is_pinned_and_reassembles():
    digest = hashlib.sha256()
    raw_lines = canonical_lines = 0
    for program in _payload_corpus():
        listing = disassemble(program)
        assert assemble(listing).to_bytes() == program.to_bytes(), listing
        digest.update(listing.encode() + b"\0")
        for line in listing.splitlines():
            if line.startswith("raw "):
                raw_lines += 1
            else:
                canonical_lines += 1
    assert raw_lines > 2000 and canonical_lines > 2000
    assert digest.hexdigest() == _CORPUS_LISTINGS_SHA256


def _text_form(opcode):
    """The first listing, over zero and nonzero choices of each field, that
    renders ``opcode`` as a mnemonic rather than a ``raw`` line."""
    tail = [isa.Instruction(0)] if opcode == isa.OP_LDDW else []
    for dst, src, offset, imm in itertools.product((0, 1), (0, 2), (0, 3), (0, 16)):
        program = isa.Program([isa.Instruction(opcode, dst, src, offset, imm), *tail])
        listing = disassemble(program)
        if not listing.startswith("raw "):
            assert len(listing.splitlines()) == 1 and assemble(listing) == program
            return listing
    return None


def test_every_table_opcode_has_a_text_form():
    """Set the fields its syntax shows and clear the others, and each opcode
    of the ISA table renders as one line that reassembles to it."""
    assert [f"{op:#04x}" for op in sorted(isa.OPCODE_INFO) if _text_form(op) is None] == []


_FAR_JUMP = "ja far\n" + "exit\n" * 32768 + "far: exit\n"

# Malformed sources and the exact error each raises: (class, line, message).
_MALFORMED = [
    ("alu-count", "mov64 r0, 1\nadd64 r1\nexit", AsmError, 2, "expected 2 operand(s), got 'r1'"),
    ("neg-count", "neg64 r1, r2", AsmError, 1, "expected 1 operand(s), got 'r1, r2'"),
    ("end-count", "le16 r1, 16", AsmError, 1, "expected 1 operand(s), got 'r1, 16'"),
    ("lddw-count", "lddw r1", AsmError, 1, "expected 2 operand(s), got 'r1'"),
    ("ldx-count", "ldxw r1", AsmError, 1, "expected 2 operand(s), got 'r1'"),
    ("st-count", "stw [r1+0]", AsmError, 1, "expected 2 operand(s), got '[r1+0]'"),
    ("stx-count", "stxw [r1+0], r2, r3", AsmError, 1, "expected 2 operand(s), got '[r1+0], r2, r3'"),
    ("ja-count", "ja", AsmError, 1, "expected 1 operand(s), got ''"),
    ("jcond-count", "jeq r1, 2", AsmError, 1, "expected 3 operand(s), got 'r1, 2'"),
    ("call-count", "call", AsmError, 1, "expected 1 operand(s), got ''"),
    ("exit-count", "exit r0", AsmError, 1, "expected 0 operand(s), got 'r0'"),
    ("raw-count", "raw", AsmError, 1, "expected 1 operand(s), got ''"),
    ("empty-operand", "add64 r1,", AsmError, 1, "expected 2 operand(s), got 'r1,'"),
    ("r16", "mov64 r16, 1", AsmError, 1, "expected register r0..r15, got 'r16'"),
    ("mem-r16", "ldxw r1, [r16+0]", AsmError, 1, "expected register r0..r15 in '[r16+0]'"),
    ("mem-syntax", "ldxw r1, r2", AsmError, 1, "expected memory operand like [r1+8], got 'r2'"),
    ("st-register", "stw [r1+0], r2", AsmError, 1, "expected integer, got 'r2'"),
    ("stx-immediate", "stxw [r1+0], 5", AsmError, 1, "expected register r0..r15, got '5'"),
    ("imm-33-bit", "mov64 r1, 0x100000000", AsmError, 1, "immediate 0x100000000 does not fit 32 bits (use lddw)"),
    ("imm-below-s32", "mov64 r1, -0x80000001", AsmError, 1, "immediate -0x80000001 does not fit 32 bits (use lddw)"),
    ("imm-not-int", "mov64 r1, foo", AsmError, 1, "expected integer, got 'foo'"),
    ("lddw-65-bit", "lddw r1, 0x10000000000000000", AsmError, 1,
     "wide immediate 0x10000000000000000 does not fit 64 bits"),
    ("offset-17-bit", "ldxw r1, [r2+0x8000]", AsmError, 1, "offset 32768 does not fit 16 bits"),
    ("jump-offset", "jeq r1, 0, +40000", AsmError, 1, "jump offset 40000 does not fit 16 bits"),
    ("jump-label-too-far", _FAR_JUMP, AsmError, 1, "jump offset 32768 does not fit 16 bits"),
    ("call-register", "call r1", AsmError, 1, "expected integer, got 'r1'"),
    ("ja-register", "ja r1", UndefinedLabel, 1, "undefined label 'r1'"),
    ("duplicate-label", "a: exit\na: exit", AsmError, 2, "duplicate label 'a'"),
    ("le8", "le8 r1", UnknownMnemonic, 1, "unknown mnemonic 'le8'"),
    ("unknown-after-undefined-label", "ja nowhere\nfrob r1\nexit", UnknownMnemonic, 2, "unknown mnemonic 'frob'"),
    ("undefined-label", "exit\njne r1, r2, nowhere", UndefinedLabel, 2, "undefined label 'nowhere'"),
    ("raw-short", "raw 00", AsmError, 1, "raw expects exactly 8 bytes, got 1"),
    ("raw-not-hex", "raw zz", AsmError, 1, "raw expects 16 hex digits, got 'zz'"),
    # A line with two faults always reports the same one of them.
    ("jcond-label-before-imm", "jeq r1, foo, nowhere", UndefinedLabel, 1, "undefined label 'nowhere'"),
    ("jcond-dst-before-label", "jne r16, r1, nowhere", AsmError, 1, "expected register r0..r15, got 'r16'"),
    ("ldx-memory-before-dst", "ldxw r16, [r1+0x8000]", AsmError, 1, "offset 32768 does not fit 16 bits"),
]


@pytest.mark.parametrize("source, error, line, message", [pytest.param(*row[1:], id=row[0]) for row in _MALFORMED])
def test_malformed_source_raises_the_pinned_error(source, error, line, message):
    with pytest.raises(AsmError) as err:
        assemble(source)
    assert (type(err.value), err.value.line, err.value.message) == (error, line, message)
