"""Every pre-flight rule, its error kind, and error aggregation."""

import hashlib
import random
import struct

import pytest

from femtoc import isa
from femtoc import verifier as V
from femtoc.asm import assemble
from femtoc.isa import Instruction, Program
from femtoc.verifier import (
    VerifyError,
    VerifyErrorKind as K,
    VerifyLimits,
    VerifyRejected,
    check_program,
    verification_report,
    verify,
)
from genprog import random_accepted_program


def kinds(program, limits=None, allowed=()):
    return [e.kind for e in check_program(program, limits, allowed)]


def test_minimal_program_accepted_with_budget():
    vp = verify(assemble("mov64 r0, 0\nexit"), VerifyLimits(16, 4))
    assert vp.budget == 64


def test_default_budget_is_instructions_times_branches():
    vp = verify(assemble("exit"))
    assert vp.budget == 4096 * 256 == 1_048_576


def test_limits_must_be_positive():
    with pytest.raises(ValueError):
        VerifyLimits(0, 8)
    with pytest.raises(ValueError):
        VerifyLimits(8, 0)


def test_empty_program_yields_no_exit():
    errors = check_program(Program(()))
    assert [e.kind for e in errors] == [K.NO_EXIT]
    assert errors[0].slot_index == 0


def test_bad_dst_register_field():
    program = Program((Instruction(0xB7, dst=13), Instruction(isa.OP_EXIT)))
    assert kinds(program) == [K.BAD_REGISTER_FIELD]


def test_bad_src_register_field():
    program = Program((Instruction(0xBF, dst=0, src=12), Instruction(isa.OP_EXIT)))
    assert kinds(program) == [K.BAD_REGISTER_FIELD]


def test_write_to_r10_mov():
    errors = check_program(assemble("mov64 r10, 1\nexit"))
    assert [e.kind for e in errors] == [K.WRITE_TO_R10]
    assert errors[0].slot_index == 0


def test_write_to_r10_load():
    assert kinds(assemble("ldxdw r10, [r1+0]\nexit")) == [K.WRITE_TO_R10]


def test_write_to_r10_wide_load():
    assert kinds(assemble("lddw r10, 5\nexit")) == [K.WRITE_TO_R10]


def test_stack_store_through_r10_is_not_a_write_to_r10():
    assert kinds(assemble("stxdw [r10-8], r0\nstw [r10-16], 7\nexit")) == []


def test_compare_against_r10_is_allowed():
    assert kinds(assemble("jeq r10, 0, +0\nexit")) == []


def _lowered_code(ins):
    return verify(Program((ins, Instruction(isa.OP_EXIT)))).form[0][0]


@pytest.mark.parametrize("width,suffix", [(1, "b"), (2, "h"), (4, "w"), (8, "dw")])
def test_only_r10_accesses_proven_inside_the_stack_become_stack_rows(width, suffix):
    ldx, stx, st = (
        next(op for op, info in isa.OPCODE_INFO.items() if info.name == name + suffix)
        for name in ("ldx", "stx", "st")
    )
    cases = {
        V.LDX: lambda off, base=10: Instruction(ldx, dst=0, src=base, offset=off),
        V.STX: lambda off, base=10: Instruction(stx, dst=base, src=1, offset=off),
        V.ST: lambda off, base=10: Instruction(st, dst=base, src=0, offset=off, imm=-1),
    }
    stack_code = {V.LDX: V.LDX_STACK, V.STX: V.STX_STACK, V.ST: V.ST_STACK}
    for code, make in cases.items():
        for off in (0, 512 - width):
            assert _lowered_code(make(off)) == stack_code[code]
        for off in (513 - width, 512, -1, -width):
            assert _lowered_code(make(off)) == code
        # Based on any other register the access keeps the window check.
        for base in (1, 9):
            assert _lowered_code(make(0, base)) == code
    # r10 as the value source (or an unused src field) is not the base.
    assert _lowered_code(Instruction(stx, dst=1, src=10, offset=0)) == V.STX
    assert _lowered_code(Instruction(st, dst=1, src=10, offset=0)) == V.ST


def test_jump_past_end_is_out_of_bounds():
    assert kinds(assemble("ja +5\nexit")) == [K.JUMP_OUT_OF_BOUNDS]


def test_jump_before_start_is_out_of_bounds():
    assert kinds(assemble("mov64 r0, 0\nja -3\nexit")) == [K.JUMP_OUT_OF_BOUNDS]


def test_conditional_jump_bounds_checked_too():
    assert kinds(assemble("jeq r1, 0, +9\nexit")) == [K.JUMP_OUT_OF_BOUNDS]


def test_jump_to_last_slot_is_in_bounds():
    assert kinds(assemble("ja +0\nexit")) == []


def test_lddw_missing_continuation_at_end():
    program = Program((Instruction(0xB7, dst=0), Instruction(isa.OP_LDDW, dst=1)))
    found = kinds(program)
    assert K.TRUNCATED_WIDE_LOAD in found
    assert K.NO_EXIT in found


def test_lddw_with_nonzero_continuation_opcode():
    program = Program((Instruction(isa.OP_LDDW, dst=1), Instruction(isa.OP_EXIT)))
    assert kinds(program) == [K.TRUNCATED_WIDE_LOAD]


def test_jump_into_wide_load_continuation():
    program = assemble("ja +0\nlddw r1, 0x1122334455667788\nexit")
    # Point the jump at the continuation half of the wide load.
    slots = list(program.slots)
    slots[0] = Instruction(isa.OP_JA, offset=1)
    assert kinds(Program(tuple(slots))) == [K.TRUNCATED_WIDE_LOAD]


def test_unknown_opcode():
    program = Program((Instruction(0x06), Instruction(isa.OP_EXIT)))
    assert kinds(program) == [K.UNKNOWN_OPCODE]


def test_endian_op_with_bad_width_is_unknown():
    program = Program((Instruction(0xD4, dst=0, imm=24), Instruction(isa.OP_EXIT)))
    assert kinds(program) == [K.UNKNOWN_OPCODE]


def test_no_exit_anywhere():
    program = Program((Instruction(0xB7, dst=0), Instruction(isa.OP_JA, offset=-2)))
    assert kinds(program) == [K.NO_EXIT]


def test_fall_off_the_end_is_no_exit():
    program = assemble("ja +1\nexit\nmov64 r0, 0")
    errors = check_program(program)
    assert [e.kind for e in errors] == [K.NO_EXIT]
    assert errors[0].slot_index == 2


def test_trailing_ja_with_exit_elsewhere_is_fine():
    assert kinds(assemble("ja +1\nexit\nja -2")) == []


def test_too_long_reports_at_the_limit():
    body = "\n".join("mov64 r0, 0" for _ in range(6)) + "\nexit"
    errors = check_program(assemble(body), VerifyLimits(4, 2))
    assert errors[0].kind == K.TOO_LONG
    assert errors[0].slot_index == 4


def test_unknown_syscall():
    errors = check_program(assemble("call 0x99\nexit"), allowed_syscalls={0x10})
    assert [e.kind for e in errors] == [K.UNKNOWN_SYSCALL]


def test_allowed_syscall_accepted():
    assert kinds(assemble("call 0x10\nexit"), allowed=(0x10,)) == []


def test_all_errors_collected_in_slot_order():
    program = Program(
        (
            Instruction(0xB7, dst=13),          # bad register
            Instruction(0xB7, dst=10),          # write to r10
            Instruction(isa.OP_JA, offset=40),  # out of bounds
            Instruction(isa.OP_CALL, imm=0x77),  # not allowed
            Instruction(isa.OP_EXIT),
        )
    )
    errors = check_program(program, allowed_syscalls=())
    assert [e.kind for e in errors] == [
        K.BAD_REGISTER_FIELD,
        K.WRITE_TO_R10,
        K.JUMP_OUT_OF_BOUNDS,
        K.UNKNOWN_SYSCALL,
    ]
    assert [e.slot_index for e in errors] == [0, 1, 2, 3]


def test_error_slot_index_always_inside_program():
    program = Program((Instruction(0xB7, dst=13), Instruction(0x06), Instruction(0xB7, dst=0)))
    for error in check_program(program, VerifyLimits(2, 1)):
        assert 0 <= error.slot_index <= len(program.slots)


def test_verify_raises_with_all_errors():
    with pytest.raises(VerifyRejected) as err:
        verify(assemble("mov64 r10, 1\nja +7\nexit"))
    assert [e.kind for e in err.value.errors] == [K.WRITE_TO_R10, K.JUMP_OUT_OF_BOUNDS]


def test_report_format():
    assert verification_report([]) == "OK"
    report = verification_report(check_program(assemble("mov64 r10, 1\nexit")))
    assert "WriteToR10" in report
    assert "slot 0" in report


def test_single_violation_injection_is_detected(rng):
    # Flip one property of an accepted program and the checks must notice.
    injectors = [
        lambda s, i: Instruction(0xB7, dst=12),
        lambda s, i: Instruction(0xB7, dst=10),
        lambda s, i: Instruction(isa.OP_JA, offset=len(s) + 3),
        lambda s, i: Instruction(isa.OP_CALL, imm=0x7F),
        lambda s, i: Instruction(0x8D),
    ]
    for trial in range(300):
        program = random_accepted_program(rng)
        slots = list(program.slots)
        continuation = isa.continuation_slots(program.to_bytes()[::isa.SLOT_SIZE])
        sites = [i for i in range(len(slots) - 1) if not continuation[i]]
        if not sites:
            continue
        site = rng.choice(sites)
        mutate = rng.choice(injectors)
        mutated = slots.copy()
        mutated[site] = mutate(slots, site)
        # Nuking an lddw head strands its continuation; both are real findings.
        errors = check_program(Program(tuple(mutated)), VerifyLimits(64, 8), ())
        assert errors, f"trial {trial}: mutation at {site} slipped through"


# -- the verifier's output, pinned ------------------------------------------

_PIN_SEED = 0x7E51
_PIN_LIMITS = (VerifyLimits(), VerifyLimits(16, 4))
_PIN_ALLOWED = (0x01, 0x30)
_KNOWN_OPS = sorted(isa.OPCODE_INFO)
# sha256 of the outputs below over the seeded corpus; recorded before the
# verifier read the encoded bytes directly, so any change in what it reports
# for any payload shows here.
_PIN_DIGEST = "b48f0b4fa634baf343da3a297d3e3df064e572de1ed8741ba5880d4360acdf5d"


def _raw_payload(rng):
    """Slot bytes that hit every rule: unknown opcodes, register nibbles
    11-15, wide loads at the end or followed by a non-zero opcode, jumps
    past either end, helper ids in and out of the grant, odd byte-order
    widths."""
    if rng.random() < 0.2:
        return rng.randbytes(8 * rng.randint(0, 12))

    def reg():
        return rng.randint(11, 15) if rng.random() < 0.1 else rng.randint(0, 10)

    n = rng.randint(1, 24)
    out = bytearray()
    for _ in range(n):
        roll = rng.random()
        if roll < 0.6:
            op = rng.choice(_KNOWN_OPS)
        elif roll < 0.72:
            op = isa.OP_LDDW
        elif roll < 0.82:
            op = 0
        else:
            op = rng.randrange(256)
        dst, src = reg(), reg()
        off = rng.randint(-n - 2, n + 2)
        imm = rng.choice((16, 32, 64, 24, rng.randrange(4), rng.randint(-(1 << 31), (1 << 31) - 1)))
        out += struct.pack("<BBhi", op, src << 4 | dst, off, imm)
    if rng.random() < 0.5:
        out += bytes.fromhex("9500000000000000")
    return bytes(out)


def _pin_corpus():
    """(program, limits) pairs: accepted programs, raw bytes, and payloads
    over the small limit's instruction count."""
    rng = random.Random(_PIN_SEED)
    corpus = []
    for _ in range(800):
        program = random_accepted_program(rng, 48, allowed_syscalls=(0x01, 0x02, 0x30))
        corpus.append((program, _PIN_LIMITS[0]))
    for _ in range(900):
        corpus.append((Program.from_bytes(_raw_payload(rng)), _PIN_LIMITS[rng.randrange(2)]))
    while len(corpus) < 2100:
        if rng.random() < 0.5:
            program = random_accepted_program(rng, 48, allowed_syscalls=(0x01,))
        else:
            program = Program.from_bytes(_raw_payload(rng) * 2)
        if program.byte_len > 16 * isa.SLOT_SIZE:
            corpus.append((program, _PIN_LIMITS[1]))
    return corpus


def _pin_outputs():
    def described(errors):
        return [(e.kind.value, e.slot_index, e.mnemonic, e.detail) for e in errors]

    for program, limits in _pin_corpus():
        checked = described(check_program(program, limits, _PIN_ALLOWED))
        try:
            verified = ("form", verify(program, limits, _PIN_ALLOWED).form)
        except VerifyRejected as exc:
            verified = ("rejected", described(exc.errors))
        yield checked, verified


def test_verifier_output_matches_the_pinned_digest():
    outputs = list(_pin_outputs())
    assert len(outputs) >= 2000
    seen = {kind for checked, _ in outputs for kind, *_ in checked}
    assert seen == {kind.value for kind in K}
    assert sum(verified[0] == "form" for _, verified in outputs) >= 500
    digest = hashlib.sha256(repr(outputs).encode()).hexdigest()
    assert digest == _PIN_DIGEST


# -- the plain-slot fast path against the reference scan ------------------------

SCAN_PROGRAMS = 20_000  # raw-byte programs; the genprog stream adds its own


def _scan_stream(rng):
    """(program, limits, allowed): accepted programs from genprog, then raw
    bytes with truncated wide loads, bad continuations and every other rule,
    a third of them under an instruction limit below their length."""
    for _ in range(1_000):
        yield random_accepted_program(rng, 48, allowed_syscalls=(0x01, 0x02, 0x30)), VerifyLimits(), _PIN_ALLOWED
    for _ in range(SCAN_PROGRAMS):
        program = Program.from_bytes(_raw_payload(rng))
        slots = program.byte_len // isa.SLOT_SIZE
        limits = VerifyLimits(rng.randint(1, slots)) if slots and rng.random() < 1 / 3 else VerifyLimits()
        yield program, limits, _PIN_ALLOWED


def test_the_scan_matches_the_reference_scan():
    import refscan

    kinds_seen, wide_loads, plain = set(), set(), 0
    for index, (program, limits, allowed) in enumerate(_scan_stream(random.Random(0x5CA7))):
        got, want = V._scan(program, limits, allowed), refscan.scan(program, limits, allowed)
        assert got == want, f"program {index}: {program.to_bytes().hex()} under {limits}"
        errors, form = got
        kinds_seen.update(e.kind for e in errors)
        wide_loads.update(e.detail for e in errors if e.detail.startswith("wide load"))
        plain += sum(row[0] in (V.ALU64_K, V.ALU64_X, V.ALU32_K, V.ALU32_X) and row[2] < 10 for row in form)
    assert plain >= 20_000
    assert kinds_seen == set(K)  # TooLong included
    assert wide_loads == {  # truncated at the end, and with a bad continuation
        "wide load is missing its continuation slot",
        "wide load continuation slot must have a zero opcode",
    }
