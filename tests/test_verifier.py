"""Every pre-flight rule, its error kind, and error aggregation."""

import pytest

from femtoc import isa
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
        continuation = isa.continuation_slots(slots)
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
