"""Interpreter semantics: ALU, memory, jumps, budget, helpers, faults."""

import pytest

from femtoc.asm import assemble
from femtoc.facilities import FacilityContext, standard_syscall_table
from femtoc.memory import AccessList, HostMemory, Mode, fresh_stack, require_access
from femtoc.verifier import VerifyLimits, verify
from femtoc.vm import DuplicateId, FaultKind, SyscallError, SyscallTable, exec_program
from genprog import random_accepted_program

M64 = (1 << 64) - 1
M32 = (1 << 32) - 1


def s64(x):
    return x - (1 << 64) if x >> 63 else x


def s32(x):
    return x - (1 << 32) if x >> 31 else x


def run(src, *, ctx=None, ctx_writable=False, table=None, allowed=(), limits=None, budget=None):
    program = assemble(src)
    limits = limits or VerifyLimits(256, 16)
    vp = verify(program, limits, allowed)
    mem = HostMemory()
    regions = []
    ctx_region = None
    if ctx is not None:
        ctx_region = mem.alloc(len(ctx), "ctx", readable=True, writable=ctx_writable, init=ctx)
        regions.append(ctx_region)
    acl = AccessList([fresh_stack(mem), *regions])
    outcome = exec_program(vp, ctx_region, acl, table, budget)
    return outcome, mem, ctx_region


def test_mov_exit_returns_5_in_2_steps():
    outcome, _, _ = run("mov64 r0, 5\nexit")
    assert outcome.return_value == 5
    assert outcome.executed == 2
    assert outcome.fault is None


def test_registers_start_zeroed():
    outcome, _, _ = run("mov64 r0, 0\nadd64 r0, r7\nexit")
    assert outcome.return_value == 0


# -- ALU semantics vs an independent oracle -----------------------------

ORACLE64 = {
    "add": lambda a, b: (a + b) & M64,
    "sub": lambda a, b: (a - b) & M64,
    "mul": lambda a, b: (a * b) & M64,
    "div": lambda a, b: 0 if b == 0 else a // b,
    "or": lambda a, b: a | b,
    "and": lambda a, b: a & b,
    "lsh": lambda a, b: (a << (b & 63)) & M64,
    "rsh": lambda a, b: a >> (b & 63),
    "mod": lambda a, b: 0 if b == 0 else a % b,
    "xor": lambda a, b: a ^ b,
    "mov": lambda a, b: b,
    "arsh": lambda a, b: (s64(a) >> (b & 63)) & M64,
}

ORACLE32 = {
    "add": lambda a, b: (a + b) & M32,
    "sub": lambda a, b: (a - b) & M32,
    "mul": lambda a, b: (a * b) & M32,
    "div": lambda a, b: 0 if b == 0 else a // b,
    "or": lambda a, b: a | b,
    "and": lambda a, b: a & b,
    "lsh": lambda a, b: (a << (b & 31)) & M32,
    "rsh": lambda a, b: a >> (b & 31),
    "mod": lambda a, b: 0 if b == 0 else a % b,
    "xor": lambda a, b: a ^ b,
    "mov": lambda a, b: b,
    "arsh": lambda a, b: (s32(a) >> (b & 31)) & M32,
}


@pytest.mark.parametrize("op", sorted(ORACLE64))
def test_alu64_register_form(op, rng):
    for _ in range(60):
        a, b = rng.getrandbits(64), rng.getrandbits(64)
        outcome, _, _ = run(
            f"lddw r1, {a:#x}\nlddw r2, {b:#x}\n{op}64 r1, r2\nmov64 r0, r1\nexit"
        )
        assert outcome.return_value == ORACLE64[op](a, b), (op, a, b)


@pytest.mark.parametrize("op", sorted(ORACLE64))
def test_alu64_immediate_form_sign_extends(op, rng):
    for _ in range(40):
        a = rng.getrandbits(64)
        b = rng.randint(-(1 << 31), (1 << 31) - 1)
        outcome, _, _ = run(f"lddw r1, {a:#x}\n{op}64 r1, {b}\nmov64 r0, r1\nexit")
        assert outcome.return_value == ORACLE64[op](a, b & M64), (op, a, b)


@pytest.mark.parametrize("op", sorted(ORACLE32))
def test_alu32_register_form_zero_extends(op, rng):
    for _ in range(60):
        a, b = rng.getrandbits(64), rng.getrandbits(64)
        outcome, _, _ = run(
            f"lddw r1, {a:#x}\nlddw r2, {b:#x}\n{op}32 r1, r2\nmov64 r0, r1\nexit"
        )
        assert outcome.return_value == ORACLE32[op](a & M32, b & M32), (op, a, b)


def test_neg64_and_neg32(rng):
    for _ in range(40):
        a = rng.getrandbits(64)
        outcome, _, _ = run(f"lddw r1, {a:#x}\nneg64 r1\nmov64 r0, r1\nexit")
        assert outcome.return_value == (-a) & M64
        outcome, _, _ = run(f"lddw r1, {a:#x}\nneg32 r1\nmov64 r0, r1\nexit")
        assert outcome.return_value == (-(a & M32)) & M32


def test_division_by_zero_yields_zero_and_continues():
    outcome, _, _ = run("mov64 r0, 9\ndiv64 r0, 0\nadd64 r0, 3\nexit")
    assert outcome.fault is None
    assert outcome.return_value == 3
    outcome, _, _ = run("mov64 r0, 9\nmod64 r0, 0\nadd64 r0, 3\nexit")
    assert outcome.return_value == 3


def test_division_is_unsigned():
    # -8 as u64 divided by 2 is huge, not -4.
    outcome, _, _ = run("mov64 r1, -8\ndiv64 r1, 2\nmov64 r0, r1\nexit")
    assert outcome.return_value == ((M64 - 7) // 2)


def test_endian_ops(rng):
    for _ in range(30):
        a = rng.getrandbits(64)
        cases = {
            "le16": a & 0xFFFF,
            "le32": a & M32,
            "le64": a,
            "be16": int.from_bytes((a & 0xFFFF).to_bytes(2, "little"), "big"),
            "be32": int.from_bytes((a & M32).to_bytes(4, "little"), "big"),
            "be64": int.from_bytes(a.to_bytes(8, "little"), "big"),
        }
        for mnem, expected in cases.items():
            outcome, _, _ = run(f"lddw r1, {a:#x}\n{mnem} r1\nmov64 r0, r1\nexit")
            assert outcome.return_value == expected, (mnem, hex(a))


def test_lddw_loads_full_64_bits():
    outcome, _, _ = run("lddw r0, 0x1122334455667788\nexit")
    assert outcome.return_value == 0x1122334455667788
    assert outcome.executed == 2  # the wide load costs one step


# -- memory ---------------------------------------------------------------

def test_stack_store_load_round_trip():
    # r10 points at the start of the stack; valid offsets are 0..511.
    outcome, _, _ = run(
        """
        lddw r1, 0xa1b2c3d4e5f60718
        stxdw [r10+0], r1
        ldxdw r0, [r10+0]
        exit
"""
    )
    assert outcome.return_value == 0xA1B2C3D4E5F60718


def test_narrow_loads_zero_extend_and_stores_truncate():
    outcome, _, _ = run(
        """
        lddw r1, 0xfffefdfcfbfaf9f8
        stxw [r10+8], r1
        ldxw r0, [r10+8]
        exit
"""
    )
    assert outcome.return_value == 0xFBFAF9F8
    outcome, _, _ = run(
        """
        lddw r1, 0xfffefdfcfbfaf9f8
        stxb [r10+16], r1
        ldxb r0, [r10+16]
        exit
"""
    )
    assert outcome.return_value == 0xF8


def test_unaligned_access_inside_region_is_allowed():
    outcome, _, _ = run("stxdw [r10+9], r1\nldxdw r0, [r10+9]\nexit")
    assert outcome.fault is None


def test_context_region_read():
    outcome, _, _ = run("ldxw r0, [r1+4]\nexit", ctx=bytes.fromhex("00000000deadbeef"))
    assert outcome.return_value == 0xEFBEADDE  # little-endian load


def test_store_to_read_only_region_faults():
    outcome, _, _ = run("stxdw [r1+0], r0\nexit", ctx=bytes(16))
    assert outcome.fault is not None
    assert outcome.fault.kind is FaultKind.MEMORY_VIOLATION
    assert outcome.fault.pc == 0


def test_store_to_writable_context_lands():
    outcome, mem, ctx = run(
        "mov64 r2, 0x77\nstxdw [r1+0], r2\nmov64 r0, 0\nexit",
        ctx=bytes(16),
        ctx_writable=True,
    )
    assert outcome.fault is None
    assert mem.read(ctx.base, 8) == (0x77).to_bytes(8, "little")


def test_straddling_region_end_faults():
    outcome, _, _ = run("ldxdw r0, [r1+12]\nexit", ctx=bytes(16))
    assert outcome.fault is not None
    assert outcome.fault.kind is FaultKind.MEMORY_VIOLATION
    assert outcome.fault.addr is not None


def test_access_below_stack_base_faults():
    outcome, _, _ = run("stxdw [r10-8], r0\nexit")
    assert outcome.fault is not None
    assert outcome.fault.kind is FaultKind.MEMORY_VIOLATION


def test_access_past_stack_end_faults():
    outcome, _, _ = run("stxdw [r10+512], r0\nexit")
    assert outcome.fault is not None
    assert outcome.fault.kind is FaultKind.MEMORY_VIOLATION
    # A write straddling the boundary by one byte is denied too.
    outcome, _, _ = run("stxdw [r10+505], r0\nexit")
    assert outcome.fault is not None


def test_wild_pointer_faults_without_host_damage():
    outcome, mem, _ = run("lddw r1, 0x4141414141414141\nstxdw [r1+0], r0\nexit")
    assert outcome.fault is not None
    assert mem.guards_intact()


def test_address_arithmetic_wraps_mod_2_64():
    outcome, _, _ = run("lddw r1, 0xffffffffffffffff\nldxb r0, [r1+1]\nexit")
    # base + offset wraps to address 0, outside every region
    assert outcome.fault is not None
    assert outcome.fault.kind is FaultKind.MEMORY_VIOLATION


def test_windows_agree_with_region_for(rng):
    mem = HostMemory()
    ro = mem.alloc(24, "ro", readable=True, writable=False)
    rw = mem.alloc(40, "rw", readable=True, writable=True)
    wo = mem.alloc(16, "wo", readable=False, writable=True)
    regions = [ro, rw.view(True, False), fresh_stack(mem), rw, wo, ro]
    acl = AccessList(regions)
    windows = {Mode.READ: acl.read_windows, Mode.WRITE: acl.write_windows}
    lo, hi = mem.base - 16, mem.base + len(mem.buf) + 16
    for _ in range(20_000):
        addr, length = rng.randrange(lo, hi), rng.choice((1, 2, 4, 8, 3, 16, 0))
        mode = rng.choice((Mode.READ, Mode.WRITE))
        region = acl.region_for(addr, length, mode)
        window = next((w for w in windows[mode] if w[0] <= addr and addr + length <= w[1]), None)
        if region is None:
            assert window is None, (addr, length, mode)
        else:
            assert window[:2] == (region.base, region.end)
            assert window[2] is region.memory.buf and window[3] == region.memory.base


# -- jumps and budget ------------------------------------------------------

def test_conditional_jump_taken_and_not_taken():
    outcome, _, _ = run(
        """
        mov64 r1, 10
        jeq r1, 10, +1
        exit
        mov64 r0, 1
        exit
"""
    )
    assert outcome.return_value == 1
    assert outcome.branches_taken == 1


def test_signed_vs_unsigned_comparisons():
    outcome, _, _ = run(
        """
        mov64 r1, -1
        jsgt r1, 0, bad
        mov64 r0, 1
        exit
bad:    mov64 r0, 2
        exit
"""
    )
    assert outcome.return_value == 1  # -1 is not signed-greater than 0
    outcome, _, _ = run(
        """
        mov64 r1, -1
        jgt r1, 0, good
        mov64 r0, 2
        exit
good:   mov64 r0, 1
        exit
"""
    )
    assert outcome.return_value == 1  # but it is unsigned-greater


def test_jset_tests_bits():
    outcome, _, _ = run(
        """
        mov64 r1, 0b1010
        jset r1, 0b0010, hit
        mov64 r0, 0
        exit
hit:    mov64 r0, 1
        exit
"""
    )
    assert outcome.return_value == 1


def test_infinite_loop_budget_100_executes_exactly_100():
    outcome, _, _ = run("ja -1\nexit", budget=100)
    assert outcome.fault is not None
    assert outcome.fault.kind is FaultKind.BUDGET_EXCEEDED
    assert outcome.executed == 100


def test_budget_comes_from_limits_product():
    outcome, _, _ = run("ja -1\nexit", limits=VerifyLimits(8, 4))
    assert outcome.fault.kind is FaultKind.BUDGET_EXCEEDED
    assert outcome.executed == 32


def test_exact_step_count_is_preserved_at_budget_boundary():
    # Five steps to finish, budget five: completes.
    src = "mov64 r0, 1\nadd64 r0, 1\nadd64 r0, 1\nadd64 r0, 1\nexit"
    outcome, _, _ = run(src, budget=5)
    assert outcome.fault is None
    assert outcome.executed == 5
    outcome, _, _ = run(src, budget=4)
    assert outcome.fault.kind is FaultKind.BUDGET_EXCEEDED
    assert outcome.executed == 4


# -- helpers ---------------------------------------------------------------

def test_clock_helper_returns_virtual_time():
    fac = FacilityContext()
    fac.clock.advance_to(12345)
    table = standard_syscall_table(fac)
    outcome, _, _ = run("call 0x10\nexit", table=table.restricted({0x10}), allowed={0x10})
    assert outcome.return_value == 12345


def test_store_helpers_without_a_caller_fault_before_reading_facilities():
    reads = []

    class WatchedFacilities(FacilityContext):
        def __getattribute__(self, name):
            reads.append(name)
            return super().__getattribute__(name)

    store_ids = {0x01, 0x02, 0x03, 0x04, 0x05, 0x06}
    table = standard_syscall_table(WatchedFacilities()).restricted(store_ids)
    for sys_id in sorted(store_ids):
        outcome, _, _ = run(f"mov64 r1, 1\ncall {sys_id:#x}\nexit", table=table, allowed={sys_id})
        assert outcome.fault.kind is FaultKind.BAD_SYSCALL
        assert outcome.fault.pc == 1
    assert reads == []


def test_call_costs_one_step_and_preserves_r1_to_r5():
    table = SyscallTable()
    table.register(0x42, lambda env: 7, argc=0, name="seven")
    outcome, _, _ = run(
        """
        mov64 r1, 11
        call 0x42
        add64 r0, r1
        exit
"""
    , table=table, allowed={0x42})
    assert outcome.return_value == 18  # r0 = 7, r1 survived the call
    assert outcome.executed == 4


def test_helper_receives_register_arguments():
    seen = []
    table = SyscallTable()
    table.register(0x50, lambda env, a, b: seen.append((a, b)) or 99, argc=2, name="grab")
    outcome, _, _ = run("mov64 r1, 5\nmov64 r2, 6\ncall 0x50\nexit", table=table, allowed={0x50})
    assert seen == [(5, 6)]
    assert outcome.return_value == 99


def test_helper_pointer_fault_is_attributed_to_the_call():
    def writer(env, addr):
        require_access(env.acl, addr, 8, Mode.WRITE)
        return 0

    table = SyscallTable()
    table.register(0x51, writer, argc=1, name="writer")
    outcome, _, _ = run(
        "lddw r1, 0x4141414141414141\ncall 0x51\nexit", table=table, allowed={0x51}
    )
    assert outcome.fault is not None
    assert outcome.fault.kind is FaultKind.MEMORY_VIOLATION
    assert outcome.fault.pc == 2  # the call slot, after the two-slot wide load


def test_helper_error_is_a_bad_syscall_fault():
    table = SyscallTable()
    table.register(0x52, lambda env: (_ for _ in ()).throw(SyscallError("nope")), argc=0)
    outcome, _, _ = run("call 0x52\nexit", table=table, allowed={0x52})
    assert outcome.fault.kind is FaultKind.BAD_SYSCALL


def test_call_to_id_missing_from_table_faults():
    # Verifier allowed it, but the run-time table does not expose it.
    outcome, _, _ = run("call 0x60\nexit", table=SyscallTable(), allowed={0x60})
    assert outcome.fault.kind is FaultKind.BAD_SYSCALL


def test_duplicate_helper_registration_rejected():
    table = SyscallTable()
    table.register(0x10, lambda env: 0, argc=0)
    with pytest.raises(DuplicateId):
        table.register(0x10, lambda env: 1, argc=0)


# -- whole-run properties ---------------------------------------------------

def test_r10_unchanged_after_fault_and_after_exit():
    outcome, mem, _ = run("stxdw [r10+8], r0\nexit")
    assert outcome.fault is None
    outcome, mem, _ = run("lddw r1, 0x9999999999\nstxdw [r1+0], r0\nexit")
    assert outcome.fault is not None
    # exec_program asserts r10 invariance internally on both paths; reaching
    # here means the redundant check passed.


def test_identical_inputs_identical_outcomes(rng):
    for _ in range(50):
        program = random_accepted_program(rng)
        vp = verify(program, VerifyLimits(64, 8), ())

        def one():
            mem = HostMemory()
            ctx = mem.alloc(64, "ctx", readable=True, writable=True, init=bytes(range(64)))
            acl = AccessList([fresh_stack(mem), ctx])
            return exec_program(vp, ctx, acl)

        assert one() == one()


def test_every_random_run_terminates_inside_budget(rng):
    limits = VerifyLimits(64, 8)
    for _ in range(500):
        program = random_accepted_program(rng)
        vp = verify(program, limits, ())
        mem = HostMemory()
        ctx = mem.alloc(64, "ctx", readable=True, writable=True)
        acl = AccessList([fresh_stack(mem), ctx])
        outcome = exec_program(vp, ctx, acl)
        assert outcome.executed <= limits.budget
        assert outcome.fault is not None or outcome.ok
        assert mem.guards_intact()
