"""Interpreter semantics: ALU, memory, jumps, budget, helpers, faults."""

import ast
import difflib
from collections import Counter
import re
import struct
from pathlib import Path

import pytest

import refvm
from femtoc import codegen, vm
from femtoc import verifier as V
from femtoc.asm import assemble
from femtoc.fixtures import FIXTURE_SOURCES, FIXTURE_SYSCALLS, fixture_program
from femtoc.facilities import KV_ERR_SCOPE, SYS_RESPONSE_WRITE, FacilityContext, standard_syscall_table
from femtoc.memory import DEFAULT_BASE, GUARD_LEN, AccessList, HostMemory, Mode, checked_store, fresh_stack
from femtoc.verifier import VerifyLimits, verify
from femtoc.vm import DuplicateId, FaultKind, SyscallEnv, SyscallError, SyscallTable, exec_program
from genprog import random_accepted_program
from test_differential import guard_safe, proven_check_fails
from test_engine import CallSites, perfbench_workloads  # noqa: F401 (a fixture)

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
    outcome = exec_program(vp, SyscallEnv(acl, table or SyscallTable()), budget)
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
            assert window == (region.base, region.end)


def test_an_access_list_refuses_regions_from_two_buffers():
    # Every HostMemory starts at the same address, so regions of two buffers
    # would give one address two meanings.
    mem, other = HostMemory(), HostMemory()
    ctx, foreign = mem.alloc(16, "ctx", True, True), other.alloc(16, "ctx", True, True)
    assert ctx.base == foreign.base
    for regions in ([foreign, fresh_stack(mem)], [ctx, fresh_stack(other)], [fresh_stack(mem), ctx, foreign]):
        with pytest.raises(ValueError, match="one host buffer"):
            AccessList(regions)
    assert AccessList([ctx, fresh_stack(mem)]).run_state[2:4] == (mem.buf, mem.base)


def test_run_state_ends_with_the_first_read_and_the_first_write_window():
    mem = HostMemory()
    wo = mem.alloc(16, "wo", readable=False, writable=True)
    ro = mem.alloc(24, "ro", readable=True, writable=False)
    acl = AccessList([wo, ro, fresh_stack(mem)])
    assert acl.run_state[6:] == (*acl.read_windows[0], *acl.write_windows[0]) == (ro.base, ro.end, wo.base, wo.end)


@pytest.mark.parametrize("layout", [("stack",), ("ctx", "stack"), ("stack", "ctx"), ("ro", "rw", "stack"),
                                    ("stack", "ro", "rw")], ids="-".join)
def test_r1_is_the_first_region_that_is_not_the_stack_on_both_tiers_and_the_reference(monkeypatch, layout):
    # The regions are allocated in the reverse of their list order, so the
    # first one listed is not the one at the lowest address.
    program = assemble("mov64 r0, r1\nexit")
    for run in ("interpreted", "compiled", "reference"):
        monkeypatch.setattr(vm, "HOT_STEPS_PER_SLOT", 0 if run == "compiled" else HOT_STEPS_PER_SLOT)
        mem = HostMemory()
        regions = {label: fresh_stack(mem) if label == "stack" else mem.alloc(8, label, True, label != "ro")
                   for label in reversed(layout)}
        context = [regions[label].base for label in layout if label != "stack"]
        vp = verify(program, VerifyLimits(256, 16))
        env = SyscallEnv(AccessList([regions[label] for label in layout]))
        outcome = (refvm if run == "reference" else vm).exec_program(vp, env)
        assert (vp.compiled is not None) == (run == "compiled")
        assert outcome == (context[0] if context else 0, 2, 0, None)


@pytest.mark.parametrize("access, note", [("ldxdw r0, [r1+0]", "read denied"), ("stxdw [r2+0], r0", "write denied")])
def test_a_first_write_only_region_is_not_readable_nor_a_first_read_only_one_writable_on_both_tiers(
    monkeypatch, access, note
):
    # The write-only region is the first write window and the read-only one
    # the first read window: each access misses the first window of its mode.
    program = assemble(f"mov64 r2, r1\nadd64 r2, {16 + 2 * GUARD_LEN}\n{access}\nexit")
    for hot in (HOT_STEPS_PER_SLOT, 0):
        monkeypatch.setattr(vm, "HOT_STEPS_PER_SLOT", hot)
        mem = HostMemory()
        wo = mem.alloc(16, "wo", readable=False, writable=True)
        ro = mem.alloc(16, "ro", readable=True, writable=False)
        assert ro.base == wo.base + 16 + 2 * GUARD_LEN  # a guard after wo, one before ro
        vp = verify(program, VerifyLimits(256, 16))
        outcome = exec_program(vp, SyscallEnv(AccessList([wo, ro, fresh_stack(mem)])))
        assert (vp.compiled is not None) == (hot == 0)
        assert outcome.fault == vm.Fault(FaultKind.MEMORY_VIOLATION, 2, (ro if note == "write denied" else wo).base,
                                         8, note)


def test_checked_store_cuts_the_value_to_its_width():
    mem = HostMemory()
    out = mem.alloc(16, "out", readable=True, writable=True)
    acl = AccessList([out, fresh_stack(mem)])
    at = out.base - mem.base
    for size in (1, 2, 4, 8):
        for value in (0x1122334455667788, M64, -2, (1 << 64) + 0x99):
            mem.buf[at : at + 16] = b"\xee" * 16
            checked_store(acl, out.base + 3, size, value)
            cut = (value & ((1 << 8 * size) - 1)).to_bytes(size, "little")
            assert mem.read(out.base, 16) == b"\xee" * 3 + cut + b"\xee" * (13 - size), (size, value)


def test_an_access_list_needs_one_512_byte_read_write_stack():
    mem = HostMemory()
    ctx = mem.alloc(16, "ctx", True, True)
    for regions in ([], [ctx], [fresh_stack(mem), fresh_stack(mem)]):
        with pytest.raises(ValueError, match="exactly one stack region"):
            AccessList(regions)
    stack = fresh_stack(mem)
    for bad in (mem.alloc(256, "stack", True, True), stack.view(True, False), stack.view(False, True)):
        with pytest.raises(ValueError, match="readable\\+writable 512-byte"):
            AccessList([ctx, bad])
    assert AccessList([ctx, stack]).stack is stack


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


def test_store_helpers_without_a_container_reach_no_store_on_both_tiers(monkeypatch):
    # A record with no container holds no store: as for a scope a grant
    # lacks, puts return KV_ERR_SCOPE and gets 0, and no helper reads the
    # facilities to find that out.
    reads = []

    class WatchedFacilities(FacilityContext):
        def __getattribute__(self, name):
            reads.append(name)
            return super().__getattribute__(name)

    table = standard_syscall_table(WatchedFacilities())
    puts, gets = (0x01, 0x03, 0x05), (0x02, 0x04, 0x06)
    for sys_id in (*puts, *gets):
        (interpreted, compiled), _ = run_both_tiers(
            monkeypatch, f"mov64 r1, 1\nmov64 r2, 5\ncall {sys_id:#x}\nexit",
            table=table.restricted({sys_id}), allowed={sys_id},
        )
        assert compiled == interpreted
        outcome = compiled[0]
        want = KV_ERR_SCOPE & M64 if sys_id in puts else 0
        assert (outcome.return_value, outcome.executed, outcome.fault) == (want, 4, None)
    assert reads == []


def test_response_write_without_a_container_faults_on_both_tiers(monkeypatch):
    table = standard_syscall_table(FacilityContext()).restricted({SYS_RESPONSE_WRITE})
    (interpreted, compiled), _ = run_both_tiers(
        monkeypatch, "mov64 r1, 0\nmov64 r2, 5\ncall 0x20\nexit", ctx_writable=True, table=table,
        allowed={SYS_RESPONSE_WRITE},
    )
    assert compiled == interpreted
    outcome, host = compiled
    fault = outcome.fault
    assert (outcome.executed, fault.kind, fault.pc, fault.addr, fault.note) == (
        3, FaultKind.BAD_SYSCALL, 2, None, "no response region on this hook"
    )
    assert host == run_both_tiers(monkeypatch, "exit", ctx_writable=True)[0][0][1]  # nothing written


def test_a_restricted_table_refuses_an_id_the_verdict_allows_on_both_tiers(monkeypatch):
    # The verdict allows 0x10 and 0x30, but the run's table is cut to 0x10:
    # the table, not the verdict, decides what a run may call.
    table = standard_syscall_table(FacilityContext()).restricted({0x10})
    (interpreted, compiled), _ = run_both_tiers(
        monkeypatch, "call 0x10\ncall 0x30\nexit", table=table, allowed={0x10, 0x30}
    )
    assert compiled == interpreted
    outcome = compiled[0]
    assert (outcome.executed, outcome.fault.kind, outcome.fault.pc) == (2, FaultKind.BAD_SYSCALL, 1)


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
        checked_store(env.acl, addr, 8, 0)
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


def test_a_helper_takes_at_most_five_arguments():
    table = SyscallTable()
    for argc in (6, -1):
        with pytest.raises(ValueError, match="at most five"):
            table.register(0x11, lambda env, *args: 0, argc=argc)
    assert table.ids() == frozenset() and table.calls == {}
    table.register(0x11, lambda env, a, b, c, d, e: a + e, argc=5)
    assert table.calls[0x11](None, 1, 2, 3, 4, 5) == 6


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
            return exec_program(vp, SyscallEnv(acl))

        assert one() == one()


def test_every_random_run_terminates_inside_budget(rng):
    limits = VerifyLimits(64, 8)
    for _ in range(500):
        program = random_accepted_program(rng)
        vp = verify(program, limits, ())
        mem = HostMemory()
        ctx = mem.alloc(64, "ctx", readable=True, writable=True)
        acl = AccessList([fresh_stack(mem), ctx])
        outcome = exec_program(vp, SyscallEnv(acl))
        assert outcome.executed <= 64 * 8
        assert outcome.fault is not None or outcome.ok
        assert mem.guards_intact()


# -- the counted interpreter -------------------------------------------------
#
# ``vm._interpret`` counts steps by straight runs and checks the budget on
# entry and at taken jumps; where a run might not fit it hands over to
# ``vm._stepped``, the same loop body with a budget test before every step,
# whose entry reports a spent budget or an escaped pc.  Compiled code hands
# over to ``vm._stepped`` too.  Run from the same state, the two loops must
# give the same outcome.

def both_loops(form, budget=1 << 20, pc=0):
    """The outcome of ``form`` from slot ``pc`` on the counted and on the
    stepped loop, which must be equal."""
    outcomes = []
    for loop in (vm._interpret, vm._stepped):
        acl = AccessList([fresh_stack(HostMemory())])
        outcomes.append(loop(form, [0] * 10 + [acl.stack.base], pc, 0, 0, budget, SyscallEnv(acl)))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


@pytest.mark.parametrize("src, executed, branches, fault_pc", [
    # lddw takes one step for two slots early in the run; slot 4 faults
    ("mov64 r0, 1\nlddw r2, 0x9999999999\nadd64 r0, 1\nldxw r3, [r2+0]\nexit", 4, 0, 4),
    # two of them in a run that a taken jump starts; slot 8 faults
    ("mov64 r0, 1\njeq r0, 1, +1\nexit\nlddw r2, 0x9999999999\nlddw r4, 1\nadd64 r0, 1\n"
     "stxw [r2+0], r0\nexit", 6, 1, 8),
])
def test_an_lddw_early_in_a_run_counts_one_step_when_a_later_slot_faults(src, executed, branches, fault_pc):
    form = verify(assemble(src), VerifyLimits(256, 16)).form
    outcome = both_loops(form)
    assert (outcome.return_value, outcome.executed, outcome.branches_taken) == (2, executed, branches)
    assert (outcome.fault.kind, outcome.fault.pc) == (FaultKind.MEMORY_VIOLATION, fault_pc)
    for budget in range(executed + 2):
        both_loops(form, budget)


@pytest.mark.parametrize("src", [
    "mov64 r0, 1\nadd64 r0, 2\nexit",  # one straight run, from entry to the last slot
    # a taken jump, then a straight run with an lddw to the last slot
    "mov64 r0, 1\njeq r0, 1, +1\nexit\nadd64 r0, 1\nlddw r2, 5\nadd64 r0, 1\nexit",
    # a loop, then a straight run to the last slot
    "mov64 r1, 3\nloop: add64 r0, 1\nsub64 r1, 1\njne r1, 0, loop\nadd64 r0, 1\nexit",
    # a loop closed by ja, left by a conditional jump forward
    "loop: add64 r0, 1\njgt r0, 4, +1\nja loop\nlddw r3, 1\nexit",
])
def test_every_budget_runs_out_on_the_stepped_loops_slot(src):
    form = verify(assemble(src), VerifyLimits(256, 16)).form
    steps = both_loops(form).executed
    for budget in range(steps + 3):
        outcome = both_loops(form, budget)
        assert (outcome.fault is None) == (budget >= steps)


MOV7 = (V.ALU64_K, V.MOV, 0, 0, 0, 7)
ESCAPED = "program counter escaped"


@pytest.mark.parametrize("form, pc, r0, executed, branches, escaped_at", [
    ((MOV7, (V.ALU64_K, V.ADD, 0, 0, 0, 1)), 0, 8, 2, 0, 2),  # falls off the end
    (((V.LDDW, 8, 0, 0, 0, 5), V._NOT_RUNNABLE), 0, 5, 1, 0, 2),  # off the end past an lddw
    ((MOV7, (V.JA, 0, 0, 0, -3, 0), (V.EXIT, 0, 0, 0, 0, 0)), 0, 7, 2, 1, -3),  # jumps before slot 0
    ((MOV7, (V.JCOND_K, V.JEQ, 0, 0, -1, 7), (V.EXIT, 0, 0, 0, 0, 0)), 0, 7, 2, 1, -1),
    ((MOV7, (V.JA, 0, 0, 0, 9, 0), (V.EXIT, 0, 0, 0, 0, 0)), 0, 7, 2, 1, 9),  # jumps past the end
    ((MOV7, (V.EXIT, 0, 0, 0, 0, 0)), -1, 0, 0, 0, -1),  # entered before slot 0
])
def test_a_hand_built_form_whose_pc_escapes_gets_the_old_fault(form, pc, r0, executed, branches, escaped_at):
    outcome = both_loops(form, pc=pc)
    assert outcome == (r0, executed, branches, vm.Fault(FaultKind.BAD_SYSCALL, escaped_at, note=ESCAPED))
    # With the budget spent on the way, the budget runs out first.
    if executed:
        fault = both_loops(form, budget=executed, pc=pc).fault
        assert (fault.kind, fault.pc) == (FaultKind.BUDGET_EXCEEDED, escaped_at)


@pytest.mark.parametrize("loop", ["_interpret", "_stepped"])
@pytest.mark.parametrize("end", [
    (V.EXIT, 0, 0, 0, 0, 0),
    (V.LDX, 8, 0, 1, 0, 0),  # a load at address 0, outside every window: the trap path
], ids=["exit", "trap"])
def test_a_hand_built_form_that_moves_r10_is_a_hard_stop_on_both_loops(loop, end):
    # The verifier refuses a write to r10; a form built by hand reaches the
    # interpreter's check of it, where a run exits and where it traps.
    form = ((V.ALU64_K, V.MOV, 10, 0, 0, 5), end)
    acl = AccessList([fresh_stack(HostMemory())])
    with pytest.raises(RuntimeError, match="^stack pointer register mutated during run$"):
        getattr(vm, loop)(form, [0] * 10 + [acl.stack.base], 0, 0, 0, 1 << 20, SyscallEnv(acl))


def _per_step_counting(source: str) -> list[str]:
    """The lines of ``source``'s dispatch loop that touch the step count, the
    budget or ``start``, or compare ``pc``, outside taken jumps and the
    exit, ja and lddw arms."""
    counters = {"executed", "start", "budget", "n"}
    (function,) = ast.parse(source).body
    (loop,) = [node for node in ast.walk(function) if isinstance(node, ast.While)]
    own_arms = {f"code == {code}" for code in (V.JA, V.EXIT, V.LDDW)}
    per_step = list(loop.body)  # the row unpack and the dispatch chain, arm by arm
    found = []
    while per_step:
        node = per_step.pop()
        if isinstance(node, ast.If) and ast.unparse(node.test) in own_arms:
            per_step += node.orelse
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) == "taken":
            per_step += node.orelse
            continue
        if isinstance(node, ast.If):
            per_step += [node.test, *node.body, *node.orelse]
            continue
        if isinstance(node, ast.Try):
            per_step += [*node.body, *(h for handler in node.handlers for h in handler.body)]
            continue
        names = {n.id for n in ast.walk(node) if isinstance(n, ast.Name)}
        compares_pc = any(
            isinstance(n, ast.Compare) and "pc" in {m.id for m in ast.walk(n) if isinstance(m, ast.Name)}
            for n in ast.walk(node)
        )
        if names & counters or compares_pc:
            found.append(ast.unparse(node))
    return found


def test_the_counted_loop_does_no_per_step_counting():
    assert _per_step_counting(codegen.interpreter_source(codegen.COUNTED)) == []
    # The stepped loop tests its budget on every step, and the check sees it.
    found = _per_step_counting(codegen.interpreter_source(codegen.STEPPED))
    assert found == ["executed + pc - start >= budget"]


def test_the_two_loops_differ_only_in_their_entry_per_step_test_and_jump_hand_over():
    loops = (codegen.STEPPED, codegen.COUNTED)
    stepped, counted = (codegen.interpreter_source(loop).splitlines() for loop in loops)
    matcher = difflib.SequenceMatcher(None, stepped, counted, autojunk=False)
    hunks = [
        ([line.strip() for line in stepped[i1:i2]], [line.strip() for line in counted[j1:j2]])
        for tag, i1, i2, j1, j2 in matcher.get_opcodes() if tag != "equal"
    ]
    jump = (["if off < 0:"], ["if off < 0 or executed + n - off > budget:"])  # at jcond and at ja
    assert hunks == [
        (["def _stepped(form, regs, pc, executed, branches, budget, env):"],
         ["def _interpret(form, regs, pc, executed, branches, budget, env):"]),
        tuple([line.strip() for line in loop["entry"].splitlines()] for loop in loops),
        (["if executed + pc - start >= budget:", "break"], []),
        jump,
        jump,
    ]


def test_only_exec_program_calls_the_counted_loop():
    # Everything that cannot finish a run in the counted loop, itself and
    # compiled code included, goes straight to the stepped loop.
    form = verify(assemble("mov64 r0, 1\nexit"), VerifyLimits(256, 16)).form
    sources = {
        "stepped": codegen.interpreter_source(codegen.STEPPED),
        "counted": codegen.interpreter_source(codegen.COUNTED),
        "compiled": codegen.compiled_source(form)[0],
    }
    sources.update((path.stem, path.read_text()) for path in Path(vm.__file__).parent.glob("*.py"))
    found = []
    for module, source in sorted(sources.items()):
        sites = CallSites(module, {"_interpret", "_stepped"})
        sites.visit(ast.parse(source))
        found += sites.found
    assert sorted(found) == [
        ("_interpret", "vm.exec_program"),
        ("_stepped", "compiled.bind.run"),  # the hand-over of a block that might not fit
        ("_stepped", "counted._interpret"),  # on entry
        ("_stepped", "counted._interpret"),  # after the loop
        ("_stepped", "stepped._stepped"),  # after the loop: its entry reports why
    ]


# -- the compiled tier --------------------------------------------------------
#
# Each test runs a program on a fresh VerifiedProgram per tier: once
# interpreted (a first run never compiles) and once with the compile
# threshold at 0, so that the run calls the compiled form.

ORACLE_CMP = {
    "jeq": lambda a, b: a == b,
    "jne": lambda a, b: a != b,
    "jgt": lambda a, b: a > b,
    "jge": lambda a, b: a >= b,
    "jlt": lambda a, b: a < b,
    "jle": lambda a, b: a <= b,
    "jset": lambda a, b: a & b != 0,
    "jsgt": lambda a, b: s64(a) > s64(b),
    "jsge": lambda a, b: s64(a) >= s64(b),
    "jslt": lambda a, b: s64(a) < s64(b),
    "jsle": lambda a, b: s64(a) <= s64(b),
}


HOT_STEPS_PER_SLOT = vm.HOT_STEPS_PER_SLOT  # the threshold as shipped, before any test patches it


def run_both_tiers(monkeypatch, src, *, ctx=b"", ctx_writable=False, stack_last=False, table=None,
                   allowed=(), budget=None):
    """[(outcome, host bytes), ...] of an interpreted and a compiled run of
    ``src``, and the base of its context region.  The access list holds the
    stack, then the context; ``stack_last`` puts the context first, as the
    engine does."""
    program = assemble(src)
    results = []
    for hot in (HOT_STEPS_PER_SLOT, 0):
        monkeypatch.setattr(vm, "HOT_STEPS_PER_SLOT", hot)
        vp = verify(program, VerifyLimits(256, 16), allowed)
        mem = HostMemory()
        ctx_region = mem.alloc(max(len(ctx), 8), "ctx", readable=True, writable=ctx_writable, init=ctx)
        stack = fresh_stack(mem)
        acl = AccessList([ctx_region, stack] if stack_last else [stack, ctx_region])
        outcome = exec_program(vp, SyscallEnv(acl, table or SyscallTable()), budget)
        assert (vp.compiled is not None) == (hot == 0)
        results.append((outcome, bytes(mem.buf)))
    return results, ctx_region.base


def compiled_result(monkeypatch, src, **kw):
    (interpreted, compiled), _ = run_both_tiers(monkeypatch, src, **kw)
    assert compiled == interpreted
    return compiled[0].return_value


EXIT_ROW = (V.EXIT, 0, 0, 0, 0, 0)


@pytest.mark.parametrize("row", [
    (V.ALU64_K, V.MOV, 10, 0, 0, 5),
    (V.ALU32_X, V.ADD, 10, 1, 0, 0),
    (V.LDX, 8, 10, 1, 0, 0),
    (V.LDX_STACK, 8, 10, 10, 0, 0),
    (V.LDDW, 8, 10, 0, 0, 5),
    (V.END, V.BE, 10, 0, 0, 16),
])
def test_a_form_that_writes_r10_is_refused_when_its_source_is_generated(row):
    # Compiled code keeps r10 in a local that only the prologue assigns, and
    # tests it nowhere; a row that writes it must not get that far.
    form = (row, V._NOT_RUNNABLE, EXIT_ROW) if row[0] == V.LDDW else (row, EXIT_ROW)
    with pytest.raises(ValueError, match=f"slot 0: handler code {row[0]} writes r10"):
        codegen.compiled_source(form)
    # Stores and comparisons only read their dst field: r10 there compiles.
    for reads in ((V.STX_STACK, 8, 10, 1, 0, 0), (V.ST, 4, 10, 0, -4, 1), (V.JCOND_X, V.JEQ, 10, 1, 2, 0)):
        codegen.compiled_source((reads, EXIT_ROW, EXIT_ROW))


def test_compiled_alu_rows_match_the_oracles(rng, monkeypatch):
    for op in sorted(ORACLE64):
        for _ in range(6):
            a, b = rng.getrandbits(64), rng.getrandbits(64)
            k = rng.choice((0, 1, -1, 63, 64, rng.randint(-(1 << 31), (1 << 31) - 1)))
            load = f"lddw r1, {a:#x}\nlddw r2, {b:#x}\n"
            cases = {
                f"{op}64 r1, r2": ORACLE64[op](a, b),
                f"{op}64 r1, {k}": ORACLE64[op](a, k & M64),
                f"{op}32 r1, r2": ORACLE32[op](a & M32, b & M32),
                f"{op}32 r1, {k}": ORACLE32[op](a & M32, k & M32),
            }
            for line, expected in cases.items():
                got = compiled_result(monkeypatch, f"{load}{line}\nmov64 r0, r1\nexit")
                assert got == expected, (line, hex(a), hex(b))
    for _ in range(6):
        a = rng.getrandbits(64)
        assert compiled_result(monkeypatch, f"lddw r1, {a:#x}\nneg64 r1\nmov64 r0, r1\nexit") == -a & M64
        assert compiled_result(monkeypatch, f"lddw r1, {a:#x}\nneg32 r1\nmov64 r0, r1\nexit") == (
            -(a & M32) & M32
        )


def test_compiled_comparisons_match_the_oracles(rng, monkeypatch):
    edges = (0, 1, M64, 1 << 63, (1 << 63) - 1, 1 << 31)
    for op, oracle in sorted(ORACLE_CMP.items()):
        for _ in range(12):
            a = rng.choice(edges + (rng.getrandbits(64),))
            b = rng.choice(edges + (a, rng.getrandbits(64)))
            k = rng.choice((0, -1, 1, rng.randint(-(1 << 31), (1 << 31) - 1)))
            for operand, value in (("r2", b), (str(k), k & M64)):
                src = f"lddw r1, {a:#x}\nlddw r2, {b:#x}\nmov64 r0, 1\n{op} r1, {operand}, +1\nmov64 r0, 0\nexit"
                assert compiled_result(monkeypatch, src) == oracle(a, value), (op, hex(a), operand)


def test_compiled_lddw_and_byte_order_rows(rng, monkeypatch):
    for _ in range(10):
        a = rng.getrandbits(64)
        assert compiled_result(monkeypatch, f"lddw r0, {a:#x}\nexit") == a
        for bits in (16, 32, 64):
            low = a & ((1 << bits) - 1)
            swapped = int.from_bytes(low.to_bytes(bits // 8, "little"), "big")
            for mnem, expected in ((f"le{bits}", low), (f"be{bits}", swapped)):
                src = f"lddw r1, {a:#x}\n{mnem} r1\nlddw r2, 5\nadd64 r1, r2\nmov64 r0, r1\nexit"
                assert compiled_result(monkeypatch, src) == (expected + 5) & M64, (mnem, hex(a))


# Two taken branches, then a block whose third instruction (slot 4) faults.
MID_BLOCK = """
        mov64 r2, 3
loop:   sub64 r2, 1
        jne r2, 0, loop
        mov64 r3, 7
        {access}
        add64 r3, 1
        mov64 r0, r3
        exit
"""


@pytest.mark.parametrize(
    "access, offset, width, note",
    [
        ("ldxdw r4, [r1+1000]", 1000, 8, "read denied"),
        ("stxdw [r1+4], r3", 4, 8, "write denied"),
        ("sth [r1+7], 1", 7, 2, "write denied"),
    ],
)
def test_compiled_memory_violation_mid_block_is_the_interpreters(monkeypatch, access, offset, width, note):
    (interpreted, compiled), ctx_base = run_both_tiers(monkeypatch, MID_BLOCK.format(access=access))
    assert compiled == interpreted
    outcome = compiled[0]
    assert (outcome.return_value, outcome.executed, outcome.branches_taken) == (0, 9, 2)
    fault = outcome.fault
    assert (fault.kind, fault.pc, fault.addr, fault.length, fault.note) == (
        FaultKind.MEMORY_VIOLATION, 4, ctx_base + offset, width, note
    )


def _denying_writer(env, addr):
    checked_store(env.acl, addr, 8, 0)
    return 0


def _refusing(env, addr):
    raise SyscallError("nope")


@pytest.mark.parametrize(
    "sys_id, kind, addr, length, note",
    [
        (0x51, FaultKind.MEMORY_VIOLATION, 0x4141414141414141, 8, "helper writer denied"),
        (0x52, FaultKind.BAD_SYSCALL, None, None, "nope"),
        (0x60, FaultKind.BAD_SYSCALL, None, None, "helper id 0x60 not available"),
    ],
    ids=["access-violation", "syscall-error", "missing-id"],
)
def test_compiled_helper_faults_are_the_interpreters(monkeypatch, sys_id, kind, addr, length, note):
    table = SyscallTable()
    table.register(0x51, _denying_writer, argc=1, name="writer")
    table.register(0x52, _refusing, argc=1, name="refusing")
    src = f"""
        mov64 r6, 2
loop:   sub64 r6, 1
        jne r6, 0, loop
        lddw r1, 0x4141414141414141
        mov64 r0, 9
        call {sys_id:#x}
        mov64 r0, 1
        exit
"""
    (interpreted, compiled), _ = run_both_tiers(monkeypatch, src, table=table, allowed={sys_id})
    assert compiled == interpreted
    outcome = compiled[0]
    assert (outcome.return_value, outcome.executed, outcome.branches_taken) == (9, 8, 1)
    fault = outcome.fault
    assert (fault.kind, fault.pc, fault.addr, fault.length, fault.note) == (kind, 6, addr, length, note)


def test_a_block_longer_than_the_budget_left_hands_over_to_the_interpreter(monkeypatch):
    unrolled = "mov64 r0, 0\nloop: add64 r0, 1\nadd64 r0, 1\nadd64 r0, 1\nja loop\nexit"
    (interpreted, compiled), _ = run_both_tiers(monkeypatch, unrolled, budget=10)
    assert compiled == interpreted
    # Blocks of 1 and 4 steps run to 9; the next block does not fit, so the
    # interpreter runs slot 1 and stops on slot 2 with the budget spent.
    outcome = compiled[0]
    assert (outcome.return_value, outcome.executed, outcome.branches_taken) == (7, 10, 2)
    assert (outcome.fault.kind, outcome.fault.pc) == (FaultKind.BUDGET_EXCEEDED, 2)

    self_loop = "mov64 r2, 9\nloop: add64 r0, 3\nsub64 r2, 1\njne r2, 0, loop\nexit"
    for src in (unrolled, self_loop):
        for budget in range(1, 32):
            (interpreted, compiled), _ = run_both_tiers(monkeypatch, src, budget=budget)
            assert compiled == interpreted, (src, budget)


# -- self-loops: the compiled tier counts passes, not steps ---------------------
#
# Each case runs on both tiers and with the stack first or last in the access
# list; all four runs must give the same outcome and host bytes.

# A fletcher-style pointer walk: {passes} passes over 4-byte words from r1.
WALK = """
        mov64 r3, {passes}
loop:   ldxw r0, [r1+0]
        add64 r4, r0
        add64 r5, r4
        add64 r1, 4
        sub64 r3, 1
        jne r3, 0, loop
        mov64 r0, r5
        exit
"""
WORDS = struct.pack("<II", 7, 9)  # an 8-byte context: two words, so a third pass reads past it


def self_loop_run(monkeypatch, src, **kw):
    """The outcome and host bytes of ``src``, equal on both tiers and in
    both region orders; the context's base; and the (slot, executed,
    branches) of each entry into either interpreter loop from outside
    them: each order's interpreted run at (0, 0, 0), then its compiled
    run's handovers to the stepped loop."""
    entries, inside = [], []

    def watch(name):
        original = getattr(vm, name)

        def entered(form, regs, pc, executed, branches, *rest):
            if not inside:
                entries.append((pc, executed, branches))
            inside.append(name)
            try:
                return original(form, regs, pc, executed, branches, *rest)
            finally:
                inside.pop()

        monkeypatch.setattr(vm, name, entered)

    watch("_interpret")
    watch("_stepped")
    (first, ctx_base), (second, _) = (
        run_both_tiers(monkeypatch, src, stack_last=last, **kw) for last in (False, True)
    )
    assert first[0] == first[1] == second[0] == second[1]
    return first[1], ctx_base, entries


def test_a_pointer_walk_faults_on_its_third_pass_with_the_interpreters_counts(monkeypatch):
    (outcome, _), ctx_base, entries = self_loop_run(monkeypatch, WALK.format(passes=5), ctx=WORDS)
    assert (outcome.return_value, outcome.executed, outcome.branches_taken) == (9, 14, 2)
    fault = outcome.fault
    assert (fault.kind, fault.pc, fault.addr, fault.length, fault.note) == (
        FaultKind.MEMORY_VIOLATION, 1, ctx_base + 8, 4, "read denied"
    )
    assert entries == [(0, 0, 0)] * 2  # the compiled runs trap inside a pass, never hand over


def test_a_storing_walk_faults_on_its_third_pass_with_the_interpreters_counts(monkeypatch):
    src = WALK.format(passes=5).replace("ldxw r0, [r1+0]\n        add64 r4, r0", "add64 r4, r3")
    src = src.replace("add64 r1, 4", "stxw [r1+0], r5\n        add64 r1, 4")
    (outcome, host), ctx_base, entries = self_loop_run(monkeypatch, src, ctx=bytes(8), ctx_writable=True)
    # Passes 1 and 2 store r5 = 5 and 14; pass 3 stores past the context.
    assert (outcome.return_value, outcome.executed, outcome.branches_taken) == (0, 16, 2)
    fault = outcome.fault
    assert (fault.kind, fault.pc, fault.addr, fault.length, fault.note) == (
        FaultKind.MEMORY_VIOLATION, 3, ctx_base + 8, 4, "write denied"
    )
    at = ctx_base - DEFAULT_BASE
    assert host[at : at + 8] == struct.pack("<II", 5, 14)
    assert entries == [(0, 0, 0)] * 2


@pytest.mark.parametrize(
    "budget, r0, branches, fault_pc, handover",
    [
        (4, 7, 0, 4, (1, 1, 0)),  # room for no pass: hand over on entry
        (9, 9, 1, 3, (1, 7, 1)),  # room for one pass, which takes the branch
    ],
)
def test_a_self_loop_without_room_for_its_next_pass_hands_over_at_its_start(
    monkeypatch, budget, r0, branches, fault_pc, handover
):
    (outcome, _), _, entries = self_loop_run(monkeypatch, WALK.format(passes=5), ctx=WORDS, budget=budget)
    assert (outcome.return_value, outcome.executed, outcome.branches_taken) == (r0, budget, branches)
    assert (outcome.fault.kind, outcome.fault.pc) == (FaultKind.BUDGET_EXCEEDED, fault_pc)
    assert entries == [(0, 0, 0), handover] * 2


def test_a_self_loop_that_exits_on_its_first_pass_takes_no_branch(monkeypatch):
    (outcome, _), _, entries = self_loop_run(monkeypatch, WALK.format(passes=1), ctx=WORDS)
    assert outcome == (7, 9, 0, None)
    assert entries == [(0, 0, 0)] * 2


def test_a_ja_closed_block_after_a_self_loop_checks_its_budget_per_pass(monkeypatch):
    src = """
        mov64 r3, 4
inner:  add64 r0, 2
        sub64 r3, 1
        jne r3, 0, inner
spin:   add64 r0, 1
        ja spin
        exit
"""
    (outcome, _), _, entries = self_loop_run(monkeypatch, src, budget=40)
    # 1 + 4 passes of 3 with 3 taken branches, then 13 passes of the ja
    # block; at 39 its next pass does not fit and the interpreter runs slot 4.
    assert (outcome.return_value, outcome.executed, outcome.branches_taken) == (22, 40, 16)
    assert (outcome.fault.kind, outcome.fault.pc) == (FaultKind.BUDGET_EXCEEDED, 5)
    assert entries == [(0, 0, 0), (4, 39, 16)] * 2


# -- wrap edges: registers stay in [0, 2**64) on both tiers ----------------------
#
# The compiled tier stores a register's 8 bytes and uses it as an address at
# offset 0 without a mask, which is exact only while every register holds a
# value in [0, 2**64).


def test_add_and_sub_wrap_at_both_widths_on_both_tiers(monkeypatch):
    pairs = [(M64, 1), (M64, M64), (0, 1), (0, M64), (0x1234, 0x1234), (M32, 1), (1 << 63, 1 << 63)]
    for op in ("add", "sub"):
        for a, b in pairs:
            load = f"lddw r1, {a:#x}\nlddw r2, {b:#x}\n"
            for line, expected in ((f"{op}64 r1, r2", ORACLE64[op](a, b)),
                                   (f"{op}32 r1, r2", ORACLE32[op](a & M32, b & M32))):
                got = compiled_result(monkeypatch, f"{load}{line}\nmov64 r0, r1\nexit")
                assert got == expected, (line, hex(a), hex(b))
        for a in (0, 1, M32, 1 << 63, M64):
            for k in (-1, -(1 << 31), 1, (1 << 31) - 1):
                for line, expected in ((f"{op}64 r1, {k}", ORACLE64[op](a, k & M64)),
                                       (f"{op}32 r1, {k}", ORACLE32[op](a & M32, k & M32))):
                    got = compiled_result(monkeypatch, f"lddw r1, {a:#x}\n{line}\nmov64 r0, r1\nexit")
                    assert got == expected, (line, hex(a))


@pytest.mark.parametrize(
    "make, value",
    [
        ("lddw r2, 0xffffffffffffffff", M64),
        ("mov64 r2, 0\nsub64 r2, 5", M64 - 4),
        ("lddw r2, 0xffffffffffffffff\nadd64 r2, r2", M64 - 1),
        ("mov64 r2, 0\nsub32 r2, 1", M32),
    ],
    ids=["M64", "sub64-wrapped", "add64-wrapped", "sub32-wrapped"],
)
def test_8_byte_stores_of_edge_values_on_both_tiers(monkeypatch, make, value):
    src = f"{make}\nstxdw [r1+8], r2\nstxdw [r10+16], r2\nldxdw r0, [r10+16]\nexit"
    (interpreted, compiled), ctx_base = run_both_tiers(
        monkeypatch, src, ctx=bytes(16), ctx_writable=True, stack_last=True
    )
    assert compiled == interpreted
    outcome, host = compiled
    assert (outcome.return_value, outcome.fault) == (value, None)
    at = ctx_base - DEFAULT_BASE
    assert host[at : at + 16] == bytes(8) + struct.pack("<Q", value)


def test_narrow_stx_cuts_the_register_on_both_tiers(monkeypatch):
    src = """
        lddw r2, 0x1122334455667788
        stxb [r1+0], r2
        stxh [r1+1], r2
        stxw [r1+3], r2
        stxw [r10+0], r2
        ldxdw r0, [r10+0]
        exit
"""
    (interpreted, compiled), ctx_base = run_both_tiers(monkeypatch, src, ctx=bytes(8), ctx_writable=True)
    assert compiled == interpreted
    outcome, host = compiled
    assert (outcome.return_value, outcome.fault) == (0x55667788, None)
    at = ctx_base - DEFAULT_BASE
    assert host[at : at + 8] == bytes.fromhex("88 8877 88776655 00")


WIDTHS = {1: "b", 2: "h", 4: "w", 8: "dw"}


@pytest.mark.parametrize("stack_last", [False, True], ids=["stack-first", "stack-last"])
@pytest.mark.parametrize("width", sorted(WIDTHS))
def test_accesses_at_the_edges_of_either_first_window_on_both_tiers(monkeypatch, width, stack_last):
    # Inside, straddling the end by one byte, and one byte below: through
    # r1 into the 16-byte context and through a copy of r10 into the stack.
    size = WIDTHS[width]
    for base, end in (("r1", 16), ("r2", 512)):
        for off in (0, end - width, end - width + 1, -1):
            for access in (f"ldx{size} r0, [{base}{off:+d}]", f"stx{size} [{base}{off:+d}], r3"):
                src = f"lddw r3, 0x8877665544332211\nmov64 r2, r10\n{access}\nexit"
                (interpreted, compiled), _ = run_both_tiers(
                    monkeypatch, src, ctx=bytes(range(1, 17)), ctx_writable=True, stack_last=stack_last
                )
                assert compiled == interpreted, access
                assert (compiled[0].fault is None) == (0 <= off <= end - width), access


def test_address_arithmetic_wraps_mod_2_64_on_both_tiers(monkeypatch):
    # r2 = r1 - 0x2000 wraps below 0, and [r2+0x2000] wraps back to r1.
    src = "mov64 r2, r1\nsub64 r2, 0x2000\nmov64 r3, 7\nstxb [r2+0x2000], r3\nldxw r0, [r2+0x2000]\nexit"
    (interpreted, compiled), ctx_base = run_both_tiers(monkeypatch, src, ctx=bytes(8), ctx_writable=True)
    assert compiled == interpreted
    assert compiled[0] == (7, 6, 0, None)
    # Below address 0 the fault reports the wrapped address.
    (interpreted, compiled), _ = run_both_tiers(monkeypatch, "mov64 r2, 0\nldxb r0, [r2-1]\nexit")
    assert compiled == interpreted
    fault = compiled[0].fault
    assert (fault.kind, fault.pc, fault.addr, fault.length) == (FaultKind.MEMORY_VIOLATION, 1, M64, 1)


def test_a_program_compiles_once_it_has_run_64_steps_per_slot(monkeypatch):
    compiles = []
    original = vm.compile_form
    monkeypatch.setattr(vm, "compile_form", lambda form: compiles.append(form) or original(form))
    vp = verify(assemble("mov64 r0, 1\nadd64 r0, 2\nexit"), VerifyLimits(256, 16))
    mem = HostMemory()
    env = SyscallEnv(AccessList([fresh_stack(mem)]))
    threshold = HOT_STEPS_PER_SLOT * len(vp.form)
    assert threshold == 192
    outcomes = set()
    for _ in range(threshold // 3):
        outcomes.add(exec_program(vp, env))
        assert vp.compiled is None
    assert vp.interpreted == threshold
    for _ in range(3):
        outcomes.add(exec_program(vp, env))
        assert vp.compiled is not None
    assert vp.interpreted == threshold  # compiled runs are not counted
    assert compiles == [vp.form]
    assert outcomes == {(3, 3, 0, None)}


def test_a_single_run_of_a_1024_slot_payload_never_compiles(monkeypatch):
    compiles = []
    monkeypatch.setattr(vm, "compile_form", compiles.append)
    body = "add64 r0, 1\n" * 1020
    vp = verify(assemble(f"mov64 r1, 70\nloop: {body}sub64 r1, 1\njne r1, 0, loop\nexit"))
    assert len(vp.form) == 1024
    outcome = exec_program(vp, SyscallEnv(AccessList([fresh_stack(HostMemory())])))
    assert (outcome.return_value, outcome.fault) == (70 * 1020, None)
    assert outcome.executed >= vm.HOT_STEPS_PER_SLOT * 1024  # hot, but it ran only once
    assert compiles == [] and vp.compiled is None


def test_a_run_enters_exec_program_once_in_either_tier(monkeypatch, compiled_tier):
    # A tracer rebinds vm.exec_program; neither a cold run nor a handover to
    # the interpreter may call back through that name.
    entries = []
    original = vm.exec_program

    def traced(*args, **kwargs):
        entries.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(vm, "exec_program", traced)
    vp = verify(assemble("loop: add64 r0, 1\nadd64 r0, 1\nja loop\nexit"), VerifyLimits(256, 16))
    env = SyscallEnv(AccessList([fresh_stack(HostMemory())]))
    outcome = vm.exec_program(vp, env, budget=7)
    assert compiled_tier == [vp.form]
    assert (outcome.executed, outcome.fault.kind, outcome.fault.pc) == (7, FaultKind.BUDGET_EXCEEDED, 1)
    monkeypatch.setattr(vm, "HOT_STEPS_PER_SLOT", 64)
    cold = verify(vp.program, VerifyLimits(256, 16))
    assert vm.exec_program(cold, env, budget=7) == outcome
    assert entries == [vp, cold]


# -- versioned self-loops ---------------------------------------------------------
#
# On each entry, a compiled self-loop's guard finds how many of the ``room``
# passes left can run with no wrap test on its induction and accumulator adds
# and subs and no window test on its accesses based on an induction register:
# ``safe``.  Each loop below is entered where the guard falls short by exactly
# one pass: pass safe + 1, the first checked pass, wraps or leaves the first
# window, unless the budget ends first.  The context is first in the access
# list, as the engine puts it.

A40 = 1 << 40
WALK_WORDS = """
        mov64 r2, r1
        mov64 r3, {passes}
loop:   ldxw r0, [r2+0]
        add64 r4, r0
        {step}
        sub64 r3, 1
        jne r3, 0, loop
        mov64 r0, r4
        exit
"""
COUNTED = """
        {entry}
        mov64 r3, {passes}
loop:   {body}
        sub64 r3, 1
        jne r3, 0, loop
        mov64 r0, {result}
        exit
"""
FF = b"\xff" * 8
DENIED = (FaultKind.MEMORY_VIOLATION, 2)  # the walk's load, in its third pass


@pytest.mark.parametrize("src, ctx, budget, safe, room, fault, short", [
    pytest.param(WALK_WORDS.format(passes=5, step="add64 r2, 4"), bytes(8), None, 2, 818, DENIED, True,
                 id="induction-leaves-the-window-in-the-first-checked-pass"),
    pytest.param(WALK_WORDS.format(passes=10, step="add64 r2, 4"), bytes(40), 19, 3, 3,
                 (FaultKind.BUDGET_EXCEEDED, 4), False, id="induction-budget-ends-inside-the-versioned-passes"),
    pytest.param(WALK_WORDS.format(passes=5, step="sub64 r2, -4"), bytes(8), None, 2, 818, DENIED, True,
                 id="induction-negative-sub-constant"),
    pytest.param(WALK_WORDS.format(passes=5, step="add32 r2, 4"), bytes(8), None, 5, 818, DENIED, False,
                 id="unknown-pointer-keeps-its-check-and-traps-in-a-versioned-pass"),
    pytest.param(COUNTED.format(entry="lddw r2, 0xfffffffffffffffe", passes=4, body="add64 r2, 1", result="r2"),
                 b"", None, 1, 1364, None, True, id="induction-wraps-up"),
    pytest.param(COUNTED.format(entry="mov64 r2, 2", passes=4, body="add64 r2, -1", result="r2"),
                 b"", None, 2, 1364, None, True, id="induction-negative-add-constant-wraps-down"),
    pytest.param(COUNTED.format(entry=f"lddw r4, {M64 - 2 * 0xFF:#x}", passes=4, result="r4",
                                body="ldxb r0, [r1+0]\n        add64 r4, r0"),
                 FF, None, 2, 1023, None, True, id="load-bounded-loaded-before-the-add"),
    pytest.param(COUNTED.format(entry=f"lddw r0, {A40:#x}\n        lddw r4, {M64 - A40:#x}", passes=4,
                                result="r4", body="add64 r4, r0\n        ldxb r0, [r1+0]"),
                 FF, None, 1, 1023, None, True, id="load-bounded-loaded-after-the-add"),
    pytest.param(COUNTED.format(entry=f"lddw r4, {A40:#x}\n        lddw r5, {M64 - 5 * (A40 + 10 * 0xFF):#x}",
                                passes=10, result="r5",
                                body="ldxb r0, [r1+0]\n        add64 r4, r0\n        add64 r5, r4"),
                 FF, None, 5, 818, None, True, id="accumulator-chain"),
])
def test_a_versioned_loop_short_by_one_pass_matches_the_reference_on_both_tiers(
    monkeypatch, src, ctx, budget, safe, room, fault, short
):
    (interpreted, compiled), _ = run_both_tiers(monkeypatch, src, ctx=ctx, stack_last=True, budget=budget)
    vp = verify(assemble(src), VerifyLimits(256, 16))
    mem = HostMemory()
    ctx_region = mem.alloc(max(len(ctx), 8), "ctx", readable=True, writable=False, init=ctx)
    acl = AccessList([ctx_region, fresh_stack(mem)])
    ((start, plan),) = codegen.loop_plans(vp.form).items()
    entries, failed = [], []  # (safe, room) on entry; the passes where a proven check fails

    def step(pc, regs, executed):
        if pc == start and not entries:
            passes = ((vp.budget if budget is None else budget) - executed) // len(plan.slots)
            entries.append((executed, guard_safe(plan.guard, regs, passes, acl), passes))
        if pc in plan.proven and proven_check_fails(vp.form[pc], regs, acl):
            failed.append((executed - entries[0][0]) // len(plan.slots) + 1)

    reference = refvm.exec_program(vp, SyscallEnv(acl, SyscallTable()), budget, step)
    assert interpreted == compiled == (reference, bytes(mem.buf))
    assert [entry[1:] for entry in entries] == [(safe, room)]
    assert (reference.fault and (reference.fault.kind, reference.fault.pc)) == fault
    # Short by one pass: pass safe + 1 wraps or leaves the window.  Otherwise
    # the budget ends, or a check the guard did not prove traps, first.
    assert failed[:1] == ([safe + 1] if short else [])


def test_fletchers_versioned_passes_test_no_wrap_and_no_window_and_its_constants_fold():
    form = verify(fixture_program("fletcher32_360")).form
    source, _ = codegen.compiled_source(form)
    lines = source.splitlines()
    loops = {ast.unparse(node.iter): node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.For)}

    def body(loop):  # its source text, as generated
        return [line.strip() for line in lines[loop.body[0].lineno - 1 : loop.body[-1].end_lineno]]

    (gate,) = [node for node in ast.walk(ast.parse(source)) if isinstance(node, ast.If)
               and ast.unparse(node.test) == "proven > 16"]
    plain, reduced = body(loops["range(1, proven + 1)"]), body(gate)
    checked = body(loops["range(proven + 1, room + 1)"])
    for check in ("_Trap(", "0x10000000000000000", "read_windows"):
        assert not any(check in line for line in plain + reduced) and any(check in line for line in checked), check
    # The loop is counted, so neither proven copy tests its branch, and the
    # closed form runs no loop at all.
    assert plain == [
        "r0 = unpack[2](buf, r1 - base)[0]", "r4 = r4 + r0", "r5 = r5 + r4", "r1 = r1 + 2", "r2 = r2 - 1", "r3 = r3 - 1",
    ]
    assert not any(isinstance(node, ast.For) for stmt in gate.body for node in ast.walk(stmt)) and len(reduced) == 7
    # The constant operands of mod and lsh fold: no zero test, no amount mask.
    assert {"r0 = r0 % 65535", "r6 = r6 % 65535", "r0 = (r0 << 16) & 0xffffffffffffffff"} <= {
        line.strip() for line in lines
    }
    assert " if 65535 else " not in source and "16 & 63" not in source


@pytest.mark.parametrize("op", ["mod", "div", "lsh", "rsh", "arsh"])
def test_constant_divisors_and_shift_amounts_fold_to_the_oracles_result(monkeypatch, op):
    a = 0xF123_4567_89AB_CDEF
    for k in (0, 1, 7, 31, 32, 63, 64, 70, -1):
        for line, expected in ((f"{op}64 r1, {k}", ORACLE64[op](a, k & M64)),
                               (f"{op}32 r1, {k}", ORACLE32[op](a & M32, k & M32))):
            assert compiled_result(monkeypatch, f"lddw r1, {a:#x}\n{line}\nmov64 r0, r1\nexit") == expected, line


def test_fletchers_counted_loop_sums_its_ldxh_words_in_closed_form_and_sinks_r1_r2_and_r3():
    form = verify(fixture_program("fletcher32_360")).form
    ((start, plan),) = codegen.loop_plans(form).items()
    # ``sub64 r3, 1; jne r3, 0``: its branch first falls through in pass r3.
    assert plan.trip == "gap if (gap := r3) > 0 else safe + 1"
    # Its one load walks words by their width, and only their steps read r1,
    # r2 and r3.  More than 16 proven passes decode the words at once, as one
    # tuple, and set each register from the entry values: r5 before r4, whose
    # entry value r5's prefix sums start from, and r0 last, to the last word;
    # then r1, r2 and r3 move on by their steps.  16 or fewer run pass by pass
    # and drop no step.  A checked ldxh can trap, and no stack row is held.
    assert plan.streams == {start: 0} and plan.sunk == {1: 2, 2: -1, 3: -1} and plan.dropped == frozenset()
    assert plan.closed.splitlines() == [
        f"v{start} = unpack_from(_RUN_FORMATS[2] % proven, buf, r1 - base)",
        f"r5 = r5 + sum(accumulate(v{start}, initial=r4)) - r4", f"r4 = r4 + sum(v{start})", f"r0 = v{start}[-1]",
    ]
    assert plan.traps and plan.rows == {} and plan.spills == ()


def test_a_closed_form_sums_chains_of_any_depth_and_falls_back_on_other_bodies(monkeypatch):
    # r6 += r5, r7 += r6, r0 += r7 over a byte stream: each add sums its
    # source's values pass by pass, from the source's entry value.  A body
    # that breaks any rule of the closed form runs pass by pass.
    chain = ["ldxb r5, [r1+0]", "add64 r6, r5", "add64 r7, r6", "add64 r0, r7"]
    src = """
        mov64 r2, 40
        lddw r6, {r6:#x}
        mov64 r7, 3
        mov64 r0, 5
loop:   {body}
        add64 r1, 1
        sub64 r2, 1
        jne r2, 0, loop
        xor64 r0, r5
        xor64 r0, r6
        xor64 r0, r7
        exit
"""
    bodies = {  # body -> whether its proven passes run in closed form
        "\n".join(chain): True,
        "\n".join([chain[0], chain[2], chain[1]]): False,  # r7 adds r6 before this pass's add
        "\n".join(chain + ["add64 r6, r5"]): False,  # r6 is written twice
        "\n".join(chain[:2] + ["add64 r7, r5"]): True,  # r5's values are summed twice
        "\n".join(chain[:2] + ["xor64 r7, r6"]): False,
        "\n".join(chain[:2] + ["add32 r7, r6"]): False,
        "\n".join(chain + ["stxdw [r10+0], r6"]): False,  # the closed form would not store
    }
    ctx = bytes(range(200, 240))
    for body, reduced in bodies.items():
        for r6 in (1, M64 - 255 * 30):  # the guard caps the second at 30 passes
            (interpreted, compiled), _ = run_both_tiers(monkeypatch, src.format(body=body, r6=r6), ctx=ctx,
                                                        stack_last=True)
            assert interpreted == compiled, (body, r6)
            assert compiled[0].fault is None
        ((_, plan),) = codegen.loop_plans(verify(assemble(src.format(body=body, r6=1))).form).items()
        assert (plan.closed is not None) == reduced, body


def test_a_counted_walk_with_no_closed_form_sinks_its_counter_but_not_its_loads_base(monkeypatch):
    # xor64 is not an add, so the body has no closed form, and its proven
    # passes run one by one.  The load reads r1 in each of them, so r1 steps
    # there; only the counter r2 steps once, where they end.
    src = """
        mov64 r2, {passes}
loop:   ldxh r5, [r1+0]
        xor64 r0, r5
        add64 r1, 2
        sub64 r2, 1
        jne r2, 0, loop
        xor64 r0, r1
        xor64 r0, r2
        exit
"""
    ((start, plan),) = codegen.loop_plans(verify(assemble(src.format(passes=40))).form).items()
    assert plan.streams == {start: 0} and plan.closed is None
    assert plan.sunk == {2: -1} and plan.dropped == {start + 3}  # ``sub64 r2, 1``
    for passes in (1, 16, 17, 32, 40):  # the 64-byte window holds 32 words: pass 33 traps
        (interpreted, compiled), _ = run_both_tiers(monkeypatch, src.format(passes=passes), ctx=bytes(range(7, 71)),
                                                    stack_last=True)
        assert interpreted == compiled, passes
        assert (compiled[0].fault and compiled[0].fault.note) == ("read denied" if passes > 32 else None)


def _grow(env):
    """A helper that allocates a region on its hook's buffer, which resizes it."""
    env.acl.stack.memory.alloc(8, "grown", True, False)
    return 1


STREAMED = """
        mov64 r2, {passes}
        lddw r4, {r4:#x}
loop:   ldxh r0, [r1+0]
        add64 r6, r0
        add64 r4, 1
        add64 r1, 2
        sub64 r2, 1
        {branch} r2, 0, loop
        call 1
        add64 r0, r6
        exit
"""


# A counted loop (jne) runs its proven passes in closed form; one that is not
# (jsgt, which r2 leaves at the same pass) runs them one by one.
@pytest.mark.parametrize("branch, passes, r4, words, note", [
    pytest.param("jne", 20, 0, 32, None, id="leaves-by-its-branch-in-a-streamed-pass"),
    pytest.param("jne", 21, M64 - 18, 32, None, id="takes-every-proven-pass-then-leaves-a-checked-one"),
    pytest.param("jne", 24, 0, 20, "read denied", id="traps-in-its-first-checked-pass"),
    pytest.param("jsgt", 20, 0, 32, None, id="not-counted-leaves-by-its-branch-in-a-streamed-pass"),
    pytest.param("jsgt", 21, M64 - 18, 32, None, id="not-counted-takes-every-proven-pass-then-leaves-a-checked-one"),
    pytest.param("jsgt", 24, 0, 20, "read denied", id="not-counted-traps-in-its-first-checked-pass"),
])
def test_a_streamed_loop_leaves_its_buffer_resizable_on_each_way_out(monkeypatch, branch, passes, r4, words, note):
    # A loop over the hook's words must hold no export of its buffer on any
    # way out, or a helper that allocates after the loop, or the host after
    # the run, would raise BufferError: a buffer with an export cannot grow.
    table = SyscallTable()
    table.register(1, _grow, 0)
    src = STREAMED.format(branch=branch, passes=passes, r4=r4)
    outcomes = []
    for hot in (HOT_STEPS_PER_SLOT, 0):
        monkeypatch.setattr(vm, "HOT_STEPS_PER_SLOT", hot)
        vp = verify(assemble(src), VerifyLimits(256, 16), (1,))
        mem = HostMemory()
        ctx = mem.alloc(2 * words, "ctx", readable=True, writable=False, init=bytes(range(1, 2 * words + 1)))
        outcomes.append(exec_program(vp, SyscallEnv(AccessList([ctx, fresh_stack(mem)]), table)))
        mem.alloc(8, "after", readable=True, writable=False)
    ((_, plan),) = codegen.loop_plans(vp.form).items()
    assert (plan.trip is not None) == (branch == "jne")
    interpreted, compiled = outcomes
    assert interpreted == compiled
    assert (compiled.fault and compiled.fault.note) == note


@pytest.mark.parametrize("leaves", [1, 16, 17])
def test_a_stream_over_a_64_kib_window_unpacks_only_the_passes_that_run(monkeypatch, compiled_tier, leaves):
    # Each entry's guard proves all 32768 words of the window, and each entry
    # leaves in pass ``leaves``.  The loop is not counted, so it reads each
    # word in its pass and decodes no run of them at once.
    decoded = _counting_runs(monkeypatch)
    src = """
        mov64 r6, 100
outer:  mov64 r3, r1
inner:  ldxh r0, [r3+0]
        add64 r3, 2
        jeq r0, 0, inner
        sub64 r6, 1
        jne r6, 0, outer
        mov64 r0, r3
        exit
"""
    vp = verify(assemble(src), VerifyLimits(256, 8192))
    outcomes = []
    for execute in (exec_program, refvm.exec_program):
        mem = HostMemory()
        init = bytes(2 * leaves - 2) + b"\x01"
        ctx = mem.alloc(1 << 16, "ctx", readable=True, writable=False, init=init + bytes((1 << 16) - len(init)))
        outcomes.append(execute(vp, SyscallEnv(AccessList([ctx, fresh_stack(mem)]), SyscallTable())))
    assert outcomes[0] == outcomes[1] == (ctx.base + 2 * leaves, 3 + 100 * (3 * leaves + 3), 100 * leaves - 1, None)
    assert decoded == Counter()


def _counting_runs(monkeypatch) -> Counter:
    """Count the runs of values that compiled code decodes at once through
    ``vm.unpack_from``, and the values in them, into the Counter returned."""
    decoded = Counter()

    def counted(fmt, buf, offset):
        values = struct.unpack_from(fmt, buf, offset)
        decoded["runs"] += 1
        decoded["values"] += len(values)
        return values

    monkeypatch.setattr(vm, "unpack_from", counted)
    return decoded


@pytest.mark.parametrize("passes", [1, 16, 17, 40])
def test_a_counted_loop_streams_only_when_it_runs_more_than_16_passes(monkeypatch, compiled_tier, passes):
    # Each of 100 entries knows on entry that it leaves in pass ``passes``: a
    # loop of 16 passes or fewer decodes each word in its pass, a longer one
    # decodes them all at once, in its closed form.
    decoded = _counting_runs(monkeypatch)
    src = f"""
        mov64 r6, 100
outer:  mov64 r3, r1
        mov64 r2, {passes}
inner:  ldxh r0, [r3+0]
        add64 r4, r0
        add64 r3, 2
        sub64 r2, 1
        jne r2, 0, inner
        sub64 r6, 1
        jne r6, 0, outer
        mov64 r0, r4
        exit
"""
    vp = verify(assemble(src), VerifyLimits(256, 8192))
    (inner,) = codegen.loop_plans(vp.form).values()
    assert inner.trip is not None
    outcomes = []
    for execute in (exec_program, refvm.exec_program):
        mem = HostMemory()
        ctx = mem.alloc(128, "ctx", readable=True, writable=False, init=bytes(range(128)))
        outcomes.append(execute(vp, SyscallEnv(AccessList([ctx, fresh_stack(mem)]), SyscallTable())))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0].fault is None and outcomes[0].executed == 3 + 100 * (5 * passes + 4)
    assert decoded == (Counter(runs=100, values=100 * passes) if passes > 16 else Counter())


def test_a_closed_form_over_a_64_kib_window_leaves_its_buffer_resizable(monkeypatch):
    # A counted loop sums all 32768 words of its window in closed form, then
    # a helper allocates on the hook's buffer, which must still be able to
    # grow; the host allocates again after the run.
    table = SyscallTable()
    table.register(1, _grow, 0)
    src = """
        lddw r2, 32768
loop:   ldxh r0, [r1+0]
        add64 r4, r0
        add64 r5, r4
        add64 r1, 2
        sub64 r2, 1
        jne r2, 0, loop
        call 1
        xor64 r0, r4
        xor64 r0, r5
        exit
"""
    decoded = _counting_runs(monkeypatch)
    vp = verify(assemble(src), VerifyLimits(256, 8192), (1,))
    outcomes = []
    for hot, execute in ((HOT_STEPS_PER_SLOT, exec_program), (0, exec_program), (0, refvm.exec_program)):
        monkeypatch.setattr(vm, "HOT_STEPS_PER_SLOT", hot)
        mem = HostMemory()
        words = bytes(range(256)) * 256
        ctx = mem.alloc(1 << 16, "ctx", readable=True, writable=False, init=words)
        outcomes.append(execute(vp, SyscallEnv(AccessList([ctx, fresh_stack(mem)]), table)))
        mem.alloc(8, "after", readable=True, writable=False)
    assert vp.compiled is not None and decoded == Counter(runs=1, values=32768)
    assert outcomes[0] == outcomes[1] == outcomes[2] and outcomes[0].fault is None


GENERATED = ("interpreter", "stepped", *FIXTURE_SOURCES)  # the loops, and each bundled fixture compiled


def _generated_source(name: str) -> str:
    if name in ("interpreter", "stepped"):
        return codegen.interpreter_source(codegen.COUNTED if name == "interpreter" else codegen.STEPPED)
    form = verify(fixture_program(name), VerifyLimits(), FIXTURE_SYSCALLS[name]).form
    return codegen.compiled_source(form)[0]


def _memory_calls(node: ast.AST) -> list[ast.Call]:
    """The ``unpack[...]`` and ``pack[...]`` calls under ``node``."""
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Subscript) and isinstance(call.func.value, ast.Name)
            and call.func.value.id in ("unpack", "pack")]


def _window_loops(node: ast.AST) -> list[ast.AST]:
    """The loops and comprehensions under ``node`` over something named ``*windows``."""
    return [loop for loop in ast.walk(node) if isinstance(loop, (ast.For, ast.comprehension))
            and ast.unparse(loop.iter).endswith("windows")]


def _check_mode(stmt: ast.stmt) -> str | None:
    """"read" or "write" when ``stmt`` is a check: the first window's ``if``,
    whose body only asks ``in_windows`` about that mode's windows, at the
    same address and width, and raises when none covers the access."""
    if not (isinstance(stmt, ast.If) and not stmt.orelse and len(stmt.body) == 1):
        return None
    inner = stmt.body[0]
    if not (isinstance(inner, ast.If) and not inner.orelse and len(inner.body) == 1
            and isinstance(inner.body[0], ast.Raise)):
        return None
    ask = re.fullmatch(r"not in_windows\((read|write)_windows, addr, (\w+)\)", ast.unparse(inner.test))
    if ask is None:
        return None
    mode, width = ask.groups()
    return mode if ast.unparse(stmt.test) == f"addr < {mode[0]}lo or addr + {width} > {mode[0]}hi" else None


@pytest.mark.parametrize("name", GENERATED)
def test_each_checked_access_touches_memory_once_after_a_check_that_only_decides(name):
    # A checked load or store is one check, an ``if`` on the first window
    # whose body asks ``in_windows`` about that mode's windows and faults,
    # then the statement after it: one unpack or pack at ``addr``.  No
    # generated code scans the windows itself, and no statement converts
    # twice.
    tree = ast.parse(_generated_source(name))
    assert _window_loops(tree) == []
    asks = [call for call in ast.walk(tree) if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name) and call.func.id == "in_windows"]
    checked = []  # (the check's mode, the conversion after it)
    for node in ast.walk(tree):
        for block in (getattr(node, "body", None), getattr(node, "orelse", None)):
            if not isinstance(block, list):
                continue
            for stmt, after in zip(block, [*block[1:], ast.Pass()]):
                if isinstance(stmt, (ast.Assign, ast.Expr)):
                    assert len(_memory_calls(stmt)) <= 1, stmt.lineno
                mode = _check_mode(stmt)
                if mode:
                    assert _memory_calls(stmt) == [] and len(_memory_calls(after)) == 1, stmt.lineno
                    checked.append((mode, _memory_calls(after)[0]))
    assert len(asks) == len(checked)
    for mode, call in checked:
        kind = "unpack" if mode == "read" else "pack"
        assert (call.func.value.id, ast.unparse(call.args[1])) == (kind, "addr - base"), call.lineno
    at_addr = [call for call in _memory_calls(tree) if ast.unparse(call.args[1]) == "addr - base"]
    assert len(at_addr) == len(checked)
    if name in ("interpreter", "stepped"):  # ldx, stx or st, and the three stack rows: one each
        assert (len(checked), len(_memory_calls(tree))) == (2, 5)


@pytest.mark.parametrize("name", GENERATED)
def test_generated_code_uses_the_windows_only_as_in_windows_arguments(name):
    # The first windows' bounds come with the rest of the access list's
    # run_state; a run reads its windows only to pass them to in_windows.
    tree = ast.parse(_generated_source(name))
    passed = {id(arg) for call in ast.walk(tree) if isinstance(call, ast.Call)
              and isinstance(call.func, ast.Name) and call.func.id == "in_windows" for arg in call.args}
    uses = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Name)
            and node.id in ("read_windows", "write_windows") and isinstance(node.ctx, ast.Load) and id(node) not in passed]
    assert uses == []


def test_in_windows_is_the_packages_one_scan_of_an_access_lists_windows():
    # Both tiers and checked_store decide a first-window miss through it.
    package = Path(vm.__file__).parent
    scans = {}  # file -> the functions that loop over windows
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and _window_loops(fn):
                scans.setdefault(path.name, []).append(fn.name)
    assert scans == {"memory.py": ["in_windows"]}


def test_a_stack_row_loop_converts_each_row_at_entry_and_on_each_way_out(perfbench_workloads):
    # The compute workload's kernel: a counted self-loop whose only memory
    # traffic is 8-byte stack rows, none of which overlaps another, so it
    # holds every row in a local and has no closed form.  Its counter r5 is
    # read only by its step and its branch, which proven passes do not test:
    # they drop that step, and r5 is set once where they end.  Its passes
    # read and assign locals; each row is loaded once on entry, and each
    # stored row is written back right before the all-taken handover and
    # right before the loop's exit.
    form = verify(perfbench_workloads.Compute(1).kernel).form
    ((_, plan),) = codegen.loop_plans(form).items()
    rows = {(off, sub) for code, sub, _dst, _src, off, _imm in form if code in codegen._STACK_ROWS}
    stored = {(off, sub) for code, sub, _dst, _src, off, _imm in form if code in (V.STX_STACK, V.ST_STACK)}
    assert plan.trip is not None and plan.closed is None and not plan.traps and len(stored) > 1
    assert plan.sunk == {5: -1} and [form[pc][2] for pc in plan.dropped] == [5]
    assert plan.rows.keys() == rows and set(plan.spills) == stored
    tree = ast.parse(codegen.compiled_source(form)[0])
    passes = [node for node in ast.walk(tree)
              if isinstance(node, ast.For) and ast.unparse(node.iter).startswith("range(")]
    assert all(_memory_calls(stmt) == [] for loop in passes for stmt in loop.body)

    def at(call):
        return call.func.value.id, ast.unparse(call.func.slice), ast.unparse(call.args[1])

    expected = Counter({("unpack", str(width), f"stack_at + {off}"): 1 for off, width in rows})
    expected.update({("pack", str(width), f"stack_at + {off}"): 2 for off, width in stored})
    assert Counter(at(call) for call in _memory_calls(tree) if "stack_at" in at(call)[2]) == expected
    ways_out = []  # the statement after each run of write-backs
    for node in ast.walk(tree):
        for block in (getattr(node, "body", None), getattr(node, "orelse", None)):
            if isinstance(block, list):
                spills = [i for i, stmt in enumerate(block) if isinstance(stmt, ast.Expr) and _memory_calls(stmt)]
                if spills:
                    assert spills == list(range(spills[0], spills[-1] + 1)) and len(spills) == len(stored)
                    ways_out.append(ast.unparse(block[spills[-1] + 1]))
    assert sorted(ways_out) == ["executed += it * 27", "raise _Handover"]
