"""Hosting engine: contracts, lifecycle, triggering, isolation, stats."""

import json
import random
import struct
import threading
import uuid

import pytest

from femtoc.asm import assemble
from femtoc.engine import (
    Contract,
    ContextRegionSpec,
    ContextShapeMismatch,
    DuplicateHookName,
    MAX_CONTEXT_SIZE,
    Engine,
    RegionGrant,
    ReturnPolicy,
    SetupPhaseClosed,
    SlotLimitReached,
    UnknownContainer,
    UnknownHook,
    UnknownTenant,
    intersect_contract,
)
from femtoc.fixtures import FIXTURE_SYSCALLS, fixture_program
from femtoc.isa import Program
from femtoc.verifier import VerifyLimits, verify
from femtoc.vm import FaultKind, SyscallTable

EXIT_ONLY = assemble("mov64 r0, 0\nexit")


def engine_with_hook(**hook_kw):
    engine = Engine()
    tenant = engine.register_tenant("alpha")
    hook = engine.register_hook(
        hook_kw.pop("name", "test.hook"), hook_kw.pop("syscalls", (1, 2)), **hook_kw
    )
    return engine, tenant, hook


def test_syscall_grant_is_the_intersection():
    engine = Engine()
    tenant = engine.register_tenant("alpha")
    hook = engine.register_hook("h", allowed_syscalls={1, 2, 0x10})
    cid = engine.install_container(
        tenant, EXIT_ONLY, Contract.of(syscalls={2, 0x10, 0x11}), hook
    )
    assert engine.containers[cid].granted.syscalls == frozenset({2, 0x10})


def test_region_grant_modes_intersect():
    engine = Engine()
    tenant = engine.register_tenant("alpha")
    hook = engine.register_hook(
        "h",
        allowed_syscalls=(),
        context_template=[
            ContextRegionSpec("in", 8, readable=True, writable=False),
            ContextRegionSpec("out", 8, readable=True, writable=True),
        ],
    )
    requested = Contract.of(
        regions=[
            RegionGrant("in", readable=True, writable=True),   # write must be dropped
            RegionGrant("out", readable=False, writable=True),  # narrower than template
            RegionGrant("ghost", readable=True, writable=True),  # no such label
        ]
    )
    granted = engine.containers[
        engine.install_container(tenant, EXIT_ONLY, requested, hook)
    ].granted
    assert granted.regions == frozenset(
        {RegionGrant("in", True, False), RegionGrant("out", False, True)}
    )


def test_grant_dropped_when_no_mode_survives():
    engine = Engine()
    tenant = engine.register_tenant("alpha")
    hook = engine.register_hook(
        "h", (), [ContextRegionSpec("in", 8, readable=True, writable=False)]
    )
    granted = engine.containers[
        engine.install_container(
            tenant,
            EXIT_ONLY,
            Contract.of(regions=[RegionGrant("in", readable=False, writable=True)]),
            hook,
        )
    ].granted
    assert granted.regions == frozenset()


def test_hooks_close_at_first_install():
    engine, tenant, hook = engine_with_hook()
    engine.install_container(tenant, EXIT_ONLY, Contract.of(), hook)
    with pytest.raises(SetupPhaseClosed):
        engine.register_hook("late.hook", ())


def test_duplicate_hook_name_rejected():
    engine = Engine()
    engine.register_hook("same", ())
    with pytest.raises(DuplicateHookName):
        engine.register_hook("same", ())


def test_reserved_and_duplicate_context_labels_rejected():
    engine = Engine()
    with pytest.raises(ValueError):
        engine.register_hook("h1", (), [ContextRegionSpec("stack", 8)])
    with pytest.raises(ValueError):
        engine.register_hook(
            "h2", (), [ContextRegionSpec("a", 8), ContextRegionSpec("a", 8)]
        )


def test_context_region_size_is_bounded_at_registration():
    engine = Engine()
    engine.register_hook("largest", (), [ContextRegionSpec("ctx", MAX_CONTEXT_SIZE)])
    for size in (MAX_CONTEXT_SIZE + 1, 1 << 32, -1):
        with pytest.raises(ValueError, match="'size' out of range"):
            engine.register_hook(f"h{size}", (), [ContextRegionSpec("ctx", size)])
    assert sorted(engine._hook_names) == ["largest"]


def test_unknown_hook_and_tenant_on_install():
    engine, tenant, hook = engine_with_hook()
    with pytest.raises(UnknownHook):
        engine.install_container(tenant, EXIT_ONLY, Contract.of(), uuid.uuid4())
    with pytest.raises(UnknownTenant):
        engine.install_container(uuid.uuid4(), EXIT_ONLY, Contract.of(), hook)


def test_slot_limit():
    engine = Engine()
    tenant = engine.register_tenant("alpha")
    hook = engine.register_hook("h", (), slot_limit=3)
    for _ in range(3):
        engine.install_container(tenant, EXIT_ONLY, Contract.of(), hook)
    with pytest.raises(SlotLimitReached):
        engine.install_container(tenant, EXIT_ONLY, Contract.of(), hook)


def test_trigger_with_no_containers_is_empty():
    engine = Engine()
    hook = engine.register_hook("h", ())
    result = engine.trigger_hook(hook)
    assert result.outcomes == ()
    assert result.policy_value is None


def test_verify_once_across_many_triggers():
    engine, tenant, hook = engine_with_hook(syscalls=())
    cid = engine.install_container(tenant, EXIT_ONLY, Contract.of(), hook)
    for _ in range(5):
        engine.trigger_hook(hook)
    stats = engine.containers[cid].stats
    assert stats.verify_count == 1
    assert stats.runs == 5


def test_first_trigger_scans_each_container_once(check_program_scans):
    engine, tenant, hook = engine_with_hook(syscalls=())
    programs = [EXIT_ONLY, assemble("mov64 r0, 7\nexit"), assemble("mov64 r10, 1\nexit")]
    for program in programs:
        engine.install_container(tenant, program, Contract.of(), hook)
    engine.trigger_hook(hook)
    assert check_program_scans == programs  # the rejected one included
    for _ in range(3):
        engine.trigger_hook(hook)
    assert check_program_scans == programs


def test_rejected_container_reports_errors_and_caches_the_verdict():
    engine, tenant, hook = engine_with_hook(syscalls=())
    bad = assemble("mov64 r10, 1\nexit")
    cid = engine.install_container(tenant, bad, Contract.of(), hook)
    for _ in range(3):
        result = engine.trigger_hook(hook)
        slot = result.outcomes[0]
        assert slot.outcome is None
        assert slot.verify_errors
    stats = engine.containers[cid].stats
    assert stats.verify_count == 1
    assert stats.runs == 0


def test_unallowed_syscall_is_caught_at_verify_not_runtime():
    engine, tenant, hook = engine_with_hook(syscalls={0x10})
    # Contract requests nothing, so granted = {} and the call must be rejected.
    program = assemble("call 0x10\nexit")
    engine.install_container(tenant, program, Contract.of(), hook)
    slot = engine.trigger_hook(hook).outcomes[0]
    assert slot.outcome is None
    assert any(e.kind.value == "UnknownSyscall" for e in slot.verify_errors)


def test_thread_counter_three_switches_to_thread_two():
    engine = Engine()
    tenant = engine.register_tenant("alpha")
    hook = engine.register_hook(
        "sched.thread_switch",
        FIXTURE_SYSCALLS["thread_counter"],
        [ContextRegionSpec("ctx", 16, readable=True, writable=False)],
    )
    cid = engine.install_container(
        tenant,
        fixture_program("thread_counter"),
        Contract.of(syscalls=FIXTURE_SYSCALLS["thread_counter"], regions=[RegionGrant("ctx")]),
        hook,
    )
    for prev in (1, 3, 1):
        engine.trigger_hook(hook, {"ctx": struct.pack("<QQ", prev, 2)})
    store = engine.facilities.stores.container_stores[cid]
    assert store.get(2) == 3


def test_install_and_first_trigger_of_decoded_bytes_build_no_instruction(forbid_instructions):
    engine = Engine()
    tenant = engine.register_tenant("alpha")
    hook = engine.register_hook(
        "sched.thread_switch",
        FIXTURE_SYSCALLS["thread_counter"],
        [ContextRegionSpec("ctx", 16, readable=True, writable=False)],
    )
    counter = fixture_program("thread_counter").to_bytes()
    writes_r10 = assemble("mov64 r10, 1\nexit").to_bytes()
    contract = Contract.of(syscalls=FIXTURE_SYSCALLS["thread_counter"], regions=[RegionGrant("ctx")])
    forbid_instructions()
    cid = engine.install_container(tenant, Program.from_bytes(counter), contract, hook)
    engine.install_container(tenant, Program.from_bytes(writes_r10), contract, hook)
    ran, rejected = engine.trigger_hook(hook, {"ctx": struct.pack("<QQ", 3, 2)}).outcomes
    assert ran.outcome.ok
    assert rejected.verify_errors[0].mnemonic == "mov64"
    assert engine.facilities.stores.container_stores[cid].get(2) == 1


def test_context_payload_must_match_template():
    engine, tenant, hook = engine_with_hook(
        context_template=[ContextRegionSpec("ctx", 16)]
    )
    engine.install_container(tenant, EXIT_ONLY, Contract.of(), hook)
    with pytest.raises(ContextShapeMismatch):
        engine.trigger_hook(hook, {"ctx": bytes(8)})  # wrong size
    with pytest.raises(ContextShapeMismatch):
        engine.trigger_hook(hook, {"nope": bytes(16)})  # unknown label
    engine.trigger_hook(hook, {"ctx": bytes(16)})


def test_omitted_payload_labels_are_zeroed():
    engine = Engine()
    tenant = engine.register_tenant("alpha")
    hook = engine.register_hook(
        "h", (), [ContextRegionSpec("ctx", 8, readable=True, writable=False)]
    )
    program = assemble("ldxdw r0, [r1+0]\nexit")
    engine.install_container(
        tenant, program, Contract.of(regions=[RegionGrant("ctx")]), hook
    )
    slot = engine.trigger_hook(hook).outcomes[0]
    assert slot.outcome.return_value == 0


def test_container_without_region_grant_cannot_touch_context():
    engine = Engine()
    tenant = engine.register_tenant("alpha")
    hook = engine.register_hook(
        "h", (), [ContextRegionSpec("ctx", 8, readable=True, writable=False)]
    )
    program = assemble("ldxdw r0, [r1+0]\nexit")
    engine.install_container(tenant, program, Contract.of(), hook)
    slot = engine.trigger_hook(hook).outcomes[0]
    # No grant, so r1 is not even pointed at the context; the load faults.
    assert slot.outcome.fault is not None
    assert slot.outcome.fault.kind is FaultKind.MEMORY_VIOLATION


def test_read_only_response_grant_blocks_the_write_helper():
    # A read-only grant denies the write; no response region at all fails
    # the helper itself.
    cases = [
        ([RegionGrant("response", readable=True, writable=False)], FaultKind.MEMORY_VIOLATION),
        ([], FaultKind.BAD_SYSCALL),
    ]
    for regions, expected in cases:
        engine = Engine()
        tenant = engine.register_tenant("alpha")
        hook = engine.register_hook(
            "h",
            {0x20},
            [ContextRegionSpec("response", 16, readable=True, writable=True)],
        )
        program = assemble("mov64 r1, 0\nmov64 r2, 7\ncall 0x20\nexit")
        engine.install_container(tenant, program, Contract.of(syscalls={0x20}, regions=regions), hook)
        slot = engine.trigger_hook(hook).outcomes[0]
        assert slot.outcome.fault is not None
        assert slot.outcome.fault.kind is expected
        assert slot.outcome.fault.pc == 2  # attributed to the call


def test_fault_isolation_between_slots():
    engine = Engine(limits=VerifyLimits(64, 4))
    alpha = engine.register_tenant("alpha")
    mallory = engine.register_tenant("mallory")
    hook = engine.register_hook(
        "sched",
        FIXTURE_SYSCALLS["thread_counter"],
        [ContextRegionSpec("ctx", 16, readable=True, writable=False)],
    )
    hostile = engine.install_container(
        mallory, fixture_program("hostile_writer"), Contract.of(), hook
    )
    counter = engine.install_container(
        alpha,
        fixture_program("thread_counter"),
        Contract.of(syscalls=FIXTURE_SYSCALLS["thread_counter"], regions=[RegionGrant("ctx")]),
        hook,
    )
    result = engine.trigger_hook(hook, {"ctx": struct.pack("<QQ", 0, 9)})
    by_id = {slot.container_id: slot for slot in result.outcomes}
    assert by_id[hostile].outcome.fault.kind is FaultKind.MEMORY_VIOLATION
    assert by_id[counter].outcome.fault is None
    assert engine.facilities.stores.container_stores[counter].get(9) == 1
    assert engine.containers[hostile].stats.faults == 1
    assert engine.containers[counter].stats.faults == 0


def test_slot_order_is_attachment_order():
    engine = Engine()
    tenant = engine.register_tenant("alpha")
    hook = engine.register_hook("h", ())
    ids = [engine.install_container(tenant, EXIT_ONLY, Contract.of(), hook) for _ in range(4)]
    result = engine.trigger_hook(hook)
    assert [slot.container_id for slot in result.outcomes] == ids


def test_first_nonzero_wins_policy():
    engine = Engine()
    tenant = engine.register_tenant("alpha")
    hook = engine.register_hook("h", (), return_policy=ReturnPolicy.FIRST_NONZERO_WINS)
    engine.install_container(tenant, assemble("mov64 r0, 0\nexit"), Contract.of(), hook)
    engine.install_container(tenant, assemble("mov64 r0, 7\nexit"), Contract.of(), hook)
    engine.install_container(tenant, assemble("mov64 r0, 9\nexit"), Contract.of(), hook)
    result = engine.trigger_hook(hook)
    assert result.policy_value == 7


def test_ignore_all_policy_has_no_value():
    engine, tenant, hook = engine_with_hook()
    engine.install_container(tenant, assemble("mov64 r0, 3\nexit"), Contract.of(), hook)
    assert engine.trigger_hook(hook).policy_value is None


def test_unknown_return_policy_rejected():
    engine = Engine()
    with pytest.raises(ValueError):
        engine.register_hook("h", (), return_policy="majority_vote")


def test_remove_container():
    engine, tenant, hook = engine_with_hook()
    cid = engine.install_container(tenant, EXIT_ONLY, Contract.of(), hook)
    engine.remove_container(cid)
    assert engine.trigger_hook(hook).outcomes == ()
    assert cid not in engine.facilities.stores.container_stores
    with pytest.raises(UnknownContainer):
        engine.remove_container(cid)


def test_remove_frees_a_slot():
    engine = Engine()
    tenant = engine.register_tenant("alpha")
    hook = engine.register_hook("h", (), slot_limit=1)
    cid = engine.install_container(tenant, EXIT_ONLY, Contract.of(), hook)
    with pytest.raises(SlotLimitReached):
        engine.install_container(tenant, EXIT_ONLY, Contract.of(), hook)
    engine.remove_container(cid)
    engine.install_container(tenant, EXIT_ONLY, Contract.of(), hook)


def test_total_executed_accumulates():
    engine, tenant, hook = engine_with_hook()
    cid = engine.install_container(tenant, EXIT_ONLY, Contract.of(), hook)
    engine.trigger_hook(hook)
    engine.trigger_hook(hook)
    assert engine.containers[cid].stats.total_executed == 4  # 2 instructions each


def test_context_after_snapshots_shared_buffer():
    engine = Engine()
    tenant = engine.register_tenant("alpha")
    hook = engine.register_hook(
        "h", (), [ContextRegionSpec("out", 8, readable=True, writable=True)]
    )
    # Increment the first context word; a reused buffer would keep growing.
    program = assemble(
        "ldxdw r2, [r1+0]\nadd64 r2, 1\nstxdw [r1+0], r2\nmov64 r0, 0\nexit"
    )
    engine.install_container(
        tenant,
        program,
        Contract.of(regions=[RegionGrant("out", readable=True, writable=True)]),
        hook,
    )
    for _ in range(3):
        result = engine.trigger_hook(hook)
        assert result.context_after["out"] == (1).to_bytes(8, "little")


def test_introspection_is_deterministic_and_json_round_trips():
    def build():
        engine = Engine(rng=random.Random(5))
        tenant = engine.register_tenant("alpha")
        hook = engine.register_hook("h", (1, 2), [ContextRegionSpec("ctx", 8)])
        engine.install_container(
            tenant, EXIT_ONLY, Contract.of(syscalls={1}), hook
        )
        engine.trigger_hook(hook)
        return engine

    a, b = build(), build()
    assert a.introspection_json() == b.introspection_json()
    doc = json.loads(a.introspection_json())
    assert doc["containers"][0]["stats"]["runs"] == 1
    assert doc["containers"][0]["stats"]["verify_count"] == 1
    assert doc["hooks"][0]["name"] == "h"


def test_hook_by_name():
    engine = Engine()
    hook = engine.register_hook("named.hook", ())
    assert engine.hook_by_name("named.hook") == hook
    with pytest.raises(UnknownHook):
        engine.hook_by_name("missing")


def test_concurrent_triggers_on_distinct_hooks():
    engine = Engine()
    tenant = engine.register_tenant("alpha")
    hooks = [engine.register_hook(f"h{i}", ()) for i in range(4)]
    cids = [engine.install_container(tenant, EXIT_ONLY, Contract.of(), h) for h in hooks]
    errors = []

    def worker(hook):
        try:
            for _ in range(50):
                engine.trigger_hook(hook)
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=worker, args=(h,)) for h in hooks]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert not errors
    assert [engine.containers[c].stats.runs for c in cids] == [50, 50, 50, 50]


# -- the hook's buffer, reused across triggers ------------------------------

STACK_WRITER = assemble("mov64 r2, 0x77\nstxdw [r10+8], r2\nmov64 r0, 0\nexit")
STACK_READER = assemble("ldxdw r0, [r10+8]\nexit")
# Returns the stack byte it finds, then leaves a mark there for the next run.
STACK_READ_THEN_MARK = assemble(
    "ldxdw r0, [r10+8]\nmov64 r2, 0x77\nstxdw [r10+8], r2\nexit"
)


def test_a_slot_never_sees_the_previous_slots_stack():
    engine, tenant, hook = engine_with_hook()
    engine.install_container(tenant, STACK_WRITER, Contract.of(), hook)
    reader = engine.install_container(tenant, STACK_READER, Contract.of(), hook)
    for _ in range(2):
        result = engine.trigger_hook(hook)
        by_id = {slot.container_id: slot for slot in result.outcomes}
        assert by_id[reader].outcome.fault is None
        assert by_id[reader].outcome.return_value == 0


def test_a_container_never_sees_its_own_stack_from_the_last_trigger():
    engine, tenant, hook = engine_with_hook()
    engine.install_container(tenant, STACK_READ_THEN_MARK, Contract.of(), hook)
    for _ in range(3):
        (slot,) = engine.trigger_hook(hook).outcomes
        assert slot.outcome.fault is None
        assert slot.outcome.return_value == 0


def test_a_context_region_left_out_of_the_next_event_reads_zero():
    engine = Engine()
    tenant = engine.register_tenant("alpha")
    hook = engine.register_hook(
        "h",
        (),
        [
            ContextRegionSpec("out", 8, readable=True, writable=True),
            ContextRegionSpec("in", 8, readable=True, writable=False),
        ],
    )
    # Returns the first word of "out", then overwrites it.
    program = assemble("ldxdw r0, [r1+0]\nmov64 r2, 0x55\nstxdw [r1+0], r2\nexit")
    engine.install_container(
        tenant, program, Contract.of(regions=[RegionGrant("out", True, True)]), hook
    )
    first = engine.trigger_hook(hook, {"out": struct.pack("<Q", 7), "in": bytes(8)})
    assert first.outcomes[0].outcome.return_value == 7
    assert first.context_after["out"] == struct.pack("<Q", 0x55)
    second = engine.trigger_hook(hook, {"in": struct.pack("<Q", 3)})
    assert second.outcomes[0].outcome.return_value == 0
    assert second.context_after == {"out": struct.pack("<Q", 0x55), "in": struct.pack("<Q", 3)}


def test_guards_stay_intact_in_the_hooks_buffer_after_a_hostile_writer():
    engine = Engine()
    tenant = engine.register_tenant("mallory")
    hook = engine.register_hook("h", (), [ContextRegionSpec("ctx", 16, True, True)])
    hostile = fixture_program("hostile_writer")
    for _ in range(2):
        engine.install_container(
            tenant, hostile, Contract.of(regions=[RegionGrant("ctx", True, True)]), hook
        )
    memory = engine.hooks[hook].memory
    for _ in range(2):
        result = engine.trigger_hook(hook, {"ctx": bytes(range(16))})
        kinds = [slot.outcome.fault.kind for slot in result.outcomes]
        assert kinds == [FaultKind.MEMORY_VIOLATION] * 2
        assert memory.guards_intact()


# Returns r10. When the first word of region "a" is nonzero, it instead
# loads the byte that far above r10, past the stack when it is 512.
R10_PROBE = assemble(
    """
    mov64 r0, r10
    ldxdw r2, [r1+0]
    jeq r2, 0, +3
    mov64 r3, r10
    add64 r3, r2
    ldxb r0, [r3+0]
    exit
    """
)
NOT_GRANTED = assemble("call 0x30\nexit")  # fails verification: 0x30 is not granted
# Addresses the allocation order gives: regions a (8 bytes) and b (16 bytes),
# then one 512-byte stack per running slot, each region fenced by 16-byte guards.
STACK_0, STACK_1 = 0x1068, 0x1288


def test_running_slots_take_stacks_in_order_and_keep_their_addresses():
    engine = Engine()
    tenant = engine.register_tenant("alpha")
    hook = engine.register_hook(
        "h", (), [ContextRegionSpec("a", 8, True, True), ContextRegionSpec("b", 16, True, False)]
    )
    contract = Contract.of(regions=[RegionGrant("a", True, True), RegionGrant("b")])
    first, rejected, third = (
        engine.install_container(tenant, program, contract, hook)
        for program in (R10_PROBE, NOT_GRANTED, R10_PROBE)
    )

    def returns(event=None):
        result = engine.trigger_hook(hook, event)
        return {s.container_id: s.outcome and s.outcome.return_value for s in result.outcomes}

    def faults():
        result = engine.trigger_hook(hook, {"a": struct.pack("<Q", 512), "b": bytes(16)})
        return {s.container_id: s.outcome and s.outcome.fault for s in result.outcomes}

    assert returns() == {first: STACK_0, rejected: None, third: STACK_1}
    fault = faults()[third]
    assert (fault.kind, fault.pc, fault.addr, fault.length) == (
        FaultKind.MEMORY_VIOLATION, 5, STACK_1 + 512, 1
    )

    engine.remove_container(first)
    assert returns() == {rejected: None, third: STACK_0}
    assert faults()[third].addr == STACK_0 + 512
    fourth = engine.install_container(tenant, R10_PROBE, contract, hook)
    assert returns() == {rejected: None, third: STACK_0, fourth: STACK_1}


def test_a_replaced_engine_helper_table_takes_effect_at_the_next_trigger():
    engine, tenant, hook = engine_with_hook(syscalls=(0x10,))
    program = assemble("call 0x10\ncall 0x30\nexit")
    # Verified as if 0x30 were granted, so only the helper table stands
    # between the program and 0x30 at run time.
    verified = verify(program, engine.limits, frozenset({0x10, 0x30}))
    cid = engine.install_container(
        tenant, program, Contract.of(syscalls={0x10, 0x30}), hook, verified=verified
    )
    assert engine.containers[cid].granted.syscalls == frozenset({0x10})

    def fault_of_one_trigger():
        (slot,) = engine.trigger_hook(hook).outcomes
        return slot.outcome.fault.kind, slot.outcome.fault.pc

    assert fault_of_one_trigger() == (FaultKind.BAD_SYSCALL, 1)
    calls = []
    original = engine.syscall_table
    wrapped = SyscallTable()
    for sys_id in sorted(original.ids()):
        entry = original.lookup(sys_id)

        def recording(env, *args, entry=entry):
            calls.append(entry.id)
            return entry.fn(env, *args)

        wrapped.register(sys_id, recording, entry.argc, entry.name)
    engine.syscall_table = wrapped
    assert fault_of_one_trigger() == (FaultKind.BAD_SYSCALL, 1)
    assert calls == [0x10]
    engine.syscall_table = original
    assert fault_of_one_trigger() == (FaultKind.BAD_SYSCALL, 1)
    assert calls == [0x10]
