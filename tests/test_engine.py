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
from femtoc.verifier import VerifyLimits
from femtoc.vm import FaultKind

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
