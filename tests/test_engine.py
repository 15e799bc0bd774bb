"""Hosting engine: contracts, lifecycle, triggering, isolation, stats."""

import ast
import collections
import gc
import inspect
import json
import random
import struct
import threading
import tracemalloc
import uuid
import weakref
from pathlib import Path

import pytest

import femtoc
from femtoc import vm
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
from femtoc.facilities import SensorFixture
from femtoc.fixtures import FIXTURE_SYSCALLS, fixture_program
from femtoc.isa import Program
from femtoc.memory import AccessList, HostMemory, fresh_stack
from femtoc.verifier import VerifyErrorKind, VerifyLimits, VerifyRejected, verify
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


def test_introspection_lists_a_hooks_context_as_registered():
    engine = Engine()
    template = [ContextRegionSpec("zeta", 24), ContextRegionSpec("alpha", 8, readable=True, writable=True),
                ContextRegionSpec("mid", 0, readable=False, writable=True)]
    engine.register_hook("h", (), template)
    (hook,) = engine.introspection()["hooks"]
    assert hook["context"] == [{"label": "zeta", "size": 24, "mode": "r"}, {"label": "alpha", "size": 8, "mode": "rw"},
                               {"label": "mid", "size": 0, "mode": "w"}]


def test_a_containers_views_follow_the_hooks_layout_not_its_labels():
    engine = Engine()
    tenant = engine.register_tenant("alpha")
    hook = engine.register_hook("h", (), [ContextRegionSpec("zeta", 8), ContextRegionSpec("alpha", 8)])
    grant = Contract.of(regions=[RegionGrant("alpha"), RegionGrant("zeta")])
    container = engine.containers[engine.install_container(tenant, assemble("ldxdw r0, [r1+0]\nexit"), grant, hook)]
    assert [view.label for view in container.views] == ["zeta", "alpha"]
    assert container.env.acl.r1 == container.views[0].base
    event = {"zeta": struct.pack("<Q", 7), "alpha": struct.pack("<Q", 9)}
    (slot,) = engine.trigger_hook(hook, event).outcomes
    assert slot.outcome.return_value == 7  # r1 is the first region of the layout


def _intersect_by_template(hook, template, requested):
    """The grant as the context template ``hook`` was registered with defines it, built afresh."""
    specs = {spec.label: spec for spec in template}
    regions = set()
    for grant in requested.regions:
        spec = specs.get(grant.label)
        if spec is not None and (grant.readable and spec.readable or grant.writable and spec.writable):
            regions.add(RegionGrant(grant.label, grant.readable and spec.readable, grant.writable and spec.writable))
    return Contract(requested.syscalls & hook.allowed_syscalls, frozenset(regions))


def test_intersect_contract_equals_the_templates_grant_and_keeps_an_unnarrowed_request():
    engine = Engine()
    template = [ContextRegionSpec("in", 8), ContextRegionSpec("out", 8, readable=True, writable=True)]
    hook = engine.hooks[engine.register_hook("h", (1, 2), template)]
    grants = [RegionGrant(label, r, w) for label in ("in", "out", "ghost") for r in (False, True) for w in (False, True)]
    rng = random.Random(7)
    for _ in range(300):
        requested = Contract.of(rng.sample((1, 2, 3), rng.randrange(4)), rng.sample(grants, rng.randrange(4)))
        granted, expected = intersect_contract(hook, requested), _intersect_by_template(hook, template, requested)
        assert granted == expected and hash(granted) == hash(expected)
        assert granted.to_json() == expected.to_json()
        assert (granted is requested) == (expected == requested)


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
    for program in programs[:2]:
        engine.install_container(tenant, program, Contract.of(), hook)
    with pytest.raises(VerifyRejected):
        engine.install_container(tenant, programs[2], Contract.of(), hook)
    engine.trigger_hook(hook)
    assert check_program_scans == programs  # the rejected one included
    for _ in range(3):
        engine.trigger_hook(hook)
    assert check_program_scans == programs


def test_a_rejected_install_raises_every_violation_and_binds_nothing():
    engine, tenant, hook = engine_with_hook(syscalls=())
    bad = assemble("mov64 r10, 1\nmov64 r10, 2\nexit")
    with pytest.raises(VerifyRejected) as err:
        engine.install_container(tenant, bad, Contract.of(), hook)
    assert [(e.slot_index, e.mnemonic) for e in err.value.errors] == [(0, "mov64"), (1, "mov64")]
    assert engine.containers == {} and engine.trigger_hook(hook).outcomes == ()


def test_unallowed_syscall_is_caught_at_verify_not_runtime():
    engine, tenant, hook = engine_with_hook(syscalls={0x10})
    # Contract requests nothing, so granted = {} and the call must be rejected.
    program = assemble("call 0x10\nexit")
    with pytest.raises(VerifyRejected) as err:
        engine.install_container(tenant, program, Contract.of(), hook)
    assert any(e.kind.value == "UnknownSyscall" for e in err.value.errors)


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
    with pytest.raises(VerifyRejected) as err:
        engine.install_container(tenant, Program.from_bytes(writes_r10), contract, hook)
    assert err.value.errors[0].mnemonic == "mov64"
    (ran,) = engine.trigger_hook(hook, {"ctx": struct.pack("<QQ", 3, 2)}).outcomes
    assert ran.outcome.ok
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


def test_a_replace_takes_the_access_list_of_its_new_grant():
    engine = Engine()
    tenant = engine.register_tenant("alpha")
    hook = engine.register_hook("h", (), [ContextRegionSpec("ctx", 8, readable=True, writable=False)])
    granted = Contract.of(regions=[RegionGrant("ctx")])
    container = engine.install_container(tenant, assemble("mov64 r0, r1\nexit"), granted, hook)
    ctx_base = engine.trigger_hook(hook).outcomes[0].outcome.return_value
    reader = assemble(f"lddw r2, {ctx_base:#x}\nldxdw r0, [r2+0]\nexit")
    for contract, fault in ((Contract.of(), FaultKind.MEMORY_VIOLATION), (granted, None)):
        engine.replace_container(container, reader, contract)
        outcome = engine.trigger_hook(hook).outcomes[0].outcome
        assert (outcome.fault and outcome.fault.kind) == fault


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


# The response region sits between two others, so a write that lands by any
# other region's base shows up in the wrong bytes.
RESPONSE_HOOK = [
    ContextRegionSpec("request", 8),
    ContextRegionSpec("response", 16, readable=True, writable=True),
    ContextRegionSpec("scratch", 8, readable=True, writable=True),
]
RESPONSE_RW = RegionGrant("response", readable=True, writable=True)
WRITTEN = 0x5EED


def response_writer(offset: int, after: str = "") -> Program:
    """Calls response_write(offset, WRITTEN) from slot 2, then runs ``after``."""
    return assemble(f"mov64 r1, {offset}\nmov64 r2, {WRITTEN}\ncall 0x20\n{after}exit")


def one_response_write(offset, regions):
    """The hook, the container and the result of one trigger of a lone
    response writer granted ``regions``."""
    engine, tenant, hook_id = engine_with_hook(syscalls=(0x20,), context_template=RESPONSE_HOOK)
    cid = engine.install_container(tenant, response_writer(offset), Contract.of({0x20}, regions), hook_id)
    result = engine.trigger_hook(hook_id)
    return engine.hooks[hook_id], engine.containers[cid], result


@pytest.fixture(params=["interpreted", "compiled"])
def tier(request):
    """Run the test on each tier; the compiled one returns its forms."""
    return request.getfixturevalue("compiled_tier") if request.param == "compiled" else None


def test_response_write_lands_at_the_response_region_plus_offset(tier):
    regions = [RegionGrant("request"), RESPONSE_RW, RegionGrant("scratch", readable=True, writable=True)]
    for offset in (0, 8):
        _, _, result = one_response_write(offset, regions)
        (slot,) = result.outcomes
        assert slot.outcome.ok and slot.outcome.return_value == 0
        expected = bytearray(16)
        expected[offset : offset + 8] = struct.pack("<Q", WRITTEN)
        assert result.context_after == {"request": bytes(8), "response": expected, "scratch": bytes(8)}
    assert tier is None or len(tier) == 2


def test_response_write_without_a_response_grant_faults_at_the_call(tier):
    for regions in ([], [RegionGrant("request"), RegionGrant("scratch", readable=True, writable=True)]):
        _, _, result = one_response_write(0, regions)
        fault = result.outcomes[0].outcome.fault
        assert (fault.kind, fault.pc, fault.addr, fault.note) == (
            FaultKind.BAD_SYSCALL, 2, None, "no response region on this hook"
        )
        assert result.context_after["scratch"] == bytes(8)


def test_response_write_is_checked_against_the_access_list(tier):
    read_only = RegionGrant("response", readable=True, writable=False)
    for offset, grant in ((0, read_only), (8, read_only), (9, RESPONSE_RW), (-8, RESPONSE_RW)):
        hook, _, result = one_response_write(offset, [grant])
        fault = result.outcomes[0].outcome.fault
        addr = (hook.context["response"].base + offset) & (1 << 64) - 1
        assert (fault.kind, fault.pc, fault.addr, fault.length, fault.note) == (
            FaultKind.MEMORY_VIOLATION, 2, addr, 8, "helper response_write denied"
        )
        assert result.context_after["response"] == bytes(16)


def test_response_write_reaches_the_runs_own_stack_and_no_other(tier):
    # The write is checked like any other against the run's access list,
    # which holds the stack of the running slot's position.
    engine, tenant, hook_id = engine_with_hook(syscalls=(0x20,), context_template=RESPONSE_HOOK)
    contract = Contract.of({0x20}, [RESPONSE_RW])
    engine.install_container(tenant, EXIT_ONLY, contract, hook_id)
    writer = engine.install_container(tenant, EXIT_ONLY, contract, hook_id)
    hook = engine.hooks[hook_id]
    response = hook.context["response"].base

    def write_at(addr):
        program = response_writer(addr - response, "ldxdw r0, [r10+0]\n")
        engine.replace_container(writer, program, contract)
        return engine.trigger_hook(hook_id).outcomes[1].outcome

    outcome = write_at(hook.stacks[1].base)
    assert outcome.ok and outcome.return_value == WRITTEN
    fault = write_at(hook.stacks[0].base).fault
    assert (fault.kind, fault.pc, fault.addr, fault.length) == (
        FaultKind.MEMORY_VIOLATION, 2, hook.stacks[0].base, 8
    )


def test_two_response_grants_write_through_the_first_view(tier):
    # Views are ordered by template position, then mode: the write-only
    # grant's view comes first and is the one the caller carries.
    grants = [RegionGrant("response", readable=True, writable=False),
              RegionGrant("response", readable=False, writable=True)]
    _, container, result = one_response_write(8, grants)
    assert result.outcomes[0].outcome.ok
    assert result.context_after["response"] == bytes(8) + struct.pack("<Q", WRITTEN)
    first = container.views[0]
    assert (first.label, first.readable, first.writable) == ("response", False, True)
    assert container.env.response is first


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
    with pytest.raises(UnknownContainer):
        engine.replace_container(cid, EXIT_ONLY, Contract.of())
    assert engine.trigger_hook(hook).outcomes == () and cid not in engine.containers


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


def counting_program(mark: int, tenant_key: int) -> Program:
    """Adds ``mark`` to container key 1 and copies the sum to tenant key
    ``tenant_key``; returns the sum."""
    return assemble(
        f"""
        mov64 r1, 1
        call 0x02
        mov64 r6, r0
        add64 r6, {mark}
        mov64 r1, 1
        mov64 r2, r6
        call 0x01
        mov64 r1, {tenant_key}
        mov64 r2, r6
        call 0x05
        mov64 r0, r6
        exit
"""
    )


def test_a_container_never_reaches_an_old_store():
    engine = Engine()
    tenants = {name: engine.register_tenant(name) for name in ("A", "B")}
    hook = engine.register_hook("h", (0x01, 0x02, 0x05))
    contract = Contract.of(syscalls={0x01, 0x02, 0x05})
    marks = {("A", 1): 1, ("A", 2): 10, ("B", 1): 100, ("B", 2): 1000}
    keys = {who: n for n, who in enumerate(marks, 1)}
    cids = {
        who: engine.install_container(tenants[who[0]], counting_program(mark, keys[who]), contract, hook)
        for who, mark in marks.items()
    }
    stores = engine.facilities.stores

    def trigger(times):
        for _ in range(times):
            outcomes = engine.trigger_hook(hook).outcomes
            assert all(slot.outcome.ok for slot in outcomes)
        return [slot.outcome.return_value for slot in outcomes]

    assert trigger(3) == [3, 30, 300, 3000]

    old_a1 = stores.container_stores[cids[("A", 1)]]
    engine.replace_container(cids[("A", 1)], counting_program(5, keys[("A", 1)]), contract)
    new_a1 = stores.container_stores[cids[("A", 1)]]
    assert new_a1 is not old_a1 and new_a1.entries == {}
    assert trigger(2) == [10, 50, 500, 5000]
    assert old_a1.entries == {1: 3}

    old_b2 = stores.container_stores[cids[("B", 2)]]
    engine.remove_container(cids[("B", 2)])
    assert cids[("B", 2)] not in stores.container_stores
    assert trigger(1) == [15, 60, 600]
    assert old_b2.entries == {1: 5000}

    def store(scope, owner, entries):
        rows = [{"key": k, "value": v} for k, v in sorted(entries.items())]
        return {"scope": scope, "owner": str(owner), "entries": rows}

    containers = {cids[("A", 1)]: 15, cids[("A", 2)]: 60, cids[("B", 1)]: 600}
    assert engine.store_dump() == [
        {"scope": "global", "owner": None, "entries": []},
        *sorted(
            [store("tenant", tenants["A"], {1: 15, 2: 60}), store("tenant", tenants["B"], {3: 600, 4: 5000})],
            key=lambda row: row["owner"],
        ),
        *sorted(
            (store("container", cid, {1: value}) for cid, value in containers.items()),
            key=lambda row: row["owner"],
        ),
    ]


def test_a_compiled_container_never_reaches_an_old_store(compiled_tier):
    test_a_container_never_reaches_an_old_store()
    assert len(compiled_tier) == 5


class CallSites(ast.NodeVisitor):
    """(callee, enclosing module.class.function) of every call to ``names``."""

    def __init__(self, module: str, names: set[str]):
        self.scope, self.names, self.found = [module], names, []

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef

    def visit_Call(self, node):
        callee = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
        if callee in self.names:
            self.found.append((callee, ".".join(self.scope)))
        self.generic_visit(node)


def test_only_bind_builds_a_callers_capabilities():
    # One place builds a container's capability record: the package
    # constructs SyscallEnv only in Engine._bind, which is also the only
    # caller of the StoreManager method that resolves the stores it reaches.
    found = []
    for path in sorted(Path(femtoc.__file__).parent.glob("*.py")):
        sites = CallSites(path.stem, {"SyscallEnv", "bind_container"})
        sites.visit(ast.parse(path.read_text(), str(path)))
        found += sites.found
    assert sorted(found) == [
        ("SyscallEnv", "engine.Engine._bind"),
        ("bind_container", "engine.Engine._bind"),
    ]


def test_only_link_builds_access_lists_and_only_bind_and_the_table_setter_cut_helper_tables():
    # A trigger only reads a container's capabilities: Engine._link fixes
    # its access list whenever its hook's slots change, and its helper table
    # comes from Engine._helpers, the one method that cuts tables, once per
    # granted set, when it is bound and when Engine.syscall_table is replaced.
    found = []
    for path in sorted(Path(femtoc.__file__).parent.glob("*.py")):
        sites = CallSites(path.stem, {"AccessList", "restricted", "_helpers"})
        sites.visit(ast.parse(path.read_text(), str(path)))
        found += sites.found
    assert sorted(found) == [
        ("AccessList", "engine.Engine._link"),
        ("_helpers", "engine.Engine._bind"),
        ("_helpers", "engine.Engine.syscall_table"),  # its setter
        ("restricted", "engine.Engine._helpers"),
    ]


def test_only_bind_and_the_update_path_verify_through_verify_for():
    # The package calls verifier.verify at one site: Engine.verify_for, which
    # joins the engine's limits with the helper ids the hook grants.
    # Engine._bind calls it before it changes anything, for installs,
    # replaces and signed updates alike; update.py calls no verification.
    found = []
    for path in sorted(Path(femtoc.__file__).parent.glob("*.py")):
        sites = CallSites(path.stem, {"verify", "intersect_contract", "verify_for"})
        sites.visit(ast.parse(path.read_text(), str(path)))
        found += sites.found
    assert sorted(found) == [
        ("intersect_contract", "engine.Engine._bind"),
        ("verify", "engine.Engine.verify_for"),
        ("verify", "update._signature_valid"),  # Ed25519PublicKey.verify, the signature check
        ("verify_for", "cli.cmd_bench"),  # times a verification on its own engine
        ("verify_for", "engine.Engine._bind"),
    ]
    assert not hasattr(femtoc.update, "verify") and not hasattr(femtoc.update, "intersect_contract")


def test_no_public_engine_method_takes_a_verdict():
    # A caller hands the engine a program, never a verdict: one made under
    # other limits, or for another program, would run under its budget.
    public = [name for name in dir(Engine) if not name.startswith("_") and callable(getattr(Engine, name))]
    assert {"install_container", "replace_container", "update_container"} <= set(public)
    for name in public:
        params = inspect.signature(getattr(Engine, name)).parameters.values()
        assert not any(p.name == "verified" or "VerifiedProgram" in str(p.annotation) for p in params), name


def test_a_container_is_verified_when_bound_and_never_under_a_trigger(monkeypatch):
    from femtoc import engine as engine_module
    from femtoc.update import apply_update, build_manifest, private_key_from_seed, public_key_raw, sign_manifest

    verifies = []  # one entry per verify call: whether a trigger was running
    triggering = []
    original_verify, original_trigger = engine_module.verify, Engine.trigger_hook

    def counted_verify(*args):
        verifies.append(bool(triggering))
        return original_verify(*args)

    def watched_trigger(self, *args):
        triggering.append(True)
        try:
            return original_trigger(self, *args)
        finally:
            triggering.pop()

    monkeypatch.setattr(engine_module, "verify", counted_verify)
    monkeypatch.setattr(Engine, "trigger_hook", watched_trigger)

    keys = {name: private_key_from_seed(name.encode()) for name in ("alpha", "beta")}
    engine = Engine()
    tenants = {name: engine.register_tenant(name, public_key_raw(key)) for name, key in keys.items()}
    hook = engine.register_hook("h", (1, 2))

    def states():
        return {
            uuid.UUID(c["container_id"]): (c["verified"], c["rejected"], c["stats"]["verify_count"])
            for c in engine.introspection()["containers"]
        }

    good = engine.install_container(tenants["alpha"], EXIT_ONLY, Contract.of(), hook)
    assert verifies == [False] and states() == {good: (True, False, 1)}
    with pytest.raises(VerifyRejected):
        engine.install_container(tenants["alpha"], assemble("mov64 r10, 1\nexit"), Contract.of(), hook)
    assert verifies == [False] * 2 and states() == {good: (True, False, 1)}
    second = engine.install_container(tenants["alpha"], assemble("mov64 r0, 2\nexit"), Contract.of(), hook)
    assert verifies == [False] * 3 and states()[second] == (True, False, 1)
    for _ in range(3):
        engine.trigger_hook(hook)
    assert verifies == [False] * 3

    # An accepted update verifies once, through the engine, and binds what
    # it verified: beta's installs a container, alpha's replaces one.
    # Alpha's has the bytes and grant of beta's live container, so it shares
    # that verdict and verifies nothing more; its verify_count is still 1.
    payload = assemble("mov64 r0, 9\nexit").to_bytes()
    for name, verified in (("beta", [False]), ("alpha", [])):
        manifest = sign_manifest(build_manifest(tenants[name], hook, 1, payload, Contract.of()), keys[name])
        before = len(verifies)
        outcome = apply_update(engine, manifest, payload)
        assert outcome.accepted and verifies[before:] == verified
        assert states()[outcome.container_id] == (True, False, 1)
    returns = [slot.outcome.return_value for slot in engine.trigger_hook(hook).outcomes]
    assert returns == [9, 2, 9] and verifies == [False] * 4
    assert all(c["stats"]["verify_count"] == 1 for c in engine.introspection()["containers"])


@pytest.mark.parametrize("entry", ["install", "replace", "update_installs", "update_replaces"])
def test_a_spin_loop_ends_at_the_engines_budget_however_it_was_bound(entry):
    # VerifyLimits(8, 2) gives every run 16 steps, whichever way the program
    # reached its slot: the engine verifies it under its own limits.
    from femtoc.update import apply_update, build_manifest, private_key_from_seed, public_key_raw, sign_manifest

    key = private_key_from_seed(b"alpha")
    engine = Engine(VerifyLimits(8, 2))
    tenant = engine.register_tenant("alpha", public_key_raw(key))
    hook = engine.register_hook("h", ())
    spin = assemble("ja -1\nexit")
    old = engine.install_container(tenant, EXIT_ONLY, Contract.of(), hook) if "replace" in entry else None
    if entry == "install":
        engine.install_container(tenant, spin, Contract.of(), hook)
    elif entry == "replace":
        engine.replace_container(old, spin, Contract.of())
    else:
        payload = spin.to_bytes()
        manifest = sign_manifest(build_manifest(tenant, hook, 1, payload, Contract.of()), key)
        outcome = apply_update(engine, manifest, payload)
        assert outcome.accepted and outcome.container_id == (old or outcome.container_id)
    (slot,) = engine.trigger_hook(hook).outcomes  # one slot: replaced in place, or installed
    assert (slot.outcome.fault.kind, slot.outcome.executed) == (FaultKind.BUDGET_EXCEEDED, 16)


@pytest.mark.parametrize("entry", ["install", "install_on_full_hook", "replace", "update_installs", "update_replaces"])
def test_a_rejected_program_changes_nothing_whichever_way_it_arrives(entry):
    # Every entry verifies before it changes anything, so a program that
    # fails is refused with every byte of engine state as it was: no slot,
    # no store, no id drawn from a seeded engine, and an engine that had no
    # container stays in its setup phase.  On a full hook it is the
    # verification that refuses it, not the slot limit.
    from femtoc.update import (
        UpdateReject, apply_update, build_manifest, private_key_from_seed, public_key_raw, sign_manifest
    )

    key = private_key_from_seed(b"alpha")
    rng = random.Random(11)
    engine = Engine(rng=rng)
    tenant = engine.register_tenant("alpha", public_key_raw(key))
    hook = engine.register_hook("h", (), slot_limit=1)
    bad = assemble("mov64 r10, 1\nexit")
    bound = None if entry in ("install", "update_installs") else engine.install_container(
        tenant, EXIT_ONLY, Contract.of(), hook
    )
    before = engine.introspection_json(), json.dumps(engine.store_dump()), rng.getstate()
    if entry.startswith("update"):
        manifest = sign_manifest(build_manifest(tenant, hook, 1, bad.to_bytes(), Contract.of()), key)
        assert apply_update(engine, manifest, bad.to_bytes()).reason is UpdateReject.VERIFY_REJECTED
    else:
        with pytest.raises(VerifyRejected):
            if entry == "replace":
                engine.replace_container(bound, bad, Contract.of())
            else:
                engine.install_container(tenant, bad, Contract.of(), hook)
    assert (engine.introspection_json(), json.dumps(engine.store_dump()), rng.getstate()) == before
    if bound is None:
        engine.register_hook("later", ())  # the setup phase is still open
    assert [slot.outcome.ok for slot in engine.trigger_hook(hook).outcomes] == [True] * (bound is not None)


def test_tenant_container_on_hook_raises_unknown_hook():
    engine, tenant, hook = engine_with_hook()
    assert engine.tenant_container_on_hook(tenant, hook) is None
    for tenant_id in (tenant, uuid.uuid4()):
        with pytest.raises(UnknownHook):
            engine.tenant_container_on_hook(tenant_id, uuid.uuid4())


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
# then one 512-byte stack per slot, each region fenced by 16-byte guards.
STACK_0, STACK_1 = 0x1068, 0x1288


def test_running_slots_take_stacks_in_order_and_keep_their_addresses():
    engine = Engine()
    tenant = engine.register_tenant("alpha")
    hook = engine.register_hook(
        "h", (), [ContextRegionSpec("a", 8, True, True), ContextRegionSpec("b", 16, True, False)]
    )
    contract = Contract.of(regions=[RegionGrant("a", True, True), RegionGrant("b")])
    first, second = (engine.install_container(tenant, R10_PROBE, contract, hook) for _ in range(2))

    def returns(event=None):
        result = engine.trigger_hook(hook, event)
        return {s.container_id: s.outcome.return_value for s in result.outcomes}

    def faults():
        result = engine.trigger_hook(hook, {"a": struct.pack("<Q", 512), "b": bytes(16)})
        return {s.container_id: s.outcome.fault for s in result.outcomes}

    assert returns() == {first: STACK_0, second: STACK_1}
    fault = faults()[second]
    assert (fault.kind, fault.pc, fault.addr, fault.length) == (
        FaultKind.MEMORY_VIOLATION, 5, STACK_1 + 512, 1
    )

    engine.remove_container(first)
    assert returns() == {second: STACK_0}
    assert faults()[second].addr == STACK_0 + 512
    third = engine.install_container(tenant, R10_PROBE, contract, hook)
    assert returns() == {second: STACK_0, third: STACK_1}


STACK_2 = STACK_1 + (STACK_1 - STACK_0)


def test_a_replaced_first_slot_keeps_every_slots_stack():
    engine = Engine()
    tenant = engine.register_tenant("alpha")
    hook = engine.register_hook(
        "h", (), [ContextRegionSpec("a", 8, True, True), ContextRegionSpec("b", 16, True, False)]
    )
    contract = Contract.of(regions=[RegionGrant("a", True, True), RegionGrant("b")])
    first, second, third = (engine.install_container(tenant, R10_PROBE, contract, hook) for _ in range(3))

    def returns():
        result = engine.trigger_hook(hook)
        return {s.container_id: s.outcome.return_value for s in result.outcomes}

    def fault_addrs():
        result = engine.trigger_hook(hook, {"a": struct.pack("<Q", 512), "b": bytes(16)})
        return {s.container_id: s.outcome.fault.addr for s in result.outcomes}

    assert returns() == {first: STACK_0, second: STACK_1, third: STACK_2}
    acls = [engine.containers[cid].env.acl for cid in (second, third)]
    with pytest.raises(VerifyRejected):
        engine.replace_container(first, NOT_GRANTED, contract)
    engine.replace_container(first, R10_PROBE, contract)
    assert all(engine.containers[cid].env.acl is acl for cid, acl in zip((second, third), acls))
    assert returns() == {first: STACK_0, second: STACK_1, third: STACK_2}
    assert fault_addrs() == {first: STACK_0 + 512, second: STACK_1 + 512, third: STACK_2 + 512}
    assert len(engine.hooks[hook].stacks) == 3


def test_a_replaced_engine_helper_table_is_cut_at_install_and_replace_and_only_for_live_containers():
    engine, tenant, hook = engine_with_hook(syscalls=(0x30,))
    contract = Contract.of(syscalls={0x30})
    logs = [assemble(f"mov64 r1, {value}\ncall 0x30\nexit") for value in range(3)]
    kept, removed = (engine.install_container(tenant, logs[0], contract, hook) for _ in range(2))
    gone = engine.containers[removed]
    gone_table = gone.env.helpers
    engine.remove_container(removed)

    calls = []
    table = SyscallTable()
    table.register(0x30, lambda env, value: calls.append((env.container_id, value)), 1, "debug_log")
    engine.syscall_table = table
    assert gone.env.helpers is gone_table
    added = engine.install_container(tenant, logs[1], contract, hook)
    engine.replace_container(kept, logs[2], contract)
    for cid in (kept, added):  # cut when bound, before any trigger
        assert engine.containers[cid].env.helpers.lookup(0x30) is table.lookup(0x30)
    assert all(slot.outcome.ok for slot in engine.trigger_hook(hook).outcomes)
    assert calls == [(kept, 2), (added, 1)]


def test_a_replaced_engine_helper_table_takes_effect_at_the_next_trigger():
    # A swapped table reaches the container at its next trigger, cut to the
    # grant: the hook narrows {0x10, 0x30} to {0x10}.  That a cut table
    # refuses an id the verdict allows is shown in tests/test_vm.py by
    # test_a_restricted_table_refuses_an_id_the_verdict_allows_on_both_tiers.
    engine, tenant, hook = engine_with_hook(syscalls=(0x10,))
    program = assemble("call 0x10\ncall 0x10\nexit")
    cid = engine.install_container(tenant, program, Contract.of(syscalls={0x10, 0x30}), hook)
    assert engine.containers[cid].granted.syscalls == frozenset({0x10})

    def one_trigger():
        (slot,) = engine.trigger_hook(hook).outcomes
        return slot.outcome.ok, engine.containers[cid].env.helpers.ids()

    assert one_trigger() == (True, {0x10})
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
    assert 0x30 in wrapped.ids() and calls == []
    assert one_trigger() == (True, {0x10})
    assert calls == [0x10, 0x10]
    engine.syscall_table = original
    assert one_trigger() == (True, {0x10})
    assert calls == [0x10, 0x10]


SAMPLES = [10, 20, 30]


def fleet_engine():
    """One engine with the four fleet fixtures on three hooks, as the fleet
    benchmark lays them out: scheduler counters with a hostile writer, two
    sensor pollers, two request handlers."""
    engine = Engine(rng=random.Random(5))
    engine.facilities.sensors[1] = SensorFixture(1, list(SAMPLES))
    tenant = engine.register_tenant("alpha")
    ctx, request, response = RegionGrant("ctx"), RegionGrant("request"), RegionGrant("response", True, True)
    layout = {
        "sched": ([ContextRegionSpec("ctx", 16)], [ctx], ["thread_counter", "hostile_writer", "thread_counter"]),
        "timer": ([], [], ["sensor_reader"] * 2),
        "coap": (
            [ContextRegionSpec("request", 16), ContextRegionSpec("response", 16, True, True)],
            [request, response], ["coap_handler"] * 2,
        ),
    }
    hooks = {
        name: engine.register_hook(
            name, frozenset().union(*(FIXTURE_SYSCALLS[f] for f in fixtures)), template,
            ReturnPolicy.FIRST_NONZERO_WINS,
        )
        for name, (template, _, fixtures) in layout.items()
    }
    for name, (_, regions, fixtures) in layout.items():
        for fixture in fixtures:
            contract = Contract.of(FIXTURE_SYSCALLS[fixture], regions)
            engine.install_container(tenant, fixture_program(fixture), contract, hooks[name])
    return engine, hooks


def fleet_round(engine, hooks, thread):
    """One trigger of each hook, the scheduler's for ``thread``."""
    ctx = struct.pack("<QQ", 0, thread)
    return [
        engine.trigger_hook(hooks["sched"], {"ctx": ctx}),
        engine.trigger_hook(hooks["timer"]),
        engine.trigger_hook(hooks["coap"]),
    ]


def fleet_calls(threads):
    """(helper id, arguments) of every call ``fleet_round`` makes, in order,
    for each thread in ``threads``: from what the fixtures' sources say."""
    counts, previous, cursor, published, calls = {}, [0, 0], 0, 0, []
    for thread in threads:
        for counter in range(2):  # each with its own store
            count = counts[counter, thread] = counts.get((counter, thread), 0) + 1
            calls += [(0x02, (thread,)), (0x01, (thread, count))]
        for poller in range(2):
            sample = SAMPLES[min(cursor, len(SAMPLES) - 1)]
            cursor += 1
            published = (sample + previous[poller]) >> 1
            calls += [(0x11, (1,)), (0x02, (100,)), (0x01, (100, sample)), (0x05, (1, published))]
            previous[poller] = sample
        calls += [(0x06, (1,)), (0x20, (0, published))] * 2
    return calls


def test_a_replaced_engine_helper_table_sees_every_fleet_call():
    # A table wrapped the way the benchmark's tracer wraps one sees every
    # helper call the four fleet fixtures make, in order, and changes no
    # result; putting the original back takes effect at the next trigger.
    plain, plain_hooks = fleet_engine()
    engine, hooks = fleet_engine()
    original = engine.syscall_table
    calls = []
    wrapped = SyscallTable()
    for sys_id in sorted(original.ids()):
        entry = original.lookup(sys_id)

        def recording(*args, entry=entry):
            calls.append((entry.id, args[1:]))
            return entry.fn(*args)

        wrapped.register(sys_id, recording, entry.argc, entry.name)
    engine.syscall_table = wrapped
    threads = [1, 2, 1]
    for thread in threads:
        assert fleet_round(engine, hooks, thread) == fleet_round(plain, plain_hooks, thread)
    assert calls == fleet_calls(threads)
    engine.syscall_table = original
    assert fleet_round(engine, hooks, 3) == fleet_round(plain, plain_hooks, 3)
    assert calls == fleet_calls(threads)
    assert engine.store_dump() == plain.store_dump()


def test_a_replaced_engine_helper_table_sees_every_fleet_call_in_compiled_code(compiled_tier):
    test_a_replaced_engine_helper_table_sees_every_fleet_call()
    assert len(compiled_tier) == 8  # seven containers of four programs on each of two engines


def test_every_access_list_ends_with_its_stack_and_its_windows_are_disjoint():
    # Both tiers test a run's first window inline, so a hook's
    # context regions come first and the stack, which stack rows index
    # without a check, comes last.  Every region of a hook is its own slice
    # of the hook's buffer, so the order changes no outcome.
    engine, hooks = fleet_engine()
    for thread in (1, 2):
        fleet_round(engine, hooks, thread)
    for hook in engine.hooks.values():
        for j, container in enumerate(hook.slots):
            acl = container.env.acl
            assert acl.stack is hook.stacks[j]
            assert acl.regions == (*container.views, acl.stack)
            assert all(region.memory is hook.memory for region in acl.regions)
            for windows in (acl.read_windows, acl.write_windows):
                spans = sorted(windows)
                assert all(hi <= lo for (_, hi), (lo, _) in zip(spans, spans[1:])), spans


def test_a_stack_first_access_list_serves_the_context_through_the_scan(monkeypatch):
    # With the stack first, the first window misses every context access and
    # the scan of all windows serves it: same outcome and bytes as with the
    # context first, on both tiers.
    program = assemble(
        "ldxdw r2, [r1+0]\nadd64 r2, 1\nstxdw [r1+8], r2\nldxw r0, [r1+8]\nstb [r1+16], 1\nexit"
    )
    results = []
    for stack_first in (True, False):
        for hot in (vm.HOT_STEPS_PER_SLOT, 0):
            monkeypatch.setattr(vm, "HOT_STEPS_PER_SLOT", hot)
            mem = HostMemory()
            ctx = mem.alloc(16, "ctx", readable=True, writable=True, init=struct.pack("<Q", 41))
            stack = fresh_stack(mem)
            acl = AccessList([stack, ctx] if stack_first else [ctx, stack])
            assert (acl.read_windows[0][0] == stack.base) == stack_first
            vp = verify(program, VerifyLimits(64, 4))
            outcome = vm.exec_program(vp, vm.SyscallEnv(acl))
            assert (vp.compiled is not None) == (hot == 0)
            results.append((outcome, bytes(mem.buf)))
    assert results[1:] == results[:1] * 3
    outcome, host = results[0]
    assert (outcome.return_value, outcome.executed, outcome.branches_taken) == (42, 5, 0)
    fault = outcome.fault
    assert (fault.kind, fault.pc, fault.addr, fault.length, fault.note) == (
        FaultKind.MEMORY_VIOLATION, 4, ctx.base + 16, 1, "write denied"
    )
    at = ctx.base - mem.base
    assert host[at : at + 16] == struct.pack("<QQ", 41, 42)


# -- the compiled tier --------------------------------------------------------


def test_compiled_slots_take_stacks_in_order_and_keep_their_addresses(compiled_tier):
    # The stack and the access list are arguments of every run, never part
    # of the compiled function: the three containers share one verdict, so
    # the function the first compiled at stack 0 runs the second at stack 1,
    # then at stack 0 after the first is removed, and the third at stack 1.
    test_running_slots_take_stacks_in_order_and_keep_their_addresses()
    assert len(compiled_tier) == 1


def test_a_replaced_engine_helper_table_reaches_compiled_code_at_the_next_trigger(compiled_tier):
    test_a_replaced_engine_helper_table_takes_effect_at_the_next_trigger()
    assert len(compiled_tier) == 1


def test_a_removed_container_frees_its_compiled_form(compiled_tier):
    engine, tenant, hook = engine_with_hook()
    cid = engine.install_container(tenant, assemble("mov64 r0, 3\nexit"), Contract.of(), hook)
    (slot,) = engine.trigger_hook(hook).outcomes
    assert slot.outcome.return_value == 3
    verified = engine.containers[cid].verified
    assert verified.compiled is not None
    program_ref, function_ref = weakref.ref(verified), weakref.ref(verified.compiled)
    del verified, slot
    engine.remove_container(cid)
    gc.collect()
    assert program_ref() is None and function_ref() is None


# -- one verdict per distinct program -----------------------------------------


@pytest.fixture
def verifies_and_compiles(monkeypatch):
    """Counts of ``verify`` calls through the engine and of compiled forms."""
    from femtoc import engine as engine_module

    counts = collections.Counter(verify=0, compile=0)
    original_verify, original_compile = engine_module.verify, vm.compile_form

    def counted_verify(*args):
        counts["verify"] += 1
        return original_verify(*args)

    def counted_compile(form):
        counts["compile"] += 1
        return original_compile(form)

    monkeypatch.setattr(engine_module, "verify", counted_verify)
    monkeypatch.setattr(vm, "compile_form", counted_compile)
    return counts


COUNTDOWN = assemble("mov64 r2, 20\nsub64 r2, 1\njne r2, 0, -2\nmov64 r0, 7\nexit")  # 43 steps a run


def test_the_same_bytes_and_grant_share_one_verdict_and_once_hot_one_compiled_function(
    verifies_and_compiles,
):
    # Each container counts its own steps toward compiling, so no run of
    # one container makes another hot; once either has compiled, both run
    # that one function.
    engine = Engine()
    tenant = engine.register_tenant("alpha")
    hooks = [engine.register_hook(name, ()) for name in ("a", "b")]
    twin = Program.from_bytes(COUNTDOWN.to_bytes())  # another object, the same bytes
    a, b = (engine.install_container(tenant, p, Contract.of(), h) for p, h in zip((COUNTDOWN, twin), hooks))
    va, vb = engine.containers[a].verified, engine.containers[b].verified
    assert va is not vb and va.verdict is vb.verdict
    assert verifies_and_compiles == {"verify": 1, "compile": 0}

    steps = 43
    hot_after = -(-vm.HOT_STEPS_PER_SLOT * len(va.form) // steps)  # interpreted runs before a compile
    assert hot_after >= 2

    def trigger(hook, times):
        for _ in range(times):
            (slot,) = engine.trigger_hook(hook).outcomes
            assert (slot.outcome.return_value, slot.outcome.executed, slot.outcome.fault) == (7, steps, None)

    half = hot_after // 2
    trigger(hooks[0], half)
    trigger(hooks[1], hot_after)  # together more than enough, each alone just enough
    assert (va.interpreted, vb.interpreted) == (half * steps, hot_after * steps)
    assert verifies_and_compiles["compile"] == 0 and va.compiled is None
    trigger(hooks[1], 1)  # b compiles
    assert verifies_and_compiles["compile"] == 1 and vb.compiled is not None
    trigger(hooks[0], hot_after)  # a, short of its own threshold, runs b's function
    assert va.compiled is vb.compiled and va.interpreted == half * steps
    assert verifies_and_compiles == {"verify": 1, "compile": 1}


def test_a_shared_verdict_and_its_compiled_form_go_only_after_both_containers_are_removed(
    compiled_tier, verifies_and_compiles
):
    engine, tenant, hook = engine_with_hook()
    program = assemble("mov64 r0, 3\nexit")
    first, second = (engine.install_container(tenant, program, Contract.of(), hook) for _ in range(2))
    assert [slot.outcome.return_value for slot in engine.trigger_hook(hook).outcomes] == [3, 3]
    verdict = engine.containers[first].verified.verdict
    assert engine.containers[second].verified.verdict is verdict and verdict.compiled is not None
    assert verifies_and_compiles == {"verify": 1, "compile": 1}
    verdict_ref, function_ref = weakref.ref(verdict), weakref.ref(verdict.compiled)
    del verdict
    engine.remove_container(first)
    gc.collect()
    assert verdict_ref() is not None and function_ref() is not None
    engine.remove_container(second)
    gc.collect()
    assert verdict_ref() is None and function_ref() is None
    engine.install_container(tenant, program, Contract.of(), hook)  # nothing left to share
    assert verifies_and_compiles["verify"] == 2


def test_a_shared_verdict_never_crosses_a_grant():
    # The key is the granted helper ids, the hook's allowance cut by the
    # contract: bytes that call a helper their grant lacks are rejected
    # while a container that may call it holds their verdict.
    engine = Engine()
    tenant = engine.register_tenant("alpha")
    full, narrow = engine.register_hook("full", (1, 2)), engine.register_hook("narrow", (2,))
    caller = assemble("mov64 r1, 1\nmov64 r2, 5\ncall 0x01\nexit")
    engine.install_container(tenant, caller, Contract.of({1, 2}), full)
    for hook, contract in ((full, Contract.of({2})), (narrow, Contract.of({1, 2}))):
        with pytest.raises(VerifyRejected) as rejected:
            engine.install_container(tenant, caller, contract, hook)
        assert [e.kind for e in rejected.value.errors] == [VerifyErrorKind.UNKNOWN_SYSCALL]

    both, two, cut = (
        engine.install_container(tenant, EXIT_ONLY, contract, hook)
        for contract, hook in ((Contract.of({1, 2}), full), (Contract.of({2}), full), (Contract.of({1, 2}), narrow))
    )
    verdicts = [engine.containers[cid].verified.verdict for cid in (both, two, cut)]
    assert verdicts[0] is not verdicts[1] and verdicts[1] is verdicts[2]


def test_a_shared_verdict_never_crosses_limits():
    engine, tenant, hook = engine_with_hook(syscalls=())
    program = assemble("mov64 r0, 1\nmov64 r0, 2\nexit")
    first = engine.containers[engine.install_container(tenant, program, Contract.of(), hook)].verified
    engine.limits = VerifyLimits(2, 4)
    with pytest.raises(VerifyRejected) as rejected:
        engine.install_container(tenant, program, Contract.of(), hook)
    assert [e.kind for e in rejected.value.errors] == [VerifyErrorKind.TOO_LONG]
    engine.limits = VerifyLimits(8, 2)
    second = engine.containers[engine.install_container(tenant, program, Contract.of(), hook)].verified
    assert second.verdict is not first.verdict and (first.budget, second.budget) == (4096 * 256, 16)
    engine.limits = VerifyLimits()  # equal to the first limits, not the same object
    third = engine.containers[engine.install_container(tenant, program, Contract.of(), hook)].verified
    assert third.verdict is first.verdict


def test_a_replace_and_an_update_with_the_same_bytes_share_the_verdict_and_keep_stores_isolated(
    tier, verifies_and_compiles
):
    from femtoc.update import apply_update, build_manifest, private_key_from_seed, public_key_raw, sign_manifest

    keys = {name: private_key_from_seed(name.encode()) for name in ("A", "B")}
    engine = Engine()
    tenants = {name: engine.register_tenant(name, public_key_raw(key)) for name, key in keys.items()}
    hook = engine.register_hook("h", (0x01, 0x02, 0x05))
    contract = Contract.of({0x01, 0x02, 0x05})
    program = counting_program(1, 7)
    payload = program.to_bytes()

    def update(name, sequence):
        manifest = build_manifest(tenants[name], hook, sequence, payload, contract)
        outcome = apply_update(engine, sign_manifest(manifest, keys[name]), payload)
        assert outcome.accepted
        return outcome.container_id

    def trigger(times):
        for _ in range(times):
            outcomes = engine.trigger_hook(hook).outcomes
        return [slot.outcome.return_value for slot in outcomes]

    a = engine.install_container(tenants["A"], program, contract, hook)
    b = update("B", 1)  # a new slot, sharing A's verdict
    assert trigger(3) == [3, 3]
    engine.replace_container(a, Program.from_bytes(payload), contract)
    assert trigger(2) == [2, 5]
    assert update("A", 1) == a  # in place: the store starts over again
    assert trigger(1) == [1, 6]
    assert engine.containers[a].verified.verdict is engine.containers[b].verified.verdict
    assert verifies_and_compiles["verify"] == 1
    assert tier is None or len(tier) == 1
    stores = engine.facilities.stores
    assert [stores.container_stores[cid].entries for cid in (a, b)] == [{1: 1}, {1: 6}]
    assert [stores.tenant_stores[tenants[name]].entries for name in ("A", "B")] == [{7: 1}, {7: 6}]


@pytest.fixture
def perfbench_workloads(monkeypatch):
    """The benchmark's workload module, ``perfbench/workloads.py``."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import workloads

    return workloads


@pytest.mark.parametrize("name, distinct, warm_up", [("fleet", 4, 800), ("compute", 2, 10)])
def test_a_benchmark_workload_verifies_and_compiles_each_distinct_program_once(
    name, distinct, warm_up, perfbench_workloads, verifies_and_compiles
):
    # fleet installs 100 containers of 4 programs, compute 5 of 2.  Set-up
    # fires every hook once and pays for no compile: compute's four
    # fletcher32_360 containers each stay short of their own threshold.
    workload = {"fleet": perfbench_workloads.Fleet, "compute": perfbench_workloads.Compute}[name](1)
    workload.prepare()
    for op, result in workload.setup():
        assert workload.check(op, result) is None
    assert verifies_and_compiles == {"verify": distinct, "compile": 0}
    for _ in range(warm_up):
        op = workload.next_op()
        assert workload.check(op, workload.run(op)) is None
    assert verifies_and_compiles == {"verify": distinct, "compile": distinct}
    assert all(c.verified.compiled is not None for c in workload.engine.containers.values())


# -- what a trigger runs --------------------------------------------------------------


def test_a_trigger_runs_each_slots_current_program_after_every_change(tier):
    # Install, replace, remove, signed updates that install and replace, and
    # a helper-table swap: after each, a trigger of every hook runs its slots
    # in order, each slot's current program with its current table.
    from femtoc.update import apply_update, build_manifest, private_key_from_seed, public_key_raw, sign_manifest

    keys = {name: private_key_from_seed(name.encode()) for name in ("A", "B")}
    engine = Engine()
    tenants = {name: engine.register_tenant(name, public_key_raw(key)) for name, key in keys.items()}
    hooks = [
        engine.register_hook("ctx", (0x10,), [ContextRegionSpec("ctx", 16)]),
        engine.register_hook("bare", (0x10,)),
    ]
    contract = Contract.of({0x10}, [RegionGrant("ctx")])
    returns = {}  # container id -> now_ms() + its mark
    clock = [0]  # what now_ms answers

    def program(mark):
        return assemble(f"call 0x10\nadd64 r0, {mark}\nexit")

    def bound(cid, mark):
        returns[cid] = mark
        for hook_id in hooks:
            outcomes = engine.trigger_hook(hook_id).outcomes
            assert [(slot.container_id, slot.outcome.return_value) for slot in outcomes] == [
                (c.container_id, returns[c.container_id] + clock[0]) for c in engine.hooks[hook_id].slots
            ]
        return cid

    def update(name, hook, sequence, mark):
        payload = program(mark).to_bytes()
        manifest = build_manifest(tenants[name], hooks[hook], sequence, payload, contract)
        outcome = apply_update(engine, sign_manifest(manifest, keys[name]), payload)
        assert outcome.accepted
        return bound(outcome.container_id, mark)

    a = bound(engine.install_container(tenants["A"], program(1), contract, hooks[0]), 1)
    b = bound(engine.install_container(tenants["B"], program(2), contract, hooks[0]), 2)
    bound(engine.install_container(tenants["A"], program(3), contract, hooks[1]), 3)
    engine.replace_container(a, program(4), contract)
    bound(a, 4)
    update("B", 1, 1, 5)  # installs on the second hook
    assert update("A", 0, 1, 6) == a  # replaces in place
    engine.remove_container(b)
    del returns[b]
    bound(a, 6)
    table = SyscallTable()
    for sys_id in sorted(engine.syscall_table.ids()):
        entry = engine.syscall_table.lookup(sys_id)
        table.register(sys_id, (lambda env: 100) if sys_id == 0x10 else entry.fn, entry.argc, entry.name)
    engine.syscall_table = table
    clock[0] = 100
    bound(a, 6)
    assert [len(engine.hooks[h].slots) for h in hooks] == [1, 2]


def test_a_compile_through_one_hook_makes_the_other_hooks_next_trigger_run_compiled(monkeypatch):
    # Two hooks' containers share one verdict, whose compiled form every run
    # reads anew: once a trigger of one hook has compiled it, the other
    # hook's next trigger runs it compiled, with no interpreted step. Every
    # run still goes through exec_program, where a tracer counts it.
    from femtoc import engine as engine_module

    through_exec = []
    original = engine_module.exec_program

    def counted(verified, *args):
        through_exec.append(verified)
        return original(verified, *args)

    monkeypatch.setattr(engine_module, "exec_program", counted)
    engine = Engine()
    tenant = engine.register_tenant("alpha")
    hooks = [engine.register_hook(name, ()) for name in ("a", "b")]
    a, b = (engine.install_container(tenant, COUNTDOWN, Contract.of(), hook) for hook in hooks)
    va, vb = engine.containers[a].verified, engine.containers[b].verified
    assert va.verdict is vb.verdict

    def trigger(hook):
        (slot,) = engine.trigger_hook(hook).outcomes
        assert (slot.outcome.return_value, slot.outcome.executed, slot.outcome.fault) == (7, 43, None)

    trigger(hooks[1])
    assert through_exec == [vb] and vb.interpreted == 43
    while va.compiled is None:
        trigger(hooks[0])
    assert through_exec[-1] is va  # the run that compiled
    del through_exec[:]
    for _ in range(2):
        trigger(hooks[1])
        trigger(hooks[0])
    assert through_exec == [vb, va, vb, va] and vb.interpreted == 43


@pytest.mark.parametrize("compiled", [True, False], ids=["compiled", "interpreted"])
def test_stats_are_the_sums_of_the_returned_outcomes_and_restart_at_a_replace(monkeypatch, compiled):
    monkeypatch.setattr(vm, "HOT_STEPS_PER_SLOT", 0 if compiled else 1 << 62)
    engine = Engine()
    tenant = engine.register_tenant("alpha")
    hook = engine.register_hook("sched", FIXTURE_SYSCALLS["thread_counter"], [ContextRegionSpec("ctx", 16)])
    hostile = (fixture_program("hostile_writer"), Contract.of())
    grant = Contract.of(FIXTURE_SYSCALLS["thread_counter"], [RegionGrant("ctx")])
    counter = (fixture_program("thread_counter"), grant)
    ids = [engine.install_container(tenant, *bound, hook) for bound in (hostile, counter, hostile, counter)]
    sums = collections.defaultdict(lambda: [0, 0, 0])  # container id -> runs, faults, executed

    def fire(times):
        for n in range(times):
            for slot in engine.trigger_hook(hook, {"ctx": struct.pack("<QQ", 0, n % 3)}).outcomes:
                counted = sums[slot.container_id]
                counted[0] += 1
                counted[1] += slot.outcome.fault is not None
                counted[2] += slot.outcome.executed

    def stats():
        return {
            uuid.UUID(c["container_id"]): [c["stats"][k] for k in ("runs", "faults", "total_executed")]
            for c in engine.introspection()["containers"]
        }

    fire(5)
    assert stats() == sums and [sums[cid][1] for cid in ids] == [5, 0, 5, 0]
    engine.replace_container(ids[0], *counter)
    engine.replace_container(ids[1], *hostile)
    sums[ids[0]] = [0, 0, 0]
    sums[ids[1]] = [0, 0, 0]
    assert stats() == sums
    fire(4)
    assert stats() == sums and [sums[cid][1] for cid in ids] == [0, 4, 5 + 4, 0]
    assert all((c.verified.compiled is not None) == compiled for c in engine.containers.values())


# The benchmark's fleet layout, restated: (hook kind, hooks, fixture mix per
# hook), each kind's hook spec, and each fixture's contract; 100 containers.
FLEET_LAYOUT = (
    ("sched", 4, {"thread_counter": 10, "hostile_writer": 2}),
    ("timer", 2, {"sensor_reader": 12}),
    ("coap", 2, {"coap_handler": 14}),
)
FLEET_HOOKS = {
    "sched": {"syscalls": [1, 2], "context": [{"label": "ctx", "size": 16, "mode": "r"}]},
    "timer": {"syscalls": [17, 1, 2, 5], "context": []},
    "coap": {"syscalls": [6, 32], "return_policy": "first_nonzero_wins", "context": [
        {"label": "request", "size": 16, "mode": "r"}, {"label": "response", "size": 16, "mode": "rw"}]},
}
FLEET_CONTRACTS = {
    "thread_counter": {"syscalls": [1, 2], "regions": [{"label": "ctx", "mode": "r"}]},
    "hostile_writer": {"syscalls": [], "regions": [{"label": "ctx", "mode": "r"}]},
    "sensor_reader": {"syscalls": [17, 1, 2, 5]},
    "coap_handler": {"syscalls": [6, 32], "regions": [{"label": "request", "mode": "r"},
                                                       {"label": "response", "mode": "rw"}]},
}
# Bytes a fleet container retains at set-up, by tracemalloc: 3910-3965 on
# Python 3.11 (seeds 1 to 3) once containers share their grant's helper
# table, contract and views (5080-5125 before), with about 10% slack.
RETAINED_PER_CONTAINER = 4350


def fleet_scenario(seed: int) -> dict:
    """A scenario of the fleet layout: six tenants, each container's tenant
    and each hook's slot order drawn from ``seed``."""
    rng = random.Random(seed)
    tenants = [f"tenant{i}" for i in range(6)]
    hooks, setup = [], []
    for kind, count, mix in FLEET_LAYOUT:
        for h in range(count):
            hooks.append({"name": f"{kind}.{h}", **FLEET_HOOKS[kind]})
            fixtures = [name for name, n in mix.items() for _ in range(n)]
            rng.shuffle(fixtures)
            setup += [{"action": "install", "name": f"c{len(setup) + i:03d}", "tenant": rng.choice(tenants),
                       "hook": f"{kind}.{h}", "program": {"fixture": name}, "contract": FLEET_CONTRACTS[name]}
                      for i, name in enumerate(fixtures)]
    return {"schema_version": 1, "name": "fleet", "seed": seed, "tenants": [{"name": t} for t in tenants],
            "hooks": hooks, "setup": setup}


@pytest.mark.parametrize("seed", [1, 2])
def test_what_a_fleet_container_retains_at_set_up_is_bounded(seed):
    from femtoc.scenario import ScenarioRuntime

    doc = fleet_scenario(seed)
    assert len(doc["setup"]) == 100 and len(doc["hooks"]) == 8
    for name in FLEET_CONTRACTS:
        fixture_program(name)  # assembled once, outside the measurement
    # A first set-up in a process also fills caches the next one reuses
    # (~27 KB on Python 3.11, ~320 KB on 3.13); measure the second.
    ScenarioRuntime(doc)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        runtime = ScenarioRuntime(doc)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(runtime.engine.containers) == 100
    assert 0 < retained / 100 <= RETAINED_PER_CONTAINER


# What depends only on the grant is shared: one restricted helper table per
# granted set of helper ids, one Contract per grant, one view per granted
# (label, mode) of a hook.  The engine holds the tables and contracts
# weakly; the containers bound with them hold them.
SHARED_HOOK = {"allowed_syscalls": (1, 2, 0x10), "context_template": [
    ContextRegionSpec("in", 8), ContextRegionSpec("out", 8, readable=True, writable=True)]}


def test_two_grants_on_one_hook_get_distinct_tables_and_equal_grants_share_one():
    engine = Engine()
    tenant = engine.register_tenant("alpha")
    hook = engine.register_hook("h", **SHARED_HOOK)
    contracts = (
        Contract.of({1, 2}, [RegionGrant("out", True, True)]),
        Contract.of({1, 2}, [RegionGrant("out", True, True)]),  # equal, another object
        Contract.of({1, 2, 0x30}, [RegionGrant("out", True, True), RegionGrant("gone")]),  # narrowed to it
        Contract.of({2}, [RegionGrant("out"), RegionGrant("in")]),
    )
    a, b, narrowed, other = (
        engine.containers[engine.install_container(tenant, EXIT_ONLY, contract, hook)] for contract in contracts
    )
    assert a.env.helpers is b.env.helpers is narrowed.env.helpers
    assert a.granted is b.granted is narrowed.granted is contracts[0]
    assert a.views == b.views == narrowed.views and a.views[0] is b.views[0] is narrowed.views[0]
    assert other.env.helpers is not a.env.helpers and other.granted is not a.granted
    assert a.env.helpers.ids() == {1, 2} and other.env.helpers.ids() == {2}
    assert [(v.label, v.readable, v.writable) for v in other.views] == [("in", True, False), ("out", True, False)]
    assert other.views[1] is not a.views[0]  # the same region under another mode
    assert len({id(c.env.acl) for c in (a, b, narrowed, other)}) == 4  # each slot its own stack

    table = weakref.ref(a.env.helpers)
    for cid in (a.container_id, b.container_id, narrowed.container_id):
        engine.remove_container(cid)
    del a, b, narrowed
    gc.collect()
    assert table() is None and frozenset({1, 2}) not in engine._tables
    assert list(engine._tables) == [frozenset({2})]


def test_a_swapped_engine_table_gives_each_container_its_sets_new_table():
    engine = Engine()
    tenant = engine.register_tenant("alpha")
    hook = engine.register_hook("h", **SHARED_HOOK)
    grants = [{1, 2}, {2}, {1, 2}, set(), {2, 0x10}, {2}]
    ids = [engine.install_container(tenant, EXIT_ONLY, Contract.of(g), hook) for g in grants]
    before = {cid: engine.containers[cid].env.helpers for cid in ids}
    for _ in range(2):  # a swap, then a swap back
        table = SyscallTable()
        for sys_id in (1, 2, 0x10):
            table.register(sys_id, lambda env, *args: 0, 1, f"helper{sys_id}")
        engine.syscall_table = table
        by_set = {}
        for cid, granted in zip(ids, grants):
            helpers = engine.containers[cid].env.helpers
            assert helpers is not before[cid] and helpers.ids() == granted
            assert all(helpers.calls[i] is table.lookup(i).call for i in granted)
            assert by_set.setdefault(frozenset(granted), helpers) is helpers
        assert len(by_set) == 4 and set(engine._tables) == set(by_set)
        before = {cid: engine.containers[cid].env.helpers for cid in ids}


@pytest.mark.parametrize("entry", [
    "install", "install_on_full_hook", "valid_on_full_hook", "replace", "update_installs", "update_replaces"])
def test_a_rejected_install_replace_or_update_fills_no_cache(entry):
    # Every shared table, contract and view is filled after the program has
    # verified and the slot limit has passed.  The rejected contract asks
    # for a helper set, a grant and a view no live container has.
    from femtoc.update import (
        UpdateReject, apply_update, build_manifest, private_key_from_seed, public_key_raw, sign_manifest
    )

    key = private_key_from_seed(b"alpha")
    engine = Engine()
    tenant = engine.register_tenant("alpha", public_key_raw(key))
    hook = engine.register_hook("h", slot_limit=1, **SHARED_HOOK)
    bound = None if entry in ("install", "update_installs") else engine.install_container(
        tenant, EXIT_ONLY, Contract.of({2}, [RegionGrant("in")]), hook
    )
    program = EXIT_ONLY if entry == "valid_on_full_hook" else assemble("mov64 r10, 1\nexit")
    contract = Contract.of({1, 0x10}, [RegionGrant("out", True, True)])

    def caches():
        gc.collect()
        shared = engine.hooks[hook]
        return dict(engine._tables), dict(engine._contracts), dict(shared.views), dict(engine._verdicts)

    before = caches()
    if entry.startswith("update"):
        manifest = sign_manifest(build_manifest(tenant, hook, 1, program.to_bytes(), contract), key)
        assert apply_update(engine, manifest, program.to_bytes()).reason is UpdateReject.VERIFY_REJECTED
    else:
        with pytest.raises(SlotLimitReached if entry == "valid_on_full_hook" else VerifyRejected):
            if entry == "replace":
                engine.replace_container(bound, program, contract)
            else:
                engine.install_container(tenant, program, contract, hook)
    assert caches() == before


def test_an_append_or_a_replace_builds_one_access_list_and_a_remove_rebuilds_only_the_tail(monkeypatch):
    built = []

    class Counted(AccessList):
        def __init__(self, regions):
            super().__init__(regions)
            built.append(self)

    monkeypatch.setattr(femtoc.engine, "AccessList", Counted)
    engine, tenant, hook = engine_with_hook(context_template=[ContextRegionSpec("ctx", 8)])
    contract = Contract.of(regions=[RegionGrant("ctx")])

    def acls():
        slots = engine.hooks[hook].slots
        assert [c.env.acl.stack for c in slots] == engine.hooks[hook].stacks[: len(slots)]
        return [c.env.acl for c in slots]

    ids = []
    for _ in range(5):
        ids.append(engine.install_container(tenant, EXIT_ONLY, contract, hook))
        assert built == acls()[-1:]
        built.clear()
    kept = acls()
    engine.replace_container(ids[2], EXIT_ONLY, Contract.of())
    after = acls()
    assert built == [after[2]] and after[:2] + after[3:] == kept[:2] + kept[3:]
    built.clear()
    engine.remove_container(ids[1])
    after = acls()
    assert built == after[1:] and after[0] is kept[0] and len(after) == 4
    built.clear()
    engine.remove_container(ids[4])  # the last slot: nothing after it to relink
    assert built == [] and acls() == after[:3]
