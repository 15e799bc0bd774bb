"""A stateful model of one hook's slots, shared by two tenants: the stack
each slot takes, the helper table each container calls and what each
container store holds, across installs, replaces, signed updates, removes
and swaps of ``Engine.syscall_table``, on both tiers.  A program that fails
verification is refused whichever way it comes, and changes no byte."""

import json
import struct

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    Bundle, RuleBasedStateMachine, consumes, invariant, multiple, precondition, rule, run_state_machine_as_test
)

from femtoc.asm import assemble
from femtoc.engine import Contract, ContextRegionSpec, Engine, RegionGrant, SlotLimitReached
from femtoc.facilities import SYS_CONTAINER_PUT, SYS_DEBUG_LOG
from femtoc.update import (
    UpdateReject, apply_update, build_manifest, private_key_from_seed, public_key_raw, sign_manifest
)
from femtoc.verifier import VerifyRejected
from femtoc.vm import FaultKind, SyscallTable
from test_engine import R10_PROBE, STACK_0, STACK_1

STRIDE = STACK_1 - STACK_0
PROGRAMS = {
    "probe": R10_PROBE,  # returns r10, or loads past its stack when region "a" holds 512
    "caller": assemble("call 0x30\nmov64 r0, r10\nexit"),  # returns r10 if debug_log answers
    "storer": assemble("mov64 r1, 7\nmov64 r2, r10\ncall 0x01\nmov64 r0, r10\nexit"),  # keeps r10 at key 7
    "rejected": assemble("mov64 r10, 1\nexit"),  # fails verification: writes r10
}
HELPERS = (SYS_DEBUG_LOG, SYS_CONTAINER_PUT)
CONTRACT = Contract.of(HELPERS, [RegionGrant("a", True, True), RegionGrant("b")])
KEYS = {name: private_key_from_seed(name.encode()) for name in ("alpha", "beta")}
FORGER = private_key_from_seed(b"mallory")
SLOT_LIMIT = 4  # small, so that runs reach a full hook


def predicted(kinds, has_log, past_stack):
    """Per slot, (return value,) or (fault kind, fault addr); the slot at
    position j has stack j."""
    outcomes = []
    for j, kind in enumerate(kinds):
        stack = STACK_0 + j * STRIDE
        if kind == "caller" and not has_log:
            outcomes.append((FaultKind.BAD_SYSCALL, None))
        elif kind == "probe" and past_stack:
            outcomes.append((FaultKind.MEMORY_VIOLATION, stack + 512))
        else:
            outcomes.append((stack,))
    return outcomes


class HookSlots(RuleBasedStateMachine):
    containers = Bundle("containers")

    def __init__(self):
        super().__init__()
        self.engine = Engine()
        self.tenants = {name: self.engine.register_tenant(name, public_key_raw(key)) for name, key in KEYS.items()}
        self.hook = self.engine.register_hook(
            "h", HELPERS, [ContextRegionSpec("a", 8, True, True), ContextRegionSpec("b", 16, True, False)],
            slot_limit=SLOT_LIMIT,
        )
        standard = self.engine.syscall_table
        self.tables = {True: standard, False: SyscallTable()}
        for sys_id in sorted(standard.ids() - {SYS_DEBUG_LOG}):
            entry = standard.lookup(sys_id)
            self.tables[False].register(sys_id, entry.fn, entry.argc, entry.name)
        self.kinds = {}  # container id -> program kind, in slot order
        self.owners = {}  # container id -> its tenant's name, in slot order
        self.stored = {}  # container id -> the value at key 7 of its store, or None
        self.has_log = True
        self.sequences = dict.fromkeys(KEYS)  # tenant name -> its last accepted update's, or None

    @precondition(lambda self: len(self.kinds) < SLOT_LIMIT)
    @rule(
        target=containers, tenant=st.sampled_from(sorted(KEYS)),
        kinds=st.lists(st.sampled_from(sorted(PROGRAMS)), min_size=1, max_size=SLOT_LIMIT),
    )
    def install(self, tenant, kinds):
        """Install ``tenant``'s containers of ``kinds`` in turn.  A rejected
        program raises VerifyRejected, even on a full hook, and any other
        raises SlotLimitReached there; neither changes a byte."""
        cids = []
        for kind in kinds:
            args = self.tenants[tenant], PROGRAMS[kind], CONTRACT, self.hook
            if kind == "rejected" or len(self.kinds) == SLOT_LIMIT:
                error = VerifyRejected if kind == "rejected" else SlotLimitReached
                self.refused(error, self.engine.install_container, *args)
                continue
            cid = self.engine.install_container(*args)
            self.kinds[cid], self.owners[cid], self.stored[cid] = kind, tenant, None
            cids.append(cid)
        return multiple(*cids)

    @rule(cid=containers, kind=st.sampled_from(sorted(PROGRAMS)))
    def replace(self, cid, kind):
        if kind == "rejected":
            self.refused(VerifyRejected, self.engine.replace_container, cid, PROGRAMS[kind], CONTRACT)
            return
        self.engine.replace_container(cid, PROGRAMS[kind], CONTRACT)
        self.kinds[cid], self.stored[cid] = kind, None

    @rule(
        target=containers, tenant=st.sampled_from(sorted(KEYS)), kind=st.sampled_from(sorted(PROGRAMS)),
        forged=st.booleans(), rollback=st.booleans(),
    )
    def update(self, tenant, kind, forged, rollback):
        """A signed update of ``tenant``'s first container on the hook, or of
        a new last slot when it has none: signed by another key when
        ``forged``, and at the tenant's last accepted sequence number when
        ``rollback``.  A rejected one changes no byte, and neither does one
        that verifies but finds the hook full: that raises SlotLimitReached."""
        last = self.sequences[tenant]
        rollback = rollback and last is not None
        sequence = last if rollback else (last or 0) + 1
        payload = PROGRAMS[kind].to_bytes()
        manifest = build_manifest(self.tenants[tenant], self.hook, sequence, payload, CONTRACT)
        manifest = sign_manifest(manifest, FORGER if forged else KEYS[tenant])
        target = next((cid for cid, owner in self.owners.items() if owner == tenant), None)
        full = target is None and len(self.kinds) == SLOT_LIMIT
        reason = (
            "BadSignature" if forged else "RollbackRejected" if rollback
            else "VerifyRejected" if kind == "rejected" else None
        )
        before = self.state()
        try:
            outcome = apply_update(self.engine, manifest, payload)
        except SlotLimitReached:
            outcome = None
        if reason or full:
            assert (outcome is None) if reason is None else (outcome.reason is UpdateReject(reason))
            assert self.state() == before
            return multiple()
        cid = outcome.container_id
        assert outcome.accepted and (cid == target if target else cid not in self.kinds)
        self.kinds[cid], self.owners[cid], self.stored[cid] = kind, tenant, None
        self.sequences[tenant] = sequence
        return multiple() if target else multiple(cid)

    @rule(cid=consumes(containers))
    def remove(self, cid):
        self.engine.remove_container(cid)
        del self.kinds[cid], self.owners[cid], self.stored[cid]

    @rule(has_log=st.booleans())
    def swap_table(self, has_log):
        self.engine.syscall_table = self.tables[has_log]
        self.has_log = has_log

    @rule(past_stack=st.booleans())
    def trigger(self, past_stack):
        event = {"a": struct.pack("<Q", 512 if past_stack else 0), "b": bytes(16)}
        result = self.engine.trigger_hook(self.hook, event)
        assert [slot.container_id for slot in result.outcomes] == list(self.kinds)
        seen = [
            (o.return_value,) if o.ok else (o.fault.kind, o.fault.addr)
            for o in (slot.outcome for slot in result.outcomes)
        ]
        assert seen == predicted(self.kinds.values(), self.has_log, past_stack)
        for (cid, kind), outcome in zip(self.kinds.items(), seen):
            if kind == "storer":
                self.stored[cid] = outcome[0]

    def state(self):
        return self.engine.introspection_json(), json.dumps(self.engine.store_dump())

    def refused(self, error, call, *args):
        """``call(*args)`` raises ``error`` and changes no byte."""
        before = self.state()
        with pytest.raises(error):
            call(*args)
        assert self.state() == before

    @invariant()
    def slots_are_listed_in_order(self):
        (hook,) = self.engine.introspection()["hooks"]
        assert hook["slots"] == [str(cid) for cid in self.kinds]

    @invariant()
    def each_container_store_holds_what_its_container_stored(self):
        stores = {d["owner"]: d["entries"] for d in self.engine.store_dump() if d["scope"] == "container"}
        assert stores == {
            str(cid): [] if value is None else [{"key": 7, "value": value}]
            for cid, value in self.stored.items()
        }


# Tier-1 runs 60 examples of up to 25 steps per tier; under the model-sweep
# profile (conftest.py) the model runs at that profile's counts.
SWEEP = settings.get_current_profile_name() == "model-sweep"
SETTINGS = settings() if SWEEP else settings(max_examples=60, stateful_step_count=25, deadline=None)


def test_hook_slots_match_the_model():
    run_state_machine_as_test(HookSlots, settings=SETTINGS)


def test_hook_slots_match_the_model_in_compiled_code(compiled_tier):
    run_state_machine_as_test(HookSlots, settings=SETTINGS)
    assert compiled_tier


def test_a_rejected_replace_or_update_keeps_the_container_store():
    # The model refuses a bind over a stored container only when its draws
    # store first; this case always does.
    engine = Engine()
    tenant = engine.register_tenant("alpha", public_key_raw(KEYS["alpha"]))
    hook = engine.register_hook("h", HELPERS, [ContextRegionSpec("a", 8, True, True), ContextRegionSpec("b", 16)])
    cid = engine.install_container(tenant, PROGRAMS["storer"], CONTRACT, hook)
    engine.trigger_hook(hook)
    before = (engine.introspection_json(), engine.store_dump())
    assert any(store["entries"] for store in before[1] if store["scope"] == "container")
    with pytest.raises(VerifyRejected):
        engine.replace_container(cid, PROGRAMS["rejected"], CONTRACT)
    assert (engine.introspection_json(), engine.store_dump()) == before
    payload = PROGRAMS["rejected"].to_bytes()
    manifest = sign_manifest(build_manifest(tenant, hook, 1, payload, CONTRACT), KEYS["alpha"])
    assert apply_update(engine, manifest, payload).reason is UpdateReject.VERIFY_REJECTED
    assert (engine.introspection_json(), engine.store_dump()) == before
