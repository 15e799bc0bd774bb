"""A stateful model of one hook's slots: the stack each running slot takes
and the helper table each container calls, across installs, replaces,
removes and swaps of ``Engine.syscall_table``, on both tiers."""

import struct

from hypothesis import settings, strategies as st
from hypothesis.stateful import (
    Bundle, RuleBasedStateMachine, consumes, invariant, precondition, rule, run_state_machine_as_test
)

from femtoc.asm import assemble
from femtoc.engine import DEFAULT_SLOT_LIMIT, Contract, ContextRegionSpec, Engine, RegionGrant
from femtoc.facilities import SYS_DEBUG_LOG
from femtoc.vm import FaultKind, SyscallTable
from test_engine import R10_PROBE, STACK_0, STACK_1

STRIDE = STACK_1 - STACK_0
PROGRAMS = {
    "probe": R10_PROBE,  # returns r10, or loads past its stack when region "a" holds 512
    "caller": assemble("call 0x30\nmov64 r0, r10\nexit"),  # returns r10 if debug_log answers
    "rejected": assemble("mov64 r10, 1\nexit"),  # fails verification: writes r10
}
CONTRACT = Contract.of({SYS_DEBUG_LOG}, [RegionGrant("a", True, True), RegionGrant("b")])


def predicted(kinds, has_log, past_stack):
    """Per slot, (return value,) or (fault kind, fault addr), or None for a
    rejected one; the running slot at position j has stack j."""
    outcomes, j = [], 0
    for kind in kinds:
        if kind == "rejected":
            outcomes.append(None)
            continue
        stack = STACK_0 + j * STRIDE
        j += 1
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
        self.tenant = self.engine.register_tenant("alpha")
        self.hook = self.engine.register_hook(
            "h", (SYS_DEBUG_LOG,), [ContextRegionSpec("a", 8, True, True), ContextRegionSpec("b", 16, True, False)]
        )
        standard = self.engine.syscall_table
        self.tables = {True: standard, False: SyscallTable()}
        for sys_id in sorted(standard.ids() - {SYS_DEBUG_LOG}):
            entry = standard.lookup(sys_id)
            self.tables[False].register(sys_id, entry.fn, entry.argc, entry.name)
        self.kinds = {}  # container id -> program kind, in slot order
        self.has_log = True

    @precondition(lambda self: len(self.kinds) < DEFAULT_SLOT_LIMIT)
    @rule(target=containers, kind=st.sampled_from(sorted(PROGRAMS)))
    def install(self, kind):
        cid = self.engine.install_container(self.tenant, PROGRAMS[kind], CONTRACT, self.hook)
        self.kinds[cid] = kind
        return cid

    @rule(cid=containers, kind=st.sampled_from(sorted(PROGRAMS)))
    def replace(self, cid, kind):
        self.engine.replace_container(cid, PROGRAMS[kind], CONTRACT)
        self.kinds[cid] = kind

    @rule(cid=consumes(containers))
    def remove(self, cid):
        self.engine.remove_container(cid)
        del self.kinds[cid]

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
            None if o is None else (o.return_value,) if o.ok else (o.fault.kind, o.fault.addr)
            for o in (slot.outcome for slot in result.outcomes)
        ]
        assert seen == predicted(self.kinds.values(), self.has_log, past_stack)

    @invariant()
    def slots_are_listed_in_order(self):
        (hook,) = self.engine.introspection()["hooks"]
        assert hook["slots"] == [str(cid) for cid in self.kinds]


SETTINGS = settings(max_examples=60, stateful_step_count=25, deadline=None)


def test_hook_slots_match_the_model():
    run_state_machine_as_test(HookSlots, settings=SETTINGS)


def test_hook_slots_match_the_model_in_compiled_code(compiled_tier):
    run_state_machine_as_test(HookSlots, settings=SETTINGS)
    assert compiled_tier
