"""Multi-tenant container hosting: hooks, contracts, triggers, stats.

Hooks are fixed attachment points registered during a setup phase, before
the first container is installed.  Installing attaches a container (tenant +
bytecode + granted contract) to one hook slot.  The grant is the
intersection of what the container requested with what the hook allows,
both for helper ids and for named context regions.

Verification is performed exactly once per installed bytecode: by the
signed-update path before it installs, otherwise on the first trigger.
Triggering a hook runs its containers in slot order with context regions
holding only the event's bytes, a zeroed stack each, and full fault
isolation between slots.

Each hook keeps one memory layout for all its triggers: its context
regions, then one stack per slot position, in a guard-padded buffer that
every trigger resets from its template before it writes in the event.  The
running slot at position j (verify-rejected slots take none) uses stack j.
Each container keeps its access list for the position it last ran at and
its restricted helper table for the engine table it was cut from.  Its
VerifiedProgram also carries the execution tiers' state (see ``vm``), so a
hot container's compiled form goes when the container is removed or
replaced.
"""

from __future__ import annotations

import json
import random
import threading
import uuid
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple

from .facilities import CallerIdentity, FacilityContext, standard_syscall_table
from .isa import Program
from .memory import STACK_LABEL, AccessList, HostMemory, MemoryRegion, fresh_stack
from .verifier import VerifiedProgram, VerifyError, VerifyLimits, VerifyRejected, verify
from .vm import ExecOutcome, SyscallTable, exec_program

DEFAULT_SLOT_LIMIT = 16
MAX_CONTEXT_SIZE = 1 << 16  # bytes; each hook keeps every context region in its buffer


class EngineError(Exception):
    pass


class DuplicateHookName(EngineError):
    pass


class SetupPhaseClosed(EngineError):
    pass


class UnknownHook(EngineError):
    pass


class UnknownTenant(EngineError):
    pass


class UnknownContainer(EngineError):
    pass


class SlotLimitReached(EngineError):
    pass


class ContextShapeMismatch(EngineError):
    pass


def parse_mode(text: object) -> tuple[bool, bool]:
    """A region mode, 'r', 'w' or 'rw', as (readable, writable); anything
    else raises ValueError."""
    if text not in ("r", "w", "rw"):
        raise ValueError(f"mode must be 'r', 'w', or 'rw', got {text!r}")
    return "r" in text, "w" in text


def format_mode(readable: bool, writable: bool) -> str:
    return ("r" if readable else "") + ("w" if writable else "")


@dataclass(frozen=True)
class RegionGrant:
    label: str
    readable: bool = True
    writable: bool = False


def _helper_id(value: object) -> int:
    try:
        number = int(value, 0) if isinstance(value, str) else value
    except ValueError:
        number = None
    if type(number) is not int or not 0 <= number < 1 << 32:
        raise ValueError(f"helper id must be a u32, got {value!r}")
    return number


@dataclass(frozen=True)
class Contract:
    """What a container asks for: helper ids plus named region grants."""

    syscalls: frozenset[int] = frozenset()
    regions: frozenset[RegionGrant] = frozenset()

    @classmethod
    def of(cls, syscalls: Iterable[int] = (), regions: Iterable[RegionGrant] = ()) -> "Contract":
        return cls(frozenset(syscalls), frozenset(regions))

    def to_json(self) -> dict:
        regions = sorted((g.label, format_mode(g.readable, g.writable)) for g in self.regions)
        return {
            "syscalls": sorted(self.syscalls),
            "regions": [{"label": label, "mode": mode} for label, mode in regions],
        }

    @classmethod
    def from_json(cls, data: object) -> "Contract":
        """Inverse of to_json, where a grant's mode defaults to 'r'. Malformed
        data raises ValueError."""
        if not isinstance(data, dict):
            raise ValueError(f"contract must be an object, got {data!r}")
        syscalls, grants = data.get("syscalls", []), data.get("regions", [])
        if not isinstance(syscalls, list) or not isinstance(grants, list):
            raise ValueError(f"contract syscalls and regions must be lists, got {data!r}")
        regions = set()
        for grant in grants:
            if not isinstance(grant, dict) or not isinstance(grant.get("label"), str):
                raise ValueError(f"region grant needs a string label, got {grant!r}")
            regions.add(RegionGrant(grant["label"], *parse_mode(grant.get("mode", "r"))))
        return cls(frozenset(_helper_id(s) for s in syscalls), frozenset(regions))


@dataclass(frozen=True)
class ContextRegionSpec:
    """One named region of a hook's buffer, reset for every trigger."""

    label: str
    size: int
    readable: bool = True
    writable: bool = False


class ReturnPolicy:
    IGNORE_ALL = "ignore_all"
    FIRST_NONZERO_WINS = "first_nonzero_wins"
    ALL_COLLECTED = "all_collected"
    ALL = (IGNORE_ALL, FIRST_NONZERO_WINS, ALL_COLLECTED)


@dataclass
class Tenant:
    tenant_id: uuid.UUID
    display_name: str
    public_key: bytes | None  # raw 32-byte signing key, if updates are enabled


@dataclass
class ContainerStats:
    runs: int = 0
    faults: int = 0
    total_executed: int = 0
    verify_count: int = 0


@dataclass
class Container:
    container_id: uuid.UUID
    tenant_id: uuid.UUID
    hook_id: uuid.UUID
    program: Program
    granted: Contract
    views: tuple[MemoryRegion, ...]  # the granted context regions in hook-template order
    ctx: MemoryRegion | None  # r1: the first view
    caller: CallerIdentity
    stats: ContainerStats = field(default_factory=ContainerStats)
    verified: VerifiedProgram | None = None
    verify_errors: tuple[VerifyError, ...] | None = None
    # Kept across triggers: the access list for the stack position this
    # container last ran at, and its restricted helper table together with
    # the engine table it was cut from.
    acl_position: int = -1
    acl: AccessList | None = None
    helpers_source: SyscallTable | None = None
    helpers: SyscallTable | None = None


@dataclass
class Hook:
    hook_id: uuid.UUID
    name: str
    allowed_syscalls: frozenset[int]
    context_template: tuple[ContextRegionSpec, ...]
    return_policy: str
    slot_limit: int = DEFAULT_SLOT_LIMIT
    slots: list[uuid.UUID] = field(default_factory=list)
    # One layout for every trigger: the context regions by label, in
    # template order, then stack j for the running slot at position j.
    memory: HostMemory = field(default_factory=HostMemory)
    context: dict[str, MemoryRegion] = field(default_factory=dict)
    stacks: list[MemoryRegion] = field(default_factory=list)

    def __post_init__(self) -> None:
        for spec in self.context_template:
            self.context[spec.label] = self.memory.alloc(
                spec.size, spec.label, spec.readable, spec.writable
            )


class SlotOutcome(NamedTuple):
    """Per-container result of one trigger.

    ``outcome`` is None when the bytecode failed its one-time verification;
    the collected violations are then in ``verify_errors``.
    """

    container_id: uuid.UUID
    outcome: ExecOutcome | None
    verify_errors: tuple[VerifyError, ...] = ()


class TriggerResult(NamedTuple):
    hook_id: uuid.UUID
    outcomes: tuple[SlotOutcome, ...]
    policy_value: int | None
    context_after: dict[str, bytes]


def intersect_contract(hook: Hook, requested: Contract) -> Contract:
    """granted = requested ∩ hook-allowed, for helpers and regions alike."""
    syscalls = requested.syscalls & hook.allowed_syscalls
    specs = {s.label: s for s in hook.context_template}
    regions = set()
    for grant in requested.regions:
        spec = specs.get(grant.label)
        if spec is None:
            continue
        readable = grant.readable and spec.readable
        writable = grant.writable and spec.writable
        if readable or writable:
            regions.add(RegionGrant(grant.label, readable, writable))
    return Contract(frozenset(syscalls), frozenset(regions))


class Engine:
    """The host: owns tenants, hooks, containers, facilities, and stats."""

    def __init__(
        self,
        limits: VerifyLimits | None = None,
        rng: random.Random | None = None,
        facilities: FacilityContext | None = None,
    ):
        self.limits = limits or VerifyLimits()
        self.facilities = facilities or FacilityContext()
        self.syscall_table = standard_syscall_table(self.facilities)
        self.lock = threading.RLock()
        self._rng = rng
        self._setup_open = True
        self.tenants: dict[uuid.UUID, Tenant] = {}
        self.hooks: dict[uuid.UUID, Hook] = {}
        self.containers: dict[uuid.UUID, Container] = {}
        self._hook_names: dict[str, uuid.UUID] = {}
        self._update_seqs: dict[tuple[uuid.UUID, uuid.UUID], int] = {}

    # -- identifiers -------------------------------------------------

    def _new_id(self) -> uuid.UUID:
        if self._rng is None:
            return uuid.uuid4()
        return uuid.UUID(bytes=self._rng.getrandbits(128).to_bytes(16, "big"), version=4)

    # -- setup -------------------------------------------------------

    def register_tenant(self, display_name: str, public_key: bytes | None = None) -> uuid.UUID:
        with self.lock:
            tenant_id = self._new_id()
            self.tenants[tenant_id] = Tenant(tenant_id, display_name, public_key)
            self.facilities.stores.create_tenant_store(tenant_id)
            return tenant_id

    def register_hook(
        self,
        name: str,
        allowed_syscalls: Iterable[int],
        context_template: Iterable[ContextRegionSpec] = (),
        return_policy: str = ReturnPolicy.IGNORE_ALL,
        slot_limit: int = DEFAULT_SLOT_LIMIT,
    ) -> uuid.UUID:
        with self.lock:
            if not self._setup_open:
                raise SetupPhaseClosed("hooks must be registered before the first install")
            if name in self._hook_names:
                raise DuplicateHookName(name)
            if return_policy not in ReturnPolicy.ALL:
                raise ValueError(f"unknown return policy {return_policy!r}")
            template = tuple(context_template)
            if any(spec.label == STACK_LABEL for spec in template):
                raise ValueError(f"context label {STACK_LABEL!r} is reserved")
            if len({spec.label for spec in template}) != len(template):
                raise ValueError("context labels must be unique")
            for spec in template:
                if not 0 <= spec.size <= MAX_CONTEXT_SIZE:
                    raise ValueError(
                        f"context region {spec.label!r} 'size' out of range 0..{MAX_CONTEXT_SIZE}: "
                        f"{spec.size}"
                    )
            hook_id = self._new_id()
            self.hooks[hook_id] = Hook(
                hook_id, name, frozenset(allowed_syscalls), template, return_policy, slot_limit
            )
            self._hook_names[name] = hook_id
            return hook_id

    def hook_by_name(self, name: str) -> uuid.UUID:
        try:
            return self._hook_names[name]
        except KeyError:
            raise UnknownHook(name) from None

    # -- container lifecycle -----------------------------------------

    def install_container(
        self,
        tenant_id: uuid.UUID,
        program: Program,
        contract: Contract,
        hook_id: uuid.UUID,
        verified: VerifiedProgram | None = None,
    ) -> uuid.UUID:
        """Attach bytecode to a hook slot. ``verified``, when given, is
        ``program`` already verified under this engine's limits and the
        granted contract; otherwise verification waits for the first
        trigger."""
        with self.lock:
            if tenant_id not in self.tenants:
                raise UnknownTenant(str(tenant_id))
            hook = self.hooks.get(hook_id)
            if hook is None:
                raise UnknownHook(str(hook_id))
            if len(hook.slots) >= hook.slot_limit:
                raise SlotLimitReached(f"hook {hook.name!r} is at its {hook.slot_limit}-slot limit")
            self._setup_open = False
            container_id = self._new_id()
            self._bind(hook, tenant_id, container_id, program, contract, verified)
            hook.slots.append(container_id)
            if len(hook.stacks) < len(hook.slots):
                hook.stacks.append(fresh_stack(hook.memory))
            return container_id

    def remove_container(self, container_id: uuid.UUID) -> None:
        with self.lock:
            container = self.containers.pop(container_id, None)
            if container is None:
                raise UnknownContainer(str(container_id))
            self.hooks[container.hook_id].slots.remove(container_id)
            self.facilities.stores.destroy_container_store(container_id)

    def replace_container(
        self,
        container_id: uuid.UUID,
        program: Program,
        contract: Contract,
        verified: VerifiedProgram | None = None,
    ) -> None:
        """Atomically swap a container's bytecode and contract in place.

        The slot position and id survive; verification state, stats, and the
        container store start over. ``verified`` is as for install_container.
        """
        with self.lock:
            container = self.containers.get(container_id)
            if container is None:
                raise UnknownContainer(str(container_id))
            hook = self.hooks[container.hook_id]
            self._bind(hook, container.tenant_id, container_id, program, contract, verified)

    def _bind(
        self,
        hook: Hook,
        tenant_id: uuid.UUID,
        container_id: uuid.UUID,
        program: Program,
        contract: Contract,
        verified: VerifiedProgram | None,
    ) -> None:
        """Give a container on ``hook`` everything it runs with: its program,
        the granted contract and region views, its caller identity, fresh
        verification state and stats, and an empty container store."""
        granted = intersect_contract(hook, contract)
        rank = {spec.label: i for i, spec in enumerate(hook.context_template)}
        grants = sorted(granted.regions, key=lambda g: (rank[g.label], g.readable, g.writable))
        views = tuple(hook.context[g.label].view(g.readable, g.writable) for g in grants)
        ctx = views[0] if views else None
        caller = CallerIdentity.for_grant(tenant_id, container_id, granted.syscalls)
        stats = ContainerStats(verify_count=int(verified is not None))
        self.containers[container_id] = Container(
            container_id, tenant_id, hook.hook_id, program, granted, views, ctx, caller, stats, verified
        )
        self.facilities.stores.create_container_store(container_id)

    def tenant_container_on_hook(self, tenant_id: uuid.UUID, hook_id: uuid.UUID) -> uuid.UUID | None:
        with self.lock:
            for cid in self.hooks[hook_id].slots:
                if self.containers[cid].tenant_id == tenant_id:
                    return cid
            return None

    # -- update bookkeeping (used by the signed-update path) ----------

    def last_update_sequence(self, tenant_id: uuid.UUID, hook_id: uuid.UUID) -> int | None:
        return self._update_seqs.get((tenant_id, hook_id))

    def record_update_sequence(self, tenant_id: uuid.UUID, hook_id: uuid.UUID, seq: int) -> None:
        self._update_seqs[(tenant_id, hook_id)] = seq

    # -- execution -----------------------------------------------------

    def _ensure_verified(self, container: Container) -> VerifiedProgram | None:
        if container.verified is None and container.verify_errors is None:
            container.stats.verify_count += 1
            try:
                container.verified = verify(container.program, self.limits, container.granted.syscalls)
            except VerifyRejected as exc:
                container.verify_errors = tuple(exc.errors)
        return container.verified

    def trigger_hook(self, hook_id: uuid.UUID, event: Mapping[str, bytes] | None = None) -> TriggerResult:
        """Fire a hook: run every attached container once, in slot order.

        ``event`` supplies initial bytes per context label; omitted labels
        start zeroed.  The hook's buffer is reset from its template first,
        so context regions start afresh per trigger and every stack zeroed;
        one container's fault never stops the next.  A helper must not call
        back into trigger_hook: that would reset the buffer under the
        running container.
        """
        with self.lock:
            hook = self.hooks.get(hook_id)
            if hook is None:
                raise UnknownHook(str(hook_id))
            memory = hook.memory
            memory.reset()
            for label, data in (event or {}).items():
                region = hook.context.get(label)
                if region is None:
                    raise ContextShapeMismatch(f"hook {hook.name!r} has no context region {label!r}")
                if len(data) != region.length:
                    raise ContextShapeMismatch(
                        f"context {label!r} expects {region.length} bytes, got {len(data)}"
                    )
                start = region.base - memory.base
                memory.buf[start : start + region.length] = data

            outcomes: list[SlotOutcome] = []
            position = 0
            for container_id in list(hook.slots):
                container = self.containers[container_id]
                vp = self._ensure_verified(container)
                if vp is None:
                    outcomes.append(SlotOutcome(container_id, None, container.verify_errors or ()))
                    continue
                if container.acl_position != position:
                    container.acl = AccessList([hook.stacks[position], *container.views])
                    container.acl_position = position
                if container.helpers_source is not self.syscall_table:
                    container.helpers = self.syscall_table.restricted(container.granted.syscalls)
                    container.helpers_source = self.syscall_table
                position += 1
                outcome = exec_program(
                    vp, container.ctx, container.acl, container.helpers, vp.budget, container.caller
                )
                container.stats.runs += 1
                container.stats.total_executed += outcome.executed
                if outcome.fault is not None:
                    container.stats.faults += 1
                outcomes.append(SlotOutcome(container_id, outcome, ()))

            policy_value = None
            if hook.return_policy == ReturnPolicy.FIRST_NONZERO_WINS:
                for slot in outcomes:
                    if slot.outcome is not None and slot.outcome.ok and slot.outcome.return_value:
                        policy_value = slot.outcome.return_value
                        break
            context_after = {label: region.snapshot() for label, region in hook.context.items()}
            return TriggerResult(hook_id, tuple(outcomes), policy_value, context_after)

    # -- introspection -------------------------------------------------

    def introspection(self) -> dict:
        """Engine state as plain JSON-ready data, deterministically ordered."""
        with self.lock:
            tenants = [
                {
                    "tenant_id": str(t.tenant_id),
                    "display_name": t.display_name,
                    "public_key": t.public_key.hex() if t.public_key else None,
                }
                for t in sorted(self.tenants.values(), key=lambda t: str(t.tenant_id))
            ]
            hooks = [
                {
                    "hook_id": str(h.hook_id),
                    "name": h.name,
                    "allowed_syscalls": sorted(h.allowed_syscalls),
                    "context": [
                        {"label": s.label, "size": s.size, "mode": format_mode(s.readable, s.writable)}
                        for s in h.context_template
                    ],
                    "return_policy": h.return_policy,
                    "slots": [str(cid) for cid in h.slots],
                }
                for h in sorted(self.hooks.values(), key=lambda h: h.name)
            ]
            containers = [
                {
                    "container_id": str(c.container_id),
                    "tenant_id": str(c.tenant_id),
                    "hook_id": str(c.hook_id),
                    "bytecode_len": c.program.byte_len,
                    "verified": c.verified is not None,
                    "rejected": c.verify_errors is not None,
                    "granted": c.granted.to_json(),
                    "stats": {
                        "runs": c.stats.runs,
                        "faults": c.stats.faults,
                        "total_executed": c.stats.total_executed,
                        "verify_count": c.stats.verify_count,
                    },
                }
                for c in sorted(self.containers.values(), key=lambda c: str(c.container_id))
            ]
            updates = {
                f"{tid}/{hid}": seq for (tid, hid), seq in sorted(
                    self._update_seqs.items(), key=lambda kv: (str(kv[0][0]), str(kv[0][1]))
                )
            }
            return {
                "tenants": tenants,
                "hooks": hooks,
                "containers": containers,
                "updates": updates,
            }

    def introspection_json(self) -> str:
        return json.dumps(self.introspection(), sort_keys=True, separators=(",", ":"))

    def store_dump(self) -> list[dict]:
        return self.facilities.stores.dump()
