"""Multi-tenant container hosting: hooks, contracts, triggers, stats.

Hooks are fixed attachment points registered during a setup phase, before
the first container is installed.  Installing attaches a container (tenant +
bytecode + granted contract) to one hook slot.  The grant is the
intersection of what the container requested with what the hook allows,
both for helper ids and for named context regions.

Verification is deferred to the first trigger and performed exactly once
per installed bytecode; triggering a hook runs its containers in slot
order with fresh zeroed context buffers, a fresh stack each, and full fault
isolation between slots.
"""

from __future__ import annotations

import json
import random
import threading
import uuid
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .facilities import CallerIdentity, FacilityContext, standard_syscall_table
from .isa import Program
from .memory import STACK_LABEL, AccessList, HostMemory, MemoryRegion, fresh_stack
from .verifier import VerifiedProgram, VerifyError, VerifyLimits, VerifyRejected, verify
from .vm import ExecOutcome, exec_program

DEFAULT_SLOT_LIMIT = 16


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
    number = int(value, 0) if isinstance(value, str) else value
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
        return {
            "syscalls": sorted(self.syscalls),
            "regions": [
                {"label": g.label, "mode": format_mode(g.readable, g.writable)}
                for g in sorted(self.regions, key=lambda g: g.label)
            ],
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
    """One named buffer a hook materializes for every trigger."""

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
    requested: Contract
    granted: Contract
    caller: CallerIdentity
    stats: ContainerStats = field(default_factory=ContainerStats)
    verified: VerifiedProgram | None = None
    verify_errors: tuple[VerifyError, ...] | None = None


@dataclass
class Hook:
    hook_id: uuid.UUID
    name: str
    allowed_syscalls: frozenset[int]
    context_template: tuple[ContextRegionSpec, ...]
    return_policy: str
    slot_limit: int = DEFAULT_SLOT_LIMIT
    slots: list[uuid.UUID] = field(default_factory=list)


@dataclass(frozen=True)
class SlotOutcome:
    """Per-container result of one trigger.

    ``outcome`` is None when the bytecode failed its one-time verification;
    the collected violations are then in ``verify_errors``.
    """

    container_id: uuid.UUID
    outcome: ExecOutcome | None
    verify_errors: tuple[VerifyError, ...] = ()


@dataclass(frozen=True)
class TriggerResult:
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
    ) -> uuid.UUID:
        """Attach bytecode to a hook slot. Verification waits for the first
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
            granted = intersect_contract(hook, contract)
            self.containers[container_id] = Container(
                container_id=container_id,
                tenant_id=tenant_id,
                hook_id=hook_id,
                program=program,
                requested=contract,
                granted=granted,
                caller=CallerIdentity.for_grant(tenant_id, container_id, granted.syscalls),
            )
            hook.slots.append(container_id)
            self.facilities.stores.create_container_store(container_id)
            return container_id

    def remove_container(self, container_id: uuid.UUID) -> None:
        with self.lock:
            container = self.containers.pop(container_id, None)
            if container is None:
                raise UnknownContainer(str(container_id))
            self.hooks[container.hook_id].slots.remove(container_id)
            self.facilities.stores.destroy_container_store(container_id)

    def replace_container(self, container_id: uuid.UUID, program: Program, contract: Contract) -> None:
        """Atomically swap a container's bytecode and contract in place.

        The slot position and id survive; verification state, stats, and the
        container store start over.
        """
        with self.lock:
            container = self.containers.get(container_id)
            if container is None:
                raise UnknownContainer(str(container_id))
            hook = self.hooks[container.hook_id]
            container.program = program
            container.requested = contract
            container.granted = intersect_contract(hook, contract)
            container.caller = CallerIdentity.for_grant(
                container.tenant_id, container_id, container.granted.syscalls
            )
            container.verified = None
            container.verify_errors = None
            container.stats = ContainerStats()
            self.facilities.stores.destroy_container_store(container_id)
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
        start zeroed.  Context buffers are fresh per trigger, stacks fresh
        per container, and one container's fault never stops the next.
        """
        with self.lock:
            hook = self.hooks.get(hook_id)
            if hook is None:
                raise UnknownHook(str(hook_id))
            payload = dict(event or {})
            known = {spec.label for spec in hook.context_template}
            for label, data in payload.items():
                if label not in known:
                    raise ContextShapeMismatch(f"hook {hook.name!r} has no context region {label!r}")
                spec = next(s for s in hook.context_template if s.label == label)
                if len(data) != spec.size:
                    raise ContextShapeMismatch(
                        f"context {label!r} expects {spec.size} bytes, got {len(data)}"
                    )

            host = HostMemory()
            ctx_regions: dict[str, MemoryRegion] = {}
            for spec in hook.context_template:
                ctx_regions[spec.label] = host.alloc(
                    spec.size, spec.label, spec.readable, spec.writable, payload.get(spec.label)
                )

            outcomes: list[SlotOutcome] = []
            for container_id in list(hook.slots):
                container = self.containers[container_id]
                vp = self._ensure_verified(container)
                if vp is None:
                    outcomes.append(SlotOutcome(container_id, None, container.verify_errors or ()))
                    continue
                views = []
                granted = {g.label: g for g in container.granted.regions}
                for spec in hook.context_template:
                    grant = granted.get(spec.label)
                    if grant is not None:
                        views.append(ctx_regions[spec.label].view(grant.readable, grant.writable))
                acl = AccessList([fresh_stack(host), *views])
                ctx = views[0] if views else None
                table = self.syscall_table.restricted(container.granted.syscalls)
                outcome = exec_program(vp, ctx, acl, table, vp.budget, container.caller)
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
            context_after = {label: region.snapshot() for label, region in ctx_regions.items()}
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
