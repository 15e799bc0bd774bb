"""Multi-tenant container hosting: hooks, contracts, triggers, stats.

Hooks are fixed attachment points registered during a setup phase, before
the first container is installed.  Installing attaches a container (tenant +
bytecode + granted contract) to one hook slot.  The grant is the
intersection of what the container requested with what the hook allows,
both for helper ids and for the hook's context regions, read by label.

A container is verified once, when it is bound (installed, replaced or
updated), under the engine's limits and the helper ids its hook grants, by
``Engine.verify_for``, the package's one call of ``verifier.verify``.  It
is verified before anything changes: a program that fails raises
VerifyRejected and leaves the engine as it was, whichever way it came in,
so every bound container runs.  The engine holds each verdict weakly, by
program bytes, limits and granted helper ids, so a container bound with
the same three as a live one shares its verdict instead of verifying
again.  A trigger only reads the verdict, and runs
the hook's containers in slot order with context regions holding only the
event's bytes, a zeroed stack each, and full fault isolation between slots.

Each hook keeps one memory layout for all its triggers: its context
regions, then one stack per slot position, in a guard-padded buffer that
every trigger resets from its template before it writes in the event.  A
hook's slots are its Container objects in slot order; the slot at
position j uses stack j.  Each container has one capability record, its
SyscallEnv, handed whole to every run: the stores its grant reaches and
its response view, resolved at bind, so a helper call does no scope
routing or region lookup; its helper table, cut from
``Engine.syscall_table`` once per granted set of helper ids and shared by
the containers granted that set, and cut anew when that table is
replaced; and the access list of its slot position, which ``Engine._link``
sets for the slots that change.  Containers granted the same contract
share one Contract, and those granted the same region on a hook share
one view of it.  A trigger only reads them, and runs
every slot through ``exec_program``, which picks the tier.  Its
VerifiedProgram counts its own interpreted steps toward compiling, and
its shared verdict keeps the compiled form (see ``vm``), which goes when
the last container holding that verdict is removed or replaced.
"""

from __future__ import annotations

import json
import random
import threading
import uuid
import weakref
from dataclasses import InitVar, dataclass, field
from operator import attrgetter
from typing import Iterable, Mapping, NamedTuple

from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

from . import doc
from .facilities import RESPONSE_LABEL, FacilityContext, standard_syscall_table
from .isa import Program
from .memory import STACK_LABEL, AccessList, HostMemory, MemoryRegion, fresh_stack
from .verifier import Verdict, VerifiedProgram, VerifyLimits, verify
from .vm import ExecOutcome, SyscallEnv, SyscallTable, _new, exec_program

DEFAULT_SLOT_LIMIT = 16
MAX_CONTEXT_SIZE = 1 << 16  # bytes; each hook keeps every context region in its buffer
_TEMPLATE_ORDER = attrgetter("base", "readable", "writable")  # of a hook's views


class EngineError(Exception):
    pass


class DuplicateHookName(EngineError):
    pass


class SetupPhaseClosed(EngineError):
    pass


class BadPublicKey(EngineError):
    """A tenant's signing key is not a raw 32-byte Ed25519 public key."""


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


_CONTRACT_KEYS = frozenset(("syscalls", "regions"))
_GRANT_KEYS = frozenset(("label", "mode"))


def format_mode(readable: bool, writable: bool) -> str:
    return ("r" if readable else "") + ("w" if writable else "")


@dataclass(frozen=True)
class RegionGrant:
    label: str
    readable: bool = True
    writable: bool = False


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


def read_contract(data: object, path: str) -> Contract:
    """The contract ``data`` at ``path`` of its document: the inverse of ``Contract.to_json``."""
    regions = set()
    for at, grant in doc.items(doc.obj(data, path, _CONTRACT_KEYS), "regions", path):
        readable, writable = doc.mode(doc.obj(grant, at, _GRANT_KEYS), at)
        regions.add(RegionGrant(doc.field(grant, "label", at, str), readable, writable))
    syscalls = doc.u32s(doc.optional(data, "syscalls", path, list, []), f"{path}: helper id")
    return Contract(syscalls, frozenset(regions))


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
    verify_key: Ed25519PublicKey | None = field(default=None, repr=False, compare=False)  # built from it once


@dataclass
class ContainerStats:
    runs: int = 0
    faults: int = 0
    total_executed: int = 0
    verify_count: int = 1  # a container is verified once, when it is bound


@dataclass
class Container:
    container_id: uuid.UUID
    tenant_id: uuid.UUID
    hook_id: uuid.UUID
    granted: Contract
    views: tuple[MemoryRegion, ...]  # the granted context regions in hook-template order
    env: SyscallEnv  # its capabilities; Engine._link sets the access list
    verified: VerifiedProgram  # its program, and the verdict it may share
    stats: ContainerStats = field(default_factory=ContainerStats)


@dataclass
class Hook:
    hook_id: uuid.UUID
    name: str
    allowed_syscalls: frozenset[int]
    context_template: InitVar[tuple[ContextRegionSpec, ...]]
    return_policy: str
    slot_limit: int = DEFAULT_SLOT_LIMIT
    slots: tuple[Container, ...] = ()  # replaced whole on every change, never mutated
    # One layout for every trigger: the context regions by label, in
    # template order (the hook's one record of its template), then stack j
    # for the slot at position j.
    memory: HostMemory = field(default_factory=HostMemory)
    context: dict[str, MemoryRegion] = field(default_factory=dict)
    stacks: list[MemoryRegion] = field(default_factory=list)
    # The views its containers share: one per granted (label, mode), built on first use.
    views: dict[RegionGrant, MemoryRegion] = field(default_factory=dict)

    def __post_init__(self, context_template: tuple[ContextRegionSpec, ...]) -> None:
        for spec in context_template:
            self.context[spec.label] = self.memory.alloc(
                spec.size, spec.label, spec.readable, spec.writable
            )

    def view(self, grant: RegionGrant) -> MemoryRegion:
        """The view of a granted context region that every container granted it shares."""
        view = self.views.get(grant)
        if view is None:
            view = self.views[grant] = self.context[grant.label].view(grant.readable, grant.writable)
        return view


class SlotOutcome(NamedTuple):
    """Per-container result of one trigger."""

    container_id: uuid.UUID
    outcome: ExecOutcome


class TriggerResult(NamedTuple):
    hook_id: uuid.UUID
    outcomes: tuple[SlotOutcome, ...]
    policy_value: int | None
    context_after: dict[str, bytes]


def intersect_contract(hook: Hook, requested: Contract) -> Contract:
    """granted = requested ∩ hook-allowed, for helpers and regions alike."""
    syscalls = requested.syscalls & hook.allowed_syscalls
    regions = set()
    for grant in requested.regions:
        region = hook.context.get(grant.label)
        if region is None:
            continue
        readable = grant.readable and region.readable
        writable = grant.writable and region.writable
        if readable or writable:
            narrowed = readable != grant.readable or writable != grant.writable
            regions.add(RegionGrant(grant.label, readable, writable) if narrowed else grant)
    if syscalls == requested.syscalls and regions == requested.regions:
        return requested  # the hook narrows nothing
    return Contract(syscalls, frozenset(regions))


class Engine:
    """The host: owns tenants, hooks, containers, facilities, and stats."""

    def __init__(self, limits: VerifyLimits | None = None, rng: random.Random | None = None):
        self.limits = limits or VerifyLimits()
        self.facilities = FacilityContext()
        self._syscall_table = standard_syscall_table(self.facilities)
        self.lock = threading.RLock()
        self._rng = rng
        self._setup_open = True
        self.tenants: dict[uuid.UUID, Tenant] = {}
        self.hooks: dict[uuid.UUID, Hook] = {}
        self.containers: dict[uuid.UUID, Container] = {}
        self._hook_names: dict[str, uuid.UUID] = {}
        self._update_seqs: dict[tuple[uuid.UUID, uuid.UUID], int] = {}
        # (program bytes, limits, granted helper ids) -> the verdict the
        # containers bound with them share; they hold it, the engine does not.
        self._verdicts: weakref.WeakValueDictionary[tuple, Verdict] = weakref.WeakValueDictionary()
        # Granted contracts, and the engine table restricted to each granted
        # set of helper ids: one of each, held by the containers bound with it.
        self._contracts: weakref.WeakValueDictionary[Contract, Contract] = weakref.WeakValueDictionary()
        self._tables: weakref.WeakValueDictionary[frozenset[int], SyscallTable] = weakref.WeakValueDictionary()

    @property
    def syscall_table(self) -> SyscallTable:
        return self._syscall_table

    @syscall_table.setter
    def syscall_table(self, table: SyscallTable) -> None:
        """Replace the engine's helpers: each granted set's table is cut anew."""
        with self.lock:
            self._syscall_table = table
            self._tables.clear()
            for container in self.containers.values():
                container.env.helpers = self._helpers(container.granted.syscalls)

    def _helpers(self, syscalls: frozenset[int]) -> SyscallTable:
        """The engine table restricted to ``syscalls``, cut once per set."""
        table = self._tables.get(syscalls)
        if table is None:
            table = self._tables[syscalls] = self._syscall_table.restricted(syscalls)
        return table

    # -- identifiers -------------------------------------------------

    def _new_id(self) -> uuid.UUID:
        if self._rng is None:
            return uuid.uuid4()
        return uuid.UUID(bytes=self._rng.getrandbits(128).to_bytes(16, "big"), version=4)

    # -- setup -------------------------------------------------------

    def register_tenant(self, display_name: str, public_key: bytes | None = None) -> uuid.UUID:
        """Register a tenant, with the raw Ed25519 key that signs its
        updates; a key that is not one raises BadPublicKey."""
        verify_key = None
        if public_key is not None:
            try:
                verify_key = Ed25519PublicKey.from_public_bytes(public_key)
            except (TypeError, ValueError):
                raise BadPublicKey(f"tenant {display_name!r}: public key is not 32 raw Ed25519 bytes") from None
        with self.lock:
            tenant_id = self._new_id()
            self.tenants[tenant_id] = Tenant(tenant_id, display_name, public_key, verify_key)
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
            allowed = doc.u32s(allowed_syscalls, "helper id")
            hook_id = self._new_id()
            self.hooks[hook_id] = Hook(hook_id, name, allowed, template, return_policy, slot_limit)
            self._hook_names[name] = hook_id
            return hook_id

    def hook_by_name(self, name: str) -> uuid.UUID:
        try:
            return self._hook_names[name]
        except KeyError:
            raise UnknownHook(name) from None

    # -- container lifecycle -----------------------------------------

    def install_container(
        self, tenant_id: uuid.UUID, program: Program, contract: Contract, hook_id: uuid.UUID
    ) -> uuid.UUID:
        """Verify bytecode and attach it to a new last slot of a hook (see _bind)."""
        with self.lock:
            return self._bind(self._hook_of(tenant_id, hook_id), tenant_id, None, program, contract)

    def update_container(
        self, tenant_id: uuid.UUID, hook_id: uuid.UUID, sequence: int, program: Program, contract: Contract
    ) -> uuid.UUID:
        """The engine's half of a signed update (``update.apply_update``
        authenticates it first).  Replace the tenant's container on the
        hook in place, or install one in a new last slot (see _bind), and
        record ``sequence`` as the pair's last update; a rejection records
        nothing."""
        with self.lock:
            hook = self._hook_of(tenant_id, hook_id)
            replaced = self.tenant_container_on_hook(tenant_id, hook_id)
            container_id = self._bind(hook, tenant_id, replaced, program, contract)
            self._update_seqs[(tenant_id, hook_id)] = sequence
            return container_id

    def _hook_of(self, tenant_id: uuid.UUID, hook_id: uuid.UUID) -> Hook:
        if tenant_id not in self.tenants:
            raise UnknownTenant(str(tenant_id))
        return self._hook(hook_id)

    def _hook(self, hook_id: uuid.UUID) -> Hook:
        hook = self.hooks.get(hook_id)
        if hook is None:
            raise UnknownHook(str(hook_id))
        return hook

    def remove_container(self, container_id: uuid.UUID) -> None:
        with self.lock:
            container = self.containers.pop(container_id, None)
            if container is None:
                raise UnknownContainer(str(container_id))
            hook = self.hooks[container.hook_id]
            start = hook.slots.index(container)
            hook.slots = hook.slots[:start] + hook.slots[start + 1 :]
            self._link(hook, start)
            self.facilities.stores.destroy_container_store(container_id)

    def replace_container(self, container_id: uuid.UUID, program: Program, contract: Contract) -> None:
        """Atomically swap a container's bytecode and contract in place.

        The slot position and id survive; the program is verified first
        (see _bind), and stats and the container store start over.
        """
        with self.lock:
            container = self.containers.get(container_id)
            if container is None:
                raise UnknownContainer(str(container_id))
            hook = self.hooks[container.hook_id]
            self._bind(hook, container.tenant_id, container_id, program, contract)

    def _bind(
        self,
        hook: Hook,
        tenant_id: uuid.UUID,
        container_id: uuid.UUID | None,
        program: Program,
        contract: Contract,
    ) -> uuid.UUID:
        """Verify ``program`` (see verify_for), then give a container on
        ``hook`` everything it runs with: its verified program, the
        granted contract and region views, an empty container store, its
        SyscallEnv with the stores its grant reaches, its response view and
        its helper table, fresh stats, and its slot: the one
        ``container_id`` holds, or, when that is None, a new last one under
        a new id, which closes the setup phase.  VerifyRejected, then
        SlotLimitReached for a full hook, leave before anything changes (no
        id drawn, setup left open).  Returns the container's id."""
        verified = self.verify_for(hook, program, contract)
        if container_id is None:
            if len(hook.slots) >= hook.slot_limit:
                raise SlotLimitReached(f"hook {hook.name!r} is at its {hook.slot_limit}-slot limit")
            self._setup_open = False
            container_id = self._new_id()
        granted = intersect_contract(hook, contract)
        granted = self._contracts.setdefault(granted, granted)
        # The hook's context regions lie in template order, so a view's base is its rank.
        views = tuple(sorted(map(hook.view, granted.regions), key=_TEMPLATE_ORDER))
        stores = self.facilities.stores.bind_container(tenant_id, container_id, granted.syscalls)
        response = next((view for view in views if view.label == RESPONSE_LABEL), None)
        env = SyscallEnv(None, self._helpers(granted.syscalls), container_id, stores, response)
        old = self.containers.get(container_id)
        container = self.containers[container_id] = Container(
            container_id, tenant_id, hook.hook_id, granted, views, env, verified
        )
        slots = hook.slots
        start = slots.index(old) if old else len(slots)
        hook.slots = (*slots[:start], container, *slots[start + 1 :])
        self._link(hook, start)
        return container_id

    def _link(self, hook: Hook, start: int) -> None:
        """Give the container in each slot j of ``hook`` from ``start`` on
        the access list of its views, then stack j, so r1 is its first
        view's base; the stack is allocated on first use, and a list whose
        stack is unchanged stays.  The slots before ``start`` are unchanged."""
        for j, container in enumerate(hook.slots[start:], start):
            if j == len(hook.stacks):
                hook.stacks.append(fresh_stack(hook.memory))
            acl = container.env.acl
            if acl is None or acl.stack is not hook.stacks[j]:
                container.env.acl = AccessList([*container.views, hook.stacks[j]])

    def verify_for(self, hook: Hook, program: Program, contract: Contract) -> VerifiedProgram:
        """Verify under the engine's limits and the helper ids ``hook`` grants
        ``contract`` (those of intersect_contract, without its regions).  A
        live container's verdict for the same bytes, limits and granted ids
        answers without a second verification; the VerifiedProgram, and its
        count of steps toward compiling, is always new."""
        granted = contract.syscalls & hook.allowed_syscalls
        key = (program.to_bytes(), self.limits, granted)
        verdict = self._verdicts.get(key)
        if verdict is not None:
            return VerifiedProgram(program, verdict)
        verified = verify(program, self.limits, granted)
        self._verdicts[key] = verified.verdict
        return verified

    def tenant_container_on_hook(self, tenant_id: uuid.UUID, hook_id: uuid.UUID) -> uuid.UUID | None:
        with self.lock:
            slots = self._hook(hook_id).slots
            return next((c.container_id for c in slots if c.tenant_id == tenant_id), None)

    # -- update bookkeeping (used by the signed-update path) ----------

    def last_update_sequence(self, tenant_id: uuid.UUID, hook_id: uuid.UUID) -> int | None:
        return self._update_seqs.get((tenant_id, hook_id))

    # -- execution -----------------------------------------------------

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
            hook = self._hook(hook_id)
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
            for container in hook.slots:
                outcome = exec_program(container.verified, container.env)
                stats = container.stats
                stats.runs += 1
                stats.total_executed += outcome.executed
                if outcome.fault is not None:
                    stats.faults += 1
                outcomes.append(_new(SlotOutcome, (container.container_id, outcome)))

            policy_value = None
            if hook.return_policy == ReturnPolicy.FIRST_NONZERO_WINS:
                for slot in outcomes:
                    if slot.outcome.ok and slot.outcome.return_value:
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
                        {"label": r.label, "size": r.length, "mode": format_mode(r.readable, r.writable)}
                        for r in h.context.values()
                    ],
                    "return_policy": h.return_policy,
                    "slots": [str(c.container_id) for c in h.slots],
                }
                for h in sorted(self.hooks.values(), key=lambda h: h.name)
            ]
            containers = [
                {
                    "container_id": str(c.container_id),
                    "tenant_id": str(c.tenant_id),
                    "hook_id": str(c.hook_id),
                    "bytecode_len": c.verified.program.byte_len,
                    "verified": True,  # every bound container verified: these two and
                    "rejected": False,  # verify_count are fixed, kept for the report schema
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
        with self.lock:
            return self.facilities.stores.dump()
