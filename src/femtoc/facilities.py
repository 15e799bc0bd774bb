"""Host facilities exposed to programs through helper calls.

Three key-value store scopes exist: per-container, per-tenant, and global.
A caller can only ever reach its own container store, its own tenant's
store, and the global store; which of those it may actually use is decided
by the helper ids its contract grants.  Keys are u32, values are i64, and
reading an absent key yields 0.

Sensors are replayable fixtures (reads past the end repeat the last
sample) and the clock is virtual: it only moves when the surrounding
scenario says so, which keeps every run reproducible.
"""

from __future__ import annotations

import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable
from uuid import UUID

from .memory import Mode, require_access
from .vm import SyscallEnv, SyscallError, SyscallTable

SCOPE_CONTAINER = "container"
SCOPE_TENANT = "tenant"
SCOPE_GLOBAL = "global"

CONTAINER_STORE_CAPACITY = 64
TENANT_STORE_CAPACITY = 128
GLOBAL_STORE_CAPACITY = 256
DEBUG_LOG_CAPACITY = 1024  # newest (container id, value) entries helper 0x30 keeps

# Helper ids. The verifier checks CALL immediates against the subset a
# contract grants, so unused ids are unreachable even though the table
# below registers all of them.
SYS_CONTAINER_PUT = 0x01
SYS_CONTAINER_GET = 0x02
SYS_GLOBAL_PUT = 0x03
SYS_GLOBAL_GET = 0x04
SYS_TENANT_PUT = 0x05
SYS_TENANT_GET = 0x06
SYS_NOW_MS = 0x10
SYS_SENSOR_READ = 0x11
SYS_RESPONSE_WRITE = 0x20
SYS_DEBUG_LOG = 0x30

STANDARD_SYSCALL_IDS = frozenset(
    {
        SYS_CONTAINER_PUT,
        SYS_CONTAINER_GET,
        SYS_GLOBAL_PUT,
        SYS_GLOBAL_GET,
        SYS_TENANT_PUT,
        SYS_TENANT_GET,
        SYS_NOW_MS,
        SYS_SENSOR_READ,
        SYS_RESPONSE_WRITE,
        SYS_DEBUG_LOG,
    }
)

KV_OK = 0
KV_ERR_FULL = -1
KV_ERR_SCOPE = -2

_SCOPE_OF_SYSCALL = {
    SYS_CONTAINER_PUT: SCOPE_CONTAINER,
    SYS_CONTAINER_GET: SCOPE_CONTAINER,
    SYS_GLOBAL_PUT: SCOPE_GLOBAL,
    SYS_GLOBAL_GET: SCOPE_GLOBAL,
    SYS_TENANT_PUT: SCOPE_TENANT,
    SYS_TENANT_GET: SCOPE_TENANT,
}

MASK64 = (1 << 64) - 1


def _as_i64(value: int) -> int:
    value &= MASK64
    return value - (1 << 64) if value & (1 << 63) else value


class StoreFull(Exception):
    """The store is at capacity and the key is new."""


class ScopeDenied(Exception):
    """The caller's contract does not grant this store scope."""


@dataclass(frozen=True)
class CallerIdentity:
    tenant_id: UUID | None
    container_id: UUID | None
    scopes: frozenset[str]

    @classmethod
    def for_grant(cls, tenant_id: UUID, container_id: UUID, syscalls: Iterable[int]) -> "CallerIdentity":
        """The identity of a container whose contract grants ``syscalls``."""
        return cls(tenant_id, container_id, scopes_from_syscalls(syscalls))


def scopes_from_syscalls(ids: Iterable[int]) -> frozenset[str]:
    return frozenset(_SCOPE_OF_SYSCALL[i] for i in ids if i in _SCOPE_OF_SYSCALL)


class KeyValueStore:
    """u32 -> i64 map with a fixed capacity; absent keys read as 0."""

    def __init__(self, scope: str, owner: UUID | None, capacity: int):
        self.scope = scope
        self.owner = owner
        self.capacity = capacity
        self.entries: dict[int, int] = {}

    def put(self, key: int, value: int) -> None:
        if not 0 <= key < (1 << 32):
            raise ValueError(f"key {key} is not a u32")
        if not -(1 << 63) <= value < (1 << 63):
            raise ValueError(f"value {value} is not an i64")
        if key not in self.entries and len(self.entries) >= self.capacity:
            raise StoreFull(f"{self.scope} store is full ({self.capacity} keys)")
        self.entries[key] = value

    def get(self, key: int) -> int:
        if not 0 <= key < (1 << 32):
            raise ValueError(f"key {key} is not a u32")
        return self.entries.get(key, 0)

    def to_dict(self) -> dict:
        return {
            "scope": self.scope,
            "owner": str(self.owner) if self.owner else None,
            "entries": [{"key": k, "value": v} for k, v in sorted(self.entries.items())],
        }


class StoreManager:
    """Owns every store and routes callers to the ones they may reach."""

    def __init__(self):
        self._lock = threading.RLock()
        self.global_store = KeyValueStore(SCOPE_GLOBAL, None, GLOBAL_STORE_CAPACITY)
        self.tenant_stores: dict[UUID, KeyValueStore] = {}
        self.container_stores: dict[UUID, KeyValueStore] = {}

    def create_container_store(self, container_id: UUID) -> None:
        with self._lock:
            self.container_stores[container_id] = KeyValueStore(
                SCOPE_CONTAINER, container_id, CONTAINER_STORE_CAPACITY
            )

    def destroy_container_store(self, container_id: UUID) -> None:
        with self._lock:
            self.container_stores.pop(container_id, None)

    def create_tenant_store(self, tenant_id: UUID) -> None:
        with self._lock:
            self.tenant_stores.setdefault(
                tenant_id, KeyValueStore(SCOPE_TENANT, tenant_id, TENANT_STORE_CAPACITY)
            )

    def store_for(self, scope: str, caller: CallerIdentity) -> KeyValueStore:
        """The single store a caller can reach in a scope, grant permitting."""
        if scope not in caller.scopes:
            raise ScopeDenied(f"contract grants no access to the {scope} store")
        with self._lock:
            if scope == SCOPE_GLOBAL:
                return self.global_store
            if scope == SCOPE_TENANT:
                if caller.tenant_id is None or caller.tenant_id not in self.tenant_stores:
                    raise ScopeDenied("caller has no tenant store")
                return self.tenant_stores[caller.tenant_id]
            if scope == SCOPE_CONTAINER:
                if caller.container_id is None or caller.container_id not in self.container_stores:
                    raise ScopeDenied("caller has no container store")
                return self.container_stores[caller.container_id]
        raise ValueError(f"unknown scope {scope!r}")

    def put(self, scope: str, caller: CallerIdentity, key: int, value: int) -> None:
        with self._lock:
            self.store_for(scope, caller).put(key, value)

    def get(self, scope: str, caller: CallerIdentity, key: int) -> int:
        with self._lock:
            return self.store_for(scope, caller).get(key)

    def dump(self) -> list[dict]:
        with self._lock:
            stores = [self.global_store.to_dict()]
            stores += [s.to_dict() for _, s in sorted(self.tenant_stores.items(), key=lambda kv: str(kv[0]))]
            stores += [s.to_dict() for _, s in sorted(self.container_stores.items(), key=lambda kv: str(kv[0]))]
            return stores


@dataclass
class SensorFixture:
    """Replayable sample sequence; reads past the end repeat the last one."""

    sensor_id: int
    samples: list[int]
    cursor: int = 0

    def read(self) -> int:
        if not self.samples:
            return 0
        value = self.samples[min(self.cursor, len(self.samples) - 1)]
        self.cursor += 1
        return value


class VirtualClock:
    """Milliseconds that advance only when told to, and never backwards."""

    def __init__(self, start_ms: int = 0):
        self.now_ms = start_ms

    def advance_to(self, at_ms: int) -> None:
        self.now_ms = max(self.now_ms, at_ms)


@dataclass
class FacilityContext:
    """Everything the standard helpers need, bundled per engine.

    Who is calling is not stored here: each helper call gets its caller in
    its SyscallEnv.
    """

    stores: StoreManager = field(default_factory=StoreManager)
    clock: VirtualClock = field(default_factory=VirtualClock)
    sensors: dict[int, SensorFixture] = field(default_factory=dict)
    debug_log: deque[tuple[UUID | None, int]] = field(
        default_factory=lambda: deque(maxlen=DEBUG_LOG_CAPACITY)
    )


def standalone_caller(fac: FacilityContext, syscalls: Iterable[int]) -> CallerIdentity:
    """A caller outside any engine, with fresh tenant and container stores of
    its own in ``fac``. Only the ``femtoc bench`` fixtures
    (``fixtures.bench_case``) still run outside an engine."""
    tenant_id, container_id = UUID(int=1), UUID(int=2)
    fac.stores.create_tenant_store(tenant_id)
    fac.stores.create_container_store(container_id)
    return CallerIdentity.for_grant(tenant_id, container_id, syscalls)


def _caller_of(env: SyscallEnv) -> CallerIdentity:
    if env.caller is None:
        raise SyscallError("no caller identity bound")
    return env.caller


def standard_syscall_table(fac: FacilityContext) -> SyscallTable:
    """Register the full documented helper set against one facility context."""

    def kv_put(scope: str):
        def helper(env: SyscallEnv, key: int, value: int) -> int:
            caller = _caller_of(env)
            try:
                fac.stores.put(scope, caller, key & 0xFFFF_FFFF, _as_i64(value))
            except StoreFull:
                return KV_ERR_FULL
            except ScopeDenied:
                return KV_ERR_SCOPE
            return KV_OK

        return helper

    def kv_get(scope: str):
        def helper(env: SyscallEnv, key: int) -> int:
            caller = _caller_of(env)
            try:
                return fac.stores.get(scope, caller, key & 0xFFFF_FFFF)
            except ScopeDenied:
                return 0

        return helper

    def now_ms(env: SyscallEnv) -> int:
        return fac.clock.now_ms

    def sensor_read(env: SyscallEnv, sensor_id: int) -> int:
        fixture = fac.sensors.get(sensor_id)
        return fixture.read() if fixture is not None else 0

    def response_write(env: SyscallEnv, offset: int, value: int) -> int:
        region = env.acl.labeled("response")
        if region is None:
            raise SyscallError("no response region on this hook")
        addr = (region.base + offset) & MASK64
        require_access(env.acl, addr, 8, Mode.WRITE)
        region.memory.store(addr, 8, value)
        return 0

    def debug_log(env: SyscallEnv, value: int) -> int:
        caller = env.caller
        fac.debug_log.append((caller.container_id if caller else None, _as_i64(value)))
        return 0

    table = SyscallTable()
    table.register(SYS_CONTAINER_PUT, kv_put(SCOPE_CONTAINER), 2, "container_put")
    table.register(SYS_CONTAINER_GET, kv_get(SCOPE_CONTAINER), 1, "container_get")
    table.register(SYS_GLOBAL_PUT, kv_put(SCOPE_GLOBAL), 2, "global_put")
    table.register(SYS_GLOBAL_GET, kv_get(SCOPE_GLOBAL), 1, "global_get")
    table.register(SYS_TENANT_PUT, kv_put(SCOPE_TENANT), 2, "tenant_put")
    table.register(SYS_TENANT_GET, kv_get(SCOPE_TENANT), 1, "tenant_get")
    table.register(SYS_NOW_MS, now_ms, 0, "now_ms")
    table.register(SYS_SENSOR_READ, sensor_read, 1, "sensor_read")
    table.register(SYS_RESPONSE_WRITE, response_write, 2, "response_write")
    table.register(SYS_DEBUG_LOG, debug_log, 1, "debug_log")
    return table
