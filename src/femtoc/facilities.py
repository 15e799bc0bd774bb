"""Host facilities exposed to programs through helper calls.

Three key-value store scopes exist: per-container, per-tenant, and global.
A container can only ever reach its own container store, its own tenant's
store, and the global store; which of those it may actually use is decided
by the helper ids its contract grants.  Both are fixed when the container
is installed or replaced, so its SyscallEnv carries the stores themselves
and a store helper finds its store with one dict lookup; it carries the
response helper's region the same way, and that helper writes through the
run's write windows as the VM's stores do.  A scope the record holds no
store for, as in a run with no container, reads 0 and refuses puts with
KV_ERR_SCOPE.  Keys are u32, values are i64, and reading an absent key
yields 0.

Sensors are replayable fixtures (reads past the end repeat the last
sample) and the clock is virtual: it only moves when the surrounding
scenario says so, which keeps every run reproducible.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Collection
from uuid import UUID

from .memory import checked_store
from .vm import SyscallEnv, SyscallError, SyscallTable

SCOPE_CONTAINER = "container"
SCOPE_TENANT = "tenant"
SCOPE_GLOBAL = "global"

CONTAINER_STORE_CAPACITY = 64
TENANT_STORE_CAPACITY = 128
GLOBAL_STORE_CAPACITY = 256
DEBUG_LOG_CAPACITY = 1024  # newest (container id, value) entries helper 0x30 keeps
RESPONSE_LABEL = "response"  # the context region helper 0x20 writes to

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


class KeyValueStore:
    """u32 -> i64 map with a fixed capacity; absent keys read as 0."""

    def __init__(self, scope: str, owner: UUID | None, capacity: int):
        self.scope = scope
        self.owner = owner
        self.capacity = capacity
        self.entries: dict[int, int] = {}

    def put(self, key: int, value: int) -> None:
        """The checked put, for direct callers.  The store helpers of
        ``standard_syscall_table`` do it inline and must follow its capacity
        rule: a full store refuses a new key and still takes a held one.
        The tests compare the helpers against it."""
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
    """Owns every store and hands each container the ones it may reach.

    It takes no lock: the engine calls it under ``Engine.lock``.
    """

    def __init__(self):
        self.global_store = KeyValueStore(SCOPE_GLOBAL, None, GLOBAL_STORE_CAPACITY)
        self.tenant_stores: dict[UUID, KeyValueStore] = {}
        self.container_stores: dict[UUID, KeyValueStore] = {}

    def destroy_container_store(self, container_id: UUID) -> None:
        self.container_stores.pop(container_id, None)

    def create_tenant_store(self, tenant_id: UUID) -> None:
        self.tenant_stores.setdefault(
            tenant_id, KeyValueStore(SCOPE_TENANT, tenant_id, TENANT_STORE_CAPACITY)
        )

    def bind_container(
        self, tenant_id: UUID, container_id: UUID, syscalls: Collection[int]
    ) -> dict[str, KeyValueStore]:
        """Give ``container_id`` a new, empty container store, and return the
        store of each scope its granted helper ids ``syscalls`` reach.  The
        tenant's store must exist."""
        container_store = KeyValueStore(SCOPE_CONTAINER, container_id, CONTAINER_STORE_CAPACITY)
        self.container_stores[container_id] = container_store
        reachable = {
            SCOPE_GLOBAL: self.global_store,
            SCOPE_TENANT: self.tenant_stores[tenant_id],
            SCOPE_CONTAINER: container_store,
        }
        return {scope: reachable[scope] for i, scope in _SCOPE_OF_SYSCALL.items() if i in syscalls}

    def dump(self) -> list[dict]:
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

    Who is calling is not stored here, and neither is which stores it may
    reach: each run hands its helpers the container's SyscallEnv, with the
    stores resolved when the container was bound.
    """

    stores: StoreManager = field(default_factory=StoreManager)
    clock: VirtualClock = field(default_factory=VirtualClock)
    sensors: dict[int, SensorFixture] = field(default_factory=dict)
    debug_log: deque[tuple[UUID | None, int]] = field(
        default_factory=lambda: deque(maxlen=DEBUG_LOG_CAPACITY)
    )


def standard_syscall_table(fac: FacilityContext) -> SyscallTable:
    """Register the full documented helper set against one facility context."""

    # The store helpers do KeyValueStore.put and get inline, with no nested
    # call: the key is masked to a u32 and the value cut to an i64 here.
    def kv_put(scope: str):
        def helper(env: SyscallEnv, key: int, value: int) -> int:
            store = env.stores.get(scope)
            if store is None:
                return KV_ERR_SCOPE
            entries, key = store.entries, key & 0xFFFF_FFFF
            if key not in entries and len(entries) >= store.capacity:
                return KV_ERR_FULL
            value &= MASK64
            entries[key] = value - (1 << 64) if value & (1 << 63) else value
            return KV_OK

        return helper

    def kv_get(scope: str):
        def helper(env: SyscallEnv, key: int) -> int:
            store = env.stores.get(scope)
            return 0 if store is None else store.entries.get(key & 0xFFFF_FFFF, 0)

        return helper

    def now_ms(env: SyscallEnv) -> int:
        return fac.clock.now_ms

    def sensor_read(env: SyscallEnv, sensor_id: int) -> int:
        fixture = fac.sensors.get(sensor_id)
        return fixture.read() if fixture is not None else 0

    def response_write(env: SyscallEnv, offset: int, value: int) -> int:
        region = env.response
        if region is None:
            raise SyscallError("no response region on this hook")
        checked_store(env.acl, (region.base + offset) & MASK64, 8, value)
        return 0

    def debug_log(env: SyscallEnv, value: int) -> int:
        fac.debug_log.append((env.container_id, _as_i64(value)))
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
