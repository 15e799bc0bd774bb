"""Scoped stores, isolation matrix, sensors, clock, and the helper table."""

import struct
import uuid

import pytest

from femtoc import facilities as fa
from femtoc import vm
from femtoc.asm import assemble
from femtoc.facilities import (
    FacilityContext,
    KeyValueStore,
    SensorFixture,
    StoreFull,
    StoreManager,
    VirtualClock,
    standard_syscall_table,
)
from femtoc.memory import AccessList, HostMemory, fresh_stack
from femtoc.verifier import VerifyLimits, verify
from femtoc.vm import SyscallEnv

STORE_HELPERS = frozenset(
    {
        fa.SYS_CONTAINER_PUT, fa.SYS_CONTAINER_GET, fa.SYS_TENANT_PUT, fa.SYS_TENANT_GET,
        fa.SYS_GLOBAL_PUT, fa.SYS_GLOBAL_GET,
    }
)
PUT = {fa.SCOPE_CONTAINER: fa.SYS_CONTAINER_PUT, fa.SCOPE_TENANT: fa.SYS_TENANT_PUT, fa.SCOPE_GLOBAL: fa.SYS_GLOBAL_PUT}
GET = {fa.SCOPE_CONTAINER: fa.SYS_CONTAINER_GET, fa.SCOPE_TENANT: fa.SYS_TENANT_GET, fa.SCOPE_GLOBAL: fa.SYS_GLOBAL_GET}
# The store helpers reach stores only through their env, so one table
# serves every StoreManager below.
TABLE = standard_syscall_table(FacilityContext())
MASK64 = (1 << 64) - 1  # a helper's result reaches r0 cut to 64 bits


def caller(manager, tenant, container, syscalls=STORE_HELPERS):
    """The env of a run by ``container`` of ``tenant`` granted ``syscalls``,
    with the stores the engine binds it."""
    manager.create_tenant_store(tenant)
    stores = manager.bind_container(tenant, container, syscalls)
    return SyscallEnv(None, container_id=container, stores=stores)


def put(env, scope, key, value):
    return TABLE.lookup(PUT[scope]).fn(env, key, value)


def get(env, scope, key):
    return TABLE.lookup(GET[scope]).fn(env, key)


def test_put_then_get():
    manager = StoreManager()
    who = caller(manager, uuid.uuid4(), uuid.uuid4())
    assert put(who, fa.SCOPE_CONTAINER, 7, 42) == fa.KV_OK
    assert get(who, fa.SCOPE_CONTAINER, 7) == 42
    assert manager.container_stores[who.container_id].entries == {7: 42}


def test_absent_key_reads_zero():
    manager = StoreManager()
    who = caller(manager, uuid.uuid4(), uuid.uuid4())
    assert get(who, fa.SCOPE_CONTAINER, 12345) == 0
    assert get(who, fa.SCOPE_GLOBAL, 1) == 0


def test_key_and_value_widths():
    store = KeyValueStore(fa.SCOPE_CONTAINER, None, 4)
    store.put(0xFFFF_FFFF, -(1 << 63))
    assert store.get(0xFFFF_FFFF) == -(1 << 63)
    store.put(0, (1 << 63) - 1)
    assert store.get(0) == (1 << 63) - 1
    with pytest.raises(ValueError):
        store.put(1 << 32, 0)
    with pytest.raises(ValueError):
        store.put(-1, 0)
    with pytest.raises(ValueError):
        store.put(0, 1 << 63)


def test_store_full_only_for_new_keys():
    store = KeyValueStore(fa.SCOPE_CONTAINER, None, 2)
    store.put(1, 10)
    store.put(2, 20)
    with pytest.raises(StoreFull):
        store.put(3, 30)
    store.put(1, 11)  # overwriting an existing key is fine at capacity
    assert store.get(1) == 11


def test_capacities_default_to_documented_sizes():
    manager = StoreManager()
    tenant = uuid.uuid4()
    who = caller(manager, tenant, uuid.uuid4())
    assert manager.container_stores[who.container_id].capacity == 64
    assert manager.tenant_stores[tenant].capacity == 128
    assert manager.global_store.capacity == 256
    for key in range(64):
        assert put(who, fa.SCOPE_CONTAINER, key, key) == fa.KV_OK
    assert put(who, fa.SCOPE_CONTAINER, 64, 1) == fa.KV_ERR_FULL
    assert put(who, fa.SCOPE_CONTAINER, 0, 5) == fa.KV_OK  # a known key still takes writes
    assert get(who, fa.SCOPE_CONTAINER, 64) == 0 and get(who, fa.SCOPE_CONTAINER, 0) == 5


def test_isolation_matrix_two_tenants_two_containers_each():
    manager = StoreManager()
    tenant_a, tenant_b = uuid.uuid4(), uuid.uuid4()
    callers = {
        ("A", 1): caller(manager, tenant_a, uuid.uuid4()),
        ("A", 2): caller(manager, tenant_a, uuid.uuid4()),
        ("B", 1): caller(manager, tenant_b, uuid.uuid4()),
        ("B", 2): caller(manager, tenant_b, uuid.uuid4()),
    }
    marks = {key: 1000 + n for n, key in enumerate(callers)}
    for key, who in callers.items():
        assert put(who, fa.SCOPE_CONTAINER, 1, marks[key]) == fa.KV_OK
        assert put(who, fa.SCOPE_TENANT, 1, 100 if key[0] == "A" else 200) == fa.KV_OK
    assert put(callers[("A", 1)], fa.SCOPE_GLOBAL, 1, 777) == fa.KV_OK

    # Container scope: each container sees only its own value.
    seen = {key: get(who, fa.SCOPE_CONTAINER, 1) for key, who in callers.items()}
    assert seen == marks
    # Tenant scope: shared within a tenant, isolated across tenants.
    assert get(callers[("A", 1)], fa.SCOPE_TENANT, 1) == 100
    assert get(callers[("A", 2)], fa.SCOPE_TENANT, 1) == 100
    assert get(callers[("B", 1)], fa.SCOPE_TENANT, 1) == 200
    # Global scope: everyone sees the same value.
    assert all(get(who, fa.SCOPE_GLOBAL, 1) == 777 for who in callers.values())


def test_tenant_b_never_sees_tenant_a_store():
    manager = StoreManager()
    a = caller(manager, uuid.uuid4(), uuid.uuid4())
    b = caller(manager, uuid.uuid4(), uuid.uuid4())
    assert put(a, fa.SCOPE_TENANT, 1, 555) == fa.KV_OK
    assert get(b, fa.SCOPE_TENANT, 1) == 0
    assert a.stores[fa.SCOPE_TENANT] is not b.stores[fa.SCOPE_TENANT]


def test_scope_denied_without_grant():
    manager = StoreManager()
    who = caller(manager, uuid.uuid4(), uuid.uuid4(), syscalls={fa.SYS_CONTAINER_PUT, fa.SYS_CONTAINER_GET})
    assert put(who, fa.SCOPE_GLOBAL, 1, 1) == fa.KV_ERR_SCOPE == -2
    assert put(who, fa.SCOPE_TENANT, 1, 1) == fa.KV_ERR_SCOPE
    assert get(who, fa.SCOPE_TENANT, 1) == 0
    assert get(who, fa.SCOPE_GLOBAL, 1) == 0
    # Through the table, as a run calls them: r0 is the error cut to 64 bits.
    nobody = caller(manager, uuid.uuid4(), uuid.uuid4(), syscalls=())
    for scope in (fa.SCOPE_CONTAINER, fa.SCOPE_TENANT, fa.SCOPE_GLOBAL):
        assert TABLE.calls[PUT[scope]](nobody, 1, 1, 0, 0, 0) == fa.KV_ERR_SCOPE & MASK64
        assert TABLE.calls[GET[scope]](nobody, 1, 0, 0, 0, 0) == 0
    assert manager.container_stores[nobody.container_id].entries == {}
    assert manager.global_store.entries == {}
    assert all(store.entries == {} for store in manager.tenant_stores.values())


# Keys and values at the edges of u32 and i64, as registers hold them.
EDGES = (0, 1, 1 << 31, (1 << 32) - 1, 1 << 32, (1 << 63) - 1, 1 << 63, (1 << 64) - 1)


def i64(value):
    return struct.unpack("<q", struct.pack("<Q", value & MASK64))[0]


# A thread_counter-style container: put(ctx[0], ctx[8]), its r0 to ctx[16],
# then return get(ctx[0]).
PUT_THEN_GET = assemble(
    "mov64 r9, r1\nldxdw r6, [r9+0]\nldxdw r2, [r9+8]\nmov64 r1, r6\ncall 0x01\n"
    "stxdw [r9+16], r0\nmov64 r1, r6\ncall 0x02\nexit"
)


def compiled_put_then_get(monkeypatch, who):
    """(key, value) -> (put's r0, get's r0), each through one compiled run
    of PUT_THEN_GET with ``who``'s stores."""
    monkeypatch.setattr(vm, "HOT_STEPS_PER_SLOT", 0)
    memory = HostMemory()
    ctx = memory.alloc(24, "ctx", True, True)
    env = SyscallEnv(AccessList([ctx, fresh_stack(memory)]), TABLE.restricted(STORE_HELPERS),
                     who.container_id, who.stores)
    vp = verify(PUT_THEN_GET, VerifyLimits(), STORE_HELPERS)

    def run(key, value):
        memory.reset()
        at = ctx.base - memory.base
        memory.buf[at : at + 16] = struct.pack("<QQ", key, value)
        outcome = vm.exec_program(vp, ctx, env)
        assert outcome.ok and vp.compiled is not None
        return struct.unpack_from("<Q", memory.buf, at + 16)[0], outcome.return_value

    return run


def test_store_helpers_match_the_checked_put_and_get_at_the_edges(monkeypatch):
    # Through the table's calls and through a compiled run, a put then a get
    # leave the entries and give the r0 of KeyValueStore.put on the key cut
    # to a u32 and the value cut to an i64.
    manager = StoreManager()
    table_caller, run_caller = (caller(manager, uuid.uuid4(), uuid.uuid4()) for _ in range(2))
    calls = TABLE.calls
    compiled = compiled_put_then_get(monkeypatch, run_caller)
    checked = KeyValueStore(fa.SCOPE_CONTAINER, None, fa.CONTAINER_STORE_CAPACITY)
    for key in EDGES:
        for value in EDGES:
            checked.put(key & 0xFFFF_FFFF, i64(value))
            expected = (fa.KV_OK, checked.get(key & 0xFFFF_FFFF) & MASK64)
            put_r0 = calls[fa.SYS_CONTAINER_PUT](table_caller, key, value, 0, 0, 0)
            assert (put_r0, calls[fa.SYS_CONTAINER_GET](table_caller, key, 0, 0, 0, 0)) == expected
            assert compiled(key, value) == expected
            for who in (table_caller, run_caller):
                assert manager.container_stores[who.container_id].entries == checked.entries


def test_a_full_store_refuses_a_new_key_and_takes_an_existing_one_through_the_helpers(monkeypatch):
    manager = StoreManager()
    table_caller, run_caller = (caller(manager, uuid.uuid4(), uuid.uuid4()) for _ in range(2))
    compiled = compiled_put_then_get(monkeypatch, run_caller)
    calls = TABLE.calls
    for key in range(fa.CONTAINER_STORE_CAPACITY):
        assert calls[fa.SYS_CONTAINER_PUT](table_caller, key, key, 0, 0, 0) == fa.KV_OK
        assert compiled(key, key) == (fa.KV_OK, key)
    full = {key: key for key in range(fa.CONTAINER_STORE_CAPACITY)}
    new_key = (1 << 32) + fa.CONTAINER_STORE_CAPACITY  # a u32 key not yet held, once masked
    assert calls[fa.SYS_CONTAINER_PUT](table_caller, new_key, 7, 0, 0, 0) == fa.KV_ERR_FULL & MASK64
    assert compiled(new_key, 7) == (fa.KV_ERR_FULL & MASK64, 0)
    existing = (1 << 32) + 3
    assert calls[fa.SYS_CONTAINER_PUT](table_caller, existing, MASK64, 0, 0, 0) == fa.KV_OK
    assert compiled(existing, MASK64) == (fa.KV_OK, MASK64)
    for who in (table_caller, run_caller):
        assert manager.container_stores[who.container_id].entries == {**full, 3: -1}


def test_values_persist_across_calls_and_die_with_the_container():
    manager = StoreManager()
    who = caller(manager, uuid.uuid4(), uuid.uuid4())
    assert put(who, fa.SCOPE_CONTAINER, 9, 99) == fa.KV_OK
    assert get(who, fa.SCOPE_CONTAINER, 9) == 99  # second invocation
    manager.destroy_container_store(who.container_id)
    assert who.container_id not in manager.container_stores


def test_scopes_derive_from_syscall_grants():
    manager = StoreManager()
    tenant, container = uuid.uuid4(), uuid.uuid4()
    caller(manager, tenant, container)

    def scopes(syscalls):
        return manager.bind_container(tenant, container, syscalls)

    assert scopes({0x01, 0x02}) == {fa.SCOPE_CONTAINER: manager.container_stores[container]}
    assert scopes({0x03}) == {fa.SCOPE_GLOBAL: manager.global_store}
    assert scopes({0x06, 0x05}) == {fa.SCOPE_TENANT: manager.tenant_stores[tenant]}
    assert scopes({0x10, 0x11}) == {}


def test_sensor_repeats_last_sample():
    sensor = SensorFixture(1, [3, 5, 7])
    assert [sensor.read() for _ in range(5)] == [3, 5, 7, 7, 7]


def test_empty_sensor_reads_zero():
    assert SensorFixture(1, []).read() == 0


def test_clock_never_decreases():
    clock = VirtualClock()
    clock.advance_to(100)
    clock.advance_to(40)
    assert clock.now_ms == 100
    clock.advance_to(101)
    assert clock.now_ms == 101


def test_standard_table_exposes_exactly_the_documented_ids():
    table = standard_syscall_table(FacilityContext())
    assert set(table.ids()) == set(fa.STANDARD_SYSCALL_IDS)
    assert set(table.ids()) == {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x10, 0x11, 0x20, 0x30}


def test_store_dump_shape():
    manager = StoreManager()
    who = caller(manager, uuid.uuid4(), uuid.uuid4())
    assert put(who, fa.SCOPE_CONTAINER, 2, -5) == fa.KV_OK
    assert put(who, fa.SCOPE_GLOBAL, 1, 10) == fa.KV_OK
    dump = manager.dump()
    assert all(set(entry) == {"scope", "owner", "entries"} for entry in dump)
    flat = {
        (entry["scope"], pair["key"]): pair["value"]
        for entry in dump
        for pair in entry["entries"]
    }
    assert flat[(fa.SCOPE_CONTAINER, 2)] == -5
    assert flat[(fa.SCOPE_GLOBAL, 1)] == 10


def test_debug_log_keeps_only_the_newest_entries():
    fac = FacilityContext()
    debug_log = standard_syscall_table(fac).lookup(fa.SYS_DEBUG_LOG).fn
    env = caller(fac.stores, uuid.uuid4(), uuid.uuid4(), syscalls=())
    total = 10 * fa.DEBUG_LOG_CAPACITY
    for value in range(total):
        assert debug_log(env, value) == 0
    assert len(fac.debug_log) == fa.DEBUG_LOG_CAPACITY
    assert list(fac.debug_log) == [
        (env.container_id, value) for value in range(total - fa.DEBUG_LOG_CAPACITY, total)
    ]
