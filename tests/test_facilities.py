"""Scoped stores, isolation matrix, sensors, clock, and the helper table."""

import uuid

import pytest

from femtoc import facilities as fa
from femtoc.facilities import (
    CallerIdentity,
    FacilityContext,
    KeyValueStore,
    ScopeDenied,
    SensorFixture,
    StoreFull,
    StoreManager,
    VirtualClock,
    scopes_from_syscalls,
    standard_syscall_table,
)
from femtoc.vm import SyscallEnv


def caller(manager, tenant, container, scopes=(fa.SCOPE_CONTAINER, fa.SCOPE_TENANT, fa.SCOPE_GLOBAL)):
    manager.create_tenant_store(tenant)
    manager.create_container_store(container)
    return CallerIdentity(tenant, container, frozenset(scopes))


def test_put_then_get():
    manager = StoreManager()
    who = caller(manager, uuid.uuid4(), uuid.uuid4())
    manager.put(fa.SCOPE_CONTAINER, who, 7, 42)
    assert manager.get(fa.SCOPE_CONTAINER, who, 7) == 42


def test_absent_key_reads_zero():
    manager = StoreManager()
    who = caller(manager, uuid.uuid4(), uuid.uuid4())
    assert manager.get(fa.SCOPE_CONTAINER, who, 12345) == 0
    assert manager.get(fa.SCOPE_GLOBAL, who, 1) == 0


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
    who = caller(manager, uuid.uuid4(), uuid.uuid4())
    assert manager.container_stores[who.container_id].capacity == 64
    assert manager.tenant_stores[who.tenant_id].capacity == 128
    assert manager.global_store.capacity == 256


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
        manager.put(fa.SCOPE_CONTAINER, who, 1, marks[key])
        manager.put(fa.SCOPE_TENANT, who, 1, 100 if key[0] == "A" else 200)
    manager.put(fa.SCOPE_GLOBAL, callers[("A", 1)], 1, 777)

    # Container scope: each container sees only its own value.
    seen = {key: manager.get(fa.SCOPE_CONTAINER, who, 1) for key, who in callers.items()}
    assert seen == marks
    # Tenant scope: shared within a tenant, isolated across tenants.
    assert manager.get(fa.SCOPE_TENANT, callers[("A", 1)], 1) == 100
    assert manager.get(fa.SCOPE_TENANT, callers[("A", 2)], 1) == 100
    assert manager.get(fa.SCOPE_TENANT, callers[("B", 1)], 1) == 200
    # Global scope: everyone sees the same value.
    assert all(manager.get(fa.SCOPE_GLOBAL, who, 1) == 777 for who in callers.values())


def test_tenant_b_never_sees_tenant_a_store():
    manager = StoreManager()
    a = caller(manager, uuid.uuid4(), uuid.uuid4())
    b = caller(manager, uuid.uuid4(), uuid.uuid4())
    manager.put(fa.SCOPE_TENANT, a, 1, 555)
    assert manager.get(fa.SCOPE_TENANT, b, 1) == 0


def test_scope_denied_without_grant():
    manager = StoreManager()
    who = caller(manager, uuid.uuid4(), uuid.uuid4(), scopes=(fa.SCOPE_CONTAINER,))
    with pytest.raises(ScopeDenied):
        manager.put(fa.SCOPE_GLOBAL, who, 1, 1)
    with pytest.raises(ScopeDenied):
        manager.get(fa.SCOPE_TENANT, who, 1)


def test_values_persist_across_calls_and_die_with_the_container():
    manager = StoreManager()
    who = caller(manager, uuid.uuid4(), uuid.uuid4())
    manager.put(fa.SCOPE_CONTAINER, who, 9, 99)
    assert manager.get(fa.SCOPE_CONTAINER, who, 9) == 99  # second invocation
    manager.destroy_container_store(who.container_id)
    assert who.container_id not in manager.container_stores


def test_scopes_derive_from_syscall_grants():
    assert scopes_from_syscalls({0x01, 0x02}) == frozenset({fa.SCOPE_CONTAINER})
    assert scopes_from_syscalls({0x03}) == frozenset({fa.SCOPE_GLOBAL})
    assert scopes_from_syscalls({0x06, 0x05}) == frozenset({fa.SCOPE_TENANT})
    assert scopes_from_syscalls({0x10, 0x11}) == frozenset()


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
    manager.put(fa.SCOPE_CONTAINER, who, 2, -5)
    manager.put(fa.SCOPE_GLOBAL, who, 1, 10)
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
    who = CallerIdentity(uuid.uuid4(), uuid.uuid4(), frozenset())
    total = 10 * fa.DEBUG_LOG_CAPACITY
    for value in range(total):
        assert debug_log(SyscallEnv(None, 0, who), value) == 0
    assert len(fac.debug_log) == fa.DEBUG_LOG_CAPACITY
    assert list(fac.debug_log) == [
        (who.container_id, value) for value in range(total - fa.DEBUG_LOG_CAPACITY, total)
    ]
