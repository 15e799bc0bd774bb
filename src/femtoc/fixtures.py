"""Bundled bytecode fixtures, their assembly sources, and host oracles.

Each fixture is written in the package's own assembly and exercises one of
the hosted-container use cases: a position-dependent checksum over a fixed
360-byte input, a scheduler-event counter, a sensor poller publishing a
window-2 moving average, a request handler that serves the published value,
and a deliberately hostile out-of-bounds writer used for fault-isolation
tests.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from . import facilities as fa
from .asm import assemble
from .isa import Program
from .memory import AccessList, HostMemory, MemoryRegion, fresh_stack
from .vm import SyscallTable

# 45 bytes x 8 = the canonical 360-byte workload.
FLETCHER32_INPUT: bytes = b"The quick brown fox jumps over the lazy dog. " * 8
assert len(FLETCHER32_INPUT) == 360


def fletcher32_reference(data: bytes) -> int:
    """Independent host-side Fletcher-32: two running sums modulo 65535 over
    little-endian 16-bit words, low sum in the low half of the result."""
    if len(data) % 2:
        raise ValueError("input must be an even number of bytes")
    c0 = c1 = 0
    for (word,) in struct.iter_unpack("<H", data):
        c0 = (c0 + word) % 65535
        c1 = (c1 + c0) % 65535
    return (c1 << 16) | c0


# The checksum fixture processes its whole 180-word context in blocks of at
# most 359 words, deferring the modulo to the end (the running sums cannot
# overflow 64 bits at this input size).
FLETCHER32_ASM = """\
; fletcher32 over the 180 little-endian 16-bit words at [r1].
; r2 words left, r3 words this block, r4 low sum, r5 high sum.
        mov64 r2, 180
        mov64 r4, 0
        mov64 r5, 0
outer:  jeq r2, 0, finish
        mov64 r3, r2
        jle r3, 359, block
        mov64 r3, 359
block:
inner:  ldxh r0, [r1+0]
        add64 r4, r0
        add64 r5, r4
        add64 r1, 2
        sub64 r2, 1
        sub64 r3, 1
        jne r3, 0, inner
        ja outer
finish: mov64 r0, r5
        mod64 r0, 65535
        lsh64 r0, 16
        mov64 r6, r4
        mod64 r6, 65535
        or64 r0, r6
        exit
"""

THREAD_COUNTER_ASM = """\
; scheduler hook: bump a per-thread activation counter.
; context: two little-endian u64 fields, previous and next thread id.
        ldxdw r6, [r1+8]        ; next thread id is the store key
        mov64 r1, r6
        call 0x02               ; current count for that thread
        add64 r0, 1
        mov64 r1, r6
        mov64 r2, r0
        call 0x01
        mov64 r0, 0
        exit
"""

SENSOR_READER_ASM = """\
; timer hook: poll sensor 1, publish a window-2 moving average to the
; tenant store under key 1. The previous sample lives in the container
; store under key 100.
        mov64 r1, 1
        call 0x11               ; current sample
        mov64 r6, r0
        mov64 r1, 100
        call 0x02               ; previous sample (0 on the first tick)
        add64 r0, r6
        rsh64 r0, 1
        mov64 r7, r0
        mov64 r1, 100
        mov64 r2, r6
        call 0x01               ; remember this sample
        mov64 r1, 1
        mov64 r2, r7
        call 0x05               ; publish the average tenant-wide
        mov64 r0, 0
        exit
"""

COAP_HANDLER_ASM = """\
; request hook: answer with the published average.
        mov64 r1, 1
        call 0x06               ; tenant store, key 1
        mov64 r6, r0
        mov64 r1, 0
        mov64 r2, r6
        call 0x20               ; response_write(offset 0, value)
        mov64 r0, r6            ; nonzero return carries the answer
        exit
"""

HOSTILE_WRITER_ASM = """\
; writes 8 bytes starting exactly at the end of its own stack.
        mov64 r6, r10
        add64 r6, 512
        stxdw [r6+0], r0
        mov64 r0, 1
        exit
"""

FIXTURE_SOURCES: dict[str, str] = {
    "fletcher32_360": FLETCHER32_ASM,
    "thread_counter": THREAD_COUNTER_ASM,
    "sensor_reader": SENSOR_READER_ASM,
    "coap_handler": COAP_HANDLER_ASM,
    "hostile_writer": HOSTILE_WRITER_ASM,
}

FIXTURE_SYSCALLS: dict[str, frozenset[int]] = {
    "fletcher32_360": frozenset(),
    "thread_counter": frozenset({fa.SYS_CONTAINER_PUT, fa.SYS_CONTAINER_GET}),
    "sensor_reader": frozenset(
        {fa.SYS_SENSOR_READ, fa.SYS_CONTAINER_PUT, fa.SYS_CONTAINER_GET, fa.SYS_TENANT_PUT}
    ),
    "coap_handler": frozenset({fa.SYS_TENANT_GET, fa.SYS_RESPONSE_WRITE}),
    "hostile_writer": frozenset(),
}


@lru_cache(maxsize=None)
def fixture_program(name: str) -> Program:
    try:
        return assemble(FIXTURE_SOURCES[name])
    except KeyError:
        raise KeyError(f"no bundled fixture named {name!r}") from None


@dataclass(frozen=True)
class BenchCase:
    """One benchmarkable workload: a program plus a fresh-run factory that
    returns the context, access list, helper table and caller of one run."""

    program: Program
    allowed_syscalls: frozenset[int]
    make_run: Callable[[], tuple[MemoryRegion | None, AccessList, SyscallTable, fa.CallerIdentity]]


# Bench fixture -> (context bytes at r1, or None; sensor id -> samples).
_BENCH_INPUTS: dict[str, tuple[bytes | None, dict[int, tuple[int, ...]]]] = {
    "fletcher32_360": (FLETCHER32_INPUT, {}),
    "thread_counter": (struct.pack("<QQ", 1, 2), {}),
    "sensor_reader": (None, {1: (10, 20, 30)}),
}

BENCH_FIXTURES = tuple(_BENCH_INPUTS)


def bench_case(name: str) -> BenchCase:
    """A bench fixture run outside any engine, so that a warm run can time
    execution alone on state kept from the first."""
    try:
        ctx_bytes, sensors = _BENCH_INPUTS[name]
    except KeyError:
        raise KeyError(f"no bench fixture named {name!r}") from None
    allowed = FIXTURE_SYSCALLS[name]

    def make_run():
        fac = fa.FacilityContext()
        for sensor_id, samples in sensors.items():
            fac.sensors[sensor_id] = fa.SensorFixture(sensor_id, list(samples))
        caller = fa.standalone_caller(fac, allowed)
        host = HostMemory()
        ctx = None if ctx_bytes is None else host.alloc(len(ctx_bytes), "ctx", True, False, ctx_bytes)
        acl = AccessList([fresh_stack(host), *([ctx] if ctx else [])])
        return ctx, acl, fa.standard_syscall_table(fac).restricted(allowed), caller

    return BenchCase(fixture_program(name), allowed, make_run)
