"""Flat byte-addressed memory with a region whitelist.

Programs see real addresses into one shared byte buffer: the engine keeps
one per hook, for its context regions and its slots' stacks.  Safety comes
entirely from the access list: a load or store is allowed only when the
whole accessed range [addr, addr+len) lies inside a single region that
grants the required mode.  The allocator leaves guard gaps filled with a
canary byte between regions, so any access that slipped past the checks is
detectable after the fact.  A buffer is reused across runs by ``reset``
(the engine's, at every trigger), which puts back every byte the
allocations wrote: guards, zeros and init data.

An access list also keeps its regions as two tuples of windows, one for
reads and one for writes, each ``(lo, hi, buf, base)``: the region's
address range [lo, hi), its host buffer and the buffer's base address, in
region order.  The execution tiers check loads and stores inline, testing
the first window before they scan them all, and ``checked_store`` scans
them for helpers; the first window that covers a range is the region
``region_for`` returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

GUARD_BYTE = 0xA5
GUARD_LEN = 16
DEFAULT_BASE = 0x1000

STACK_LABEL = "stack"
STACK_SIZE = 512


class Mode(Enum):
    READ = "read"
    WRITE = "write"


class AccessViolation(Exception):
    """A helper attempted a memory access the access list denies."""

    def __init__(self, addr: int, length: int, mode: Mode):
        super().__init__(f"{mode.value} of {length} bytes at {addr:#x} denied")
        self.addr = addr
        self.length = length
        self.mode = mode


class HostMemory:
    """One growable buffer that backs a set of regions: in the engine, a hook's."""

    def __init__(self, base: int = DEFAULT_BASE):
        self.base = base
        self.buf = bytearray()
        self._fresh = bytearray()  # buf as the allocations left it
        self._guards: list[tuple[int, int]] = []  # [start, end) offsets into buf

    def _push_guard(self) -> None:
        start = len(self.buf)
        self.buf.extend(bytes([GUARD_BYTE]) * GUARD_LEN)
        self._guards.append((start, len(self.buf)))

    def alloc(
        self,
        length: int,
        label: str,
        readable: bool,
        writable: bool,
        init: bytes | None = None,
    ) -> "MemoryRegion":
        """Carve out a fresh zeroed region, fenced by guard bytes."""
        if init is not None and len(init) > length:
            raise ValueError(f"init data ({len(init)} bytes) exceeds region length {length}")
        self._push_guard()
        start = len(self.buf)
        self.buf.extend(bytes(length))
        if init:
            self.buf[start : start + len(init)] = init
        self._push_guard()
        self._fresh += self.buf[len(self._fresh) :]
        return MemoryRegion(self.base + start, length, readable, writable, label, self)

    def reset(self) -> None:
        """Put back every byte as the allocations left it, in place, so
        regions and windows that hold ``buf`` stay valid."""
        self.buf[:] = self._fresh

    def read(self, addr: int, length: int) -> bytes:
        i = addr - self.base
        return bytes(self.buf[i : i + length])

    def guards_intact(self) -> bool:
        expected = bytes([GUARD_BYTE]) * GUARD_LEN
        return all(bytes(self.buf[s:e]) == expected for s, e in self._guards)


@dataclass(frozen=True)
class MemoryRegion:
    """A labeled window of host memory with its own read/write permission."""

    base: int
    length: int
    readable: bool
    writable: bool
    label: str
    memory: HostMemory

    @property
    def end(self) -> int:
        return self.base + self.length

    def grants(self, mode: Mode) -> bool:
        return self.readable if mode is Mode.READ else self.writable

    def covers(self, addr: int, length: int) -> bool:
        return self.base <= addr and addr + length <= self.end

    def view(self, readable: bool, writable: bool) -> "MemoryRegion":
        """The same bytes under narrower (per-grant) permissions."""
        readable, writable = readable and self.readable, writable and self.writable
        return MemoryRegion(self.base, self.length, readable, writable, self.label, self.memory)

    def snapshot(self) -> bytes:
        return self.memory.read(self.base, self.length)


# (lo, hi, buf, base): a region's address range [lo, hi), its host buffer and
# the buffer's base address.
Window = tuple[int, int, bytearray, int]


class AccessList:
    """The whitelist one program run is allowed to touch.

    Always contains exactly one 512-byte read-write stack region.
    """

    def __init__(self, regions: Sequence[MemoryRegion]):
        self.regions: tuple[MemoryRegion, ...] = tuple(regions)
        stacks: list[MemoryRegion] = []
        read: list[Window] = []
        write: list[Window] = []
        for r in self.regions:
            if r.label == STACK_LABEL:
                stacks.append(r)
            window = (r.base, r.base + r.length, r.memory.buf, r.memory.base)
            if r.readable:
                read.append(window)
            if r.writable:
                write.append(window)
        if len(stacks) != 1:
            raise ValueError("access list needs exactly one stack region")
        stack = stacks[0]
        if stack.length != STACK_SIZE or not (stack.readable and stack.writable):
            raise ValueError(f"stack region must be a readable+writable {STACK_SIZE}-byte region")
        self.stack = stack
        self.read_windows: tuple[Window, ...] = tuple(read)
        self.write_windows: tuple[Window, ...] = tuple(write)
        # What a run unpacks first: the windows, the stack's bytes, its offset in them and its base.
        self.run_state = (self.read_windows, self.write_windows, stack.memory.buf,
                          stack.base - stack.memory.base, stack.base)

    def region_for(self, addr: int, length: int, mode: Mode) -> MemoryRegion | None:
        """First region that fully contains the range and grants the mode."""
        for region in self.regions:
            if region.covers(addr, length) and region.grants(mode):
                return region
        return None


def checked_store(acl: AccessList, addr: int, size: int, value: int) -> None:
    """Store ``value``, cut to ``size`` bytes, at [addr, addr+size) through
    the first write window that covers it, as the VM's stores do; raises
    AccessViolation when none does. For host helpers."""
    end = addr + size
    for lo, hi, buf, base in acl.write_windows:
        if lo <= addr and end <= hi:
            buf[addr - base : end - base] = (value & ((1 << 8 * size) - 1)).to_bytes(size, "little")
            return
    raise AccessViolation(addr, size, Mode.WRITE)


def fresh_stack(memory: HostMemory) -> MemoryRegion:
    return memory.alloc(STACK_SIZE, STACK_LABEL, True, True)
