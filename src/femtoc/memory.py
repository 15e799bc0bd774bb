"""Flat byte-addressed memory with a region whitelist.

Programs see real addresses into one shared byte buffer per run.  Safety
comes entirely from the access list: a load or store is allowed only when
the whole accessed range [addr, addr+len) lies inside a single region that
grants the required mode.  The allocator leaves guard gaps filled with a
canary byte between regions, so any access that slipped past the checks is
detectable after the fact.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
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
    """One growable buffer that backs all regions of a single run."""

    def __init__(self, base: int = DEFAULT_BASE):
        self.base = base
        self.buf = bytearray()
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
        return MemoryRegion(self.base + start, length, readable, writable, label, self)

    def load(self, addr: int, size: int) -> int:
        i = addr - self.base
        return int.from_bytes(self.buf[i : i + size], "little")

    def store(self, addr: int, size: int, value: int) -> None:
        i = addr - self.base
        self.buf[i : i + size] = (value & ((1 << (8 * size)) - 1)).to_bytes(size, "little")

    def read(self, addr: int, length: int) -> bytes:
        i = addr - self.base
        return bytes(self.buf[i : i + length])

    def write(self, addr: int, data: bytes) -> None:
        i = addr - self.base
        self.buf[i : i + len(data)] = data

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
        return replace(self, readable=readable and self.readable, writable=writable and self.writable)

    def snapshot(self) -> bytes:
        return self.memory.read(self.base, self.length)


class AccessList:
    """The whitelist one program run is allowed to touch.

    Always contains exactly one 512-byte read-write stack region.
    """

    def __init__(self, regions: Sequence[MemoryRegion]):
        stacks = [r for r in regions if r.label == STACK_LABEL]
        if len(stacks) != 1:
            raise ValueError("access list needs exactly one stack region")
        stack = stacks[0]
        if stack.length != STACK_SIZE or not (stack.readable and stack.writable):
            raise ValueError(f"stack region must be a readable+writable {STACK_SIZE}-byte region")
        self.regions: tuple[MemoryRegion, ...] = tuple(regions)
        self.stack = stack

    def region_for(self, addr: int, length: int, mode: Mode) -> MemoryRegion | None:
        """First region that fully contains the range and grants the mode."""
        for region in self.regions:
            if region.covers(addr, length) and region.grants(mode):
                return region
        return None

    def labeled(self, label: str) -> MemoryRegion | None:
        for region in self.regions:
            if region.label == label:
                return region
        return None


def require_access(acl: AccessList, addr: int, length: int, mode: Mode) -> MemoryRegion:
    """The region granting [addr, addr+length) in ``mode``; raises
    AccessViolation when none does. For host helpers."""
    region = acl.region_for(addr, length, mode)
    if region is None:
        raise AccessViolation(addr, length, mode)
    return region


def fresh_stack(memory: HostMemory) -> MemoryRegion:
    return memory.alloc(STACK_SIZE, STACK_LABEL, True, True)
