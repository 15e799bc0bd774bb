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

Every region of an access list lies in one ``HostMemory``, so an address
names one byte.  The list keeps its regions as two tuples of windows, one
for reads and one for writes, each a region's address range ``(lo, hi)``,
in region order.  ``in_windows`` is their one scan: the execution tiers
call it when a load or store misses the first window, which they test
inline, and ``checked_store`` calls it for helpers.  It finds a range
covered exactly when ``region_for`` does.  The list's ``run_state`` holds
what a run unpacks once, the first windows' bounds included, so no run
indexes the windows.  An access that passes converts once, through this
module's codec (``_PACK``, ``_UNPACK`` and ``_WIDTH_MASK``, by access
width), which ``checked_store`` and the code both tiers generate share; a
counted compiled loop that only sums a run of same-width loads its guard
proved decodes them at once in one of its ``_RUN_FORMATS``.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

GUARD_BYTE = 0xA5
GUARD_LEN = 16
DEFAULT_BASE = 0x1000

STACK_LABEL = "stack"
STACK_SIZE = 512

# The buffer's codec: little-endian unsigned packers, unpackers, formats of
# a run of values and value masks, indexed by access width.
_FORMATS = {1: "<B", 2: "<H", 4: "<I", 8: "<Q"}
_UNPACK = tuple(struct.Struct(_FORMATS[w]).unpack_from if w in _FORMATS else None for w in range(9))
_PACK = tuple(struct.Struct(_FORMATS[w]).pack_into if w in _FORMATS else None for w in range(9))
# A run's format takes its count of values: _RUN_FORMATS[2] % 180 is "<180H".
_RUN_FORMATS = tuple(f"<%d{_FORMATS[w][1]}" if w in _FORMATS else None for w in range(9))
_WIDTH_MASK = tuple((1 << 8 * w) - 1 for w in range(9))


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

    def __init__(self) -> None:
        self.base = DEFAULT_BASE  # the address of buf[0]
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


# (lo, hi): a region's address range [lo, hi).
Window = tuple[int, int]


class AccessList:
    """The whitelist one program run is allowed to touch.

    Always contains exactly one 512-byte read-write stack region.
    """

    def __init__(self, regions: Sequence[MemoryRegion]):
        self.regions: tuple[MemoryRegion, ...] = tuple(regions)
        stacks: list[MemoryRegion] = []
        context: list[MemoryRegion] = []  # every other region, in order
        read: list[Window] = []
        write: list[Window] = []
        memory = self.regions[0].memory if self.regions else None
        for r in self.regions:
            if r.memory is not memory:
                raise ValueError("access list regions must lie in one host buffer")
            (stacks if r.label == STACK_LABEL else context).append(r)
            window = (r.base, r.base + r.length)
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
        self.r1 = context[0].base if context else 0  # what a run's r1 starts as
        self.read_windows: tuple[Window, ...] = tuple(read)
        self.write_windows: tuple[Window, ...] = tuple(write)
        # What a run unpacks first: the windows, the buffer, its base, the stack's
        # offset and its address, then the first read and the first write window's
        # (lo, hi), which every checked access tests inline.  The stack is both, so
        # each list has a first window.
        self.run_state = (self.read_windows, self.write_windows, memory.buf, memory.base,
                          stack.base - memory.base, stack.base, *read[0], *write[0])

    def region_for(self, addr: int, length: int, mode: Mode) -> MemoryRegion | None:
        """First region that fully contains the range and grants the mode."""
        for region in self.regions:
            if region.covers(addr, length) and region.grants(mode):
                return region
        return None


def in_windows(windows: tuple[Window, ...], addr: int, size: int) -> bool:
    """Whether one of ``windows`` holds all of [addr, addr+size)."""
    end = addr + size
    for lo, hi in windows:
        if lo <= addr and end <= hi:
            return True
    return False


def checked_store(acl: AccessList, addr: int, size: int, value: int) -> None:
    """Store ``value``, cut to ``size`` (1, 2, 4 or 8) bytes, at [addr,
    addr+size) when a write window covers it, through the codec the VM's
    stores use; raises AccessViolation when none does. For host helpers."""
    if not in_windows(acl.write_windows, addr, size):
        raise AccessViolation(addr, size, Mode.WRITE)
    memory = acl.stack.memory
    _PACK[size](memory.buf, addr - memory.base, value & _WIDTH_MASK[size])


def fresh_stack(memory: HostMemory) -> MemoryRegion:
    return memory.alloc(STACK_SIZE, STACK_LABEL, True, True)
