"""Differential test: the package's interpreter against the reference loop.

Every generated program runs twice, once under ``femtoc.vm.exec_program``
(which dispatches on the verifier's predecoded form) and once under
``refvm.exec_program`` (the plain loop that re-derives each instruction),
each on its own freshly built host memory. The outcomes (return value,
step and branch counts, the full fault) and every byte of host memory must
be equal.

The host has two context regions, read-only then writable, so memory
accesses land in either region, in the guard between them or outside.
Half of the programs also call helpers from a three-helper table: one
returns a value, one raises SyscallError for a third of its inputs, one
writes through the access list and raises AccessViolation when that is
denied. A fourth id is granted by the verifier but missing from the table.
"""

from __future__ import annotations

import random

import pytest

import refvm
from femtoc import vm
from femtoc.memory import GUARD_LEN, AccessList, HostMemory, Mode, fresh_stack, require_access
from femtoc.verifier import VerifyLimits, verify
from femtoc.vm import SyscallError, SyscallTable
from genprog import random_accepted_program

PROGRAMS = 12_000  # per stream; two streams
LIMITS = VerifyLimits(64, 8)
RO_LEN = 32
RW_LEN = 32
CTX_SPAN = RO_LEN + GUARD_LEN + RW_LEN
HELPER_IDS = (0x1, 0x2, 0x3, 0x4)  # 0x4 is granted but not in the table


def _mix(env, r1, r2):
    return r1 * 31 + r2 + env.pc


def _refuse(env, r1, r2):
    if (r1 + r2) % 3 == 0:
        raise SyscallError(f"refused {r1:#x}, {r2:#x}")
    return r1 >> 1


def _poke(env, r1, r2):
    addr = r1 + (r2 & 63)  # from the context base: read-only, guard or writable
    require_access(env.acl, addr, 8, Mode.WRITE).memory.store(addr, 8, r2)
    return 0


def _helper_table() -> SyscallTable:
    table = SyscallTable()
    table.register(0x1, _mix, 2)
    table.register(0x2, _refuse, 2)
    table.register(0x3, _poke, 2)
    return table


def _host(init: bytes):
    memory = HostMemory()
    ro = memory.alloc(RO_LEN, "ro", readable=True, writable=False, init=init[:RO_LEN])
    rw = memory.alloc(RW_LEN, "rw", readable=True, writable=True, init=init[RO_LEN:])
    stack = fresh_stack(memory)
    return memory, ro, AccessList([stack, ro, rw])


def _mismatches(seed: int, allowed: tuple[int, ...]) -> tuple[list[str], int]:
    rng = random.Random(seed)
    table = _helper_table()
    found = []
    faults = 0
    for index in range(PROGRAMS):
        program = random_accepted_program(
            rng, max_slots=48, allowed_syscalls=allowed, ctx_span=CTX_SPAN
        )
        vp = verify(program, LIMITS, allowed)
        init = rng.randbytes(RO_LEN + RW_LEN)
        results = []
        for interpreter in (vm.exec_program, refvm.exec_program):
            memory, ctx, acl = _host(init)
            outcome = interpreter(vp, ctx, acl, table)
            results.append((outcome, bytes(memory.buf)))
        (got, got_buf), (want, want_buf) = results
        faults += got.fault is not None
        if got != want or got_buf != want_buf:
            found.append(f"program {index}: {program.to_bytes().hex()}\n  vm:  {got}\n  ref: {want}")
    return found, faults


@pytest.mark.parametrize("allowed", [(), HELPER_IDS], ids=["no-helpers", "helpers"])
def test_interpreter_matches_reference(allowed):
    mismatches, faults = _mismatches(0xD1FF + len(allowed), allowed)
    assert mismatches == [], f"{len(mismatches)} mismatches, first:\n{mismatches[0]}"
    # The stream must exercise both clean exits and faults.
    assert 0 < faults < PROGRAMS
