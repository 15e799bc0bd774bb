"""Independent oracles for the benchmark's outputs.

Nothing here imports femtoc: each model restates, in a few lines of plain
Python, the behaviour a workload's containers must show, so that a wrong
result from the package cannot be confirmed by the package itself.
"""

from __future__ import annotations

import struct

MASK64 = (1 << 64) - 1

# 64-bit ALU operations the generated programs use, keyed by mnemonic.
# Operands are unsigned 64-bit; an immediate is sign-extended first.
ALU64 = {
    "add": lambda a, b: (a + b) & MASK64,
    "sub": lambda a, b: (a - b) & MASK64,
    "mul": lambda a, b: (a * b) & MASK64,
    "xor": lambda a, b: a ^ b,
    "or": lambda a, b: a | b,
    "and": lambda a, b: a & b,
    "lsh": lambda a, b: (a << (b & 63)) & MASK64,
    "rsh": lambda a, b: a >> (b & 63),
    "mov": lambda a, b: b,
}


def alu_steps(regs: list[int], steps) -> None:
    """Apply (op, dst, src_reg | None, imm) steps to a register file."""
    for op, dst, src, imm in steps:
        b = regs[src] if src is not None else imm & MASK64
        regs[dst] = ALU64[op](regs[dst], b)


def alu_program_result(prologue, body, iterations: int) -> int:
    """r0 after running ``prologue`` once and ``body`` ``iterations`` times."""
    regs = [0] * 11
    alu_steps(regs, prologue)
    for _ in range(iterations):
        alu_steps(regs, body)
    return regs[0]


def stack_kernel_result(ctx: bytes, body, iterations: int) -> int:
    """r0 of the compute workload's stack kernel on one context.

    The kernel loads r2..r4 from the first three u64s of the context, then
    runs ``body`` ``iterations`` times on a fresh zeroed 512-byte stack.
    Body steps are ("st", offset, reg), ("ld", reg, offset) or ALU steps.
    """
    regs = [0] * 11
    regs[2], regs[3], regs[4] = struct.unpack_from("<3Q", ctx)
    stack = bytearray(512)
    for _ in range(iterations):
        for step in body:
            if step[0] == "st":
                _, offset, reg = step
                struct.pack_into("<Q", stack, offset, regs[reg])
            elif step[0] == "ld":
                _, reg, offset = step
                regs[reg] = struct.unpack_from("<Q", stack, offset)[0]
            else:
                alu_steps(regs, (step,))
    return regs[2] ^ regs[3] ^ regs[4]


class FleetModel:
    """Expected state of the fleet workload's containers and stores.

    Mirrors the documented behaviour of the four bundled fixtures:
    ``thread_counter`` counts activations per next-thread id in its
    container store, ``sensor_reader`` publishes the mean of the current and
    previous sample to its tenant store under key 1, ``coap_handler`` serves
    that value into the response region, and ``hostile_writer`` faults on
    its out-of-bounds store.
    """

    def __init__(self, samples: list[int]):
        self.samples = samples
        self.cursor = 0
        self.container_stores: dict[str, dict[int, int]] = {}
        self.tenant_stores: dict[str, dict[int, int]] = {}

    def _sample(self) -> int:
        value = self.samples[self.cursor]  # the workload rewinds before the end
        self.cursor += 1
        return value

    def fire(self, slots, ctx: tuple[int, int] | None):
        """Advance the model by one trigger; ``slots`` is [(kind, name, tenant)].

        Returns (per-slot expectations, expected response u64 or None,
        expected policy value or None). An expectation is ("ok", value) or
        ("fault", "MemoryViolation", slot index).
        """
        expected = []
        response = None
        policy = None
        for kind, name, tenant in slots:
            store = self.container_stores.setdefault(name, {})
            if kind == "thread_counter":
                key = ctx[1]
                store[key] = store.get(key, 0) + 1
                expected.append(("ok", 0))
            elif kind == "sensor_reader":
                sample = self._sample()
                average = (sample + store.get(100, 0)) >> 1
                store[100] = sample
                self.tenant_stores.setdefault(tenant, {})[1] = average
                expected.append(("ok", 0))
            elif kind == "coap_handler":
                value = self.tenant_stores.get(tenant, {}).get(1, 0)
                response = value
                if policy is None and value:
                    policy = value
                expected.append(("ok", value))
            elif kind == "hostile_writer":
                expected.append(("fault", "MemoryViolation", 2))
            else:
                raise ValueError(f"no model for fixture {kind!r}")
        return expected, response, policy
