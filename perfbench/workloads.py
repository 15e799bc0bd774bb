"""The benchmark's three workloads, each driven through femtoc's public calls.

A workload is built from a seed. ``__init__`` does the client-side work
(assembling sources, drawing inputs, deriving keys) that set-up time
excludes. ``prepare()`` resets the op stream and draws the set-up ops
(untimed); ``setup()`` builds the host and runs those ops, so that it fires
every hook once (timed); ``next_op()`` draws the next operation (untimed);
``run(op)`` is the timed call into the package; ``check(op, result)``
compares the result with an independent oracle from ``models`` and returns
a mismatch description or None.

Every femtoc call goes through a module or class attribute (``fupdate.
apply_update``, ``Engine.trigger_hook``, ...) so the traced run can wrap it.
"""

from __future__ import annotations

import random
import struct
import time
from collections import deque
from dataclasses import dataclass, replace

import femtoc.update as fupdate
from femtoc.asm import assemble
from femtoc.engine import Contract, ContextRegionSpec, Engine, RegionGrant, ReturnPolicy
from femtoc.fixtures import fixture_program, fletcher32_reference
from femtoc.isa import Program
from femtoc.scenario import ScenarioRuntime

from models import MASK64, FleetModel, alu_program_result, stack_kernel_result


@dataclass
class Op:
    """One operation: its inputs and what the oracle expects back."""

    args: tuple
    expect: object
    first_run: bool = False  # the op's trigger pays a fresh verify and first run


def _alu_line(step) -> str:
    """Assembler text of one (op, dst, src_reg | None, imm) ALU step."""
    op, dst, src, imm = step
    return f"{op}64 r{dst}, " + (f"r{src}" if src is not None else str(imm))


def _outcome_mismatch(slot, expect) -> str | None:
    """Compare one SlotOutcome with ("ok", value) or ("fault", kind, pc)."""
    outcome = slot.outcome
    if outcome is None:
        return f"container rejected at verification: {slot.verify_errors}"
    if expect[0] == "ok":
        if outcome.fault is not None:
            return f"unexpected fault {outcome.fault}"
        if outcome.return_value != expect[1]:
            return f"returned {outcome.return_value}, expected {expect[1]}"
        return None
    fault = outcome.fault
    if fault is None or fault.kind.value != expect[1] or fault.pc != expect[2]:
        return f"expected {expect[1]} at slot {expect[2]}, got {fault}"
    return None


# -- compute ---------------------------------------------------------------

CTX_BYTES = 360
FLETCHER_CONTAINERS = 4
STACK_SLOTS = 8  # few enough that most loads read back an earlier store
ACCUMULATORS = (2, 3, 4)  # the kernel returns r2 ^ r3 ^ r4


def _stack_kernel(rng: random.Random) -> tuple[str, list, int]:
    """A loop whose memory traffic is all [r10+const] loads and stores.

    Every loaded value is folded into an accumulator that is never cleared,
    so a wrong load or store changes the result.
    """
    iterations = 24
    offsets = rng.sample(range(0, 512, 8), STACK_SLOTS)
    stored = [rng.choice(offsets) for _ in range(5)]
    to_store = list(stored)
    groups = [0, 1, 2] * 5
    rng.shuffle(groups)
    body: list = []
    for group in groups:
        if group == 0:  # loads read slots that some store writes
            body += [("ld", 6, rng.choice(stored)), (rng.choice(("add", "xor")), rng.choice(ACCUMULATORS), 6, 0)]
        elif group == 1:
            body.append(("st", to_store.pop(), rng.choice(ACCUMULATORS)))
        else:
            dst, src = rng.sample(ACCUMULATORS, 2)
            body += [(rng.choice(("add", "xor", "sub")), dst, src, 0), ("mul", dst, None, rng.randrange(1, 1 << 20) | 1)]
    lines = ["ldxdw r2, [r1+0]", "ldxdw r3, [r1+8]", "ldxdw r4, [r1+16]", f"mov64 r5, {iterations}", "loop:"]
    for step in body:
        if step[0] == "st":
            lines.append(f"stxdw [r10+{step[1]}], r{step[2]}")
        elif step[0] == "ld":
            lines.append(f"ldxdw r{step[1]}, [r10+{step[2]}]")
        else:
            lines.append(_alu_line(step))
    lines += ["sub64 r5, 1", "jne r5, 0, loop", "mov64 r0, r2", "xor64 r0, r3", "xor64 r0, r4", "exit"]
    return "\n".join(lines), body, iterations


class Compute:
    """One hook, four fletcher32_360 containers and one stack kernel."""

    name = "compute"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.seed = seed
        self.op_seed = rng.getrandbits(64)
        source, self.kernel_body, self.kernel_iterations = _stack_kernel(rng)
        self.kernel = assemble(source)
        self.fletcher = fixture_program("fletcher32_360")

    def prepare(self) -> None:
        self.rng = random.Random(self.op_seed)
        self.setup_op = self.next_op()

    def setup(self) -> list:
        engine = Engine(rng=random.Random(self.seed))
        tenant = engine.register_tenant("compute")
        self.hook = engine.register_hook(
            "sensor.block",
            allowed_syscalls=(),
            context_template=[ContextRegionSpec("ctx", CTX_BYTES)],
            return_policy=ReturnPolicy.ALL_COLLECTED,
        )
        contract = Contract.of((), [RegionGrant("ctx")])
        for _ in range(FLETCHER_CONTAINERS):
            engine.install_container(tenant, self.fletcher, contract, self.hook)
        engine.install_container(tenant, self.kernel, contract, self.hook)
        self.engine = engine
        return [(self.setup_op, self.run(self.setup_op))]

    def next_op(self) -> Op:
        ctx = self.rng.randbytes(CTX_BYTES)
        checksum = fletcher32_reference(ctx)
        kernel = stack_kernel_result(ctx, self.kernel_body, self.kernel_iterations)
        return Op(({"ctx": ctx},), [("ok", checksum)] * FLETCHER_CONTAINERS + [("ok", kernel)])

    def run(self, op: Op):
        return self.engine.trigger_hook(self.hook, *op.args)

    def check(self, op: Op, result) -> str | None:
        if len(result.outcomes) != len(op.expect):
            return f"{len(result.outcomes)} slots ran, expected {len(op.expect)}"
        for index, (slot, expect) in enumerate(zip(result.outcomes, op.expect)):
            problem = _outcome_mismatch(slot, expect)
            if problem:
                return f"slot {index}: {problem}"
        return None


# -- fleet -----------------------------------------------------------------

FLEET_TENANTS = 6
SENSOR_SAMPLES = 4096
THREAD_IDS = 48  # below the 64-key container store capacity

# (hook kind, number of hooks, fixture mix per hook); 100 containers.
FLEET_LAYOUT = (
    ("sched", 4, {"thread_counter": 10, "hostile_writer": 2}),
    ("timer", 2, {"sensor_reader": 12}),
    ("coap", 2, {"coap_handler": 14}),
)
FLEET_HOOK_SPEC = {
    "sched": {"syscalls": [1, 2], "context": [{"label": "ctx", "size": 16, "mode": "r"}]},
    "timer": {"syscalls": [17, 1, 2, 5], "context": []},
    "coap": {
        "syscalls": [6, 32],
        "context": [
            {"label": "request", "size": 16, "mode": "r"},
            {"label": "response", "size": 16, "mode": "rw"},
        ],
        "return_policy": "first_nonzero_wins",
    },
}
FLEET_CONTRACT = {
    "thread_counter": {"syscalls": [1, 2], "regions": [{"label": "ctx", "mode": "r"}]},
    "hostile_writer": {"syscalls": [], "regions": [{"label": "ctx", "mode": "r"}]},
    "sensor_reader": {"syscalls": [17, 1, 2, 5]},
    "coap_handler": {
        "syscalls": [6, 32],
        "regions": [{"label": "request", "mode": "r"}, {"label": "response", "mode": "rw"}],
    },
}
# Events per round, per hook of each kind. Each round fires every hook this
# many times in a shuffled order, so every seed gives the same mix.
FLEET_WEIGHTS = {"sched": 2, "timer": 1, "coap": 1}


class Fleet:
    """100 containers from several tenants behind a generated scenario."""

    name = "fleet"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.op_seed = rng.getrandbits(64)
        self.samples = [rng.randrange(0, 1 << 16) for _ in range(SENSOR_SAMPLES)]
        tenants = [f"tenant{i}" for i in range(FLEET_TENANTS)]
        hooks, setup = [], []
        self.hook_slots: dict[str, list[tuple[str, str, str]]] = {}
        for kind, count, mix in FLEET_LAYOUT:
            for h in range(count):
                hook = f"{kind}.{h}"
                hooks.append({"name": hook, **FLEET_HOOK_SPEC[kind]})
                fixtures = [f for f, n in mix.items() for _ in range(n)]
                rng.shuffle(fixtures)
                slots = []
                for fixture in fixtures:
                    name = f"c{len(setup):03d}"
                    tenant = rng.choice(tenants)
                    slots.append((fixture, name, tenant))
                    setup.append({
                        "action": "install", "name": name, "tenant": tenant, "hook": hook,
                        "program": {"fixture": fixture}, "contract": FLEET_CONTRACT[fixture],
                    })
                self.hook_slots[hook] = slots
        self.doc = {
            "schema_version": 1,
            "name": "fleet",
            "seed": seed,
            "tenants": [{"name": t} for t in tenants],
            "sensors": [{"id": 1, "samples": self.samples}],
            "hooks": hooks,
            "setup": setup,
        }
        self.hook_kind = {h["name"]: h["name"].split(".")[0] for h in hooks}
        self.round = [h for h in self.hook_kind for _ in range(FLEET_WEIGHTS[self.hook_kind[h]])]
        self.reads_per_round = sum(
            fixture == "sensor_reader" for hook in self.round for fixture, _, _ in self.hook_slots[hook]
        )
        for fixture in FLEET_CONTRACT:
            fixture_program(fixture)  # assemble once, before any set-up is timed
        self.build_ns: int | None = None

    def prepare(self) -> None:
        self.rng = random.Random(self.op_seed)
        self.order: deque[str] = deque()
        self.model = FleetModel(self.samples)
        self.at_ms = 0
        self.setup_ops = [self._op(hook) for hook in self.hook_slots]

    def setup(self) -> list:
        t0 = time.perf_counter_ns()
        self.runtime = ScenarioRuntime(self.doc)
        self.build_ns = time.perf_counter_ns() - t0
        facilities = self.runtime.engine.facilities
        stores = facilities.stores
        self.container_store = {n: stores.container_stores[c] for n, c in self.runtime.container_ids.items()}
        self.tenant_store = {n: stores.tenant_stores[t] for n, t in self.runtime.tenant_ids.items()}
        self.sensor = facilities.sensors[1]
        return [(op, self.run(op)) for op in self.setup_ops]

    @property
    def engine(self) -> Engine:
        return self.runtime.engine

    def _op(self, hook: str) -> Op:
        self.at_ms += 1
        kind = self.hook_kind[hook]
        event = {"at_ms": self.at_ms, "kind": "trigger", "hook": hook}
        ctx = None
        if kind == "sched":
            ctx = (self.rng.randrange(THREAD_IDS), self.rng.randrange(THREAD_IDS))
            event["payload"] = {"ctx": {"u64": list(ctx)}}
        elif kind == "coap":
            event["payload"] = {"request": {"u64": [self.rng.getrandbits(32), self.at_ms]}}
        slots = self.hook_slots[hook]
        expect = self.model.fire(slots, ctx)
        return Op((event,), (hook, expect))

    def next_op(self) -> Op:
        if not self.order:
            # The sensor fixture repeats its last sample once it runs out,
            # which would freeze every average the checks compare. Before
            # a round could reach the end, rewind the fixture and the model
            # together, so every read in the run is a live sample.
            if self.model.cursor + self.reads_per_round > len(self.samples):
                self.model.cursor = self.sensor.cursor = 0
            self.order.extend(self.rng.sample(self.round, len(self.round)))
        return self._op(self.order.popleft())

    def run(self, op: Op):
        return self.runtime.fire(*op.args)

    def check(self, op: Op, result) -> str | None:
        hook, (expect, response, policy) = op.expect
        slots = self.hook_slots[hook]
        if len(result.outcomes) != len(slots):
            return f"{hook}: {len(result.outcomes)} slots ran, expected {len(slots)}"
        for (fixture, name, tenant), slot, exp in zip(slots, result.outcomes, expect):
            problem = _outcome_mismatch(slot, exp)
            if problem:
                return f"{hook}/{name} ({fixture}): {problem}"
            if self.container_store[name].entries != self.model.container_stores[name]:
                return f"{hook}/{name}: container store differs from the model"
            if self.tenant_store[tenant].entries != self.model.tenant_stores.get(tenant, {}):
                return f"{hook}/{name}: store of {tenant} differs from the model"
        if response is not None:
            served = struct.unpack_from("<Q", result.context_after["response"])[0]
            if served != response:
                return f"{hook}: served {served}, expected {response}"
        if result.policy_value != policy:
            return f"{hook}: policy value {result.policy_value}, expected {policy}"
        if self.sensor.cursor != self.model.cursor:
            return f"{hook}: {self.sensor.cursor} sensor samples read, expected {self.model.cursor}"
        return None


# -- churn -----------------------------------------------------------------

CHURN_TENANTS = 4
# Updates are drawn and signed in rounds, outside the timed region. Each
# round spreads payload sizes evenly over 16..1024 slots on a log scale,
# alternates straight-line and looping payloads, and makes exactly one
# update in BAD_UPDATE_EVERY bad, so every seed gives the same mix.
CHURN_ROUND = 32
BAD_UPDATE_EVERY = 8
BAD_KINDS = ("BadSignature", "DigestMismatch", "RollbackRejected")
INITIAL_SLOTS = (16, 64, 256, 1024)
ALU_CHOICES = ("add", "sub", "mul", "xor", "or", "and", "lsh", "rsh")


def _alu_step(rng: random.Random):
    op = rng.choice(ALU_CHOICES)
    dst = rng.randrange(0, 6)
    if rng.random() < 0.4:
        return (op, dst, rng.randrange(0, 6), 0)
    imm = rng.randrange(64) if op in ("lsh", "rsh") else rng.randrange(-(1 << 31), 1 << 31)
    return (op, dst, None, imm)


def churn_payload(rng: random.Random, nonce: int, total: int, iterations: int) -> tuple[bytes, int]:
    """A ``total``-slot pure-ALU program and the r0 it must return.

    The first slot loads ``nonce`` into r9, which nothing reads, so every
    payload is byte-distinct. With ``iterations`` above 1 the body is a loop
    counted down in r6; otherwise the program is straight-line.
    """
    prologue = [("mov", r, None, rng.randrange(-(1 << 31), 1 << 31)) for r in range(6)]
    lines = [f"mov64 r9, {nonce}"] + [_alu_line(s) for s in prologue]
    if iterations == 1:
        body = [_alu_step(rng) for _ in range(total - len(lines) - 1)]
        lines += [_alu_line(s) for s in body]
    else:
        body = [_alu_step(rng) for _ in range(total - len(lines) - 4)]
        lines += [f"mov64 r6, {iterations}", "loop:", *map(_alu_line, body), "sub64 r6, 1", "jne r6, 0, loop"]
    lines.append("exit")
    return assemble("\n".join(lines)).to_bytes(), alu_program_result(prologue, body, iterations)


class Churn:
    """Signed updates from four tenants, each replacing its one container."""

    name = "churn"

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.seed = seed
        self.op_seed = rng.getrandbits(64)
        self.keys = [fupdate.private_key_from_seed(rng.randbytes(32)) for _ in range(CHURN_TENANTS)]
        self.public = [fupdate.public_key_raw(k) for k in self.keys]
        self.initial = [
            churn_payload(rng, t, slots, 1 + t % 2 * 3) for t, slots in enumerate(INITIAL_SLOTS)
        ]
        self.initial_programs = [Program.from_bytes(p) for p, _ in self.initial]

    def prepare(self) -> None:
        self.rng = random.Random(self.op_seed)
        self.nonce = CHURN_TENANTS
        self.pending: deque[Op] = deque()
        self.last_seq: list[int | None] = [None] * CHURN_TENANTS
        self.value = [value for _, value in self.initial]
        self.setup_ops = [Op((t, None, None), ("noop", self.value[t])) for t in range(CHURN_TENANTS)]

    def setup(self) -> list:
        engine = Engine(rng=random.Random(self.seed))
        self.tenants = [engine.register_tenant(f"tenant{t}", self.public[t]) for t in range(CHURN_TENANTS)]
        self.hooks = [engine.register_hook(f"ota.{t}", ()) for t in range(CHURN_TENANTS)]
        self.containers = [
            engine.install_container(tenant, program, Contract.of(), hook)
            for tenant, program, hook in zip(self.tenants, self.initial_programs, self.hooks)
        ]
        self.engine = engine
        return [(op, self.run(op)) for op in self.setup_ops]

    def _sign(self, t: int, seq: int, payload: bytes):
        manifest = fupdate.build_manifest(self.tenants[t], self.hooks[t], seq, payload, Contract.of())
        return fupdate.sign_manifest(manifest, self.keys[t])

    def _round(self) -> list[Op]:
        rng = self.rng
        shapes = []
        for i in range(CHURN_ROUND):
            slots = int(16 * 64 ** ((i + rng.random()) / CHURN_ROUND))
            iterations = 2 + (i // 2) % 5 if i % 2 else 1
            bad = rng.choice(BAD_KINDS) if i % BAD_UPDATE_EVERY == 0 else None
            shapes.append((slots, iterations, bad))
        rng.shuffle(shapes)
        return [self._draw(*shape) for shape in shapes]

    def _draw(self, slots: int, iterations: int, bad: str | None) -> Op:
        rng = self.rng
        t = rng.randrange(CHURN_TENANTS)
        self.nonce += 1
        payload, value = churn_payload(rng, self.nonce, slots, iterations)
        last = self.last_seq[t]
        seq = (last or 0) + 1
        if bad == "RollbackRejected" and last is None:
            bad = "BadSignature"
        if bad is None:
            self.last_seq[t] = seq
            self.value[t] = value
            return Op((t, self._sign(t, seq, payload), payload), ("accept", value), first_run=True)
        manifest = self._sign(t, rng.randrange(1, last + 1) if bad == "RollbackRejected" else seq, payload)
        if bad == "BadSignature":
            flipped = bytes([manifest.signature[0] ^ 1]) + manifest.signature[1:]
            manifest = replace(manifest, signature=flipped)
        elif bad == "DigestMismatch":
            payload = payload[:4] + bytes([payload[4] ^ 1]) + payload[5:]
        return Op((t, manifest, payload), ("reject", bad, self.value[t]))

    def next_op(self) -> Op:
        if not self.pending:
            self.pending.extend(self._round())
        return self.pending.popleft()

    def run(self, op: Op):
        t, manifest, payload = op.args
        outcome = fupdate.apply_update(self.engine, manifest, payload) if manifest else None
        return outcome, self.engine.trigger_hook(self.hooks[t])

    def check(self, op: Op, result) -> str | None:
        outcome, trigger = result
        t = op.args[0]
        kind = op.expect[0]
        if kind == "accept":
            if not outcome.accepted or outcome.container_id != self.containers[t]:
                return f"tenant{t}: update not accepted in place ({outcome})"
        elif kind == "reject":
            if outcome.accepted or outcome.reason.value != op.expect[1]:
                return f"tenant{t}: expected rejection {op.expect[1]}, got {outcome}"
        if len(trigger.outcomes) != 1:
            return f"tenant{t}: {len(trigger.outcomes)} containers answered"
        problem = _outcome_mismatch(trigger.outcomes[0], ("ok", op.expect[-1] & MASK64))
        return f"tenant{t}: {problem}" if problem else None


WORKLOADS = {cls.name: cls for cls in (Compute, Fleet, Churn)}
