"""End-to-end acceptance suite.

Each test covers one numbered criterion and prints a single
"CRITERION n PASS/FAIL" line (collected into the terminal summary).
"""

import json
import random
import struct
import time
import uuid

import pytest

from acceptance_log import record
from genprog import random_accepted_program

from femtoc.asm import assemble
from femtoc.cli import main as cli_main
from femtoc.engine import Contract, Engine, ReturnPolicy
from femtoc.fixtures import (
    BENCH_FIXTURES,
    FIXTURE_SOURCES,
    FLETCHER32_INPUT,
    fixture_program,
)
from femtoc.isa import Instruction, Program
from femtoc.memory import AccessList, HostMemory, fresh_stack
from femtoc.scenario import bundled_scenario_path, run_scenario
from femtoc.update import (
    apply_update,
    build_manifest,
    private_key_from_seed,
    public_key_raw,
    sign_manifest,
)
from femtoc.verifier import VerifyErrorKind, VerifyLimits, check_program, verify
from femtoc.vm import SyscallEnv, SyscallTable, exec_program

STANDARD_ALLOWED = frozenset(
    {0x01, 0x02, 0x03, 0x04, 0x05, 0x06, 0x10, 0x11, 0x20, 0x30}
)


def kinds_of(errors) -> set[str]:
    return {e.kind.value for e in errors}


# -- criterion 1: verifier rule suite ------------------------------------


def crafted_violations() -> dict[str, list[Program]]:
    """Hand-built programs, each tripping one named rejection rule."""
    exit_slot = Instruction(0x95, 0, 0, 0, 0)

    def prog(*slots):
        return Program(tuple(slots))

    bad_register = [
        prog(Instruction(0xB7, 11, 0, 0, 1), exit_slot),  # dst out of range
        prog(Instruction(0xBF, 0, 12, 0, 0), exit_slot),  # src out of range
        prog(Instruction(0x61, 15, 1, 0, 0), exit_slot),  # load into r15
        prog(Instruction(0x7B, 1, 11, 0, 0), exit_slot),  # store from r11
    ]
    write_r10 = [
        assemble("mov64 r10, 1\nexit"),
        assemble("add64 r10, 8\nexit"),
        assemble("ldxdw r10, [r1+0]\nexit"),
        assemble("lddw r10, 5\nexit"),
        assemble("mov32 r10, 1\nexit"),
    ]
    jump_oob = [
        assemble("ja +5\nexit"),
        assemble("jeq r0, 0, +7\nmov64 r0, 1\nexit"),
        prog(Instruction(0x05, 0, 0, -3, 0), exit_slot),  # lands before slot 0
        prog(Instruction(0x15, 1, 0, 2, 0), exit_slot),  # conditional past end
    ]
    truncated_wide = [
        prog(Instruction(0x18, 1, 0, 0, 7)),  # second half missing entirely
        prog(Instruction(0x18, 1, 0, 0, 7), Instruction(0xB7, 0, 0, 0, 0), exit_slot),
        prog(  # jump lands on the continuation slot
            Instruction(0x05, 0, 0, 1, 0),
            Instruction(0x18, 1, 0, 0, 7),
            Instruction(0x00, 0, 0, 0, 0),
            exit_slot,
        ),
    ]
    no_exit = [
        assemble("mov64 r0, 0"),
        assemble("mov64 r0, 0\nadd64 r0, 1"),
        prog(exit_slot, Instruction(0xB7, 0, 0, 0, 0)),  # exit exists, not last
        Program(()),
    ]
    unknown_syscall = [
        assemble("call 0x99\nmov64 r0, 0\nexit"),
        assemble("mov64 r1, 1\ncall 0x7f\nexit"),
        assemble("call 0x01\ncall 0xfe\nexit"),
    ]
    return {
        "BadRegisterField": bad_register,
        "WriteToR10": write_r10,
        "JumpOutOfBounds": jump_oob,
        "TruncatedWideLoad": truncated_wide,
        "NoExit": no_exit,
        "UnknownSyscall": unknown_syscall,
    }


def test_criterion_1_verifier_rule_suite(rng):
    limits = VerifyLimits()
    rejected = attempted = 0
    misses: list[str] = []
    for kind, programs in crafted_violations().items():
        for index, program in enumerate(programs):
            attempted += 1
            errors = check_program(program, limits, STANDARD_ALLOWED)
            if errors and kind in kinds_of(errors):
                rejected += 1
            else:
                misses.append(f"{kind}[{index}] -> {kinds_of(errors) or 'accepted'}")

    accepted_corpus = [fixture_program(name) for name in FIXTURE_SOURCES]
    accepted_corpus += [
        assemble("mov64 r0, 0\nexit"),
        assemble("jeq r1, 0, skip\nmov64 r0, 1\nskip: exit"),
        assemble("mov64 r1, 7\nstxdw [r10+0], r1\nldxdw r0, [r10+0]\nexit"),
    ]
    accepted_corpus += [
        random_accepted_program(rng, max_slots=48, allowed_syscalls=sorted(STANDARD_ALLOWED))
        for _ in range(300)
    ]
    false_rejects = [
        kinds_of(errors)
        for program in accepted_corpus
        if (errors := check_program(program, limits, STANDARD_ALLOWED))
    ]

    ok = not misses and not false_rejects
    record(
        1,
        ok,
        f"6 rejection rules, {rejected}/{attempted} injected violations rejected, "
        f"{len(false_rejects)}/{len(accepted_corpus)} false rejections"
        + (f"; misses: {misses}" if misses else "")
        + (f"; false: {false_rejects}" if false_rejects else ""),
    )
    assert ok


# -- criterion 2: sandbox fuzz -------------------------------------------

FUZZ_RUNS = 100_000


def test_criterion_2_sandbox_fuzz():
    rng = random.Random(0xF022)
    limits = VerifyLimits(64, 8)
    budget = limits.max_instructions * limits.max_branches
    table = SyscallTable()
    faults = 0
    canary_hits = 0
    overruns = 0
    for _ in range(FUZZ_RUNS):
        program = random_accepted_program(rng, max_slots=48)
        vp = verify(program, limits, frozenset())
        memory = HostMemory()
        stack = fresh_stack(memory)
        scratch = memory.alloc(64, "scratch", readable=True, writable=True)
        outcome = exec_program(vp, SyscallEnv(AccessList([stack, scratch]), table))
        if outcome.fault is not None:
            faults += 1
        if outcome.executed > budget:
            overruns += 1
        if not memory.guards_intact():
            canary_hits += 1

    ok = canary_hits == 0 and overruns == 0
    record(
        2,
        ok,
        f"{FUZZ_RUNS} verifier-accepted programs executed, {canary_hits} canary "
        f"corruptions, {overruns} budget overruns ({faults} contained faults)",
    )
    assert ok


# -- criterion 3: fletcher32 equivalence -----------------------------------


def fletcher32_oracle(data: bytes) -> int:
    low = high = 0
    for i in range(0, len(data), 2):
        low = (low + int.from_bytes(data[i : i + 2], "little")) % 65535
        high = (high + low) % 65535
    return (high << 16) | low


def run_fletcher(data: bytes) -> int:
    vp = verify(fixture_program("fletcher32_360"), VerifyLimits(), frozenset())
    memory = HostMemory()
    stack = fresh_stack(memory)
    ctx = memory.alloc(len(data), "ctx", readable=True, writable=False, init=data)
    outcome = exec_program(vp, SyscallEnv(AccessList([stack, ctx])))
    assert outcome.ok, outcome.fault
    return outcome.return_value


def test_criterion_3_fletcher32_equivalence():
    rng = random.Random(0xC3)
    mismatches = 0
    fixture_value = run_fletcher(FLETCHER32_INPUT)
    if fixture_value != fletcher32_oracle(FLETCHER32_INPUT):
        mismatches += 1
    for _ in range(100):
        data = rng.randbytes(360)
        if run_fletcher(data) != fletcher32_oracle(data):
            mismatches += 1

    ok = mismatches == 0
    record(
        3,
        ok,
        f"bytecode checksum == host oracle on the 360-byte fixture "
        f"({fixture_value:#010x}) and 100 random inputs, {mismatches} mismatches",
    )
    assert ok


# -- criterion 4: verify-once --------------------------------------------


def test_criterion_4_verify_once(capsys):
    engine = Engine(rng=random.Random(4))
    tenant = engine.register_tenant("t")
    hook = engine.register_hook("h", set())
    engine.install_container(tenant, assemble("mov64 r0, 0\nexit"), Contract.of(), hook)
    triggers = 5
    for _ in range(triggers):
        engine.trigger_hook(hook)
    container = next(iter(engine.containers.values()))
    stats_ok = container.stats.verify_count == 1 and container.stats.runs == triggers

    rc = cli_main(["--format", "json", "bench", "fletcher32_360", "--repeat", "3"])
    bench = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    fields = {"fixture", "verify_ns", "first_run_ns", "warm_run_ns", "instructions",
              "ns_per_instruction"}
    bench_ok = (
        rc == 0
        and set(bench) == fields
        and bench["verify_ns"] > 0
        and bench["first_run_ns"] > 0
        and bench["warm_run_ns"] > 0
    )

    ok = stats_ok and bench_ok
    record(
        4,
        ok,
        f"verify_count=1 after {triggers} runs; bench splits verify "
        f"({bench['verify_ns']}ns) from first ({bench['first_run_ns']}ns) and warm "
        f"({bench['warm_run_ns']}ns) paths",
    )
    assert ok


# -- criterion 5: multi-tenant prototype -----------------------------------


def test_criterion_5_multi_tenant_prototype():
    path = bundled_scenario_path("malicious_tenant")
    doc = json.loads(path.read_text())
    report = run_scenario(path)

    # recompute the expected values from the scenario document alone
    samples = next(s["samples"] for s in doc["sensors"] if s["id"] == 1)
    previous, averages = 0, []
    for sample in samples:
        averages.append((previous + sample) >> 1)
        previous = sample
    sched_events = [e for e in doc["events"] if e["hook"] == "sched.thread_switch"]
    request_events = [e for e in doc["events"] if e["hook"] == "coap.request"]

    final_request = next(
        e for e in reversed(report.data["events"]) if e["hook"] == "coap.request"
    )
    response_value = struct.unpack_from(
        "<Q", bytes.fromhex(final_request["context_after"]["response"])
    )[0]

    by_name: dict[str, list] = {}
    for event in report.data["events"]:
        for entry in event["containers"]:
            by_name.setdefault(entry["name"], []).append(entry)
    hostile_faults = [e["fault"] for e in by_name["hostile"]]
    friendly_faults = [
        e["fault"]
        for name in ("counter", "sensor", "handler")
        for e in by_name.get(name, ())
    ]

    counter_runs = len([e for e in sched_events])
    counter_count = next(
        entry["value"]
        for store in report.data["stores"]
        for entry in store["entries"]
        if store["scope"] == "container"
        and store["owner"] == report.data["setup"][0]["container_id"]
        and entry["key"] == 1
    )

    ok = (
        report.passed
        and len(report.data["setup"]) == 4  # three friendly installs + hostile
        and response_value == averages[-1]
        and final_request["policy_value"] == averages[-1]
        and counter_count == counter_runs
        and all(f == "MemoryViolation" for f in hostile_faults)
        and all(f is None for f in friendly_faults)
        and len(request_events) == 1
    )
    record(
        5,
        ok,
        f"3 containers / 2 tenants + hostile 4th: response {response_value} == "
        f"recomputed average {averages[-1]}, counter {counter_count} == "
        f"{counter_runs} events, hostile faulted {len(hostile_faults)}x with "
        f"{len(friendly_faults)} friendly runs unperturbed",
    )
    assert ok


# -- criterion 6: density at desk scale ------------------------------------

DENSITY_CONTAINERS = 100
DENSITY_SLOTS = 250  # 250 slots * 8 bytes = 2000 bytes of bytecode


def density_program(rng: random.Random) -> Program:
    ops = ("add64", "xor64", "or64", "mov64")
    lines = []
    for i in range(DENSITY_SLOTS - 2):
        lines.append(f"{rng.choice(ops)} r{rng.randrange(2, 6)}, {rng.randrange(1, 255)}")
    lines.append("mov64 r0, 0")
    lines.append("exit")
    return assemble("\n".join(lines))


def test_criterion_6_density():
    rng = random.Random(6)
    programs = [density_program(rng) for _ in range(DENSITY_CONTAINERS)]
    assert all(len(p.to_bytes()) == DENSITY_SLOTS * 8 for p in programs)

    started = time.perf_counter()
    engine = Engine(rng=random.Random(66))
    tenants = [engine.register_tenant(f"tenant{i}") for i in range(2)]
    hooks = [engine.register_hook(f"hook{i}", set(), slot_limit=25) for i in range(4)]
    for index, program in enumerate(programs):
        engine.install_container(
            tenants[index % 2], program, Contract.of(), hooks[index % 4]
        )
    for hook in hooks:
        result = engine.trigger_hook(hook)
        assert all(s.outcome is not None and s.outcome.ok for s in result.outcomes)
    elapsed = time.perf_counter() - started

    stats = [c.stats for c in engine.containers.values()]
    executed = sum(s.total_executed for s in stats)
    all_ran = all(s.verify_count == 1 and s.runs == 1 and s.faults == 0 for s in stats)

    ok = all_ran and len(engine.containers) == DENSITY_CONTAINERS and elapsed < 10.0
    record(
        6,
        ok,
        f"{DENSITY_CONTAINERS} containers x {DENSITY_SLOTS * 8} bytes installed, "
        f"verified, and run ({executed} instructions) in {elapsed:.2f}s (< 10s)",
    )
    assert ok


# -- criterion 7: update security ------------------------------------------


def test_criterion_7_update_security():
    alpha_key = private_key_from_seed(b"criterion seven alpha")
    beta_key = private_key_from_seed(b"criterion seven beta")
    engine = Engine(rng=random.Random(7))
    alpha = engine.register_tenant("alpha", public_key_raw(alpha_key))
    engine.register_tenant("beta", public_key_raw(beta_key))
    hook = engine.register_hook("h", set(), return_policy=ReturnPolicy.FIRST_NONZERO_WINS)

    payload_v1 = assemble("mov64 r0, 1\nexit").to_bytes()
    payload_v2 = assemble("mov64 r0, 2\nexit").to_bytes()

    def manifest(seq, payload, key, tenant=alpha, target=None):
        return sign_manifest(
            build_manifest(tenant, target or hook, seq, payload, Contract.of()), key
        )

    checks: list[tuple[str, bool]] = []
    first = apply_update(engine, manifest(1, payload_v1, alpha_key), payload_v1)
    checks.append(("accept valid", first.accepted))
    checks.append(("installed program runs", engine.trigger_hook(hook).policy_value == 1))

    before = engine.introspection_json()
    wrong_key = apply_update(engine, manifest(2, payload_v2, beta_key), payload_v2)
    checks.append(
        ("reject BadSignature", not wrong_key.accepted and wrong_key.reason.value == "BadSignature")
    )
    tampered = apply_update(engine, manifest(2, payload_v1, alpha_key), payload_v2)
    checks.append(
        ("reject DigestMismatch", not tampered.accepted and tampered.reason.value == "DigestMismatch")
    )
    replay = apply_update(engine, manifest(1, payload_v2, alpha_key), payload_v2)
    checks.append(
        ("reject RollbackRejected", not replay.accepted and replay.reason.value == "RollbackRejected")
    )
    no_exit = assemble("mov64 r0, 1").to_bytes()
    unverifiable = apply_update(engine, manifest(2, no_exit, alpha_key), no_exit)
    checks.append(
        ("reject VerifyRejected", not unverifiable.accepted and unverifiable.reason.value == "VerifyRejected")
    )
    checks.append(("rejects leave state bit-identical", engine.introspection_json() == before))

    second = apply_update(engine, manifest(2, payload_v2, alpha_key), payload_v2)
    checks.append(
        ("accept newer sequence in place", second.accepted and second.container_id == first.container_id)
    )
    checks.append(("swap visible on next trigger", engine.trigger_hook(hook).policy_value == 2))

    failed = [name for name, passed in checks if not passed]
    ok = not failed
    record(
        7,
        ok,
        f"{len(checks)} update checks: accept, 4 reject reasons, bit-identical "
        f"state on reject, atomic swap" + (f"; failed: {failed}" if failed else ""),
    )
    assert ok


# -- criterion 8: MCU timings out of scope ----------------------------------


def test_criterion_8_structure_not_absolute_timings(capsys):
    structural_fields = {
        "fixture",
        "verify_ns",
        "first_run_ns",
        "warm_run_ns",
        "instructions",
        "ns_per_instruction",
    }
    results = {}
    for name in BENCH_FIXTURES:
        rc = cli_main(["--format", "json", "bench", name, "--repeat", "3"])
        data = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        results[name] = rc == 0 and set(data) == structural_fields and data["instructions"] > 0

    ok = all(results.values())
    record(
        8,
        ok,
        "absolute microcontroller timings and footprints are not reproduced on a "
        f"desktop host; substituted by the install/run split structure of the bench "
        f"command across {len(BENCH_FIXTURES)} fixtures "
        f"({', '.join(sorted(n for n, good in results.items() if good))})",
    )
    assert ok
