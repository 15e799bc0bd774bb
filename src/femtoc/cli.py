"""Command line front end.

One executable, ``femtoc``, wraps the assembler, verifier, interpreter,
benchmark harness, scenario runner, and the signed-update tooling.  Exit
codes are part of the interface: 0 success, 1 verification rejected (or a
scenario assertion failed), 2 usage or parse error, 3 runtime fault,
4 update rejected.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
import uuid
from pathlib import Path

from . import scenario as scenario_mod
from .asm import AsmError, assemble, disassemble
from .doc import load, parse_mode, u32s
from .engine import Contract, ContextRegionSpec, Engine, EngineError, RegionGrant, read_contract
from .facilities import STANDARD_SYSCALL_IDS, SensorFixture
from .fixtures import BENCH_FIXTURES, BENCH_INPUTS, FIXTURE_SYSCALLS, fixture_program
from .isa import Program
from .update import (
    apply_update,
    build_manifest,
    generate_private_key,
    load_manifest,
    load_private_key,
    private_key_from_seed,
    public_key_raw,
    save_manifest,
    save_private_key,
    save_public_key,
    sign_manifest,
)
from .verifier import VerifyLimits, VerifyRejected, check_program, verification_report

EXIT_OK = 0
EXIT_VERIFY_REJECTED = 1
EXIT_USAGE = 2
EXIT_FAULT = 3
EXIT_UPDATE_REJECTED = 4


class CliError(Exception):
    """Bad invocation or unreadable input; maps to exit code 2."""


def _parse_limits(text: str, source: str) -> VerifyLimits:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError(f"{source} wants 'Ni,Nb', got {text!r}")
    try:
        numbers = [int(part, 0) for part in parts]
    except ValueError:
        raise CliError(f"{source} wants two integers, got {text!r}") from None
    try:
        return VerifyLimits(*numbers)
    except ValueError as exc:
        raise CliError(f"{source} {text!r}: {exc}") from None


def _limits(args: argparse.Namespace) -> VerifyLimits:
    if args.limits:
        return _parse_limits(args.limits, "--limits")
    env = os.environ.get("FEMTOC_LIMITS")
    if env:
        return _parse_limits(env, "FEMTOC_LIMITS")
    return VerifyLimits()


def _parse_ids(text: str | None) -> frozenset[int]:
    if text is None:
        return STANDARD_SYSCALL_IDS
    try:
        return u32s(text.replace(",", " ").split(), "helper id")
    except ValueError as exc:
        raise CliError(f"--allow {text!r}: {exc}") from None


def _parse_region_spec(spec: str) -> tuple[ContextRegionSpec, bytes]:
    """label:len:mode with an optional @hexinit tail."""
    body, _, init_hex = spec.partition("@")
    parts = body.split(":")
    if len(parts) != 3:
        raise CliError(f"--region wants label:len:mode[@hex], got {spec!r}")
    label, len_text, mode = parts
    try:
        length = int(len_text, 0)
        init = bytes.fromhex(init_hex) if init_hex else b""
        readable, writable = parse_mode(mode)
    except ValueError as exc:
        raise CliError(f"--region {spec!r}: {exc}") from None
    if length <= 0:
        raise CliError(f"--region {spec!r}: length must be positive")
    if len(init) > length:
        raise CliError(f"--region {spec!r}: init bytes longer than the region")
    return ContextRegionSpec(label, length, readable, writable), init


def _parse_hex(text: str, what: str) -> bytes:
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise CliError(f"{what} must be hex bytes") from None


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text()


def _read_bytes(path: str) -> bytes:
    if path == "-":
        return sys.stdin.buffer.read()
    return Path(path).read_bytes()


def _emit(args: argparse.Namespace, data: dict, lines: list[str]) -> None:
    if args.format == "json":
        print(json.dumps(data, sort_keys=True))
    else:
        for line in lines:
            print(line)


# -- subcommands --------------------------------------------------------


def cmd_asm(args: argparse.Namespace) -> int:
    source = _read_text(args.input)
    program = assemble(source)
    data = program.to_bytes()
    out = args.output
    if out is None:
        if args.input == "-":
            raise CliError("asm from stdin needs -o")
        out = str(Path(args.input).with_suffix(".bin"))
    if out == "-":
        print(data.hex())
    else:
        Path(out).write_bytes(data)
    _emit(
        args,
        {"out": out, "bytes": len(data), "slots": len(program.slots)},
        [f"wrote {len(data)} bytes ({len(program.slots)} slots) to {out}"],
    )
    return EXIT_OK


def cmd_disasm(args: argparse.Namespace) -> int:
    program = Program.from_bytes(_read_bytes(args.input))
    listing = disassemble(program)
    if args.format == "json":
        print(json.dumps({"listing": listing.splitlines()}, sort_keys=True))
    else:
        print(listing, end="" if listing.endswith("\n") else "\n")
    return EXIT_OK


def _report_rejection(args: argparse.Namespace, errors: list) -> int:
    if args.format == "json":
        print(
            json.dumps(
                {
                    "ok": False,
                    "errors": [
                        {
                            "kind": e.kind.value,
                            "slot": e.slot_index,
                            "mnemonic": e.mnemonic,
                            "detail": e.detail,
                        }
                        for e in errors
                    ],
                },
                sort_keys=True,
            )
        )
    else:
        print(verification_report(errors), file=sys.stderr)
    return EXIT_VERIFY_REJECTED


def cmd_verify(args: argparse.Namespace) -> int:
    program = Program.from_bytes(_read_bytes(args.input))
    errors = check_program(program, _limits(args), _parse_ids(args.allow))
    if errors:
        return _report_rejection(args, errors)
    _emit(args, {"ok": True, "errors": []}, ["OK"])
    return EXIT_OK


def _host(
    program: Program,
    limits: VerifyLimits,
    allowed: frozenset[int],
    regions: list[tuple[ContextRegionSpec, bytes]],
    sensors: dict[int, tuple[int, ...]],
) -> tuple[Engine, uuid.UUID, dict[str, bytes]]:
    """A one-hook engine with ``program`` as its only container. The hook's
    context regions are ``regions`` ((spec, init bytes) in order; r1 points
    at the first), it allows the ``allowed`` helpers, and the contract asks
    for exactly those helpers and every region. Returns the engine, the hook
    and the event that writes each init, zero-padded, into its region."""
    engine = Engine(limits)
    for sensor_id, samples in sensors.items():
        engine.facilities.sensors[sensor_id] = SensorFixture(sensor_id, list(samples))
    hook = engine.register_hook("run", allowed, [spec for spec, _ in regions])
    grants = [RegionGrant(spec.label, spec.readable, spec.writable) for spec, _ in regions]
    engine.install_container(engine.register_tenant("run"), program, Contract.of(allowed, grants), hook)
    return engine, hook, {spec.label: init.ljust(spec.size, b"\0") for spec, init in regions}


def _ctx_region(init: bytes) -> tuple[ContextRegionSpec, bytes]:
    """The read-only ``ctx`` region that ``--ctx`` and the bench fixtures
    put at r1."""
    return ContextRegionSpec("ctx", max(len(init), 1)), init


def cmd_run(args: argparse.Namespace) -> int:
    """Run the program as the only container on a one-hook engine whose
    context regions, helpers and sensors come from the arguments."""
    program = Program.from_bytes(_read_bytes(args.input))
    allowed = _parse_ids(args.allow)
    regions = [] if args.ctx is None else [_ctx_region(_parse_hex(args.ctx, "--ctx"))]
    regions += [_parse_region_spec(spec) for spec in args.region or ()]
    limits = _limits(args)
    sensors = {}
    for spec in args.sensor or ():
        head, _, tail = spec.partition("=")
        try:
            sensors[int(head, 0)] = tuple(int(s, 0) for s in tail.split(",") if s)
        except ValueError:
            raise CliError(f"--sensor wants id=v1,v2,..., got {spec!r}") from None
    try:
        engine, hook, event = _host(program, limits, allowed, regions, sensors)
    except VerifyRejected as exc:
        return _report_rejection(args, exc.errors)
    result = engine.trigger_hook(hook, event)

    outcome = result.outcomes[0].outcome  # the engine's one container
    data = {
        "return": outcome.return_value,
        "executed": outcome.executed,
        "branches": outcome.branches_taken,
        "fault": outcome.fault.kind.value if outcome.fault else None,
    }
    lines = [
        f"return: {outcome.return_value:#x} ({outcome.return_value})",
        f"executed: {outcome.executed}",
        f"branches: {outcome.branches_taken}",
    ]
    if outcome.fault:
        data["fault_pc"] = outcome.fault.pc
        lines.append(f"fault: {outcome.fault}")
    for spec, _ in regions:
        if spec.writable:
            value = result.context_after[spec.label].hex()
            data.setdefault("regions", {})[spec.label] = value
            lines.append(f"region {spec.label}: {value}")
    _emit(args, data, lines)
    return EXIT_OK if outcome.ok else EXIT_FAULT


# Each repeat times this many first runs, each followed at once by a warm run
# on its host. Host speed on a shared machine drifts within milliseconds;
# alternating the two samples both in the same phases.
PAIRS_PER_REPEAT = 5


def cmd_bench(args: argparse.Namespace) -> int:
    """Median cost of verification, of a first run (decode, the one-hook
    engine that ``femtoc run`` builds, its one verification and a trigger)
    and of a warm run (a second trigger of the same engine)."""
    if args.repeat < 1:
        raise CliError("--repeat must be at least 1")
    limits = _limits(args)
    ctx, sensors = BENCH_INPUTS[args.fixture]
    regions = [] if ctx is None else [_ctx_region(ctx)]
    allowed = FIXTURE_SYSCALLS[args.fixture]
    payload = fixture_program(args.fixture).to_bytes()
    verify_ns: list[int] = []
    first_ns: list[int] = []
    warm_ns: list[int] = []
    for _ in range(args.repeat * PAIRS_PER_REPEAT):
        t0 = time.perf_counter_ns()
        program = Program.from_bytes(payload)
        engine, hook, event = _host(program, limits, allowed, regions, sensors)
        (slot,) = engine.trigger_hook(hook, event).outcomes
        first_ns.append(time.perf_counter_ns() - t0)
        if not slot.outcome.ok:
            raise CliError(f"fixture {args.fixture} faulted: {slot.outcome.fault}")

        t0 = time.perf_counter_ns()
        (slot,) = engine.trigger_hook(hook, event).outcomes
        warm_ns.append(time.perf_counter_ns() - t0)
        instructions = slot.outcome.executed

        fresh = Engine(limits)  # holds no verdict, so the call below verifies
        t0 = time.perf_counter_ns()
        fresh.verify_for(engine.hooks[hook], program, Contract.of(allowed))
        verify_ns.append(time.perf_counter_ns() - t0)

    warm = int(statistics.median(warm_ns))
    data = {
        "fixture": args.fixture,
        "verify_ns": int(statistics.median(verify_ns)),
        "first_run_ns": int(statistics.median(first_ns)),
        "warm_run_ns": warm,
        "instructions": instructions,
        "ns_per_instruction": round(warm / instructions, 2) if instructions else 0.0,
    }
    _emit(args, data, [f"{key}: {value}" for key, value in data.items()])
    return EXIT_OK


def cmd_scenario_run(args: argparse.Namespace) -> int:
    try:
        report = scenario_mod.run_scenario(args.file)
    except (scenario_mod.ParseError, scenario_mod.UnknownReference) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    text = report.to_json()
    if args.report:
        Path(args.report).write_text(text)
    if args.format == "json":
        sys.stdout.write(text)
    else:
        for entry in report.data["assertions"]:
            mark = "PASS" if entry["ok"] else "FAIL"
            print(f"{mark} after_event={entry['after_event']}: {entry['detail']}")
        totals = report.data["totals"]
        print(
            f"{report.data['name']}: {len(report.data['events'])} events, "
            f"{totals['runs']} runs, {totals['faults']} faults, "
            f"{totals['executed']} instructions"
        )
        print("result:", "PASS" if report.passed else "FAIL")
    return EXIT_OK if report.passed else EXIT_VERIFY_REJECTED


def cmd_keygen(args: argparse.Namespace) -> int:
    if args.seed:
        key = private_key_from_seed(_parse_hex(args.seed, "--seed"))
    else:
        key = generate_private_key()
    private_path = Path(f"{args.prefix}.pem")
    public_path = Path(f"{args.prefix}.pub.pem")
    save_private_key(key, private_path)
    save_public_key(key, public_path)
    _emit(
        args,
        {
            "private_key": str(private_path),
            "public_key": str(public_path),
            "public_key_hex": public_key_raw(key).hex(),
        },
        [
            f"private key: {private_path}",
            f"public key:  {public_path}",
            f"public hex:  {public_key_raw(key).hex()}",
        ],
    )
    return EXIT_OK


def _parse_uuid(text: str, what: str) -> uuid.UUID:
    try:
        return uuid.UUID(text)
    except ValueError:
        raise CliError(f"{what} must be a UUID, got {text!r}") from None


def cmd_sign(args: argparse.Namespace) -> int:
    payload = _read_bytes(args.payload)
    grants = [spec.partition(":") for spec in args.grant or ()]
    regions = [{"label": label, "mode": mode or "r"} for label, _, mode in grants]
    syscalls = (args.syscalls or "").replace(",", " ").split()
    contract = read_contract({"syscalls": syscalls, "regions": regions}, "contract")
    manifest = build_manifest(
        _parse_uuid(args.tenant, "--tenant"),
        _parse_uuid(args.hook, "--hook"),
        args.sequence,
        payload,
        contract,
    )
    manifest = sign_manifest(manifest, load_private_key(Path(args.key)))
    save_manifest(manifest, Path(args.output))
    _emit(
        args,
        {
            "manifest": args.output,
            "payload_digest": manifest.payload_digest.hex(),
            "payload_size": manifest.payload_size,
            "sequence_number": manifest.sequence_number,
        },
        [
            f"manifest: {args.output}",
            f"digest:   {manifest.payload_digest.hex()}",
            f"size:     {manifest.payload_size}",
            f"sequence: {manifest.sequence_number}",
        ],
    )
    return EXIT_OK


def cmd_apply(args: argparse.Namespace) -> int:
    try:
        runtime = scenario_mod.ScenarioRuntime(load(Path(args.engine)), Path(args.engine).parent)
    except (scenario_mod.ParseError, scenario_mod.UnknownReference) as exc:
        raise CliError(str(exc)) from None
    manifest = load_manifest(Path(args.manifest))
    payload = _read_bytes(args.payload)
    try:
        outcome = apply_update(runtime.engine, manifest, payload)
    except EngineError as exc:  # an install onto a full hook
        raise CliError(f"{args.engine}: {exc}") from None
    data = {
        "accepted": outcome.accepted,
        "container_id": str(outcome.container_id) if outcome.container_id else None,
        "reason": outcome.reason.value if outcome.reason else None,
    }
    if outcome.accepted:
        lines = [f"accepted: container {outcome.container_id}"]
    else:
        lines = [f"rejected: {outcome.reason.value}"]
    _emit(args, data, lines)
    return EXIT_OK if outcome.accepted else EXIT_UPDATE_REJECTED


# -- parser --------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="femtoc",
        description="Assemble, verify, run, benchmark, and update hosted bytecode containers.",
    )
    parser.add_argument("--limits", metavar="Ni,Nb", help="verification limits; also FEMTOC_LIMITS")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("asm", help="assemble a text listing into bytecode")
    p.add_argument("input", help="assembly file, or - for stdin")
    p.add_argument("-o", "--output", help="output .bin (default: input with .bin suffix)")
    p.set_defaults(fn=cmd_asm)

    p = sub.add_parser("disasm", help="disassemble bytecode into a listing")
    p.add_argument("input", help="bytecode file, or - for stdin")
    p.set_defaults(fn=cmd_disasm)

    p = sub.add_parser("verify", help="run the pre-flight checks and report every violation")
    p.add_argument("input", help="bytecode file, or - for stdin")
    p.add_argument("--allow", help="allowed syscall ids (default: the standard set)")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("run", help="verify then execute a program")
    p.add_argument("input", help="bytecode file, or - for stdin")
    p.add_argument("--ctx", help="context bytes (hex); becomes a read-only region at r1")
    p.add_argument(
        "--region",
        action="append",
        metavar="label:len:mode[@hex]",
        help="extra memory region; repeatable; r1 points at the first region; "
        "label 'response' wires helper 0x20",
    )
    p.add_argument("--sensor", action="append", metavar="id=v1,v2,...", help="sensor fixture samples")
    p.add_argument("--allow", help="allowed syscall ids (default: the standard set)")
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("bench", help="time verification against first and warm runs")
    p.add_argument("fixture", choices=BENCH_FIXTURES)
    p.add_argument("--repeat", type=int, default=5)
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("scenario", help="scenario tooling")
    scenario_sub = p.add_subparsers(dest="scenario_command", required=True)
    p = scenario_sub.add_parser("run", help="run a scenario file and check its assertions")
    p.add_argument("file")
    p.add_argument("--report", help="also write the canonical JSON report here")
    p.set_defaults(fn=cmd_scenario_run)

    p = sub.add_parser("keygen", help="create a tenant signing key pair")
    p.add_argument("prefix", help="writes <prefix>.pem and <prefix>.pub.pem")
    p.add_argument("--seed", help="derive the key from hex seed bytes (deterministic)")
    p.set_defaults(fn=cmd_keygen)

    p = sub.add_parser("sign", help="build and sign an update manifest")
    p.add_argument("payload", help="bytecode .bin to publish")
    p.add_argument("--key", required=True, help="tenant private key PEM")
    p.add_argument("--tenant", required=True, help="tenant UUID")
    p.add_argument("--hook", required=True, help="target hook UUID")
    p.add_argument("--sequence", type=int, required=True)
    p.add_argument("--syscalls", help="requested syscall ids (default: none)")
    p.add_argument("--grant", action="append", metavar="label:mode", help="requested region grant")
    p.add_argument("-o", "--output", required=True, help="manifest JSON path")
    p.set_defaults(fn=cmd_sign)

    p = sub.add_parser("apply", help="apply a signed manifest to an engine built from a scenario file")
    p.add_argument("manifest", help="manifest JSON")
    p.add_argument("payload", help="bytecode .bin matching the manifest digest")
    p.add_argument("--engine", required=True, help="scenario file whose setup defines the engine")
    p.set_defaults(fn=cmd_apply)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except AsmError as exc:
        print(f"asm error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entrypoint()
