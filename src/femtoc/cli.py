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
from .engine import Contract, RegionGrant, parse_mode
from .facilities import (
    STANDARD_SYSCALL_IDS,
    FacilityContext,
    SensorFixture,
    standalone_caller,
    standard_syscall_table,
)
from .fixtures import BENCH_FIXTURES, bench_case
from .isa import Program
from .memory import AccessList, HostMemory, fresh_stack
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
from .verifier import VerifyLimits, VerifyRejected, check_program, verification_report, verify
from .vm import exec_program

EXIT_OK = 0
EXIT_VERIFY_REJECTED = 1
EXIT_USAGE = 2
EXIT_FAULT = 3
EXIT_UPDATE_REJECTED = 4


class CliError(Exception):
    """Bad invocation or unreadable input; maps to exit code 2."""


def _parse_limits(text: str) -> VerifyLimits:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError(f"--limits wants 'Ni,Nb', got {text!r}")
    try:
        return VerifyLimits(int(parts[0], 0), int(parts[1], 0))
    except ValueError:
        raise CliError(f"--limits wants two integers, got {text!r}") from None


def _limits(args: argparse.Namespace) -> VerifyLimits:
    if args.limits:
        return _parse_limits(args.limits)
    env = os.environ.get("FEMTOC_LIMITS")
    if env:
        return _parse_limits(env)
    return VerifyLimits()


def _parse_ids(text: str | None) -> frozenset[int]:
    if text is None:
        return STANDARD_SYSCALL_IDS
    text = text.strip()
    if not text:
        return frozenset()
    try:
        return frozenset(int(part, 0) for part in text.replace(",", " ").split())
    except ValueError:
        raise CliError(f"expected comma-separated syscall ids, got {text!r}") from None


def _parse_region_spec(spec: str) -> tuple[str, int, bool, bool, bytes]:
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
    return label, length, readable, writable, init


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


def cmd_run(args: argparse.Namespace) -> int:
    program = Program.from_bytes(_read_bytes(args.input))
    allowed = _parse_ids(args.allow)
    try:
        vp = verify(program, _limits(args), allowed)
    except VerifyRejected as exc:
        return _report_rejection(args, exc.errors)

    memory = HostMemory()
    regions = []
    if args.ctx is not None:
        init = _parse_hex(args.ctx, "--ctx")
        regions.append(
            memory.alloc(max(len(init), 1), "ctx", readable=True, writable=False, init=init)
        )
    for spec in args.region or ():
        label, length, readable, writable, init = _parse_region_spec(spec)
        regions.append(memory.alloc(length, label, readable=readable, writable=writable, init=init))
    acl = AccessList([fresh_stack(memory), *regions])
    ctx = regions[0] if regions else None  # r1, same convention as a hook's first view

    fac = FacilityContext()
    for spec in args.sensor or ():
        head, _, tail = spec.partition("=")
        try:
            sensor_id = int(head, 0)
            samples = [int(s, 0) for s in tail.split(",") if s]
        except ValueError:
            raise CliError(f"--sensor wants id=v1,v2,..., got {spec!r}") from None
        fac.sensors[sensor_id] = SensorFixture(sensor_id, samples)
    caller = standalone_caller(fac, allowed)
    table = standard_syscall_table(fac).restricted(allowed)

    outcome = exec_program(vp, ctx, acl, table, caller=caller)

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
    for label, value in ((r.label, memory.read(r.base, r.length).hex()) for r in regions if r.writable):
        data.setdefault("regions", {})[label] = value
        lines.append(f"region {label}: {value}")
    _emit(args, data, lines)
    return EXIT_OK if outcome.ok else EXIT_FAULT


def cmd_bench(args: argparse.Namespace) -> int:
    """Median cost of verification, of a first run (decode, run state,
    verification, execution) and of a warm run (execution on kept state)."""
    case = bench_case(args.fixture)
    limits = _limits(args)
    payload = case.program.to_bytes()
    verify_ns: list[int] = []
    first_ns: list[int] = []
    warm_ns: list[int] = []
    instructions = 0
    for _ in range(args.repeat):
        t0 = time.perf_counter_ns()
        program = Program.from_bytes(payload)
        ctx, acl, table, caller = case.make_run()
        t1 = time.perf_counter_ns()
        try:
            vp = verify(program, limits, case.allowed_syscalls)
        except VerifyRejected as exc:
            raise CliError(f"fixture {args.fixture} no longer verifies: {exc.errors[0]}") from None
        verify_ns.append(time.perf_counter_ns() - t1)
        outcome = exec_program(vp, ctx, acl, table, caller=caller)
        first_ns.append(time.perf_counter_ns() - t0)
        if not outcome.ok:
            raise CliError(f"fixture {args.fixture} faulted: {outcome.fault}")

        t0 = time.perf_counter_ns()
        outcome = exec_program(vp, ctx, acl, table, caller=caller)
        warm_ns.append(time.perf_counter_ns() - t0)
        instructions = outcome.executed

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
    grants = set()
    for spec in args.grant or ():
        label, _, mode = spec.partition(":")
        grants.add(RegionGrant(label, *parse_mode(mode or "r")))
    contract = Contract(_parse_ids(args.syscalls if args.syscalls is not None else ""), frozenset(grants))
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
        doc = json.loads(Path(args.engine).read_text())
        runtime = scenario_mod.ScenarioRuntime(doc, Path(args.engine).parent)
    except json.JSONDecodeError as exc:
        raise CliError(f"{args.engine}: {exc}") from None
    except (scenario_mod.ParseError, scenario_mod.UnknownReference) as exc:
        raise CliError(str(exc)) from None
    manifest = load_manifest(Path(args.manifest))
    payload = _read_bytes(args.payload)
    outcome = apply_update(runtime.engine, manifest, payload)
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
