"""Hostile input through the command line: hypothesis mutates a valid
signed manifest (``femtoc apply``) and a valid scenario (``femtoc scenario
run``) and draws whole argument vectors, and every result must be an exit
code the README documents for that command, never an escaping exception or
a traceback on stderr."""

import argparse
import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from femtoc.asm import assemble
from femtoc.cli import build_parser, main
from femtoc.engine import Contract, Engine, RegionGrant
from femtoc.scenario import ScenarioRuntime
from femtoc.update import build_manifest, manifest_to_json, private_key_from_seed, public_key_raw, sign_manifest

EXAMPLES = 200
DELETE = object()  # a mutation that removes the value instead of replacing it

INTEGERS = st.integers() | st.sampled_from([-1, 1 << 16, 1 << 32, 1 << 64, 1 << 70, -(1 << 63)])
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.text(max_size=6),
    st.sampled_from(["", "0x10", "ff", "zz", "r", "rw", "x", "final", "ctx", "tick", "t", "counter", "store"]),
)
VALUES = st.recursive(
    INTEGERS | SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _replacements(original):
    """Hostile values for a place holding ``original``: mostly of the same
    JSON type pushed to its edges, else a deletion or any JSON value."""
    if type(original) is int:
        same = INTEGERS
    elif isinstance(original, str):
        same = st.text(max_size=6) | st.sampled_from(["", "0x10", "zz", "ff" * 40_000])
    else:
        same = SCALARS
    return st.one_of(same, st.just(DELETE) | VALUES)


def _paths(doc, prefix=()):
    """Every place in a JSON document that holds a value, the root excluded."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


def _value_at(doc, path):
    for step in path:
        doc = doc[step]
    return doc


def mutated(base):
    """Strategy: ``base`` with one value replaced by a hostile one, or deleted."""

    def apply(path, value):
        doc = copy.deepcopy(base)
        parent = _value_at(doc, path[:-1])
        if value is DELETE:
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
        return doc

    return st.sampled_from(list(_paths(base))).flatmap(
        lambda path: _replacements(_value_at(base, path)).map(lambda value: apply(path, value))
    )


def _run(capsys, argv, allowed):
    rc = main(argv)
    err = capsys.readouterr().err
    assert rc in allowed, (rc, err)
    assert "Traceback" not in err


ENGINE_DOC = {
    "schema_version": 1,
    "seed": 77,
    "tenants": [{"name": "t", "key_seed": "aa11"}],
    "hooks": [{"name": "h", "syscalls": [1, 2], "context": [{"label": "ctx", "size": 16}]}],
}
PAYLOAD = assemble("mov64 r0, 5\nexit").to_bytes()


def _write_update(tmp_path, engine_doc: dict = ENGINE_DOC) -> dict:
    """engine.json (``engine_doc``), payload.bin and m.json, a manifest from
    tenant t for hook h that ``femtoc apply`` accepts unless the hook is
    full; returns the manifest envelope."""
    runtime = ScenarioRuntime(engine_doc)
    key = private_key_from_seed(bytes.fromhex("aa11"))
    assert runtime.engine.tenants[runtime.tenant_ids["t"]].public_key == public_key_raw(key)
    contract = Contract.of({1, 2}, [RegionGrant("ctx")])
    manifest = build_manifest(runtime.tenant_ids["t"], runtime.hook_ids["h"], 1, PAYLOAD, contract)
    envelope = manifest_to_json(sign_manifest(manifest, key))
    (tmp_path / "engine.json").write_text(json.dumps(engine_doc))
    (tmp_path / "payload.bin").write_bytes(PAYLOAD)
    (tmp_path / "m.json").write_text(json.dumps(envelope))
    return envelope


def test_apply_survives_hostile_manifests(tmp_path, capsys):
    envelope = _write_update(tmp_path)
    argv = ["apply", str(tmp_path / "m.json"), str(tmp_path / "payload.bin"), "--engine", str(tmp_path / "engine.json")]
    _run(capsys, argv, {0})

    @settings(max_examples=EXAMPLES)
    @given(mutated(envelope))
    def check(doc):
        (tmp_path / "m.json").write_text(json.dumps(doc))
        _run(capsys, argv, {0, 2, 4})

    check()


HOSTILE_ASM = ["mov64 r6, r10", "add64 r6, 512", "stxdw [r6+0], r0", "mov64 r0, 1", "exit"]
SCENARIO = {
    "schema_version": 1,
    "name": "fuzz",
    "seed": 5,
    "limits": {"max_instructions": 64, "max_branches": 8},
    "tenants": [{"name": "t"}, {"name": "u", "key_seed": "bb22"}],
    "sensors": [{"id": 1, "samples": [10, 20]}],
    "hooks": [
        {"name": "tick", "syscalls": [1, 2], "context": [{"label": "ctx", "size": 16, "mode": "r"}]},
        {
            "name": "req",
            "syscalls": [6, 32],
            "return_policy": "first_nonzero_wins",
            "context": [{"label": "request", "size": 8}, {"label": "response", "size": 16, "mode": "rw"}],
        },
    ],
    "setup": [
        {"action": "install", "name": "counter", "tenant": "t", "hook": "tick",
         "program": {"fixture": "thread_counter"}, "contract": {"syscalls": [1, 2], "regions": [{"label": "ctx"}]}},
        {"action": "install", "name": "evil", "tenant": "t", "hook": "tick", "program": {"asm": HOSTILE_ASM}},
        {"action": "update", "name": "server", "tenant": "u", "hook": "req", "sequence": 1,
         "program": {"fixture": "coap_handler"},
         "contract": {"syscalls": [6, 32], "regions": [{"label": "response", "mode": "rw"}]}},
    ],
    "events": [
        {"at_ms": 1, "hook": "tick", "payload": {"ctx": {"u64": [1, 2]}}},
        {"at_ms": 2, "hook": "req",
         "payload": {"request": {"hex": "0100000000000000"}, "response": {"bytes": [0] * 16}}},
    ],
    "assertions": [
        {"after_event": 0, "check": {"kind": "store", "container": "counter", "key": 2, "equals": 1}},
        {"after_event": 0, "check": {"kind": "fault", "container": "evil", "fault_kind": "MemoryViolation"}},
        {"after_event": 0, "check": {"kind": "no_fault", "container": "counter"}},
        {"after_event": 1, "check": {"kind": "return", "container": "server", "equals": 0}},
        {"after_event": 1, "check": {"kind": "context", "label": "response", "offset": 8, "u64_equals": 0}},
        {"after_event": 1, "check": {"kind": "policy", "equals": None}},
        {"check": {"kind": "store", "scope": "tenant", "tenant": "u", "key": 1, "equals": 0}},
    ],
}


def test_scenario_run_survives_hostile_documents(tmp_path, capsys):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(SCENARIO))
    _run(capsys, ["scenario", "run", str(path)], {0})

    @settings(max_examples=EXAMPLES)
    @given(mutated(SCENARIO))
    def check(doc):
        path.write_text(json.dumps(doc))
        _run(capsys, ["scenario", "run", str(path)], {0, 1, 2})

    check()


@pytest.mark.parametrize(
    "argv",
    [
        ["scenario", "run", "deep.json"],
        ["apply", "deep.json", "payload.bin", "--engine", "engine.json"],
        ["apply", "m.json", "payload.bin", "--engine", "deep.json"],
    ],
)
def test_deeply_nested_json_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    # json.loads raises RecursionError, not JSONDecodeError, on this.
    _write_update(tmp_path)
    (tmp_path / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
    assert captured.out == ""


# ENGINE_DOC with another tenant's 16 containers on h, the engine's slot limit.
FULL_HOOK_DOC = {
    **ENGINE_DOC,
    "tenants": [*ENGINE_DOC["tenants"], {"name": "other"}],
    "setup": [
        {"action": "install", "tenant": "other", "hook": "h", "program": {"asm": "mov64 r0, 0\nexit"}}
    ] * 16,
}
ONE_MORE = {
    "install": {"action": "install", "tenant": "t", "hook": "h", "program": {"asm": "exit"}},
    "update": {"action": "update", "tenant": "t", "hook": "h", "sequence": 1, "program": {"asm": "exit"}},
}


@pytest.mark.parametrize(
    "argv,extra",
    [
        (["scenario", "run", "full.json"], "install"),
        (["scenario", "run", "full.json"], "update"),
        (["apply", "m.json", "payload.bin", "--engine", "engine.json"], None),
    ],
    ids=["install", "update", "apply"],
)
def test_a_full_hook_is_a_usage_error(tmp_path, monkeypatch, capsys, argv, extra):
    # One more container than the hook has slots for, from a setup action
    # or from femtoc apply: exit 2 with one line naming where it came from.
    _write_update(tmp_path, FULL_HOOK_DOC)
    doc = copy.deepcopy(FULL_HOOK_DOC)
    if extra:
        doc["setup"].append(ONE_MORE[extra])
    (tmp_path / "full.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    where = "setup action 16" if extra else "engine.json"
    (line,) = captured.err.splitlines()
    assert line.endswith(f"error: {where}: hook 'h' is at its 16-slot limit")


@pytest.mark.parametrize("sys_id", [-1, 1 << 32])
def test_hook_syscalls_that_are_not_helper_ids_are_a_usage_error(tmp_path, monkeypatch, capsys, sys_id):
    # Engine.register_hook checks its ids as --allow and contracts do, so
    # the scenario runner reports them with exit 2 instead of running.
    doc = {**ENGINE_DOC, "hooks": [{"name": "h", "syscalls": [1, sys_id]}]}
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    assert main(["scenario", "run", "bad.json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    (line,) = captured.err.splitlines()
    assert line.endswith(f"hook 'h': helper id must be a u32, got {sys_id}")
    with pytest.raises(ValueError, match="helper id must be a u32"):
        Engine().register_hook("h", [sys_id])


@pytest.mark.parametrize("argv", [["scenario", "run", "bad.json"],
                                  ["apply", "m.json", "payload.bin", "--engine", "bad.json"]],
                         ids=["scenario", "apply"])
def test_a_tenant_key_that_is_not_32_bytes_is_a_usage_error(tmp_path, monkeypatch, capsys, argv):
    # Engine.register_tenant builds the tenant's key once, so a malformed
    # one fails when the engine document loads: exit 2, not BadSignature later.
    _write_update(tmp_path)
    doc = {**ENGINE_DOC, "tenants": [{"name": "t", "public_key": "00" * 31}]}
    (tmp_path / "bad.json").write_text(json.dumps(doc))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    (line,) = captured.err.splitlines()
    assert line.endswith("tenant 't': public key is not 32 raw Ed25519 bytes")


# -- argv ------------------------------------------------------------------

# Subcommand -> the exit codes the README documents for it.
EXIT_CODES = {
    "asm": {0, 2},
    "disasm": {0, 2},
    "verify": {0, 1, 2},
    "run": {0, 1, 2, 3},
    "bench": {0, 2},
    "scenario run": {0, 1, 2},
    "keygen": {0, 2},
    "sign": {0, 2},
    "apply": {0, 2, 4},
}
# Files written afresh for every example (a command may overwrite them),
# then plain values.
FILES = {
    "good.asm": "mov64 r0, 5\nexit\n",
    "bad.asm": "mov64 r0,\nfrob r1\n",
    "whole.bin": assemble("ldxdw r0, [r1+0]\nexit").to_bytes(),
    "partial.bin": bytes(12),
    "scenario.json": json.dumps(SCENARIO),
    "malformed.json": '{"schema_version": 1,',
}
# The files above, key.pem (the key of ENGINE_DOC's tenant) and those of _write_update.
PATHS = [*FILES, "key.pem", "engine.json", "payload.bin", "m.json"]
ARG_VALUES = [*PATHS, "missing.bin", "-1", "0", "0x10", "4294967296", "zz", "a:8:rw", "stack:512:rw", "1=1,2"]
# Flags whose values come from their own small pool: a --repeat of 4294967296
# would run a fixture billions of times, and no value in ARG_VALUES is a
# valid --limits or --format.
FLAG_VALUES = {
    "--repeat": ["1", "0", "-1", "zz"],
    "--limits": ["64,8", "0,5", "3,4", "zz"],
    "--format": ["json", "text"],
}


def _subparsers(parser: argparse.ArgumentParser, prefix: str = "") -> dict:
    """Subcommand name ("scenario run" for nested ones) -> its parser."""
    found = {}
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                found.update(_subparsers(sub, f"{prefix}{name} ") or {f"{prefix}{name}": sub})
    return found


def _flags(parser: argparse.ArgumentParser) -> list[str]:
    """The flags that take a value (all but --help)."""
    return [flag for action in parser._actions if action.nargs != 0 for flag in action.option_strings]


PARSER = build_parser()
COMMANDS = _subparsers(PARSER)


@st.composite
def argvs(draw):
    """Global flags, a subcommand, then its positionals, its required flags
    and up to two more of its flags, each flag with a value, in any order.
    One in ten drops the last of those units or adds a value. A positional
    draws half the time from its choices, or else from the files, and
    otherwise from the whole pool."""

    def value(flag):
        return draw(st.sampled_from(FLAG_VALUES.get(flag, ARG_VALUES)))

    command = draw(st.sampled_from(sorted(COMMANDS)))
    parser = COMMANDS[command]
    units = [[flag, value(flag)] for flag in draw(st.lists(st.sampled_from(_flags(PARSER)), max_size=2))]
    units.append(command.split())
    args = []
    for action in parser._actions:
        if not action.option_strings:
            likely = st.sampled_from(action.choices or PATHS)
            args.append([draw(likely | st.sampled_from(ARG_VALUES))])
        elif action.required:
            args.append([action.option_strings[0], value(action.option_strings[0])])
    flags = _flags(parser)
    args += [[flag, value(flag)] for flag in draw(st.lists(st.sampled_from(flags), max_size=2))] if flags else []
    args = draw(st.permutations(args))
    edit = draw(st.sampled_from(["none"] * 18 + ["drop", "add"]))
    if edit == "drop":
        args = args[:-1]
    elif edit == "add":
        args.append([value(None)])
    return command, [token for unit in units + args for token in unit]


def test_argv_gets_a_documented_exit_code(tmp_path, monkeypatch, capsys):
    assert set(COMMANDS) == set(EXIT_CODES)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("FEMTOC_LIMITS", raising=False)
    assert main(["keygen", "key", "--seed", "aa11"]) == 0
    files = {**FILES, "key.pem": (tmp_path / "key.pem").read_bytes()}

    @settings(max_examples=EXAMPLES)
    @given(argvs())
    def check(drawn):
        command, argv = drawn
        _write_update(tmp_path)
        for name, content in files.items():
            path = tmp_path / name
            path.write_bytes(content) if isinstance(content, bytes) else path.write_text(content)
        capsys.readouterr()
        try:
            _run(capsys, argv, EXIT_CODES[command])
        except SystemExit as exc:
            assert exc.code in (0, 2), (argv, exc.code)
            assert "Traceback" not in capsys.readouterr().err

    check()
