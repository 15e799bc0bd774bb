"""Hostile documents through the command line: hypothesis mutates a valid
signed manifest (``femtoc apply``) and a valid scenario (``femtoc scenario
run``) and every result must be an exit code the README documents for that
command, never an escaping exception or a traceback on stderr."""

import copy
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from femtoc.asm import assemble
from femtoc.cli import main
from femtoc.engine import Contract, RegionGrant
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


def test_apply_survives_hostile_manifests(tmp_path, capsys):
    runtime = ScenarioRuntime(ENGINE_DOC)
    key = private_key_from_seed(bytes.fromhex("aa11"))
    assert runtime.engine.tenants[runtime.tenant_ids["t"]].public_key == public_key_raw(key)
    contract = Contract.of({1, 2}, [RegionGrant("ctx")])
    manifest = build_manifest(runtime.tenant_ids["t"], runtime.hook_ids["h"], 1, PAYLOAD, contract)
    envelope = manifest_to_json(sign_manifest(manifest, key))
    (tmp_path / "engine.json").write_text(json.dumps(ENGINE_DOC))
    (tmp_path / "payload.bin").write_bytes(PAYLOAD)
    argv = ["apply", str(tmp_path / "m.json"), str(tmp_path / "payload.bin"), "--engine", str(tmp_path / "engine.json")]
    (tmp_path / "m.json").write_text(json.dumps(envelope))
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
