"""Scenario runner: bundled sessions, determinism, payload forms, and the
parse/reference error surface."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import femtoc
from femtoc.asm import assemble
from femtoc.cli import main
from femtoc.scenario import (
    ParseError,
    UnknownReference,
    bundled_scenario_path,
    run_scenario,
)

BUNDLED = ("threadcount", "sensor_coap", "malicious_tenant")


def load_bundled(name: str) -> dict:
    return json.loads(bundled_scenario_path(name).read_text())


def store_entries(report, scope: str, owner_name: str | None = None) -> dict:
    """Flatten one store from the report's dump into {key: value}."""
    setup_ids = {
        entry.get("name"): entry.get("container_id")
        for entry in report.data["setup"]
        if "container_id" in entry
    }
    for store in report.data["stores"]:
        if store["scope"] != scope:
            continue
        if owner_name is not None and store["owner"] != setup_ids.get(owner_name):
            continue
        return {e["key"]: e["value"] for e in store["entries"]}
    raise AssertionError(f"no {scope} store for {owner_name!r} in report")


# -- bundled scenarios ---------------------------------------------------


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenario_passes(name):
    path = bundled_scenario_path(name)
    assert path.exists()
    report = run_scenario(path)
    assert report.passed, report.to_json()
    assert all(a["ok"] for a in report.data["assertions"])


def test_threadcount_counts_match_event_payload_oracle():
    doc = load_bundled("threadcount")
    # independent tally: the second u64 of each payload is the incoming thread
    oracle = Counter(event["payload"]["ctx"]["u64"][1] for event in doc["events"])
    report = run_scenario(doc)
    assert report.passed
    counts = store_entries(report, "container", "counter")
    assert counts == dict(oracle)
    assert sum(counts.values()) == len(doc["events"]) == 10


def test_sensor_pipeline_averages_and_response():
    report = run_scenario(load_bundled("sensor_coap"))
    assert report.passed
    # the response event is the last one; its policy value is the served average
    coap_event = report.data["events"][-1]
    assert coap_event["policy_value"] == 25
    assert coap_event["context_after"]["response"][:16] == (25).to_bytes(8, "little").hex()


def test_malicious_tenant_faults_without_disturbing_neighbors():
    report = run_scenario(load_bundled("malicious_tenant"))
    assert report.passed
    first = report.data["events"][0]
    by_name = {c["name"]: c for c in first["containers"]}
    assert by_name["hostile"]["fault"] == "MemoryViolation"
    assert by_name["counter"]["fault"] is None
    assert report.data["totals"]["faults"] >= 1


@pytest.mark.parametrize("name", BUNDLED)
def test_reports_are_byte_identical_across_runs(name):
    path = bundled_scenario_path(name)
    assert run_scenario(path).to_json() == run_scenario(path).to_json()


@pytest.mark.parametrize("name", BUNDLED)
def test_json_report_matches_the_golden_copy(name, capsys):
    # tests/golden/<name>.json is the `femtoc --format json scenario run`
    # output for the bundled scenario; regenerate it only for an intended
    # change of behaviour.
    assert main(["--format", "json", "scenario", "run", str(bundled_scenario_path(name))]) == 0
    golden = Path(__file__).parent / "golden" / f"{name}.json"
    assert capsys.readouterr().out.encode() == golden.read_bytes()


@pytest.mark.parametrize("name", BUNDLED)
def test_json_report_matches_the_golden_copy_in_compiled_code(name, capsys, compiled_tier):
    # Every container compiles at its first run: the same bytes.
    test_json_report_matches_the_golden_copy(name, capsys)
    assert compiled_tier


def test_report_does_not_depend_on_the_hash_seed(tmp_path):
    # Two grants on one label ('r' and 'w') live in a frozenset, whose
    # iteration order changes with PYTHONHASHSEED; the report must not.
    doc = {
        "schema_version": 1,
        "tenants": [{"name": "t"}],
        "hooks": [{"name": "h", "context": [{"label": "a", "size": 8, "mode": "rw"},
                                           {"label": "b", "size": 8, "mode": "rw"}]}],
        "setup": [{
            "action": "install", "name": "c", "tenant": "t", "hook": "h",
            "program": {"asm": "mov64 r0, 0\nexit"},
            "contract": {"regions": [{"label": label, "mode": mode}
                                     for label in ("a", "b") for mode in ("r", "w")]},
        }],
        "events": [{"hook": "h"}],
    }
    path = tmp_path / "two_grants_per_label.json"
    path.write_text(json.dumps(doc))
    src = str(Path(femtoc.__file__).parents[1])
    reports = set()
    for hash_seed in ("0", "1", "2", "3", "4", "5"):
        env = {**os.environ, "PYTHONHASHSEED": hash_seed,
               "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
        result = subprocess.run(
            [sys.executable, "-m", "femtoc.cli", "--format", "json", "scenario", "run", str(path)],
            capture_output=True, text=True, env=env,
        )
        assert result.returncode == 0, result.stderr
        reports.add(result.stdout)
    assert len(reports) == 1


def test_report_is_canonical_json():
    text = run_scenario(bundled_scenario_path("threadcount")).to_json()
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert json.dumps(parsed, sort_keys=True, separators=(",", ":")) + "\n" == text


def test_report_shape_and_totals():
    report = run_scenario(bundled_scenario_path("threadcount"))
    assert set(report.data) == {
        "schema_version",
        "name",
        "seed",
        "setup",
        "events",
        "assertions",
        "passed",
        "engine",
        "stores",
        "totals",
    }
    stats = [c["stats"] for c in report.data["engine"]["containers"]]
    assert report.data["totals"]["runs"] == sum(s["runs"] for s in stats)
    assert report.data["totals"]["executed"] == sum(s["total_executed"] for s in stats)
    for event in report.data["events"]:
        assert {"index", "at_ms", "hook", "policy_value", "containers", "context_after"} <= set(
            event
        )


def test_seed_controls_generated_ids():
    doc = load_bundled("threadcount")
    baseline = run_scenario(doc).data["setup"][0]["container_id"]
    assert run_scenario(doc).data["setup"][0]["container_id"] == baseline
    reseeded = dict(doc, seed=doc["seed"] + 1)
    assert run_scenario(reseeded).data["setup"][0]["container_id"] != baseline


# -- inline scenarios ----------------------------------------------------

ECHO_FIRST_U64 = "ldxdw r0, [r1+0]\nexit"


def echo_scenario(payload: dict) -> dict:
    return {
        "schema_version": 1,
        "name": "echo",
        "seed": 3,
        "tenants": [{"name": "t"}],
        "hooks": [
            {
                "name": "h",
                "syscalls": [],
                "return_policy": "first_nonzero_wins",
                "context": [{"label": "ctx", "size": 16, "mode": "r"}],
            }
        ],
        "setup": [
            {
                "action": "install",
                "name": "echo",
                "tenant": "t",
                "hook": "h",
                "program": {"asm": ECHO_FIRST_U64},
                "contract": {"syscalls": [], "regions": [{"label": "ctx", "mode": "r"}]},
            }
        ],
        "events": [{"at_ms": 1, "kind": "trigger", "hook": "h", "payload": {"ctx": payload}}],
        "assertions": [
            {"after_event": 0, "check": {"kind": "return", "container": "echo", "equals": 258}}
        ],
    }


@pytest.mark.parametrize(
    "payload",
    [
        {"u64": [258, 0]},
        {"hex": "02010000000000000000000000000000"},
        {"bytes": [2, 1] + [0] * 14},
    ],
    ids=["u64", "hex", "bytes"],
)
def test_payload_forms_all_decode_little_endian(payload):
    report = run_scenario(echo_scenario(payload))
    assert report.passed, report.to_json()
    assert report.data["events"][0]["policy_value"] == 258


def test_asm_program_accepts_line_list_and_file(tmp_path):
    doc = echo_scenario({"u64": [258, 0]})
    doc["setup"][0]["program"] = {"asm": ["ldxdw r0, [r1+0]", "exit"]}
    assert run_scenario(doc).passed

    source = tmp_path / "echo.asm"
    source.write_text(ECHO_FIRST_U64 + "\n")
    doc["setup"][0]["program"] = {"file": "echo.asm"}
    assert run_scenario(doc, base_dir=tmp_path).passed


def test_program_accepts_hex_and_binary_file(tmp_path):
    code = assemble(ECHO_FIRST_U64).to_bytes()
    doc = echo_scenario({"u64": [258, 0]})
    doc["setup"][0]["program"] = {"hex": code.hex()}
    assert run_scenario(doc).passed

    (tmp_path / "echo.bin").write_bytes(code)
    doc["setup"][0]["program"] = {"file": "echo.bin"}
    assert run_scenario(doc, base_dir=tmp_path).passed

    doc["setup"][0]["program"] = {"hex": "zz"}
    with pytest.raises(ParseError, match="program 'hex' must be hex"):
        run_scenario(doc)


# case -> (the final check, the text its ParseError must hold)
BAD_CHECKS = {
    "store scope unknown": ({"kind": "store", "scope": "moon", "key": 1, "equals": 0}, "unknown store scope 'moon'"),
    "store key past u32": ({"kind": "store", "scope": "global", "key": 1 << 32, "equals": 0}, "'key' must be a u32"),
    "store key negative": ({"kind": "store", "scope": "global", "key": -1, "equals": 0}, "'key' must be a u32"),
    "context offset negative": (
        {"kind": "context", "label": "ctx", "offset": -8, "u64_equals": 0}, "'offset' must not be negative"
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_CHECKS))
def test_a_malformed_check_is_a_parse_error(case):
    check, message = BAD_CHECKS[case]
    doc = echo_scenario({"u64": [258, 0]})
    doc["assertions"].append({"after_event": "final", "check": check})
    with pytest.raises(ParseError, match=message):
        run_scenario(doc)


def test_failed_assertion_reports_detail_without_raising():
    doc = echo_scenario({"u64": [258, 0]})
    doc["assertions"][0]["check"]["equals"] = 999
    report = run_scenario(doc)
    assert not report.passed
    entry = report.data["assertions"][0]
    assert entry["ok"] is False
    assert "expected 999" in entry["detail"] and "258" in entry["detail"]


def test_update_in_setup_swaps_program_before_events():
    doc = {
        "schema_version": 1,
        "name": "swap",
        "seed": 9,
        "tenants": [{"name": "t"}],
        "hooks": [{"name": "h", "syscalls": [], "return_policy": "first_nonzero_wins"}],
        "setup": [
            {
                "action": "install",
                "name": "c",
                "tenant": "t",
                "hook": "h",
                "program": {"asm": "mov64 r0, 5\nexit"},
            },
            {
                "action": "update",
                "tenant": "t",
                "hook": "h",
                "sequence": 1,
                "program": {"asm": "mov64 r0, 9\nexit"},
            },
        ],
        "events": [{"at_ms": 1, "hook": "h"}],
        "assertions": [{"after_event": 0, "check": {"kind": "policy", "equals": 9}}],
    }
    report = run_scenario(doc)
    assert report.passed, report.to_json()
    update_entry = report.data["setup"][1]
    assert update_entry["accepted"] is True and update_entry["reason"] is None
    # replace, not accumulate
    assert len(report.data["engine"]["containers"]) == 1


def test_rejected_update_is_recorded_and_harmless():
    doc = {
        "schema_version": 1,
        "name": "replay",
        "seed": 9,
        "tenants": [{"name": "t"}],
        "hooks": [{"name": "h", "syscalls": [], "return_policy": "first_nonzero_wins"}],
        "setup": [
            {"action": "update", "tenant": "t", "hook": "h", "sequence": 2,
             "program": {"asm": "mov64 r0, 5\nexit"}},
            {"action": "update", "tenant": "t", "hook": "h", "sequence": 2,
             "program": {"asm": "mov64 r0, 9\nexit"}},
        ],
        "events": [{"at_ms": 1, "hook": "h"}],
        "assertions": [{"after_event": 0, "check": {"kind": "policy", "equals": 5}}],
    }
    report = run_scenario(doc)
    assert report.passed, report.to_json()
    assert report.data["setup"][0]["accepted"] is True
    rejected = report.data["setup"][1]
    assert rejected["accepted"] is False and rejected["reason"] == "RollbackRejected"


def two_hook_update_scenario(update_name: str, update_tenant: str) -> dict:
    """Container x by tenant a on h1, then an update named ``update_name``
    by ``update_tenant`` on h2."""
    return {
        "schema_version": 1,
        "name": "names",
        "seed": 9,
        "tenants": [{"name": "a"}, {"name": "b"}],
        "hooks": [
            {"name": "h1", "syscalls": [], "return_policy": "first_nonzero_wins"},
            {"name": "h2", "syscalls": [], "return_policy": "first_nonzero_wins"},
        ],
        "setup": [
            {"action": "install", "name": "x", "tenant": "a", "hook": "h1",
             "program": {"asm": "mov64 r0, 5\nexit"}},
            {"action": "update", "name": update_name, "tenant": update_tenant, "hook": "h2",
             "sequence": 1, "program": {"asm": "mov64 r0, 9\nexit"}},
            {"action": "update", "name": update_name, "tenant": update_tenant, "hook": "h2",
             "sequence": 2, "program": {"asm": "mov64 r0, 7\nexit"}},
        ],
        "events": [{"at_ms": 1, "hook": "h1"}, {"at_ms": 2, "hook": "h2"}],
        "assertions": [
            {"after_event": 0, "check": {"kind": "return", "container": "x", "equals": 5}},
            {"after_event": 1, "check": {"kind": "return", "container": update_name, "equals": 7}},
        ],
    }


def test_an_update_may_not_take_another_containers_name():
    with pytest.raises(ParseError, match="duplicate container name 'x'"):
        run_scenario(two_hook_update_scenario("x", "b"))


def test_an_update_keeps_the_name_of_the_container_it_replaced():
    # The second update replaces the container the first one installed and
    # named y, so it may name it y again.
    report = run_scenario(two_hook_update_scenario("y", "b"))
    assert report.passed, report.to_json()
    assert [entry["accepted"] for entry in report.data["setup"][1:]] == [True, True]
    assert report.data["setup"][1]["container_id"] == report.data["setup"][2]["container_id"]


def test_final_assertions_see_last_event():
    doc = echo_scenario({"u64": [258, 0]})
    doc["assertions"].append({"after_event": "final", "check": {"kind": "policy", "equals": 258}})
    assert run_scenario(doc).passed


# -- error surface -------------------------------------------------------


def test_unsupported_schema_version():
    with pytest.raises(ParseError, match="schema_version"):
        run_scenario({"schema_version": 2})


def test_deeply_nested_file_is_a_parse_error(tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    with pytest.raises(ParseError, match="recursion"):
        run_scenario(path)


def test_events_must_be_sorted():
    doc = echo_scenario({"u64": [258, 0]})
    doc["events"] = [
        {"at_ms": 10, "hook": "h", "payload": {"ctx": {"u64": [258, 0]}}},
        {"at_ms": 5, "hook": "h", "payload": {"ctx": {"u64": [258, 0]}}},
    ]
    with pytest.raises(ParseError, match="sorted"):
        run_scenario(doc)


def test_unknown_event_kind():
    doc = echo_scenario({"u64": [258, 0]})
    doc["events"][0]["kind"] = "sleep"
    with pytest.raises(ParseError, match="event kind"):
        run_scenario(doc)


def test_unknown_setup_action():
    doc = echo_scenario({"u64": [258, 0]})
    doc["setup"][0]["action"] = "teleport"
    with pytest.raises(ParseError, match="install or update"):
        run_scenario(doc)


def test_program_spec_needs_a_source():
    doc = echo_scenario({"u64": [258, 0]})
    doc["setup"][0]["program"] = {"nope": 1}
    with pytest.raises(ParseError, match="fixture/asm/hex/file"):
        run_scenario(doc)


def test_duplicate_tenant_name():
    doc = echo_scenario({"u64": [258, 0]})
    doc["tenants"].append({"name": "t"})
    with pytest.raises(ParseError, match="duplicate tenant"):
        run_scenario(doc)


def test_unknown_tenant_reference():
    doc = echo_scenario({"u64": [258, 0]})
    doc["setup"][0]["tenant"] = "ghost"
    with pytest.raises(UnknownReference, match="ghost"):
        run_scenario(doc)


def test_unknown_hook_reference_in_event():
    doc = echo_scenario({"u64": [258, 0]})
    doc["events"][0]["hook"] = "ghost"
    with pytest.raises(UnknownReference, match="ghost"):
        run_scenario(doc)


def test_unknown_fixture_name():
    doc = echo_scenario({"u64": [258, 0]})
    doc["setup"][0]["program"] = {"fixture": "nonesuch"}
    with pytest.raises(UnknownReference, match="nonesuch"):
        run_scenario(doc)


def test_unknown_container_in_check():
    doc = echo_scenario({"u64": [258, 0]})
    doc["assertions"][0]["check"]["container"] = "ghost"
    with pytest.raises(UnknownReference, match="ghost"):
        run_scenario(doc)


def test_unknown_check_kind():
    doc = echo_scenario({"u64": [258, 0]})
    doc["assertions"][0]["check"] = {"kind": "vibes"}
    with pytest.raises(ParseError, match="check kind"):
        run_scenario(doc)


def test_update_needs_a_private_key():
    # a tenant declared by raw public key cannot sign inside the scenario
    doc = echo_scenario({"u64": [258, 0]})
    doc["tenants"][0]["public_key"] = "00" * 32
    doc["setup"] = [
        {"action": "update", "tenant": "t", "hook": "h", "sequence": 1,
         "program": {"asm": "exit"}}
    ]
    doc["assertions"] = []
    doc["events"] = []
    with pytest.raises(UnknownReference, match="signing key"):
        run_scenario(doc)


def test_malformed_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        run_scenario(path)
