"""Command line driver: every subcommand through main(), exit code contract,
and both output formats."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from femtoc.asm import assemble
from femtoc.cli import main
from femtoc.scenario import ScenarioRuntime, bundled_scenario_path

RETURN_5_SRC = "mov64 r0, 5\nexit\n"
ECHO_SRC = "ldxdw r0, [r1+0]\nexit\n"
OOB_WRITE_SRC = "mov64 r1, 7\nstxdw [r10+512], r1\nmov64 r0, 0\nexit\n"
NO_EXIT_SRC = "mov64 r0, 5\nmov64 r1, 1\n"


def write_bin(tmp_path, name: str, source: str):
    path = tmp_path / name
    path.write_bytes(assemble(source).to_bytes())
    return path


def run_json(capsys, argv: list[str]) -> tuple[int, dict]:
    rc = main(["--format", "json", *argv])
    out = capsys.readouterr().out.strip().splitlines()
    return rc, json.loads(out[-1]) if out else {}


# -- asm / disasm --------------------------------------------------------


def test_asm_writes_bin_with_default_suffix(tmp_path, capsys):
    src = tmp_path / "prog.asm"
    src.write_text(RETURN_5_SRC)
    assert main(["asm", str(src)]) == 0
    out = capsys.readouterr().out
    bin_path = tmp_path / "prog.bin"
    assert f"wrote 16 bytes (2 slots) to {bin_path}" in out
    assert bin_path.read_bytes() == assemble(RETURN_5_SRC).to_bytes()


def test_asm_to_stdout_prints_hex(tmp_path, capsys):
    src = tmp_path / "prog.asm"
    src.write_text(RETURN_5_SRC)
    assert main(["asm", str(src), "-o", "-"]) == 0
    hex_line = capsys.readouterr().out.splitlines()[0]
    assert bytes.fromhex(hex_line) == assemble(RETURN_5_SRC).to_bytes()


def test_asm_parse_error_exits_2_with_line_number(tmp_path, capsys):
    src = tmp_path / "bad.asm"
    src.write_text("mov64 r0, 0\nfrobnicate r1\nexit\n")
    assert main(["asm", str(src)]) == 2
    err = capsys.readouterr().err
    assert "asm error" in err and "2" in err  # offending line number


def test_disasm_round_trips_text(tmp_path, capsys):
    bin_path = write_bin(tmp_path, "p.bin", RETURN_5_SRC)
    assert main(["disasm", str(bin_path)]) == 0
    listing = capsys.readouterr().out
    assert assemble(listing).to_bytes() == bin_path.read_bytes()


def test_disasm_json_lists_instructions(tmp_path, capsys):
    bin_path = write_bin(tmp_path, "p.bin", RETURN_5_SRC)
    rc, data = run_json(capsys, ["disasm", str(bin_path)])
    assert rc == 0
    assert data["listing"] == ["mov64 r0, 5", "exit"]


# -- verify ----------------------------------------------------------------


def test_verify_ok(tmp_path, capsys):
    bin_path = write_bin(tmp_path, "p.bin", RETURN_5_SRC)
    assert main(["verify", str(bin_path)]) == 0
    assert "OK" in capsys.readouterr().out


def test_verify_reject_lists_all_errors(tmp_path, capsys):
    bin_path = write_bin(tmp_path, "p.bin", NO_EXIT_SRC)
    rc, data = run_json(capsys, ["verify", str(bin_path)])
    assert rc == 1
    assert data["ok"] is False
    assert [e["kind"] for e in data["errors"]] == ["NoExit"]
    assert data["errors"][0]["slot"] == 1


def test_verify_text_report_goes_to_stderr(tmp_path, capsys):
    bin_path = write_bin(tmp_path, "p.bin", NO_EXIT_SRC)
    assert main(["verify", str(bin_path)]) == 1
    captured = capsys.readouterr()
    assert "NoExit" in captured.err and captured.out == ""


def test_verify_allow_gates_syscalls(tmp_path):
    bin_path = write_bin(tmp_path, "p.bin", "call 0x99\nmov64 r0, 0\nexit\n")
    assert main(["verify", str(bin_path)]) == 1  # 0x99 not in the standard set
    assert main(["verify", str(bin_path), "--allow", "0x99"]) == 0
    assert main(["verify", str(bin_path), "--allow", ""]) == 1


def test_limits_flag_and_env(tmp_path, monkeypatch, capsys):
    bin_path = write_bin(tmp_path, "p.bin", "mov64 r0, 1\nmov64 r1, 2\nmov64 r2, 3\nexit\n")
    assert main(["verify", str(bin_path)]) == 0
    assert main(["--limits", "3,4", "verify", str(bin_path)]) == 1
    rc, data = run_json(capsys, ["--limits", "3,4", "verify", str(bin_path)])
    assert [e["kind"] for e in data["errors"]] == ["TooLong"]

    monkeypatch.setenv("FEMTOC_LIMITS", "3,4")
    assert main(["verify", str(bin_path)]) == 1  # env applies
    assert main(["--limits", "64,8", "verify", str(bin_path)]) == 0  # flag wins


def test_bad_limits_value_is_usage_error(tmp_path):
    bin_path = write_bin(tmp_path, "p.bin", RETURN_5_SRC)
    assert main(["--limits", "banana", "verify", str(bin_path)]) == 2


# -- run ---------------------------------------------------------------


def test_run_clean_program(tmp_path, capsys):
    bin_path = write_bin(tmp_path, "p.bin", RETURN_5_SRC)
    rc, data = run_json(capsys, ["run", str(bin_path)])
    assert rc == 0
    assert data == {"return": 5, "executed": 2, "branches": 0, "fault": None}


def test_run_fault_exits_3(tmp_path, capsys):
    bin_path = write_bin(tmp_path, "p.bin", OOB_WRITE_SRC)
    rc, data = run_json(capsys, ["run", str(bin_path)])
    assert rc == 3
    assert data["fault"] == "MemoryViolation"
    assert data["fault_pc"] == 1


def test_run_verify_reject_exits_1(tmp_path):
    bin_path = write_bin(tmp_path, "p.bin", NO_EXIT_SRC)
    assert main(["run", str(bin_path)]) == 1


def test_run_scans_the_program_once(tmp_path, check_program_scans):
    assert main(["run", str(write_bin(tmp_path, "ok.bin", RETURN_5_SRC))]) == 0
    assert len(check_program_scans) == 1
    assert main(["run", str(write_bin(tmp_path, "bad.bin", NO_EXIT_SRC))]) == 1
    assert len(check_program_scans) == 2


def test_run_with_ctx_bytes(tmp_path, capsys):
    bin_path = write_bin(tmp_path, "p.bin", ECHO_SRC)
    rc, data = run_json(capsys, ["run", str(bin_path), "--ctx", "2a00000000000000"])
    assert rc == 0
    assert data["return"] == 42


def test_run_without_ctx_faults_on_ctx_read(tmp_path, capsys):
    bin_path = write_bin(tmp_path, "p.bin", ECHO_SRC)
    rc, data = run_json(capsys, ["run", str(bin_path)])
    assert rc == 3
    assert data["fault"] == "MemoryViolation"


def test_run_dumps_writable_regions(tmp_path, capsys):
    src = "mov64 r2, 0x11\nstxb [r1+0], r2\nmov64 r0, 0\nexit\n"
    # r1 points at the first granted region after the stack: use --ctx? ctx is
    # read-only, so grant a writable region and read it back through r1.
    bin_path = write_bin(tmp_path, "p.bin", src)
    rc, data = run_json(
        capsys, ["run", str(bin_path), "--region", "out:4:rw@00000000"]
    )
    assert rc == 0
    assert data["regions"]["out"] == "11000000"


def test_run_region_initializer(tmp_path, capsys):
    bin_path = write_bin(tmp_path, "p.bin", ECHO_SRC)
    rc, data = run_json(
        capsys, ["run", str(bin_path), "--region", "in:8:rw@0807060504030201"]
    )
    assert rc == 0
    assert data["return"] == 0x0102030405060708


def test_run_sensor_fixture(tmp_path, capsys):
    src = "mov64 r1, 5\ncall 0x11\nexit\n"
    bin_path = write_bin(tmp_path, "p.bin", src)
    rc, data = run_json(capsys, ["run", str(bin_path), "--sensor", "5=7,9"])
    assert rc == 0
    assert data["return"] == 7


def test_run_kv_roundtrip_through_helpers(tmp_path, capsys):
    src = (
        "mov64 r1, 3\n"
        "mov64 r2, 44\n"
        "call 0x01\n"  # container put 3 -> 44
        "mov64 r1, 3\n"
        "call 0x02\n"  # container get 3
        "exit\n"
    )
    bin_path = write_bin(tmp_path, "p.bin", src)
    rc, data = run_json(capsys, ["run", str(bin_path)])
    assert rc == 0
    assert data["return"] == 44


def test_run_bad_region_spec_is_usage_error(tmp_path):
    bin_path = write_bin(tmp_path, "p.bin", RETURN_5_SRC)
    assert main(["run", str(bin_path), "--region", "oops"]) == 2
    assert main(["run", str(bin_path), "--region", "x:0:rw"]) == 2
    assert main(["run", str(bin_path), "--ctx", "zz"]) == 2
    assert main(["run", str(bin_path), "--sensor", "notanumber"]) == 2


def test_missing_input_file_is_usage_error(tmp_path):
    assert main(["run", str(tmp_path / "absent.bin")]) == 2


# -- bench ---------------------------------------------------------------


def test_bench_reports_all_fields(capsys):
    rc, data = run_json(capsys, ["bench", "fletcher32_360", "--repeat", "3"])
    assert rc == 0
    assert set(data) == {
        "fixture",
        "verify_ns",
        "first_run_ns",
        "warm_run_ns",
        "instructions",
        "ns_per_instruction",
    }
    assert data["fixture"] == "fletcher32_360"
    assert data["instructions"] == 1275
    assert data["verify_ns"] > 0 and data["warm_run_ns"] > 0
    assert data["first_run_ns"] >= data["warm_run_ns"]  # first includes checking
    assert data["ns_per_instruction"] == pytest.approx(
        data["warm_run_ns"] / data["instructions"], rel=0.01
    )


def test_bench_instruction_count_is_stable(capsys):
    _, a = run_json(capsys, ["bench", "thread_counter", "--repeat", "2"])
    _, b = run_json(capsys, ["bench", "thread_counter", "--repeat", "2"])
    assert a["instructions"] == b["instructions"] > 0


def test_bench_unknown_fixture_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["bench", "nonesuch"])
    assert exc.value.code == 2


# -- scenario ----------------------------------------------------------


def test_scenario_run_bundled_passes(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    rc = main(["scenario", "run", str(bundled_scenario_path("threadcount")),
               "--report", str(report_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "result: PASS" in out
    written = json.loads(report_path.read_text())
    assert written["passed"] is True


def test_scenario_run_json_format_prints_report(capsys):
    rc, data = run_json(capsys, ["scenario", "run", str(bundled_scenario_path("sensor_coap"))])
    assert rc == 0
    assert data["passed"] is True


def test_scenario_assertion_failure_exits_1(tmp_path, capsys):
    doc = json.loads(bundled_scenario_path("threadcount").read_text())
    doc["assertions"].append(
        {"after_event": "final",
         "check": {"kind": "store", "scope": "container", "container": "counter",
                   "key": 1, "equals": 12345}}
    )
    path = tmp_path / "failing.json"
    path.write_text(json.dumps(doc))
    assert main(["scenario", "run", str(path)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_scenario_malformed_file_exits_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"schema_version": 99}')
    assert main(["scenario", "run", str(path)]) == 2
    assert "scenario error" in capsys.readouterr().err


# case -> (the field the error must name, the part of the document that is wrong)
MALFORMED_SCENARIOS = {
    "tenant name missing": ("name", {"tenants": [{}]}),
    "tenant name mistyped": ("name", {"tenants": [{"name": 5}]}),
    "hook name missing": ("name", {"hooks": [{}]}),
    "region label missing": ("label", {"hooks": [{"name": "h", "context": [{"size": 8}]}]}),
    "region size missing": ("size", {"hooks": [{"name": "h", "context": [{"label": "ctx"}]}]}),
    "sensor id missing": ("id", {"sensors": [{"samples": [1]}]}),
    "sensor samples missing": ("samples", {"sensors": [{"id": 1}]}),
    "sensor samples mistyped": ("samples", {"sensors": [{"id": 1, "samples": 3}]}),
    "setup tenant missing": (
        "tenant",
        {"setup": [{"action": "install", "hook": "h", "program": {"fixture": "hostile_writer"}}]},
    ),
    "setup hook missing": (
        "hook",
        {"setup": [{"action": "install", "tenant": "t", "program": {"fixture": "hostile_writer"}}]},
    ),
    "setup program missing": ("program", {"setup": [{"action": "install", "tenant": "t", "hook": "h"}]}),
    "event hook missing": ("hook", {"events": [{"at_ms": 0}]}),
    "assertion check missing": ("check", {"assertions": [{"after_event": "final"}]}),
    "tenants not a list": ("tenants", {"tenants": {"name": "t"}}),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SCENARIOS))
def test_scenario_missing_or_mistyped_field_exits_2(tmp_path, capsys, case):
    field, broken = MALFORMED_SCENARIOS[case]
    doc = {"schema_version": 1, "tenants": [{"name": "t"}], "hooks": [{"name": "h"}], **broken}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert main(["scenario", "run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scenario error:") and "Traceback" not in err
    assert repr(field) in err


# -- keygen / sign / apply -----------------------------------------------


def test_keygen_is_deterministic_with_seed(tmp_path, capsys):
    rc, first = run_json(capsys, ["keygen", str(tmp_path / "a"), "--seed", "aa11"])
    assert rc == 0
    rc, second = run_json(capsys, ["keygen", str(tmp_path / "b"), "--seed", "aa11"])
    assert rc == 0
    assert first["public_key_hex"] == second["public_key_hex"]
    assert (tmp_path / "a.pem").exists() and (tmp_path / "a.pub.pem").exists()

    rc, other = run_json(capsys, ["keygen", str(tmp_path / "c"), "--seed", "bb22"])
    assert other["public_key_hex"] != first["public_key_hex"]


def signing_setup(tmp_path, capsys):
    """keygen + a minimal engine scenario; returns uuids and file paths."""
    rc, key_info = run_json(capsys, ["keygen", str(tmp_path / "tenant"), "--seed", "aa11"])
    assert rc == 0
    engine_doc = {
        "schema_version": 1,
        "name": "engine",
        "seed": 77,
        "tenants": [{"name": "t", "public_key": key_info["public_key_hex"]}],
        "hooks": [{"name": "h", "syscalls": [], "return_policy": "first_nonzero_wins"}],
    }
    engine_path = tmp_path / "engine.json"
    engine_path.write_text(json.dumps(engine_doc))
    probe = ScenarioRuntime(engine_doc)  # same seed -> same uuids as apply will build
    payload = write_bin(tmp_path, "payload.bin", RETURN_5_SRC)
    return {
        "tenant": str(probe.tenant_ids["t"]),
        "hook": str(probe.hook_ids["h"]),
        "key": str(tmp_path / "tenant.pem"),
        "engine": str(engine_path),
        "payload": str(payload),
        "manifest": str(tmp_path / "manifest.json"),
    }


def test_sign_then_apply_accepts(tmp_path, capsys):
    s = signing_setup(tmp_path, capsys)
    rc, signed = run_json(capsys, [
        "sign", s["payload"], "--key", s["key"], "--tenant", s["tenant"],
        "--hook", s["hook"], "--sequence", "1", "-o", s["manifest"],
    ])
    assert rc == 0
    assert signed["payload_size"] == 16

    rc, applied = run_json(capsys, ["apply", s["manifest"], s["payload"],
                                    "--engine", s["engine"]])
    assert rc == 0
    assert applied["accepted"] is True and applied["reason"] is None


def test_apply_rejects_tampered_payload_with_exit_4(tmp_path, capsys):
    s = signing_setup(tmp_path, capsys)
    assert main(["sign", s["payload"], "--key", s["key"], "--tenant", s["tenant"],
                 "--hook", s["hook"], "--sequence", "1", "-o", s["manifest"]]) == 0
    evil = write_bin(tmp_path, "evil.bin", "mov64 r0, 666\nexit\n")
    rc, data = run_json(capsys, ["apply", s["manifest"], str(evil),
                                 "--engine", s["engine"]])
    assert rc == 4
    assert data == {"accepted": False, "container_id": None, "reason": "DigestMismatch"}


def test_apply_rejects_unknown_tenant_with_exit_4(tmp_path, capsys):
    s = signing_setup(tmp_path, capsys)
    import uuid as uuid_mod

    assert main(["sign", s["payload"], "--key", s["key"],
                 "--tenant", str(uuid_mod.UUID(int=0xDEAD)),
                 "--hook", s["hook"], "--sequence", "1", "-o", s["manifest"]]) == 0
    rc, data = run_json(capsys, ["apply", s["manifest"], s["payload"],
                                 "--engine", s["engine"]])
    assert rc == 4
    assert data["reason"] == "UnknownTenant"


def test_apply_rejects_payload_of_partial_slots_with_exit_4(tmp_path, capsys):
    s = signing_setup(tmp_path, capsys)
    ragged = tmp_path / "ragged.bin"
    ragged.write_bytes(assemble(RETURN_5_SRC).to_bytes()[:12])
    assert main(["sign", str(ragged), "--key", s["key"], "--tenant", s["tenant"],
                 "--hook", s["hook"], "--sequence", "1", "-o", s["manifest"]]) == 0
    rc, data = run_json(capsys, ["apply", s["manifest"], str(ragged), "--engine", s["engine"]])
    assert rc == 4
    assert data == {"accepted": False, "container_id": None, "reason": "MalformedPayload"}


@pytest.mark.parametrize("mode", ["x", "rwx"])
def test_apply_rejects_unknown_region_mode_with_exit_2(tmp_path, capsys, mode):
    s = signing_setup(tmp_path, capsys)
    assert main(["sign", s["payload"], "--key", s["key"], "--tenant", s["tenant"],
                 "--hook", s["hook"], "--sequence", "1", "--grant", "ctx:r",
                 "-o", s["manifest"]]) == 0
    envelope = json.loads(Path(s["manifest"]).read_text())
    envelope["manifest"]["contract"]["regions"][0]["mode"] = mode
    Path(s["manifest"]).write_text(json.dumps(envelope))
    capsys.readouterr()
    assert main(["apply", s["manifest"], s["payload"], "--engine", s["engine"]]) == 2
    err = capsys.readouterr().err
    assert "mode" in err and "Traceback" not in err


def test_sign_rejects_malformed_uuid(tmp_path, capsys):
    s = signing_setup(tmp_path, capsys)
    assert main(["sign", s["payload"], "--key", s["key"], "--tenant", "not-a-uuid",
                 "--hook", s["hook"], "--sequence", "1", "-o", s["manifest"]]) == 2


# -- parser level --------------------------------------------------------


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_console_script_is_installed():
    result = subprocess.run(
        [sys.executable, "-m", "femtoc.cli", "--help"], capture_output=True, text=True
    )
    assert result.returncode == 0
    for name in ("asm", "disasm", "verify", "run", "bench", "scenario", "keygen", "sign", "apply"):
        assert name in result.stdout
