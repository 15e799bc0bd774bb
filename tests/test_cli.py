"""Command line driver: every subcommand through main(), exit code contract,
and both output formats."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import femtoc
from femtoc import vm
from femtoc.asm import assemble
from femtoc.cli import PAIRS_PER_REPEAT, main
from femtoc.engine import Engine
from femtoc.fixtures import BENCH_FIXTURES, BENCH_INPUTS, FIXTURE_SYSCALLS, fixture_program
from femtoc.memory import HostMemory
from femtoc.scenario import ScenarioRuntime, bundled_scenario_path
from femtoc.verifier import VerifyLimits, verify

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


@pytest.mark.parametrize("command", ["verify", "run"])
@pytest.mark.parametrize("ids", ["-1", "0x100000000", "1" * 23, "0x10,-1", "abc"])
def test_allow_rejects_ids_that_are_not_u32_with_exit_2(tmp_path, capsys, command, ids):
    bin_path = write_bin(tmp_path, "p.bin", RETURN_5_SRC)
    assert main([command, str(bin_path), "--allow", ids]) == 2
    captured = capsys.readouterr()
    assert "helper id must be a u32" in captured.err
    assert "Traceback" not in captured.err and captured.out == ""


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


# (flag, FEMTOC_LIMITS) -> the one line on stderr; every row exits 2
@pytest.mark.parametrize(
    "flag, env, message",
    [
        ("0,5", None, "error: --limits '0,5': limits must be at least 1"),
        ("5,-1", None, "error: --limits '5,-1': limits must be at least 1"),
        (None, "1,0", "error: FEMTOC_LIMITS '1,0': limits must be at least 1"),
        (None, "banana", "error: FEMTOC_LIMITS wants 'Ni,Nb', got 'banana'"),
        (None, "1,x", "error: FEMTOC_LIMITS wants two integers, got '1,x'"),
        ("1,x", "1,0", "error: --limits wants two integers, got '1,x'"),
    ],
)
def test_limits_errors_name_their_source(tmp_path, monkeypatch, capsys, flag, env, message):
    bin_path = write_bin(tmp_path, "p.bin", RETURN_5_SRC)
    if env is None:
        monkeypatch.delenv("FEMTOC_LIMITS", raising=False)
    else:
        monkeypatch.setenv("FEMTOC_LIMITS", env)
    assert main([*(["--limits", flag] if flag else []), "verify", str(bin_path)]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [message] and captured.out == ""


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


def test_run_of_a_bin_builds_no_instruction(tmp_path, capsys, forbid_instructions):
    ok = write_bin(tmp_path, "ok.bin", ECHO_SRC)
    bad = write_bin(tmp_path, "bad.bin", NO_EXIT_SRC)
    forbid_instructions()
    rc, data = run_json(capsys, ["run", str(ok), "--ctx", "2a00000000000000"])
    assert (rc, data["return"]) == (0, 42)
    rc, data = run_json(capsys, ["run", str(bad)])
    assert (rc, data["errors"][0]["kind"]) == (1, "NoExit")


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


def test_run_rejects_duplicate_or_reserved_region_labels(tmp_path, capsys):
    bin_path = write_bin(tmp_path, "p.bin", RETURN_5_SRC)
    for regions in (
        ["--region", "a:2:rw", "--region", "a:2:rw"],
        ["--ctx", "00", "--region", "ctx:2:r"],
        ["--region", "stack:512:rw"],
    ):
        assert main(["run", str(bin_path), *regions]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err


def test_run_bounds_region_size_before_allocating(tmp_path, capsys, monkeypatch):
    bin_path = write_bin(tmp_path, "p.bin", RETURN_5_SRC)
    allocated = []
    alloc = HostMemory.alloc

    def recording_alloc(memory, length, *args, **kwargs):
        allocated.append(length)
        if length > 65536:  # fail the test rather than allocate the region
            raise AssertionError(f"asked to allocate {length} bytes")
        return alloc(memory, length, *args, **kwargs)

    monkeypatch.setattr(HostMemory, "alloc", recording_alloc)
    for spec in ("x:4294967296:rw", "x:65537:r"):
        assert main(["run", str(bin_path), "--region", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "Traceback" not in captured.err
        assert "'x' 'size' out of range 0..65536" in captured.err
    assert allocated == []
    assert main(["run", str(bin_path), "--region", "x:65536:rw"]) == 0
    assert 65536 in allocated


def test_run_bad_region_spec_is_usage_error(tmp_path, capsys):
    bin_path = write_bin(tmp_path, "p.bin", RETURN_5_SRC)
    for args, reason in (
        (["--region", "oops"], "wants label:len:mode"),
        (["--region", "x:0:rw"], "length must be positive"),
        (["--region", "x:four:rw"], "invalid literal"),
        (["--region", "x:4:rw@zz"], "non-hexadecimal"),
        (["--region", "x:4:q"], "mode must be"),
        (["--region", "x:2:rw@000000"], "init bytes longer than the region"),
        (["--ctx", "zz"], "must be hex"),
        (["--sensor", "notanumber"], "--sensor wants"),
    ):
        assert main(["run", str(bin_path), *args]) == 2, args
        captured = capsys.readouterr()
        [line] = captured.err.splitlines()
        assert captured.out == "" and line.startswith("error: ") and reason in line, line


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


def test_bench_times_a_real_verification(monkeypatch, capsys):
    # An engine shares the verdict of a live container with the same bytes,
    # so timing verify_for on the engine that already holds the fixture
    # would time a lookup.  Each pair verifies twice: the install on its
    # fresh host, and the timed verification on an engine that holds none.
    from femtoc import engine as engine_module

    calls = []
    original = engine_module.verify
    monkeypatch.setattr(engine_module, "verify", lambda *args: calls.append(args) or original(*args))
    rc, _ = run_json(capsys, ["bench", "fletcher32_360", "--repeat", "2"])
    assert rc == 0
    assert len(calls) == 2 * 2 * PAIRS_PER_REPEAT


@pytest.mark.parametrize("fixture", BENCH_FIXTURES)
def test_bench_times_no_compilation(fixture, monkeypatch, capsys):
    # Each pair builds a fresh host and triggers it twice; a program compiles
    # only on a run that starts after 64 interpreted steps per slot, so
    # neither timed run of a bundled fixture may reach that.
    compiles = []
    monkeypatch.setattr(vm, "compile_form", compiles.append)
    rc, data = run_json(capsys, ["bench", fixture, "--repeat", "1"])
    assert rc == 0
    vp = verify(fixture_program(fixture), VerifyLimits(), FIXTURE_SYSCALLS[fixture])
    assert data["instructions"] < vm.HOT_STEPS_PER_SLOT * len(vp.form)
    assert compiles == []


@pytest.mark.parametrize("fixture", BENCH_FIXTURES)
def test_bench_runs_the_fixture_on_the_run_engine(fixture, tmp_path, monkeypatch, capsys):
    # Each pair is two triggers of one hook; the instruction count is what
    # `femtoc run` executes on the same bytes, context, sensors and helpers.
    triggers = []
    trigger_hook = Engine.trigger_hook

    def counted(self, *args):
        triggers.append(args)
        return trigger_hook(self, *args)

    monkeypatch.setattr(Engine, "trigger_hook", counted)
    rc, bench = run_json(capsys, ["bench", fixture, "--repeat", "1"])
    assert rc == 0
    assert len(triggers) == 2 * PAIRS_PER_REPEAT

    ctx, sensors = BENCH_INPUTS[fixture]
    bin_path = tmp_path / "fixture.bin"
    bin_path.write_bytes(fixture_program(fixture).to_bytes())
    argv = ["run", str(bin_path), "--allow", ",".join(map(str, sorted(FIXTURE_SYSCALLS[fixture])))]
    if ctx is not None:
        argv += ["--ctx", ctx.hex()]
    for sensor_id, samples in sensors.items():
        argv += ["--sensor", f"{sensor_id}=" + ",".join(map(str, samples))]
    rc, run = run_json(capsys, argv)
    assert rc == 0
    assert bench["instructions"] == run["executed"] == {
        "fletcher32_360": 1275, "thread_counter": 9, "sensor_reader": 16
    }[fixture]


@pytest.mark.parametrize("repeat", ["0", "-1"])
def test_bench_rejects_repeat_below_1(capsys, repeat):
    assert main(["bench", "fletcher32_360", "--repeat", repeat]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: --repeat must be at least 1"] and captured.out == ""


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


CTX_HOOK = {"name": "h", "context": [{"label": "ctx", "size": 8}]}


def check_scenario(**check):
    """A scenario whose one container, c, faults, with one assertion: ``check``."""
    return {"setup": [{"action": "install", "tenant": "t", "hook": "h", "name": "c",
                       "program": {"fixture": "hostile_writer"}}],
            "events": [{"hook": "h"}],
            "assertions": [{"after_event": 0, "check": check}]}


def fault_check_scenario(fault_kind):
    """A scenario whose one container, c, faults, and whose fault check expects ``fault_kind``."""
    return check_scenario(kind="fault", container="c", fault_kind=fault_kind)


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
    "limits not an object": ("limits", {"limits": [1]}),
    "tenant public_key mistyped": ("public_key", {"tenants": [{"name": "t", "public_key": 5}]}),
    "assertion after_event mistyped": (
        "after_event",
        {"assertions": [{"after_event": [0], "check": {"kind": "policy"}}]},
    ),
    "assertion after_event past the last event": (
        "after_event",
        {"events": [{"hook": "h"}], "assertions": [{"after_event": 1, "check": {"kind": "policy"}}]},
    ),
    "store check key missing": (
        "key",
        {"assertions": [{"check": {"kind": "store", "scope": "global", "equals": 1}}]},
    ),
    "store check key past u32": (
        "key",
        {"assertions": [{"check": {"kind": "store", "scope": "global", "key": 2**32, "equals": 1}}]},
    ),
    "store check scope unknown": (
        "moon",
        {"assertions": [{"check": {"kind": "store", "scope": "moon", "key": 1, "equals": 1}}]},
    ),
    "context check offset negative": (
        "offset",
        {"hooks": [CTX_HOOK], "events": [{"hook": "h"}],
         "assertions": [{"after_event": 0, "check": {"kind": "context", "label": "ctx", "offset": -8,
                                                      "u64_equals": 0}}]},
    ),
    "return check container missing": (
        "container",
        {"events": [{"hook": "h"}], "assertions": [{"after_event": 0, "check": {"kind": "return", "equals": 0}}]},
    ),
    "context region size out of range": (
        "size",
        {"hooks": [{"name": "h", "context": [{"label": "ctx", "size": 2**40}]}]},
    ),
    "context region size negative": (
        "size",
        {"hooks": [{"name": "h", "context": [{"label": "ctx", "size": -1}]}]},
    ),
    "hook name duplicated": ("h", {"hooks": [{"name": "h"}, {"name": "h"}]}),
    "payload u64 mistyped": (
        "ctx",
        {"hooks": [CTX_HOOK], "events": [{"hook": "h", "payload": {"ctx": {"u64": 5}}}]},
    ),
    "payload label unknown to the hook": (
        "nope",
        {"hooks": [CTX_HOOK], "events": [{"hook": "h", "payload": {"nope": {"u64": [1]}}}]},
    ),
    "payload size wrong": (
        "ctx",
        {"hooks": [CTX_HOOK], "events": [{"hook": "h", "payload": {"ctx": {"u64": [1, 2]}}}]},
    ),
    "payload u64 booleans": (
        "ctx",
        {"hooks": [{"name": "h", "context": [{"label": "ctx", "size": 16}]}],
         "events": [{"hook": "h", "payload": {"ctx": {"u64": [True, False]}}}]},
    ),
    "payload bytes boolean": (
        "ctx",
        {"hooks": [{"name": "h", "context": [{"label": "ctx", "size": 1}]}],
         "events": [{"hook": "h", "payload": {"ctx": {"bytes": [True]}}}]},
    ),
    "fault check kind misspelled": ("fault_kind", fault_check_scenario("MemoryViolaton")),
    "fault check kind not a string": ("fault_kind", fault_check_scenario(["MemoryViolation"])),
    "policy check field misspelled": ("equal", check_scenario(kind="policy", equal=7)),
    "no_fault check with a fault kind": (
        "fault_kind", check_scenario(kind="no_fault", container="c", fault_kind="MemoryViolation")),
    "return check with a fault kind": (
        "fault_kind", check_scenario(kind="return", container="c", equals=0, fault_kind="MemoryViolation")),
    "global store check naming a tenant": (
        "tenant", check_scenario(kind="store", scope="global", tenant="t", key=1, equals=0)),
    "store check scope unknown": (
        "scope", check_scenario(kind="store", scope="bogus", container="c", key=1, equals=0)),
    "store check scope not a string": (
        "scope", check_scenario(kind="store", scope=5, container="c", key=1, equals=0)),
    "context check field misspelled": (
        "offest", check_scenario(kind="context", label="ctx", offest=8, u64_equals=0)),
    "update sequence negative": (
        "sequence_number",
        {"setup": [{"action": "update", "tenant": "t", "hook": "h", "sequence": -1,
                    "program": {"fixture": "hostile_writer"}}]},
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_SCENARIOS))
def test_scenario_missing_or_mistyped_field_exits_2(tmp_path, capsys, case):
    field, broken = MALFORMED_SCENARIOS[case]
    doc = {"schema_version": 1, "tenants": [{"name": "t"}], "hooks": [{"name": "h"}], **broken}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    assert main(["scenario", "run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("scenario error:") and "Traceback" not in err and err.count("\n") == 1
    assert repr(field) in err


def _rename_assertions(doc: dict) -> None:
    doc["asserts"] = doc.pop("assertions")


def _misspell_a_grant_mode(doc: dict) -> None:
    doc["setup"][0]["contract"] = {"regions": [{"label": "ctx", "mdoe": "rw"}]}


def _misspell_syscalls(doc: dict) -> None:
    doc["setup"][0]["contract"] = {"sycalls": [1]}


# edit of malicious_tenant.json -> the one stderr line femtoc scenario run prints
MISSPELT_KEYS = {
    "assertions renamed": (_rename_assertions, "scenario error: scenario: unknown key 'asserts'"),
    "grant mode misspelt": (
        _misspell_a_grant_mode, "scenario error: setup[0].contract.regions[0]: unknown key 'mdoe'"
    ),
    "syscalls misspelt": (_misspell_syscalls, "scenario error: setup[0].contract: unknown key 'sycalls'"),
}


@pytest.mark.parametrize("case", sorted(MISSPELT_KEYS))
def test_a_misspelt_key_exits_2_naming_it(tmp_path, capsys, case):
    # Each edit once ran: asserts checked nothing and passed, mdoe granted
    # read-only, and sycalls granted no helper.
    edit, line = MISSPELT_KEYS[case]
    doc = json.loads(bundled_scenario_path("malicious_tenant").read_text())
    edit(doc)
    path = tmp_path / "misspelt.json"
    path.write_text(json.dumps(doc))
    assert main(["scenario", "run", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == line + "\n"


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


def test_apply_rejects_unverifiable_payload_with_exit_4(tmp_path, capsys):
    s = signing_setup(tmp_path, capsys)
    no_exit = write_bin(tmp_path, "no_exit.bin", NO_EXIT_SRC)
    assert main(["sign", str(no_exit), "--key", s["key"], "--tenant", s["tenant"],
                 "--hook", s["hook"], "--sequence", "1", "-o", s["manifest"]]) == 0
    rc, data = run_json(capsys, ["apply", s["manifest"], str(no_exit), "--engine", s["engine"]])
    assert rc == 4
    assert data == {"accepted": False, "container_id": None, "reason": "VerifyRejected"}


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


# case -> (the field the error must name, an edit that breaks the envelope)
MALFORMED_MANIFESTS = {
    "manifest empty": ("manifest_version", lambda envelope: envelope.update(manifest={})),
    "manifest missing": ("manifest", lambda envelope: envelope.pop("manifest")),
    "tenant id mistyped": ("tenant_id", lambda envelope: envelope["manifest"].update(tenant_id=5)),
    "sequence negative": ("sequence_number", lambda envelope: envelope["manifest"].update(sequence_number=-1)),
    "payload size over u64": ("payload_size", lambda envelope: envelope["manifest"].update(payload_size=2**70)),
    "sequence 1.0": ("sequence_number", lambda envelope: envelope["manifest"].update(sequence_number=1.0)),
    "sequence true": ("sequence_number", lambda envelope: envelope["manifest"].update(sequence_number=True)),
    "sequence string": ("sequence_number", lambda envelope: envelope["manifest"].update(sequence_number="1")),
    "sequence 1.9": ("sequence_number", lambda envelope: envelope["manifest"].update(sequence_number=1.9)),
    "region label over 65535 bytes": (
        "label",
        lambda envelope: envelope["manifest"]["contract"].update(regions=[{"label": "x" * 70_000}]),
    ),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_MANIFESTS))
def test_apply_rejects_malformed_manifest_with_exit_2(tmp_path, capsys, case):
    field, edit = MALFORMED_MANIFESTS[case]
    s = signing_setup(tmp_path, capsys)
    assert main(["sign", s["payload"], "--key", s["key"], "--tenant", s["tenant"],
                 "--hook", s["hook"], "--sequence", "1", "-o", s["manifest"]]) == 0
    envelope = json.loads(Path(s["manifest"]).read_text())
    edit(envelope)
    Path(s["manifest"]).write_text(json.dumps(envelope))
    capsys.readouterr()
    assert main(["apply", s["manifest"], s["payload"], "--engine", s["engine"]]) == 2
    err = capsys.readouterr().err
    assert repr(field) in err and "Traceback" not in err


@pytest.mark.parametrize(
    "field, argv",
    [("sequence_number", ["--sequence", "-1"]), ("helper id", ["--sequence", "1", "--syscalls", "0x100000000"])],
)
def test_sign_rejects_out_of_range_fields_with_exit_2(tmp_path, capsys, field, argv):
    s = signing_setup(tmp_path, capsys)
    rc = main(["sign", s["payload"], "--key", s["key"], "--tenant", s["tenant"], "--hook", s["hook"],
               *argv, "-o", s["manifest"]])
    assert rc == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and field in err
    assert not Path(s["manifest"]).exists()


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
    src = str(Path(femtoc.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    result = subprocess.run(
        [sys.executable, "-m", "femtoc.cli", "--help"], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0
    for name in ("asm", "disasm", "verify", "run", "bench", "scenario", "keygen", "sign", "apply"):
        assert name in result.stdout
