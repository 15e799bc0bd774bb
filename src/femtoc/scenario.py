"""Deterministic scenario runner: JSON in, canonical JSON report out.

A scenario file describes a complete hosting session: hooks, tenants (with
deterministic signing keys), sensor fixtures, an ordered setup phase of
installs and signed updates, a timeline of events that advance the virtual
clock and fire hooks, and assertions pinned to event indices.  Running the
same file twice produces byte-identical reports; all randomness (ids, keys)
derives from the scenario seed.

Schema sketch (all names are scenario-local references):

    {
      "schema_version": 1,
      "name": "...", "seed": 101,
      "limits": {"max_instructions": 4096, "max_branches": 256},
      "tenants": [{"name": "alpha", "key_seed": "<hex>"?, "public_key": "<hex>"?}],
      "sensors": [{"id": 1, "samples": [10, 20, 30]}],
      "hooks": [{"name": "...", "syscalls": [..], "return_policy": "...",
                 "context": [{"label": "...", "size": 16, "mode": "rw"}]}],
      "setup": [{"action": "install", "name": "...", "tenant": "...", "hook": "...",
                 "program": {"fixture"|"asm"|"hex"|"file": ...}, "contract": {...}},
                {"action": "update", "tenant": "...", "hook": "...", "sequence": 2,
                 "program": {...}, "contract": {...}}],
      "events": [{"at_ms": 10, "kind": "trigger", "hook": "...",
                  "payload": {"ctx": {"u64": [1, 2]}}}],
      "assertions": [{"after_event": 0 | "final", "check": {...}}]
    }

Check kinds: store / context / policy / fault / no_fault / return.
"""

from __future__ import annotations

import hashlib
import json
import random
import struct
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any

from .asm import assemble
from .engine import Contract, ContextRegionSpec, Engine, ReturnPolicy, TriggerResult, parse_mode
from .facilities import SensorFixture
from .fixtures import fixture_program
from .isa import Program
from .update import apply_update, build_manifest, private_key_from_seed, public_key_raw, sign_manifest
from .verifier import VerifyLimits

SCHEMA_VERSION = 1


class ScenarioError(Exception):
    pass


class ParseError(ScenarioError):
    pass


class UnknownReference(ScenarioError):
    pass


def _parse_int(value: Any, what: str) -> int:
    if isinstance(value, bool):
        raise ParseError(f"{what} must be an integer")
    if isinstance(value, int):
        return value
    if isinstance(value, str):
        try:
            return int(value, 0)
        except ValueError:
            pass
    raise ParseError(f"{what} must be an integer, got {value!r}")


def _field(spec: Any, key: str, what: str, kind: type = object) -> Any:
    """The required field ``spec[key]``, which must be of type ``kind``."""
    if not isinstance(spec, dict):
        raise ParseError(f"{what} must be an object, got {spec!r}")
    if key not in spec:
        raise ParseError(f"{what} is missing {key!r}")
    value = spec[key]
    if not isinstance(value, kind):
        raise ParseError(f"{what} {key!r} must be a {kind.__name__}, got {value!r}")
    return value


def _entries(spec: dict, key: str) -> list:
    """The optional list ``spec[key]``, empty when absent."""
    value = spec.get(key, [])
    if not isinstance(value, list):
        raise ParseError(f"{key!r} must be a list, got {value!r}")
    return value


def _parse_contract(data: Any) -> Contract:
    try:
        return Contract.from_json(data)
    except ValueError as exc:
        raise ParseError(f"contract: {exc}") from None


def _parse_payload_value(value: Any, what: str) -> bytes:
    if isinstance(value, dict):
        if "u64" in value:
            return struct.pack(f"<{len(value['u64'])}Q", *[v & ((1 << 64) - 1) for v in value["u64"]])
        if "hex" in value:
            return bytes.fromhex(value["hex"])
        if "bytes" in value:
            return bytes(value["bytes"])
    raise ParseError(f"{what}: expected one of u64/hex/bytes, got {value!r}")


class ScenarioRuntime:
    """A scenario's engine plus the name->id maps the file's references use."""

    def __init__(self, doc: dict, base_dir: Path | None = None):
        if not isinstance(doc, dict):
            raise ParseError("scenario must be a JSON object")
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise ParseError(f"unsupported schema_version {doc.get('schema_version')!r}")
        self.doc = doc
        self.base_dir = base_dir or Path.cwd()
        self.seed = _parse_int(doc.get("seed", 0), "seed")
        limits = doc.get("limits") or {}
        self.limits = VerifyLimits(
            _parse_int(limits.get("max_instructions", 4096), "max_instructions"),
            _parse_int(limits.get("max_branches", 256), "max_branches"),
        )
        self.engine = Engine(limits=self.limits, rng=random.Random(self.seed))
        self.tenant_ids: dict[str, Any] = {}
        self.tenant_keys: dict[str, Any] = {}
        self.hook_ids: dict[str, Any] = {}
        self.container_ids: dict[str, Any] = {}
        self.setup_results: list[dict] = []
        self._build()

    # -- construction -------------------------------------------------

    def _derive_key(self, name: str, spec: dict):
        if "public_key" in spec:
            return None, bytes.fromhex(spec["public_key"])
        if "key_seed" in spec:
            private = private_key_from_seed(bytes.fromhex(spec["key_seed"]))
        else:
            private = private_key_from_seed(
                hashlib.sha256(f"{self.seed}:{name}".encode()).digest()
            )
        return private, public_key_raw(private)

    def _build(self) -> None:
        doc = self.doc
        for spec in _entries(doc, "tenants"):
            name = _field(spec, "name", "tenant", str)
            if name in self.tenant_ids:
                raise ParseError(f"duplicate tenant name {name!r}")
            private, public = self._derive_key(name, spec)
            self.tenant_keys[name] = private
            self.tenant_ids[name] = self.engine.register_tenant(name, public)
        for spec in _entries(doc, "sensors"):
            sensor_id = _parse_int(_field(spec, "id", "sensor"), "sensor id")
            samples = [_parse_int(s, "sensor sample") for s in _field(spec, "samples", "sensor", list)]
            self.engine.facilities.sensors[sensor_id] = SensorFixture(sensor_id, samples)
        for spec in _entries(doc, "hooks"):
            name = _field(spec, "name", "hook", str)
            template = []
            for region in _entries(spec, "context"):
                label = _field(region, "label", "context region", str)
                size = _parse_int(_field(region, "size", "context region"), "region size")
                try:
                    readable, writable = parse_mode(region.get("mode", "r"))
                except ValueError as exc:
                    raise ParseError(f"context region {label!r}: {exc}") from None
                template.append(ContextRegionSpec(label, size, readable, writable))
            self.hook_ids[name] = self.engine.register_hook(
                name,
                [_parse_int(s, "hook syscall") for s in _entries(spec, "syscalls")],
                template,
                spec.get("return_policy", ReturnPolicy.IGNORE_ALL),
            )
        for index, action in enumerate(_entries(doc, "setup")):
            self._run_setup_action(index, action)

    def _tenant(self, name: str):
        try:
            return self.tenant_ids[name]
        except KeyError:
            raise UnknownReference(f"unknown tenant {name!r}") from None

    def _hook(self, name: str):
        try:
            return self.hook_ids[name]
        except KeyError:
            raise UnknownReference(f"unknown hook {name!r}") from None

    def _container(self, name: str):
        try:
            return self.container_ids[name]
        except KeyError:
            raise UnknownReference(f"unknown container {name!r}") from None

    def _program(self, spec: dict) -> Program:
        if not isinstance(spec, dict):
            raise ParseError(f"program must be an object, got {spec!r}")
        if "fixture" in spec:
            try:
                return fixture_program(spec["fixture"])
            except KeyError:
                raise UnknownReference(f"unknown fixture {spec['fixture']!r}") from None
        if "asm" in spec:
            text = spec["asm"]
            if isinstance(text, list):
                text = "\n".join(text)
            return assemble(text)
        if "hex" in spec:
            return Program.from_bytes(bytes.fromhex(spec["hex"]))
        if "file" in spec:
            path = (self.base_dir / spec["file"]).resolve()
            if path.suffix == ".asm":
                return assemble(path.read_text())
            return Program.from_bytes(path.read_bytes())
        raise ParseError(f"program needs one of fixture/asm/hex/file: {spec!r}")

    def _run_setup_action(self, index: int, action: dict) -> None:
        what = f"setup action {index}"
        kind = _field(action, "action", what)
        if kind == "install":
            container_id = self.engine.install_container(
                self._tenant(_field(action, "tenant", what, str)),
                self._program(_field(action, "program", what, dict)),
                _parse_contract(action.get("contract", {})),
                self._hook(_field(action, "hook", what, str)),
            )
            name = action.get("name", f"container{index}")
            if name in self.container_ids:
                raise ParseError(f"duplicate container name {name!r}")
            self.container_ids[name] = container_id
            self.setup_results.append(
                {"action": "install", "name": name, "container_id": str(container_id)}
            )
        elif kind == "update":
            tenant_name = _field(action, "tenant", what, str)
            private = self.tenant_keys.get(tenant_name)
            if private is None:
                raise UnknownReference(f"tenant {tenant_name!r} has no signing key in this scenario")
            payload = self._program(_field(action, "program", what, dict)).to_bytes()
            manifest = sign_manifest(
                build_manifest(
                    self._tenant(tenant_name),
                    self._hook(_field(action, "hook", what, str)),
                    _parse_int(_field(action, "sequence", what), "update sequence"),
                    payload,
                    _parse_contract(action.get("contract", {})),
                ),
                private,
            )
            outcome = apply_update(self.engine, manifest, payload)
            entry = {
                "action": "update",
                "tenant": tenant_name,
                "hook": action["hook"],
                "accepted": outcome.accepted,
                "reason": outcome.reason.value if outcome.reason else None,
            }
            if outcome.accepted:
                entry["container_id"] = str(outcome.container_id)
                name = action.get("name")
                if name:
                    self.container_ids[name] = outcome.container_id
            self.setup_results.append(entry)
        else:
            raise ParseError(f"setup action must be install or update, got {kind!r}")

    # -- events ---------------------------------------------------------

    def parse_events(self) -> list[dict]:
        events = _entries(self.doc, "events")
        last_at = None
        for index, event in enumerate(events):
            _field(event, "hook", f"event {index}", str)
            at_ms = _parse_int(event.get("at_ms", 0), "at_ms")
            if last_at is not None and at_ms < last_at:
                raise ParseError("events must be sorted by at_ms")
            last_at = at_ms
            if event.get("kind", "trigger") != "trigger":
                raise ParseError(f"unknown event kind {event.get('kind')!r}")
        return events

    def fire(self, event: dict) -> TriggerResult:
        at_ms = _parse_int(event.get("at_ms", 0), "at_ms")
        self.engine.facilities.clock.advance_to(at_ms)
        payload = {
            label: _parse_payload_value(value, f"payload {label!r}")
            for label, value in (event.get("payload") or {}).items()
        }
        return self.engine.trigger_hook(self._hook(event["hook"]), payload)


@dataclass(frozen=True)
class ScenarioReport:
    data: dict

    @property
    def passed(self) -> bool:
        return self.data["passed"]

    def to_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, separators=(",", ":")) + "\n"


def _container_name_index(runtime: ScenarioRuntime) -> dict:
    return {cid: name for name, cid in runtime.container_ids.items()}


def _event_report(runtime: ScenarioRuntime, index: int, event: dict, result: TriggerResult) -> dict:
    names = _container_name_index(runtime)
    containers = []
    for slot in result.outcomes:
        entry: dict[str, Any] = {
            "name": names.get(slot.container_id, str(slot.container_id)),
            "container_id": str(slot.container_id),
        }
        if slot.outcome is None:
            entry["verify_rejected"] = [e.kind.value for e in slot.verify_errors]
        else:
            entry["return_value"] = slot.outcome.return_value
            entry["executed"] = slot.outcome.executed
            entry["branches_taken"] = slot.outcome.branches_taken
            entry["fault"] = slot.outcome.fault.kind.value if slot.outcome.fault else None
        containers.append(entry)
    return {
        "index": index,
        "at_ms": _parse_int(event.get("at_ms", 0), "at_ms"),
        "hook": event["hook"],
        "policy_value": result.policy_value,
        "containers": containers,
        "context_after": {label: data.hex() for label, data in result.context_after.items()},
    }


def _check_store(runtime: ScenarioRuntime, check: dict) -> tuple[bool, str]:
    scope = check.get("scope", "container")
    stores = runtime.engine.facilities.stores
    if scope == "container":
        store = stores.container_stores.get(runtime._container(check["container"]))
    elif scope == "tenant":
        store = stores.tenant_stores.get(runtime._tenant(check["tenant"]))
    elif scope == "global":
        store = stores.global_store
    else:
        raise ParseError(f"unknown store scope {scope!r}")
    key = _parse_int(check["key"], "store key")
    actual = store.get(key) if store is not None else 0
    expected = _parse_int(check["equals"], "store value")
    return actual == expected, f"{scope} store key {key}: expected {expected}, got {actual}"


def _check_against_result(
    runtime: ScenarioRuntime, check: dict, result: TriggerResult | None
) -> tuple[bool, str]:
    kind = check["kind"]
    if kind == "store":
        return _check_store(runtime, check)
    if result is None:
        return False, f"check {kind!r} needs a preceding event"
    if kind == "context":
        label = check["label"]
        data = result.context_after.get(label)
        if data is None:
            return False, f"no context region {label!r} on that hook"
        offset = _parse_int(check.get("offset", 0), "context offset")
        if offset + 8 > len(data):
            return False, f"context {label!r} too short for u64 at offset {offset}"
        actual = struct.unpack_from("<Q", data, offset)[0]
        expected = _parse_int(check["u64_equals"], "context value") & ((1 << 64) - 1)
        return actual == expected, f"context {label!r}@{offset}: expected {expected}, got {actual}"
    if kind == "policy":
        expected = check.get("equals")
        if expected is not None:
            expected = _parse_int(expected, "policy value")
        actual = result.policy_value
        return actual == expected, f"policy value: expected {expected}, got {actual}"
    if kind in ("fault", "no_fault", "return"):
        target = runtime._container(check["container"])
        slot = next((s for s in result.outcomes if s.container_id == target), None)
        if slot is None:
            return False, f"container {check['container']!r} did not run in that event"
        if kind == "return":
            if slot.outcome is None:
                return False, "container was rejected at verification"
            expected = _parse_int(check["equals"], "return value") & ((1 << 64) - 1)
            actual = slot.outcome.return_value
            return actual == expected, f"return value: expected {expected}, got {actual}"
        fault = slot.outcome.fault if slot.outcome is not None else None
        if kind == "no_fault":
            ok = slot.outcome is not None and fault is None
            return ok, "no fault" if ok else f"faulted with {fault.kind.value if fault else 'verify reject'}"
        expected_kind = check.get("fault_kind")
        if fault is None:
            return False, "expected a fault, run was clean"
        if expected_kind and fault.kind.value != expected_kind:
            return False, f"expected fault {expected_kind}, got {fault.kind.value}"
        return True, f"faulted with {fault.kind.value} as expected"
    raise ParseError(f"unknown check kind {kind!r}")


def run_scenario(source: str | Path | dict, base_dir: Path | None = None) -> ScenarioReport:
    """Execute a scenario and evaluate its assertions.

    Assertion failures do not raise; they are recorded in the report and
    reflected in ``report.passed``.  Malformed files raise ParseError and
    dangling names raise UnknownReference.
    """
    if isinstance(source, (str, Path)):
        path = Path(source)
        if base_dir is None:
            base_dir = path.parent
        try:
            doc = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}: {exc}") from None
        name = doc.get("name", path.stem) if isinstance(doc, dict) else path.stem
    else:
        doc = source
        name = doc.get("name", "scenario")

    runtime = ScenarioRuntime(doc, base_dir)
    events = runtime.parse_events()

    by_index: dict[Any, list[dict]] = {}
    for index, assertion in enumerate(_entries(doc, "assertions")):
        check = _field(assertion, "check", f"assertion {index}", dict)
        _field(check, "kind", f"assertion {index} check", str)
        by_index.setdefault(assertion.get("after_event", "final"), []).append(assertion)

    event_reports: list[dict] = []
    assertion_reports: list[dict] = []
    last_result: TriggerResult | None = None

    def evaluate(slot_key: Any, result: TriggerResult | None) -> None:
        for assertion in by_index.get(slot_key, ()):
            ok, detail = _check_against_result(runtime, assertion["check"], result)
            assertion_reports.append(
                {
                    "after_event": assertion.get("after_event", "final"),
                    "check": assertion["check"],
                    "ok": ok,
                    "detail": detail,
                }
            )

    for index, event in enumerate(events):
        result = runtime.fire(event)
        last_result = result
        event_reports.append(_event_report(runtime, index, event, result))
        evaluate(index, result)
    evaluate("final", last_result)

    stats = [c["stats"] for c in runtime.engine.introspection()["containers"]]
    report = {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "seed": runtime.seed,
        "setup": runtime.setup_results,
        "events": event_reports,
        "assertions": assertion_reports,
        "passed": all(a["ok"] for a in assertion_reports),
        "engine": runtime.engine.introspection(),
        "stores": runtime.engine.store_dump(),
        "totals": {
            "runs": sum(s["runs"] for s in stats),
            "faults": sum(s["faults"] for s in stats),
            "executed": sum(s["total_executed"] for s in stats),
        },
    }
    return ScenarioReport(report)


def bundled_scenario_path(name: str) -> Path:
    """Path to a scenario shipped with the package (name without .json)."""
    base = resources.files(__package__) / "scenarios" / f"{name}.json"
    with resources.as_file(base) as path:
        return Path(path)
