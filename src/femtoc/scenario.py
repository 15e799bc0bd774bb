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
from typing import Any, Callable

from .asm import assemble
from .engine import (
    BadPublicKey, Contract, ContextRegionSpec, DuplicateHookName, Engine, EngineError, ReturnPolicy, TriggerResult,
    parse_mode,
)
from .facilities import SensorFixture
from .fixtures import fixture_program
from .isa import Program
from .update import apply_update, build_manifest, private_key_from_seed, public_key_raw, sign_manifest
from .verifier import DEFAULT_MAX_BRANCHES, DEFAULT_MAX_INSTRUCTIONS, MASK64, VerifyLimits, VerifyRejected
from .vm import FaultKind

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


def _optional(spec: dict, key: str, what: str, kind: type, default: Any) -> Any:
    """The optional field ``spec[key]``, which must be of type ``kind``."""
    return _field(spec, key, what, kind) if key in spec else default


def _parse_hex(spec: dict, key: str, what: str) -> bytes:
    """The hex string field ``spec[key]`` as bytes."""
    try:
        return bytes.fromhex(_field(spec, key, what, str))
    except ValueError:
        raise ParseError(f"{what} {key!r} must be hex, got {spec[key]!r}") from None


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
        words, data = value.get("u64"), value.get("bytes")
        try:
            if isinstance(words, list) and all(type(word) is int for word in words):  # not bool
                return struct.pack(f"<{len(words)}Q", *[word & MASK64 for word in words])
            if "hex" in value:
                return bytes.fromhex(value["hex"])
            if isinstance(data, list) and all(type(byte) is int for byte in data):
                return bytes(data)
        except (TypeError, ValueError):
            pass
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
        if not isinstance(limits, dict):
            raise ParseError(f"'limits' must be an object, got {limits!r}")
        try:
            self.limits = VerifyLimits(
                _parse_int(limits.get("max_instructions", DEFAULT_MAX_INSTRUCTIONS), "max_instructions"),
                _parse_int(limits.get("max_branches", DEFAULT_MAX_BRANCHES), "max_branches"),
            )
        except ValueError as exc:
            raise ParseError(f"'limits': {exc}") from None
        self.engine = Engine(limits=self.limits, rng=random.Random(self.seed))
        self.tenant_ids: dict[str, Any] = {}
        self.tenant_keys: dict[str, Any] = {}
        self.hook_ids: dict[str, Any] = {}
        self.container_ids: dict[str, Any] = {}
        self._ids = {"tenant": self.tenant_ids, "hook": self.hook_ids, "container": self.container_ids}
        self.setup_results: list[dict] = []
        self._build()

    # -- construction -------------------------------------------------

    def _derive_key(self, name: str, spec: dict):
        if "public_key" in spec:
            return None, _parse_hex(spec, "public_key", f"tenant {name!r}")
        if "key_seed" in spec:
            private = private_key_from_seed(_parse_hex(spec, "key_seed", f"tenant {name!r}"))
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
            try:
                self.tenant_ids[name] = self.engine.register_tenant(name, public)
            except BadPublicKey as exc:
                raise ParseError(str(exc)) from None
        for spec in _entries(doc, "sensors"):
            sensor_id = _parse_int(_field(spec, "id", "sensor"), "sensor id")
            samples = _field(spec, "samples", "sensor", list)
            if set(map(type, samples)) <= {int}:  # plain ints: read in one pass
                samples = samples.copy()
            else:
                samples = [_parse_int(s, "sensor sample") for s in samples]
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
            syscalls = [_parse_int(s, "hook syscall") for s in _entries(spec, "syscalls")]
            try:
                self.hook_ids[name] = self.engine.register_hook(
                    name, syscalls, template, spec.get("return_policy", ReturnPolicy.IGNORE_ALL)
                )
            except DuplicateHookName:
                raise ParseError(f"duplicate hook name {name!r}") from None
            except ValueError as exc:
                raise ParseError(f"hook {name!r}: {exc}") from None
        for index, action in enumerate(_entries(doc, "setup")):
            try:
                self._run_setup_action(index, action)
            except (EngineError, VerifyRejected) as exc:  # a full hook or an unverifiable program, say
                raise ParseError(f"setup action {index}: {exc}") from None

    def _ref(self, kind: str, spec: dict, what: str):
        """The id of the tenant, hook or container (``kind``) that ``spec[kind]`` names."""
        name = _field(spec, kind, what, str)
        try:
            return self._ids[kind][name]
        except KeyError:
            raise UnknownReference(f"unknown {kind} {name!r}") from None

    def _program(self, spec: dict) -> Program:
        if not isinstance(spec, dict):
            raise ParseError(f"program must be an object, got {spec!r}")
        if "fixture" in spec:
            name = _field(spec, "fixture", "program", str)
            try:
                return fixture_program(name)
            except KeyError:
                raise UnknownReference(f"unknown fixture {name!r}") from None
        if "asm" in spec:
            text = spec["asm"]
            if isinstance(text, list) and all(isinstance(line, str) for line in text):
                text = "\n".join(text)
            if not isinstance(text, str):
                raise ParseError(f"program 'asm' must be a string or a list of strings, got {text!r}")
            return assemble(text)
        if "hex" in spec:
            return Program.from_bytes(_parse_hex(spec, "hex", "program"))
        if "file" in spec:
            path = (self.base_dir / _field(spec, "file", "program", str)).resolve()
            if path.suffix == ".asm":
                return assemble(path.read_text())
            return Program.from_bytes(path.read_bytes())
        raise ParseError(f"program needs one of fixture/asm/hex/file: {spec!r}")

    def _run_setup_action(self, index: int, action: dict) -> None:
        what = f"setup action {index}"
        kind = _field(action, "action", what)
        if kind == "install":
            container_id = self.engine.install_container(
                self._ref("tenant", action, what),
                self._program(_field(action, "program", what, dict)),
                _parse_contract(action.get("contract", {})),
                self._ref("hook", action, what),
            )
            name = _optional(action, "name", what, str, f"container{index}")
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
            name = _optional(action, "name", what, str, None)
            tenant_id, hook_id = self._ref("tenant", action, what), self._ref("hook", action, what)
            replaced = self.engine.tenant_container_on_hook(tenant_id, hook_id)  # None: installs
            if self.container_ids.get(name, replaced) != replaced:
                raise ParseError(f"duplicate container name {name!r}")
            payload = self._program(_field(action, "program", what, dict)).to_bytes()
            manifest = build_manifest(
                tenant_id,
                hook_id,
                _parse_int(_field(action, "sequence", what), "update sequence"),
                payload,
                _parse_contract(action.get("contract", {})),
            )
            try:
                manifest = sign_manifest(manifest, private)
            except ValueError as exc:
                raise ParseError(f"{what}: {exc}") from None
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
                if name:
                    self.container_ids[name] = outcome.container_id
            self.setup_results.append(entry)
        else:
            raise ParseError(f"setup action must be install or update, got {kind!r}")

    # -- events ---------------------------------------------------------

    def _event(self, event: dict, what: str) -> tuple[int, Any, dict[str, bytes]]:
        """``event`` as (at_ms, hook id, payload bytes by label), checked against its hook."""
        hook_id = self._ref("hook", event, what)
        context = self.engine.hooks[hook_id].context
        payload = {}
        for label, value in _optional(event, "payload", what, dict, {}).items():
            payload[label] = data = _parse_payload_value(value, f"{what} payload {label!r}")
            region = context.get(label)
            if region is None or len(data) != region.length:
                sizes = {name: known.length for name, known in context.items()}
                raise ParseError(f"{what} payload {label!r} does not fit the context {sizes} of its hook")
        return _parse_int(event.get("at_ms", 0), "at_ms"), hook_id, payload

    def parse_events(self) -> list[dict]:
        """The events, each checked against its hook before any fires."""
        events = _entries(self.doc, "events")
        last_at = None
        for index, event in enumerate(events):
            at_ms, _, _ = self._event(event, f"event {index}")
            if last_at is not None and at_ms < last_at:
                raise ParseError("events must be sorted by at_ms")
            last_at = at_ms
            if event.get("kind", "trigger") != "trigger":
                raise ParseError(f"unknown event kind {event.get('kind')!r}")
        return events

    def fire(self, event: dict) -> TriggerResult:
        at_ms, hook_id, payload = self._event(event, "event")
        self.engine.facilities.clock.advance_to(at_ms)
        return self.engine.trigger_hook(hook_id, payload)


@dataclass(frozen=True)
class ScenarioReport:
    data: dict

    @property
    def passed(self) -> bool:
        return self.data["passed"]

    def to_json(self) -> str:
        return json.dumps(self.data, sort_keys=True, separators=(",", ":")) + "\n"


def _event_report(runtime: ScenarioRuntime, index: int, event: dict, result: TriggerResult) -> dict:
    names = {cid: name for name, cid in runtime.container_ids.items()}
    containers = []
    for slot in result.outcomes:
        outcome = slot.outcome
        containers.append(
            {
                "name": names.get(slot.container_id, str(slot.container_id)),
                "container_id": str(slot.container_id),
                "return_value": outcome.return_value,
                "executed": outcome.executed,
                "branches_taken": outcome.branches_taken,
                "fault": outcome.fault.kind.value if outcome.fault else None,
            }
        )
    return {
        "index": index,
        "at_ms": _parse_int(event.get("at_ms", 0), "at_ms"),
        "hook": event["hook"],
        "policy_value": result.policy_value,
        "containers": containers,
        "context_after": {label: data.hex() for label, data in result.context_after.items()},
    }


# check kind -> the fields its reader reads besides "kind"; a store check
# also reads the owner its scope names, "container" or "tenant"
_CHECK_FIELDS = {
    "store": ("scope", "key", "equals"),
    "context": ("label", "offset", "u64_equals"),
    "policy": ("equals",),
    "fault": ("container", "fault_kind"),
    "no_fault": ("container",),
    "return": ("container", "equals"),
}


def _parse_check(
    runtime: ScenarioRuntime, check: dict, what: str
) -> Callable[[TriggerResult | None], tuple[bool, str]]:
    """Check an assertion's fields before any event fires, refusing any
    field its kind does not read. Returns the function that evaluates it on
    the result of the event it follows, which only a store check can do
    without an event."""
    kind = _field(check, "kind", what, str)
    if kind not in _CHECK_FIELDS:
        raise ParseError(f"unknown check kind {kind!r}")
    reads = {"kind", *_CHECK_FIELDS[kind]}
    if kind == "store":
        scope = _optional(check, "scope", what, str, "container")
        if scope not in ("container", "tenant", "global"):
            raise ParseError(f"{what} 'scope': unknown store scope {scope!r}")
        if scope != "global":
            reads.add(scope)
    for key in check:
        if key not in reads:
            raise ParseError(f"{what}: a {kind!r} check has no field {key!r}")
    if kind == "store":
        stores = runtime.engine.facilities.stores
        if scope == "container":
            owners, owner = stores.container_stores, runtime._ref("container", check, what)
        elif scope == "tenant":
            owners, owner = stores.tenant_stores, runtime._ref("tenant", check, what)
        else:
            owners, owner = {None: stores.global_store}, None
        key = _parse_int(_field(check, "key", what), "store key")
        expected = _parse_int(_field(check, "equals", what), "store value")
        if not 0 <= key < 1 << 32:
            raise ParseError(f"{what} 'key' must be a u32, got {key}")

        def evaluate(result: TriggerResult | None) -> tuple[bool, str]:
            found = owners.get(owner)
            actual = found.get(key) if found is not None else 0
            return actual == expected, f"{scope} store key {key}: expected {expected}, got {actual}"

    elif kind == "context":
        label = _field(check, "label", what, str)
        offset = _parse_int(check.get("offset", 0), "context offset")
        if offset < 0:
            raise ParseError(f"{what} 'offset' must not be negative, got {offset}")
        expected = _parse_int(_field(check, "u64_equals", what), "context value") & MASK64

        def evaluate(result: TriggerResult) -> tuple[bool, str]:
            data = result.context_after.get(label)
            if data is None:
                return False, f"no context region {label!r} on that hook"
            if offset + 8 > len(data):
                return False, f"context {label!r} too short for u64 at offset {offset}"
            actual = struct.unpack_from("<Q", data, offset)[0]
            return actual == expected, f"context {label!r}@{offset}: expected {expected}, got {actual}"

    elif kind == "policy":
        expected = check.get("equals")
        if expected is not None:
            expected = _parse_int(expected, "policy value")

        def evaluate(result: TriggerResult) -> tuple[bool, str]:
            actual = result.policy_value
            return actual == expected, f"policy value: expected {expected}, got {actual}"

    else:  # fault, no_fault or return
        target = runtime._ref("container", check, what)
        if kind == "return":
            expected = _parse_int(_field(check, "equals", what), "return value") & MASK64
        expected_kind = check.get("fault_kind")
        if kind == "fault" and expected_kind not in (None, *(k.value for k in FaultKind)):
            raise ParseError(f"{what} 'fault_kind' must name a vm.FaultKind value, got {expected_kind!r}")

        def evaluate(result: TriggerResult) -> tuple[bool, str]:
            slot = next((s for s in result.outcomes if s.container_id == target), None)
            if slot is None:
                return False, f"container {check['container']!r} did not run in that event"
            if kind == "return":
                actual = slot.outcome.return_value
                return actual == expected, f"return value: expected {expected}, got {actual}"
            fault = slot.outcome.fault
            if kind == "no_fault":
                return fault is None, "no fault" if fault is None else f"faulted with {fault.kind.value}"
            if fault is None:
                return False, "expected a fault, run was clean"
            if expected_kind and fault.kind.value != expected_kind:
                return False, f"expected fault {expected_kind}, got {fault.kind.value}"
            return True, f"faulted with {fault.kind.value} as expected"

    return evaluate


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
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ParseError(f"{path}: {exc}") from None
        name = doc.get("name", path.stem) if isinstance(doc, dict) else path.stem
    else:
        doc = source
        name = doc.get("name", "scenario")

    runtime = ScenarioRuntime(doc, base_dir)
    events = runtime.parse_events()

    by_index: dict[Any, list[tuple[dict, Callable]]] = {}
    for index, assertion in enumerate(_entries(doc, "assertions")):
        check = _field(assertion, "check", f"assertion {index}", dict)
        after = assertion.get("after_event", "final")
        if after != "final" and (type(after) is not int or not 0 <= after < len(events)):
            raise ParseError(f"assertion {index} 'after_event' must be 'final' or an event index: {after!r}")
        evaluator = _parse_check(runtime, check, f"assertion {index} check")
        by_index.setdefault(after, []).append((assertion, evaluator))

    event_reports: list[dict] = []
    assertion_reports: list[dict] = []
    result: TriggerResult | None = None

    def evaluate(slot_key: Any, result: TriggerResult | None) -> None:
        for assertion, evaluator in by_index.get(slot_key, ()):
            kind = assertion["check"]["kind"]
            if result is None and kind != "store":
                ok, detail = False, f"check {kind!r} needs a preceding event"
            else:
                ok, detail = evaluator(result)
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
        event_reports.append(_event_report(runtime, index, event, result))
        evaluate(index, result)
    evaluate("final", result)

    engine = runtime.engine.introspection()
    stats = [c["stats"] for c in engine["containers"]]
    report = {
        "schema_version": SCHEMA_VERSION,
        "name": name,
        "seed": runtime.seed,
        "setup": runtime.setup_results,
        "events": event_reports,
        "assertions": assertion_reports,
        "passed": all(a["ok"] for a in assertion_reports),
        "engine": engine,
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
