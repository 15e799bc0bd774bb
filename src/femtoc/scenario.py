"""Deterministic scenario runner: JSON in, canonical JSON report out.

A scenario file describes a complete hosting session: hooks, tenants (with
deterministic signing keys), sensor fixtures, an ordered setup phase of
installs and signed updates, a timeline of events that advance the virtual
clock and fire hooks, and assertions pinned to event indices.  Running the
same file twice produces byte-identical reports; all randomness (ids, keys)
derives from the scenario seed.

Schema sketch (all names are scenario-local references; ``?`` marks an
optional key):

    {
      "schema_version": 1,
      "name": "..."?, "seed": 101?,
      "limits": {"max_instructions": 4096?, "max_branches": 256?}?,
      "tenants": [{"name": "alpha", "key_seed": "<hex>"?, "public_key": "<hex>"?}]?,
      "sensors": [{"id": 1, "samples": [10, 20, 30]}]?,
      "hooks": [{"name": "...", "syscalls": [..]?, "return_policy": "..."?,
                 "context": [{"label": "...", "size": 16, "mode": "rw"?}]?}]?,
      "setup": [{"action": "install", "name": "..."?, "tenant": "...", "hook": "...",
                 "program": {"fixture"|"asm"|"hex"|"file": ...}, "contract": {...}?},
                {"action": "update", "name": "..."?, "tenant": "...", "hook": "...",
                 "sequence": 2, "program": {...}, "contract": {...}?}]?,
      "events": [{"at_ms": 10?, "kind": "trigger"?, "hook": "...",
                  "payload": {"<label>": {"u64"|"hex"|"bytes": ...}}?}]?,
      "assertions": [{"after_event": 0 | "final"?, "check": {"kind": "...", ...}}]?
    }

A program names one source, a payload value one encoding, a tenant at most
one key, and a contract is {"syscalls": [..]?, "regions": [{"label": "...",
"mode": "r"?}]?}. Each check kind reads the keys ``_CHECK_FIELDS`` gives.
Any other key is a ParseError that names it and its path.
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
from .doc import ParseError, decoded, field, items, literal, literals, load, mode, obj, optional
from .engine import (
    BadPublicKey, ContextRegionSpec, DuplicateHookName, Engine, EngineError, ReturnPolicy, TriggerResult,
    read_contract,
)
from .facilities import SensorFixture
from .fixtures import fixture_program
from .isa import Program
from .update import apply_update, build_manifest, private_key_from_seed, public_key_raw, sign_manifest
from .verifier import MASK64, VerifyLimits, VerifyRejected
from .vm import FaultKind

SCHEMA_VERSION = 1

# the keys of the objects read often; the others are named where they are read
_INSTALL_KEYS = frozenset(("action", "name", "tenant", "hook", "program", "contract"))
_SETUP_KEYS = {"install": _INSTALL_KEYS, "update": _INSTALL_KEYS | {"sequence"}}
_PROGRAM_KEYS = frozenset(("fixture", "asm", "hex", "file"))
_EVENT_KEYS = frozenset(("at_ms", "kind", "hook", "payload"))
_ENCODINGS = frozenset(("u64", "hex", "bytes"))
_SCENARIO_KEYS = frozenset(
    ("schema_version", "name", "seed", "limits", "tenants", "sensors", "hooks", "setup", "events", "assertions")
)
_INT = {int}


class UnknownReference(Exception):
    pass


def _parse_payload_value(value: Any, what: str) -> bytes:
    encodings = obj(value, what, _ENCODINGS).items()
    try:
        [(encoding, data)] = encodings  # exactly one
        if encoding == "hex":
            return bytes.fromhex(data)
        if type(data) is list and set(map(type, data)) <= _INT:  # not bool
            return struct.pack(f"<{len(data)}Q", *map(MASK64.__and__, data)) if encoding == "u64" else bytes(data)
    except (TypeError, ValueError):
        pass
    raise ParseError(f"{what}: expected exactly one of u64/hex/bytes, got {value!r}")


class ScenarioRuntime:
    """A scenario's engine plus the name->id maps the file's references use."""

    def __init__(self, doc: dict, base_dir: Path | None = None):
        obj(doc, "scenario", _SCENARIO_KEYS)
        version = optional(doc, "schema_version", "", object, None)
        if type(version) is not int or version != SCHEMA_VERSION:  # JSON true == 1
            raise ParseError(f"unsupported schema_version {version!r}")
        self.doc = doc
        self.base_dir = base_dir or Path.cwd()
        self.seed = literal(doc, "seed", "") if "seed" in doc else 0
        limits = obj(optional(doc, "limits", "", dict, {}), "limits", {"max_instructions", "max_branches"})
        limits = {key: literal(limits, key, "limits") for key in limits}
        try:
            self.limits = VerifyLimits(**limits)
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

    def _build(self) -> None:
        doc = self.doc
        for path, spec in items(doc, "tenants", ""):
            name = field(obj(spec, path, {"name", "key_seed", "public_key"}), "name", path, str)
            if name in self.tenant_ids:
                raise ParseError(f"duplicate tenant name {name!r}")
            if "public_key" in spec and "key_seed" in spec:
                raise ParseError(f"{path} needs at most one of public_key/key_seed, got both")
            if "public_key" in spec:
                private, public = None, decoded(spec, "public_key", path, bytes.fromhex, "hex")
            else:
                seed = hashlib.sha256(f"{self.seed}:{name}".encode()).digest()  # unless the tenant names one
                seed = decoded(spec, "key_seed", path, bytes.fromhex, "hex") if "key_seed" in spec else seed
                private = private_key_from_seed(seed)
                public = public_key_raw(private)
            self.tenant_keys[name] = private
            try:
                self.tenant_ids[name] = self.engine.register_tenant(name, public)
            except BadPublicKey as exc:
                raise ParseError(str(exc)) from None
        for path, spec in items(doc, "sensors", ""):
            sensor_id = literal(obj(spec, path, {"id", "samples"}), "id", path)
            samples = literals(field(spec, "samples", path, list), "sensor sample")
            self.engine.facilities.sensors[sensor_id] = SensorFixture(sensor_id, samples)
        for path, spec in items(doc, "hooks", ""):
            name = field(obj(spec, path, {"name", "syscalls", "return_policy", "context"}), "name", path, str)
            template = [
                ContextRegionSpec(field(obj(region, at, {"label", "size", "mode"}), "label", at, str),
                                  literal(region, "size", at), *mode(region, at))
                for at, region in items(spec, "context", path)
            ]
            syscalls = optional(spec, "syscalls", path, list, [])
            policy = optional(spec, "return_policy", path, object, ReturnPolicy.IGNORE_ALL)
            try:
                self.hook_ids[name] = self.engine.register_hook(name, syscalls, template, policy)
            except DuplicateHookName:
                raise ParseError(f"duplicate hook name {name!r}") from None
            except ValueError as exc:
                raise ParseError(f"hook {name!r}: {exc}") from None
        for index, (path, action) in enumerate(items(doc, "setup", "")):
            try:
                self._run_setup_action(index, path, action)
            except (EngineError, VerifyRejected) as exc:  # a full hook or an unverifiable program, say
                raise ParseError(f"setup action {index}: {exc}") from None

    def _ref(self, kind: str, spec: dict, path: str):
        """The id of the tenant, hook or container (``kind``) that ``spec[kind]`` names."""
        try:
            return self._ids[kind][spec[kind]]  # every key is a str: field reads what misses
        except (KeyError, TypeError):
            raise UnknownReference(f"unknown {kind} {field(spec, kind, path, str)!r}") from None

    def _program(self, spec: Any, path: str) -> Program:
        if len(obj(spec, path, _PROGRAM_KEYS)) != 1:
            raise ParseError(f"{path} needs exactly one of fixture/asm/hex/file, got {spec!r}")
        if "fixture" in spec:
            name = field(spec, "fixture", path, str)
            try:
                return fixture_program(name)
            except KeyError:
                raise UnknownReference(f"unknown fixture {name!r}") from None
        if "asm" in spec:
            text = field(spec, "asm", path)
            if isinstance(text, list) and all(isinstance(line, str) for line in text):
                text = "\n".join(text)
            if not isinstance(text, str):
                raise ParseError(f"{path} 'asm' must be a string or a list of strings, got {text!r}")
            return assemble(text)
        if "hex" in spec:
            return Program.from_bytes(decoded(spec, "hex", path, bytes.fromhex, "hex"))
        file = (self.base_dir / field(spec, "file", path, str)).resolve()
        if file.suffix == ".asm":
            return assemble(file.read_text())
        return Program.from_bytes(file.read_bytes())

    def _run_setup_action(self, index: int, path: str, action: Any) -> None:
        kind = field(action, "action", path, str)
        if kind not in _SETUP_KEYS:
            raise ParseError(f"setup action must be install or update, got {kind!r}")
        obj(action, path, _SETUP_KEYS[kind])
        program = self._program(field(action, "program", path), f"{path}.program")
        contract = read_contract(optional(action, "contract", path, object, {}), f"{path}.contract")
        if kind == "install":
            container_id = self.engine.install_container(
                self._ref("tenant", action, path),
                program,
                contract,
                self._ref("hook", action, path),
            )
            name = optional(action, "name", path, str, f"container{index}")
            if name in self.container_ids:
                raise ParseError(f"duplicate container name {name!r}")
            self.container_ids[name] = container_id
            self.setup_results.append(
                {"action": "install", "name": name, "container_id": str(container_id)}
            )
        else:  # an update
            tenant_name = field(action, "tenant", path, str)
            private = self.tenant_keys.get(tenant_name)
            if private is None:
                raise UnknownReference(f"tenant {tenant_name!r} has no signing key in this scenario")
            name = optional(action, "name", path, str, None)
            tenant_id, hook_id = self._ref("tenant", action, path), self._ref("hook", action, path)
            replaced = self.engine.tenant_container_on_hook(tenant_id, hook_id)  # None: installs
            if self.container_ids.get(name, replaced) != replaced:
                raise ParseError(f"duplicate container name {name!r}")
            payload = program.to_bytes()
            manifest = build_manifest(
                tenant_id,
                hook_id,
                literal(action, "sequence", path),
                payload,
                contract,
            )
            try:
                manifest = sign_manifest(manifest, private)
            except ValueError as exc:
                raise ParseError(f"{path}: {exc}") from None
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

    # -- events ---------------------------------------------------------

    def _event(self, event: Any, path: str) -> tuple[int, Any, dict[str, bytes]]:
        """``event`` as (at_ms, hook id, payload bytes by label), checked against its hook."""
        obj(event, path, _EVENT_KEYS)
        if optional(event, "kind", path, object, "trigger") != "trigger":
            raise ParseError(f"unknown event kind {event['kind']!r}")
        at_ms = literal(event, "at_ms", path) if "at_ms" in event else 0
        if at_ms < 0:
            raise ParseError(f"{path} 'at_ms' must not be negative, got {at_ms}")
        hook_id = self._ref("hook", event, path)
        context = self.engine.hooks[hook_id].context
        payload = {}
        for label, value in optional(event, "payload", path, dict, {}).items():
            payload[label] = data = _parse_payload_value(value, f"{path}.payload {label!r}")
            region = context.get(label)
            if region is None or len(data) != region.length:
                sizes = {name: known.length for name, known in context.items()}
                raise ParseError(f"{path}.payload {label!r} does not fit the context {sizes} of its hook")
        return at_ms, hook_id, payload

    def parse_events(self) -> list[tuple[int, Any, dict[str, bytes]]]:
        """The events as (at_ms, hook id, payload), each checked against its hook before any fires."""
        events = [self._event(event, path) for path, event in items(self.doc, "events", "")]
        if any(later[0] < earlier[0] for earlier, later in zip(events, events[1:])):
            raise ParseError("events must be sorted by at_ms")
        return events

    def fire(self, event: dict) -> TriggerResult:
        """Parse ``event`` as ``parse_events`` does, then trigger it."""
        return self._trigger(*self._event(event, "event"))

    def _trigger(self, at_ms: int, hook_id: Any, payload: dict[str, bytes]) -> TriggerResult:
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


def _event_report(runtime: ScenarioRuntime, names: dict, index: int, event: tuple, result: TriggerResult) -> dict:
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
        "at_ms": event[0],
        "hook": runtime.engine.hooks[event[1]].name,
        "policy_value": result.policy_value,
        "containers": containers,
        "context_after": {label: data.hex() for label, data in result.context_after.items()},
    }


# check kind -> the keys its reader reads, "kind" among them; a store check
# also reads the owner its scope names, "container" or "tenant"
_CHECK_FIELDS = {
    "store": frozenset(("kind", "scope", "key", "equals")),
    "context": frozenset(("kind", "label", "offset", "u64_equals")),
    "policy": frozenset(("kind", "equals")),
    "fault": frozenset(("kind", "container", "fault_kind")),
    "no_fault": frozenset(("kind", "container")),
    "return": frozenset(("kind", "container", "equals")),
}


def _parse_check(
    runtime: ScenarioRuntime, check: dict, path: str
) -> Callable[[TriggerResult | None], tuple[bool, str]]:
    """Check an assertion's fields before any event fires, refusing any
    field its kind does not read. Returns the function that evaluates it on
    the result of the event it follows, which only a store check can do
    without an event."""
    kind = field(check, "kind", path, str)
    if kind not in _CHECK_FIELDS:
        raise ParseError(f"unknown check kind {kind!r}")
    reads = _CHECK_FIELDS[kind]
    if kind == "store":
        scope = optional(check, "scope", path, str, "container")
        if scope not in ("container", "tenant", "global"):
            raise ParseError(f"{path} 'scope': unknown store scope {scope!r}")
        if scope != "global":
            reads |= {scope}
    obj(check, path, reads)
    if kind == "store":
        stores = runtime.engine.facilities.stores
        owner = None if scope == "global" else runtime._ref(scope, check, path)
        scopes = {"container": stores.container_stores, "tenant": stores.tenant_stores}
        owners = scopes.get(scope, {None: stores.global_store})
        key, expected = literal(check, "key", path), literal(check, "equals", path)
        if not 0 <= key < 1 << 32:
            raise ParseError(f"{path} 'key' must be a u32, got {key}")

        def evaluate(result: TriggerResult | None) -> tuple[bool, str]:
            found = owners.get(owner)
            actual = found.get(key) if found is not None else 0
            return actual == expected, f"{scope} store key {key}: expected {expected}, got {actual}"

    elif kind == "context":
        label = field(check, "label", path, str)
        offset = literal(check, "offset", path) if "offset" in check else 0
        if offset < 0:
            raise ParseError(f"{path} 'offset' must not be negative, got {offset}")
        expected = literal(check, "u64_equals", path) & MASK64

        def evaluate(result: TriggerResult) -> tuple[bool, str]:
            data = result.context_after.get(label)
            if data is None:
                return False, f"no context region {label!r} on that hook"
            if offset + 8 > len(data):
                return False, f"context {label!r} too short for u64 at offset {offset}"
            actual = struct.unpack_from("<Q", data, offset)[0]
            return actual == expected, f"context {label!r}@{offset}: expected {expected}, got {actual}"

    elif kind == "policy":
        expected = None if optional(check, "equals", path, object, None) is None else literal(check, "equals", path)

        def evaluate(result: TriggerResult) -> tuple[bool, str]:
            actual = result.policy_value
            return actual == expected, f"policy value: expected {expected}, got {actual}"

    else:  # fault, no_fault or return
        target = runtime._ref("container", check, path)
        if kind == "return":
            expected = literal(check, "equals", path) & MASK64
        expected_kind = optional(check, "fault_kind", path, object, None)
        if expected_kind not in (None, *(k.value for k in FaultKind)):
            raise ParseError(f"{path} 'fault_kind' must name a vm.FaultKind value, got {expected_kind!r}")

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
        doc = load(path)
        name = path.stem
    else:
        doc = source
        name = "scenario"

    runtime = ScenarioRuntime(doc, base_dir)
    name = optional(doc, "name", "", str, name)
    events = runtime.parse_events()

    by_index: dict[Any, list[tuple[Any, dict, Callable]]] = {}
    for path, assertion in items(doc, "assertions", ""):
        check = field(obj(assertion, path, {"after_event", "check"}), "check", path, dict)
        after = optional(assertion, "after_event", path, object, "final")
        if after != "final" and (type(after) is not int or not 0 <= after < len(events)):
            raise ParseError(f"{path} 'after_event' must be 'final' or an event index: {after!r}")
        by_index.setdefault(after, []).append((after, check, _parse_check(runtime, check, f"{path}.check")))

    event_reports: list[dict] = []
    assertion_reports: list[dict] = []
    result: TriggerResult | None = None

    def evaluate(slot_key: Any, result: TriggerResult | None) -> None:
        for after, check, evaluator in by_index.get(slot_key, ()):
            if result is None and check["kind"] != "store":
                ok, detail = False, f"check {check['kind']!r} needs a preceding event"
            else:
                ok, detail = evaluator(result)
            assertion_reports.append(
                {
                    "after_event": after,
                    "check": check,
                    "ok": ok,
                    "detail": detail,
                }
            )

    # Events only trigger hooks, so set-up has fixed every container's name.
    names = {cid: name for name, cid in runtime.container_ids.items()}
    for index, event in enumerate(events):
        result = runtime._trigger(*event)
        event_reports.append(_event_report(runtime, names, index, event, result))
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
