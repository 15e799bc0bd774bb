"""Strict documents: one set of readers (``femtoc.doc``) reads scenarios,
contracts and manifest envelopes, integer readers refuse JSON booleans, and
an object with a key its reader does not read does not load, whichever
object of the document it is."""

import json
import uuid

import pytest
from hypothesis import given
from hypothesis import strategies as st

from femtoc.asm import assemble
from femtoc.doc import ParseError, integer, literal, literals, obj, u32s
from femtoc.engine import Contract, RegionGrant, read_contract
from femtoc.scenario import bundled_scenario_path, run_scenario
from femtoc.update import build_manifest, manifest_from_json, manifest_to_json, private_key_from_seed, sign_manifest

BUNDLED = ("threadcount", "sensor_coap", "malicious_tenant")
CONTRACT = Contract.of({1, 2, 0x20}, [RegionGrant("response", True, True), RegionGrant("request")])


def _envelope() -> dict:
    payload = assemble("mov64 r0, 5\nexit").to_bytes()
    manifest = build_manifest(uuid.UUID(int=1), uuid.UUID(int=2), 7, payload, CONTRACT)
    return manifest_to_json(sign_manifest(manifest, private_key_from_seed(b"doc test key")))


# document -> (its JSON, its loader, how errors name its root, how they prefix the paths below it)
DOCUMENTS = {
    **{
        f"scenario {name}": (json.loads(bundled_scenario_path(name).read_text()), run_scenario, "scenario", "")
        for name in BUNDLED
    },
    "manifest envelope": (_envelope(), manifest_from_json, "manifest envelope", ""),
    "contract": (CONTRACT.to_json(), lambda data: read_contract(data, "contract"), "contract", "contract"),
}


def _objects(doc, steps=()):
    """(steps, object) for every JSON object in ``doc``, the root first."""
    if isinstance(doc, dict):
        yield steps, doc
        for key, value in doc.items():
            yield from _objects(value, steps + (key,))
    elif isinstance(doc, list):
        for index, value in enumerate(doc):
            yield from _objects(value, steps + (index,))


def _path(steps, prefix: str) -> str:
    """How the readers name the object at ``steps``: keys joined by dots,
    indices in brackets, and a payload's labels, which are free text, quoted."""
    path = prefix
    for previous, step in zip((None, *steps), steps):
        if isinstance(step, int):
            path += f"[{step}]"
        elif previous == "payload":
            path += f" {step!r}"
        else:
            path = f"{path}.{step}" if path else step
    return path


def _at(doc, steps):
    for step in steps:
        doc = doc[step]
    return doc


@pytest.mark.parametrize("document", sorted(DOCUMENTS))
def test_each_document_loads_as_it_is(document):
    doc, load, _, _ = DOCUMENTS[document]
    load(json.loads(json.dumps(doc)))


@pytest.mark.parametrize("document", sorted(DOCUMENTS))
@given(data=st.data())
def test_a_key_no_reader_reads_fails_the_load_naming_the_key_and_its_path(document, data):
    doc, load, root, prefix = DOCUMENTS[document]
    steps, _ = data.draw(st.sampled_from(list(_objects(doc))), label="object")
    key = data.draw(st.text(max_size=6).map(lambda text: "~" + text), label="key")  # no reader reads "~"
    value = data.draw(st.sampled_from([0, "", None, [], {}, True]), label="value")
    broken = json.loads(json.dumps(doc))
    _at(broken, steps)[key] = value
    with pytest.raises(ValueError) as caught:
        load(broken)
    assert isinstance(caught.value, ParseError)
    message = str(caught.value)
    assert repr(key) in message and (_path(steps, prefix) or root) in message, message


# -- the readers ------------------------------------------------------------


def test_integer_readers_refuse_booleans():
    spec = {"yes": True, "no": False, "hex": "0x10", "one": 1}
    for key in ("yes", "no"):
        with pytest.raises(ParseError, match=f"x '{key}' must be an integer"):
            literal(spec, key, "x")
        with pytest.raises(ParseError, match=f"x '{key}' must be an integer"):
            integer(spec, key, "x")
    with pytest.raises(ParseError, match="sample must be an integer$"):
        literals([1, True], "sample")
    with pytest.raises(ParseError, match="helper id must be a u32, got False"):
        u32s([1, False], "helper id")


def test_a_literal_takes_an_integer_literal_string_and_an_integer_takes_only_json_integers():
    spec = {"hex": "0x10", "one": 1, "float": 1.0}
    assert literal(spec, "hex", "x") == 16 and literal(spec, "one", "x") == 1
    assert integer(spec, "one", "x") == 1
    for key in ("hex", "float"):
        with pytest.raises(ParseError, match=f"x '{key}' must be an integer, got"):
            integer(spec, key, "x")
    with pytest.raises(ParseError, match="x 'float' must be an integer, got 1.0"):
        literal(spec, "float", "x")
    assert literals([1, "0x10", "-2"], "sample") == [1, 16, -2]
    assert u32s(["0x10", 0, (1 << 32) - 1], "helper id") == {16, 0, (1 << 32) - 1}


def test_the_object_reader_names_one_unknown_key_and_refuses_what_is_not_an_object():
    assert obj({"a": 1}, "p", {"a", "b"}) == {"a": 1}
    with pytest.raises(ParseError, match=r"^p\.q\[0\]: unknown key 'c'$"):
        obj({"a": 1, "c": 2}, "p.q[0]", {"a", "b"})
    for value in ([], "a", 5, None):
        with pytest.raises(ParseError, match="p must be an object"):
            obj(value, "p", {"a"})
