"""Signed update path: canonical byte form, the full reject matrix, rollback
protection, and atomic replace semantics."""

import hashlib
import json
import random
import struct
import uuid
from dataclasses import replace

import pytest

from femtoc.asm import assemble
from femtoc.engine import (
    Contract,
    ContextRegionSpec,
    Engine,
    RegionGrant,
    ReturnPolicy,
    SlotLimitReached,
)
from femtoc.update import (
    MANIFEST_VERSION,
    Manifest,
    UpdateReject,
    apply_update,
    build_manifest,
    canonical_bytes,
    generate_private_key,
    load_manifest,
    load_private_key,
    load_public_key_raw,
    manifest_from_json,
    manifest_to_json,
    private_key_from_seed,
    public_key_raw,
    save_manifest,
    save_private_key,
    save_public_key,
    sign_manifest,
)

RETURN_5 = assemble("mov64 r0, 5\nexit").to_bytes()
RETURN_9 = assemble("mov64 r0, 9\nexit").to_bytes()

ALPHA_KEY = private_key_from_seed(b"alpha update key")
BETA_KEY = private_key_from_seed(b"beta update key")


def fresh_engine():
    engine = Engine(rng=random.Random(0xD00D))
    alpha = engine.register_tenant("alpha", public_key_raw(ALPHA_KEY))
    beta = engine.register_tenant("beta", public_key_raw(BETA_KEY))
    hook = engine.register_hook(
        "timer.tick", {0x01, 0x02}, return_policy=ReturnPolicy.FIRST_NONZERO_WINS
    )
    return engine, hook, alpha, beta


def signed(tenant_id, hook_id, seq, payload, key, contract=Contract.of()):
    return sign_manifest(build_manifest(tenant_id, hook_id, seq, payload, contract), key)


# -- canonical byte form ----------------------------------------------


def test_canonical_layout_fixed_offsets():
    tenant = uuid.UUID(int=0xAA)
    hook = uuid.UUID(int=0xBB)
    payload = RETURN_5
    manifest = build_manifest(tenant, hook, 7, payload, Contract.of())
    raw = canonical_bytes(manifest)

    assert struct.unpack_from(">I", raw, 0)[0] == MANIFEST_VERSION
    assert struct.unpack_from(">Q", raw, 4)[0] == 7
    assert raw[12:28] == hook.bytes
    assert raw[28:44] == tenant.bytes
    assert raw[44:76] == hashlib.sha256(payload).digest()
    assert struct.unpack_from(">Q", raw, 76)[0] == len(payload)
    # empty contract: zero syscalls, zero region grants
    assert raw[84:] == struct.pack(">II", 0, 0)


def test_canonical_bytes_deterministic_across_construction_order():
    tenant, hook = uuid.uuid4(), uuid.uuid4()
    a = Contract.of({5, 1, 0x10}, [RegionGrant("resp", True, True), RegionGrant("req")])
    b = Contract.of([0x10, 1, 5], [RegionGrant("req"), RegionGrant("resp", True, True)])
    ma = build_manifest(tenant, hook, 1, RETURN_5, a)
    mb = build_manifest(tenant, hook, 1, RETURN_5, b)
    assert canonical_bytes(ma) == canonical_bytes(mb)


def test_sequence_flip_changes_only_its_field():
    tenant, hook = uuid.UUID(int=1), uuid.UUID(int=2)
    base = build_manifest(tenant, hook, 3, RETURN_5, Contract.of({1}))
    bumped = replace(base, sequence_number=4)
    a, b = canonical_bytes(base), canonical_bytes(bumped)
    assert len(a) == len(b)
    differing = [i for i in range(len(a)) if a[i] != b[i]]
    assert differing and all(4 <= i < 12 for i in differing)


def test_contract_encodes_sorted_syscalls_and_grant_modes():
    manifest = build_manifest(
        uuid.UUID(int=1),
        uuid.UUID(int=2),
        1,
        b"",
        Contract.of({9, 2}, [RegionGrant("out", readable=False, writable=True)]),
    )
    raw = canonical_bytes(manifest)
    count, first, second = struct.unpack_from(">III", raw, 84)
    assert (count, first, second) == (2, 2, 9)
    grant_count, label_len = struct.unpack_from(">IH", raw, 96)
    assert grant_count == 1 and label_len == 3
    assert raw[102:105] == b"out"
    assert raw[105] == 2  # write bit only


def test_signature_round_trip_and_tamper_detection():
    manifest = signed(uuid.UUID(int=1), uuid.UUID(int=2), 1, RETURN_5, ALPHA_KEY)
    pub = public_key_raw(ALPHA_KEY)
    ALPHA_KEY.public_key().verify(manifest.signature, canonical_bytes(manifest))
    tampered = replace(manifest, sequence_number=99)
    from cryptography.exceptions import InvalidSignature
    from cryptography.hazmat.primitives.asymmetric.ed25519 import Ed25519PublicKey

    with pytest.raises(InvalidSignature):
        Ed25519PublicKey.from_public_bytes(pub).verify(
            tampered.signature, canonical_bytes(tampered)
        )


# -- accept path -------------------------------------------------------


def test_accepted_update_installs_runnable_container():
    engine, hook, alpha, _ = fresh_engine()
    outcome = apply_update(engine, signed(alpha, hook, 1, RETURN_5, ALPHA_KEY), RETURN_5)
    assert outcome.accepted and outcome.reason is None
    assert outcome.container_id in engine.containers

    result = engine.trigger_hook(hook)
    assert result.policy_value == 5
    assert result.outcomes[0].outcome.return_value == 5


def test_update_replaces_same_tenant_container_in_place():
    engine, hook, alpha, _ = fresh_engine()
    first = apply_update(engine, signed(alpha, hook, 1, RETURN_5, ALPHA_KEY), RETURN_5)
    for seq, payload in ((2, RETURN_9), (3, RETURN_5), (4, RETURN_9)):
        outcome = apply_update(engine, signed(alpha, hook, seq, payload, ALPHA_KEY), payload)
        assert outcome.accepted
        assert outcome.container_id == first.container_id  # id survives the swap

    assert len(engine.containers) == 1
    assert list(engine.hooks[hook].slots) == [first.container_id]
    assert engine.trigger_hook(hook).policy_value == 9


def test_replace_resets_verification_stats_and_store():
    engine, hook, alpha, _ = fresh_engine()
    put_then_exit = assemble(
        "mov64 r1, 7\nmov64 r2, 3\ncall 0x01\nmov64 r0, 0\nexit"
    ).to_bytes()
    applied = apply_update(
        engine, signed(alpha, hook, 1, put_then_exit, ALPHA_KEY, Contract.of({0x01})),
        put_then_exit,
    )
    cid = applied.container_id
    engine.trigger_hook(hook)
    engine.trigger_hook(hook)
    assert engine.containers[cid].stats.runs == 2
    assert engine.containers[cid].stats.verify_count == 1
    assert engine.facilities.stores.container_stores[cid].get(7) == 3

    apply_update(engine, signed(alpha, hook, 2, RETURN_5, ALPHA_KEY), RETURN_5)
    container = engine.containers[cid]
    assert container.stats.runs == 0
    assert container.stats.verify_count == 0
    assert engine.facilities.stores.container_stores[cid].get(7) == 0  # wiped

    engine.trigger_hook(hook)
    assert container.stats.verify_count == 1  # re-verified once after swap


def test_distinct_tenants_occupy_distinct_slots():
    engine, hook, alpha, beta = fresh_engine()
    a = apply_update(engine, signed(alpha, hook, 1, RETURN_5, ALPHA_KEY), RETURN_5)
    b = apply_update(engine, signed(beta, hook, 1, RETURN_9, BETA_KEY), RETURN_9)
    assert a.accepted and b.accepted
    assert a.container_id != b.container_id
    assert list(engine.hooks[hook].slots) == [a.container_id, b.container_id]
    # beta updating its own container must not disturb alpha's
    b2 = apply_update(engine, signed(beta, hook, 2, RETURN_5, BETA_KEY), RETURN_5)
    assert b2.container_id == b.container_id
    assert engine.containers[a.container_id].program.to_bytes() == RETURN_5


def test_sequence_numbers_tracked_per_tenant_and_hook():
    engine, hook, alpha, beta = fresh_engine()
    # second hook requires setup still open, so build a fresh engine with two
    engine2 = Engine(rng=random.Random(5))
    alpha2 = engine2.register_tenant("alpha", public_key_raw(ALPHA_KEY))
    hook_a = engine2.register_hook("a", set())
    hook_b = engine2.register_hook("b", set())
    assert apply_update(engine2, signed(alpha2, hook_a, 5, RETURN_5, ALPHA_KEY), RETURN_5).accepted
    # same tenant, different hook: independent counter, low seq still fine
    assert apply_update(engine2, signed(alpha2, hook_b, 1, RETURN_5, ALPHA_KEY), RETURN_5).accepted
    # different tenant, same hook: independent counter
    assert apply_update(engine, signed(alpha, hook, 9, RETURN_5, ALPHA_KEY), RETURN_5).accepted
    assert apply_update(engine, signed(beta, hook, 1, RETURN_9, BETA_KEY), RETURN_9).accepted


# -- reject matrix -----------------------------------------------------


def reject_reason(engine, manifest, payload):
    outcome = apply_update(engine, manifest, payload)
    assert not outcome.accepted and outcome.container_id is None
    return outcome.reason


def test_reject_unknown_tenant():
    engine, hook, _, _ = fresh_engine()
    ghost = uuid.uuid4()
    manifest = signed(ghost, hook, 1, RETURN_5, ALPHA_KEY)
    assert reject_reason(engine, manifest, RETURN_5) == UpdateReject.UNKNOWN_TENANT


def test_reject_wrong_signing_key():
    engine, hook, alpha, _ = fresh_engine()
    manifest = signed(alpha, hook, 1, RETURN_5, BETA_KEY)  # beta signs as alpha
    assert reject_reason(engine, manifest, RETURN_5) == UpdateReject.BAD_SIGNATURE


def test_reject_unsigned_manifest():
    engine, hook, alpha, _ = fresh_engine()
    manifest = build_manifest(alpha, hook, 1, RETURN_5, Contract.of())
    assert reject_reason(engine, manifest, RETURN_5) == UpdateReject.BAD_SIGNATURE


def test_reject_field_tampered_after_signing():
    engine, hook, alpha, _ = fresh_engine()
    manifest = replace(signed(alpha, hook, 1, RETURN_5, ALPHA_KEY), sequence_number=2)
    assert reject_reason(engine, manifest, RETURN_5) == UpdateReject.BAD_SIGNATURE


def test_reject_unsupported_manifest_version():
    engine, hook, alpha, _ = fresh_engine()
    bad = replace(build_manifest(alpha, hook, 1, RETURN_5, Contract.of()), manifest_version=2)
    manifest = sign_manifest(bad, ALPHA_KEY)  # even correctly signed
    assert reject_reason(engine, manifest, RETURN_5) == UpdateReject.BAD_SIGNATURE


def test_reject_payload_digest_mismatch():
    engine, hook, alpha, _ = fresh_engine()
    manifest = signed(alpha, hook, 1, RETURN_5, ALPHA_KEY)
    assert reject_reason(engine, manifest, RETURN_9) == UpdateReject.DIGEST_MISMATCH


def test_reject_payload_size_mismatch():
    engine, hook, alpha, _ = fresh_engine()
    manifest = sign_manifest(
        replace(build_manifest(alpha, hook, 1, RETURN_5, Contract.of()), payload_size=4),
        ALPHA_KEY,
    )
    assert reject_reason(engine, manifest, RETURN_5) == UpdateReject.DIGEST_MISMATCH


def test_reject_unknown_hook():
    engine, _, alpha, _ = fresh_engine()
    manifest = signed(alpha, uuid.uuid4(), 1, RETURN_5, ALPHA_KEY)
    assert reject_reason(engine, manifest, RETURN_5) == UpdateReject.UNKNOWN_HOOK


def test_reject_sequence_replay_and_rollback():
    engine, hook, alpha, _ = fresh_engine()
    assert apply_update(engine, signed(alpha, hook, 5, RETURN_5, ALPHA_KEY), RETURN_5).accepted
    replayed = signed(alpha, hook, 5, RETURN_9, ALPHA_KEY)
    assert reject_reason(engine, replayed, RETURN_9) == UpdateReject.ROLLBACK_REJECTED
    older = signed(alpha, hook, 4, RETURN_9, ALPHA_KEY)
    assert reject_reason(engine, older, RETURN_9) == UpdateReject.ROLLBACK_REJECTED
    assert apply_update(engine, signed(alpha, hook, 6, RETURN_9, ALPHA_KEY), RETURN_9).accepted


def test_reject_payload_that_is_not_whole_slots():
    engine, hook, alpha, _ = fresh_engine()
    ragged = RETURN_5 + b"\x00"
    manifest = signed(alpha, hook, 1, ragged, ALPHA_KEY)
    assert reject_reason(engine, manifest, ragged) == UpdateReject.MALFORMED_PAYLOAD
    assert UpdateReject.MALFORMED_PAYLOAD.value == "MalformedPayload"
    assert engine.last_update_sequence(alpha, hook) is None  # sequence not consumed


def test_reject_precedence_tenant_before_signature_before_digest():
    engine, hook, alpha, _ = fresh_engine()
    # everything wrong at once: unknown tenant wins
    chaos = signed(uuid.uuid4(), uuid.uuid4(), 1, RETURN_5, BETA_KEY)
    assert reject_reason(engine, chaos, RETURN_9) == UpdateReject.UNKNOWN_TENANT
    # known tenant, bad signature and bad payload: signature wins
    half = signed(alpha, uuid.uuid4(), 1, RETURN_5, BETA_KEY)
    assert reject_reason(engine, half, RETURN_9) == UpdateReject.BAD_SIGNATURE
    # good signature, bad payload and unknown hook: digest wins
    tampered = signed(alpha, uuid.uuid4(), 1, RETURN_5, ALPHA_KEY)
    assert reject_reason(engine, tampered, RETURN_9) == UpdateReject.DIGEST_MISMATCH


def test_rejected_update_changes_no_engine_state():
    engine, hook, alpha, beta = fresh_engine()
    apply_update(engine, signed(alpha, hook, 1, RETURN_5, ALPHA_KEY), RETURN_5)
    engine.trigger_hook(hook)
    before = engine.introspection_json()

    attempts = [
        (signed(uuid.uuid4(), hook, 2, RETURN_9, ALPHA_KEY), RETURN_9),
        (signed(alpha, hook, 2, RETURN_9, BETA_KEY), RETURN_9),
        (signed(alpha, hook, 2, RETURN_9, ALPHA_KEY), RETURN_5),
        (signed(alpha, uuid.uuid4(), 2, RETURN_9, ALPHA_KEY), RETURN_9),
        (signed(alpha, hook, 1, RETURN_9, ALPHA_KEY), RETURN_9),
        (signed(alpha, hook, 2, RETURN_9[:12], ALPHA_KEY), RETURN_9[:12]),
    ]
    for manifest, payload in attempts:
        assert not apply_update(engine, manifest, payload).accepted

    assert engine.introspection_json() == before  # bit-identical


def test_update_to_full_hook_raises_slot_limit():
    engine = Engine(rng=random.Random(3))
    alpha = engine.register_tenant("alpha", public_key_raw(ALPHA_KEY))
    beta = engine.register_tenant("beta", public_key_raw(BETA_KEY))
    hook = engine.register_hook("tight", set(), slot_limit=1)
    assert apply_update(engine, signed(alpha, hook, 1, RETURN_5, ALPHA_KEY), RETURN_5).accepted
    with pytest.raises(SlotLimitReached):
        apply_update(engine, signed(beta, hook, 1, RETURN_9, BETA_KEY), RETURN_9)


# -- keys and wire format ----------------------------------------------


def test_private_key_seed_is_deterministic():
    a = private_key_from_seed(b"same seed")
    b = private_key_from_seed(b"same seed")
    c = private_key_from_seed(b"other seed")
    assert public_key_raw(a) == public_key_raw(b)
    assert public_key_raw(a) != public_key_raw(c)


def test_pem_round_trip(tmp_path):
    key = generate_private_key()
    priv, pub = tmp_path / "k.pem", tmp_path / "k.pub.pem"
    save_private_key(key, priv)
    save_public_key(key, pub)
    assert b"PRIVATE KEY" in priv.read_bytes()
    assert load_public_key_raw(pub) == public_key_raw(key)

    reloaded = load_private_key(priv)
    manifest = signed(uuid.UUID(int=1), uuid.UUID(int=2), 1, RETURN_5, reloaded)
    key.public_key().verify(manifest.signature, canonical_bytes(manifest))


def test_load_private_key_rejects_wrong_key_type(tmp_path):
    from cryptography.hazmat.primitives import serialization
    from cryptography.hazmat.primitives.asymmetric import rsa

    rsa_key = rsa.generate_private_key(public_exponent=65537, key_size=2048)
    path = tmp_path / "rsa.pem"
    path.write_bytes(
        rsa_key.private_bytes(
            serialization.Encoding.PEM,
            serialization.PrivateFormat.PKCS8,
            serialization.NoEncryption(),
        )
    )
    with pytest.raises(ValueError):
        load_private_key(path)


def test_manifest_json_envelope_round_trip(tmp_path):
    contract = Contract.of({1, 2, 0x20}, [RegionGrant("resp", True, True), RegionGrant("req")])
    manifest = signed(uuid.uuid4(), uuid.uuid4(), 12, RETURN_9, ALPHA_KEY, contract)
    envelope = manifest_to_json(manifest)
    assert set(envelope) == {"manifest", "signature"}
    assert json.loads(json.dumps(envelope)) == envelope  # JSON-serializable

    again = manifest_from_json(envelope)
    assert again == manifest
    assert canonical_bytes(again) == canonical_bytes(manifest)

    path = tmp_path / "m.json"
    save_manifest(manifest, path)
    assert load_manifest(path) == manifest

    for mode in ("x", "rwx"):
        bad = json.loads(json.dumps(envelope))
        bad["manifest"]["contract"]["regions"][0]["mode"] = mode
        with pytest.raises(ValueError, match="mode"):
            manifest_from_json(bad)


def test_signature_survives_wire_round_trip_and_still_applies():
    engine, hook, alpha, _ = fresh_engine()
    manifest = signed(alpha, hook, 1, RETURN_5, ALPHA_KEY)
    wired = manifest_from_json(json.loads(json.dumps(manifest_to_json(manifest))))
    assert apply_update(engine, wired, RETURN_5).accepted
