"""Signed over-the-wire container updates.

A manifest binds a payload digest, its size, the target hook (as UUID
storage location), the issuing tenant, a monotonically increasing sequence
number, and the requested contract.  The tenant signs the manifest's
canonical byte form with Ed25519; JSON is transport only and never signed.

Applying an update authenticates the signature against the registered
tenant key, checks payload integrity, refuses sequence rollback and decodes
the payload; only then does ``Engine.update_container`` verify it and swap
(or install) the tenant's container on that hook atomically.
A rejected update changes no engine state at all.
"""

from __future__ import annotations

import base64
import hashlib
import json
import struct
import uuid
from dataclasses import dataclass, fields, replace
from enum import Enum
from pathlib import Path

from cryptography.exceptions import InvalidSignature
from cryptography.hazmat.primitives import serialization
from cryptography.hazmat.primitives.asymmetric.ed25519 import (
    Ed25519PrivateKey,
    Ed25519PublicKey,
)

from . import doc
from .engine import Contract, Engine, read_contract
from .isa import Program
from .verifier import VerifyRejected

MANIFEST_VERSION = 1


class UpdateReject(Enum):
    BAD_SIGNATURE = "BadSignature"
    DIGEST_MISMATCH = "DigestMismatch"
    ROLLBACK_REJECTED = "RollbackRejected"
    UNKNOWN_HOOK = "UnknownHook"
    UNKNOWN_TENANT = "UnknownTenant"
    MALFORMED_PAYLOAD = "MalformedPayload"
    VERIFY_REJECTED = "VerifyRejected"


@dataclass(frozen=True)
class Manifest:
    manifest_version: int
    sequence_number: int
    storage_location: uuid.UUID  # the hook this update targets
    tenant_id: uuid.UUID
    payload_digest: bytes  # sha256 of the bytecode payload
    payload_size: int
    contract: Contract
    signature: bytes | None = None


@dataclass(frozen=True)
class UpdateOutcome:
    accepted: bool
    container_id: uuid.UUID | None = None
    reason: UpdateReject | None = None


def _pack(fmt: str, value: int, name: str) -> bytes:
    """``value`` packed as ``fmt``; a value that does not fit raises ValueError naming ``name``."""
    try:
        return struct.pack(fmt, value)
    except struct.error as exc:
        raise ValueError(f"manifest {name!r}: {exc}, got {value!r}") from None


def canonical_bytes(manifest: Manifest) -> bytes:
    """The exact byte string that gets signed.

    Fixed field order, big-endian fixed-width integers, UUIDs as their 16
    raw bytes; contract entries sorted so equal manifests serialize
    identically regardless of construction order. A field that does not fit
    its width raises ValueError naming it.
    """
    out = bytearray()
    out += _pack(">I", manifest.manifest_version, "manifest_version")
    out += _pack(">Q", manifest.sequence_number, "sequence_number")
    out += manifest.storage_location.bytes
    out += manifest.tenant_id.bytes
    out += manifest.payload_digest
    out += _pack(">Q", manifest.payload_size, "payload_size")
    syscalls = sorted(manifest.contract.syscalls)
    out += struct.pack(">I", len(syscalls))
    for sys_id in syscalls:
        out += _pack(">I", sys_id, "syscalls")
    grants = sorted(manifest.contract.regions, key=lambda g: (g.label, g.readable, g.writable))
    out += struct.pack(">I", len(grants))
    for grant in grants:
        label = grant.label.encode("utf-8")
        out += _pack(">H", len(label), "label")
        out += label
        out += struct.pack(">B", (1 if grant.readable else 0) | (2 if grant.writable else 0))
    return bytes(out)


def build_manifest(
    tenant_id: uuid.UUID,
    hook_id: uuid.UUID,
    sequence_number: int,
    payload: bytes,
    contract: Contract,
) -> Manifest:
    return Manifest(
        manifest_version=MANIFEST_VERSION,
        sequence_number=sequence_number,
        storage_location=hook_id,
        tenant_id=tenant_id,
        payload_digest=hashlib.sha256(payload).digest(),
        payload_size=len(payload),
        contract=contract,
    )


def sign_manifest(manifest: Manifest, private_key: Ed25519PrivateKey) -> Manifest:
    return replace(manifest, signature=private_key.sign(canonical_bytes(manifest)))


def _signature_valid(manifest: Manifest, key: Ed25519PublicKey) -> bool:
    if manifest.signature is None:
        return False
    try:
        key.verify(manifest.signature, canonical_bytes(manifest))
        return True
    except (InvalidSignature, ValueError):  # ValueError: a field with no canonical form
        return False


def apply_update(engine: Engine, manifest: Manifest, payload: bytes) -> UpdateOutcome:
    """Authenticate, check integrity and freshness and decode, then hand the
    program to the engine, which verifies it and swaps atomically."""
    with engine.lock:
        tenant = engine.tenants.get(manifest.tenant_id)
        if tenant is None:
            return UpdateOutcome(False, reason=UpdateReject.UNKNOWN_TENANT)
        if manifest.manifest_version != MANIFEST_VERSION:
            return UpdateOutcome(False, reason=UpdateReject.BAD_SIGNATURE)
        if tenant.verify_key is None or not _signature_valid(manifest, tenant.verify_key):
            return UpdateOutcome(False, reason=UpdateReject.BAD_SIGNATURE)
        if (
            hashlib.sha256(payload).digest() != manifest.payload_digest
            or len(payload) != manifest.payload_size
        ):
            return UpdateOutcome(False, reason=UpdateReject.DIGEST_MISMATCH)
        if manifest.storage_location not in engine.hooks:
            return UpdateOutcome(False, reason=UpdateReject.UNKNOWN_HOOK)
        last = engine.last_update_sequence(manifest.tenant_id, manifest.storage_location)
        if last is not None and manifest.sequence_number <= last:
            return UpdateOutcome(False, reason=UpdateReject.ROLLBACK_REJECTED)
        try:
            program = Program.from_bytes(payload)
        except ValueError:
            return UpdateOutcome(False, reason=UpdateReject.MALFORMED_PAYLOAD)
        try:
            container_id = engine.update_container(
                manifest.tenant_id, manifest.storage_location, manifest.sequence_number, program, manifest.contract
            )
        except VerifyRejected:
            return UpdateOutcome(False, reason=UpdateReject.VERIFY_REJECTED)
        return UpdateOutcome(True, container_id=container_id)


# -- key handling -----------------------------------------------------


def generate_private_key() -> Ed25519PrivateKey:
    return Ed25519PrivateKey.generate()


def private_key_from_seed(seed: bytes) -> Ed25519PrivateKey:
    """Deterministic key derivation for reproducible scenario runs."""
    if len(seed) != 32:
        seed = hashlib.sha256(seed).digest()
    return Ed25519PrivateKey.from_private_bytes(seed)


def public_key_raw(private_key: Ed25519PrivateKey) -> bytes:
    return private_key.public_key().public_bytes(
        serialization.Encoding.Raw, serialization.PublicFormat.Raw
    )


def save_private_key(private_key: Ed25519PrivateKey, path: Path) -> None:
    path.write_bytes(
        private_key.private_bytes(
            serialization.Encoding.PEM,
            serialization.PrivateFormat.PKCS8,
            serialization.NoEncryption(),
        )
    )


def load_private_key(path: Path) -> Ed25519PrivateKey:
    key = serialization.load_pem_private_key(path.read_bytes(), password=None)
    if not isinstance(key, Ed25519PrivateKey):
        raise ValueError(f"{path} does not hold an Ed25519 private key")
    return key


def save_public_key(private_key: Ed25519PrivateKey, path: Path) -> None:
    path.write_bytes(
        private_key.public_key().public_bytes(
            serialization.Encoding.PEM, serialization.PublicFormat.SubjectPublicKeyInfo
        )
    )


# -- wire format -------------------------------------------------------


def manifest_to_json(manifest: Manifest) -> dict:
    """Transport envelope; the signature always covers canonical_bytes."""
    return {
        "manifest": {
            "manifest_version": manifest.manifest_version,
            "sequence_number": manifest.sequence_number,
            "storage_location": str(manifest.storage_location),
            "tenant_id": str(manifest.tenant_id),
            "payload_digest": manifest.payload_digest.hex(),
            "payload_size": manifest.payload_size,
            "contract": manifest.contract.to_json(),
        },
        "signature": base64.b64encode(manifest.signature).decode("ascii")
        if manifest.signature
        else None,
    }


def manifest_from_json(data: object) -> Manifest:
    """Inverse of manifest_to_json. Malformed data raises ValueError (a
    doc.ParseError) naming the field."""
    envelope = doc.obj(data, "manifest envelope", {"manifest", "signature"})
    body = doc.field(envelope, "manifest", "manifest envelope")
    doc.obj(body, "manifest", {f.name for f in fields(Manifest)} - {"signature"})
    manifest = Manifest(
        manifest_version=doc.integer(body, "manifest_version", "manifest"),
        sequence_number=doc.integer(body, "sequence_number", "manifest"),
        storage_location=doc.decoded(body, "storage_location", "manifest", uuid.UUID, "a UUID"),
        tenant_id=doc.decoded(body, "tenant_id", "manifest", uuid.UUID, "a UUID"),
        payload_digest=doc.decoded(body, "payload_digest", "manifest", bytes.fromhex, "hex"),
        payload_size=doc.integer(body, "payload_size", "manifest"),
        contract=read_contract(doc.optional(body, "contract", "manifest", object, {}), "manifest.contract"),
        signature=doc.decoded(envelope, "signature", "manifest envelope", base64.b64decode, "base64")
        if doc.optional(envelope, "signature", "manifest envelope", object, None) else None,
    )
    canonical_bytes(manifest)  # a manifest without a canonical form does not load
    return manifest


def save_manifest(manifest: Manifest, path: Path) -> None:
    path.write_text(json.dumps(manifest_to_json(manifest), indent=2, sort_keys=True) + "\n")


def load_manifest(path: Path) -> Manifest:
    return manifest_from_json(doc.load(path))
