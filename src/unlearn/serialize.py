"""Versioned file envelopes and the on-disk protocol state directory.

These files are the wire format: server and verifiers exchange exactly
these envelopes.  Digests use the canonical field-element hex encoding.
Every write goes through a temp-file-plus-rename so a killed command
leaves the previous state intact; ``state.json`` is always written last
and acts as the commit point for an update.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .field import ScaleConfig, from_hex, to_hex
from .hashing import DataPoint, MembershipPath
from .proofsys import ProofBlob, RelationHandle, SetupArtifacts, get_backend
from .protocol import (
    Commitment,
    ProtocolConfig,
    PublicParams,
    ServerState,
    UnlearnProof,
    UpdateProof,
)
from .r1cs import ConstraintSystem, fingerprint_of
from .training import Dataset, ModelParams, TrainConfig

# Each kind of envelope is versioned on its own: a change to one kind's
# format or meaning bumps only that kind.  Update proofs (free wires only)
# and params.json (absent slots pinned) are at 9, every other kind at 8.
VERSION = 8
UPDATE_PROOF_VERSION = 9
PARAMS_VERSION = 9
_FINGERPRINT = re.compile(r"[0-9a-f]{64}")


class EnvelopeError(ValueError):
    pass


def _umask() -> int:
    # Setting the umask is the only portable way to read it.
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write through a temp file and a rename.  The file gets the mode a
    plain ``open`` would give it (0o666 less the umask), not mkstemp's
    0o600, so verifiers running as other users can read ``pub/``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~_umask())
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def json_bytes(obj) -> bytes:
    """The bytes ``atomic_write_json`` writes for ``obj``."""
    return json.dumps(obj, indent=1, sort_keys=True).encode()


def atomic_write_json(path: Path, obj) -> None:
    atomic_write_bytes(path, json_bytes(obj))


def read_json(path: Path, version: int = VERSION):
    """The envelope in ``path``, which must be of ``version``."""
    with open(path, "rb") as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict) or obj.get("version") != version:
        raise EnvelopeError(f"{path}: unsupported envelope version")
    return obj


def _hexes(values, cfg: ScaleConfig) -> list[str]:
    return [to_hex(v, cfg) for v in values]


def _unhexes(values, cfg: ScaleConfig) -> list[int]:
    return [from_hex(v, cfg) for v in values]


# -- core envelopes --------------------------------------------------------


def commitment_to_dict(com: Commitment, cfg: ScaleConfig) -> dict:
    return {
        "version": VERSION,
        "h_m": to_hex(com.h_m, cfg),
        "h_d": to_hex(com.h_d, cfg),
        "h_u": to_hex(com.h_u, cfg),
    }


def commitment_from_dict(obj: dict, cfg: ScaleConfig) -> Commitment:
    return Commitment(
        h_m=from_hex(obj["h_m"], cfg),
        h_d=from_hex(obj["h_d"], cfg),
        h_u=from_hex(obj["h_u"], cfg),
    )


def proof_blob_to_dict(blob: ProofBlob, cfg: ScaleConfig) -> dict:
    return {
        "backend": blob.backend,
        "fingerprint": blob.fingerprint,
        "public_inputs": _hexes(blob.public_inputs, cfg),
        "proof_bytes": blob.proof_bytes.hex(),
    }

def proof_blob_from_dict(obj: dict, cfg: ScaleConfig) -> ProofBlob:
    return ProofBlob(
        backend=obj["backend"],
        fingerprint=obj["fingerprint"],
        public_inputs=tuple(_unhexes(obj["public_inputs"], cfg)),
        proof_bytes=bytes.fromhex(obj["proof_bytes"]),
    )


def update_proof_to_dict(proof: UpdateProof, cfg: ScaleConfig) -> dict:
    return {
        "version": UPDATE_PROOF_VERSION,
        "model_proof": proof_blob_to_dict(proof.model_proof, cfg),
        "data_proof": proof_blob_to_dict(proof.data_proof, cfg),
    }


def update_proof_from_dict(obj: dict, cfg: ScaleConfig) -> UpdateProof:
    return UpdateProof(
        model_proof=proof_blob_from_dict(obj["model_proof"], cfg),
        data_proof=proof_blob_from_dict(obj["data_proof"], cfg),
    )


def unlearn_proof_to_dict(proof: UnlearnProof, cfg: ScaleConfig) -> dict:
    return {
        "version": VERSION,
        "point_uid": proof.uid,
        "iteration": proof.iteration,
        "path": _hexes(proof.path.nodes, cfg),
    }


def unlearn_proof_from_dict(obj: dict, cfg: ScaleConfig) -> UnlearnProof:
    return UnlearnProof(
        path=MembershipPath(tuple(_unhexes(obj["path"], cfg))),
        iteration=obj["iteration"],
        uid=obj["point_uid"],
    )


def model_params_to_dict(m: ModelParams, cfg: ScaleConfig) -> dict:
    return {
        "version": VERSION,
        "kind": m.kind,
        "arity": m.arity,
        "hidden": m.hidden,
        "weights": _hexes(m.weights, cfg),
    }


def model_params_from_dict(obj: dict, cfg: ScaleConfig) -> ModelParams:
    return ModelParams(
        kind=obj["kind"],
        arity=obj["arity"],
        hidden=obj["hidden"],
        weights=tuple(_unhexes(obj["weights"], cfg)),
    )


def data_point_to_dict(d: DataPoint, cfg: ScaleConfig) -> dict:
    return {"uid": d.uid, "x": _hexes(d.x, cfg), "y": to_hex(d.y, cfg)}


def data_point_from_dict(obj: dict, cfg: ScaleConfig) -> DataPoint:
    return DataPoint(
        uid=obj["uid"], x=tuple(_unhexes(obj["x"], cfg)), y=from_hex(obj["y"], cfg)
    )


def server_state_to_dict(state: ServerState, cfg: ScaleConfig) -> dict:
    return {
        "version": VERSION,
        "iteration": state.iteration,
        "arity": state.dataset.arity,
        "points": [data_point_to_dict(d, cfg) for d in state.dataset.points],
        "hashed_unlearnt": _hexes(state.hashed_unlearnt, cfg),
        "unlearnt_root": to_hex(state.unlearnt_root, cfg),
        "model": model_params_to_dict(state.model, cfg),
        "deleted_uids": sorted(state.deleted_uids),
        "pending_add": [data_point_to_dict(d, cfg) for d in state.pending_add],
        "pending_delete": [data_point_to_dict(d, cfg) for d in state.pending_delete],
        "last_deleted": [data_point_to_dict(d, cfg) for d in state.last_deleted],
    }


def server_state_from_dict(obj: dict, cfg: ScaleConfig) -> ServerState:
    return ServerState(
        iteration=obj["iteration"],
        dataset=Dataset(
            tuple(data_point_from_dict(d, cfg) for d in obj["points"]), obj["arity"]
        ),
        hashed_unlearnt=tuple(_unhexes(obj["hashed_unlearnt"], cfg)),
        unlearnt_root=from_hex(obj["unlearnt_root"], cfg),
        model=model_params_from_dict(obj["model"], cfg),
        deleted_uids=frozenset(obj["deleted_uids"]),
        pending_add=tuple(data_point_from_dict(d, cfg) for d in obj["pending_add"]),
        pending_delete=tuple(data_point_from_dict(d, cfg) for d in obj["pending_delete"]),
        last_deleted=tuple(data_point_from_dict(d, cfg) for d in obj["last_deleted"]),
    )


def protocol_config_to_dict(config: ProtocolConfig) -> dict:
    t = config.train
    return {
        "version": PARAMS_VERSION,
        "kind": t.kind,
        "arity": t.arity,
        "hidden": t.hidden,
        "epochs": t.epochs,
        "learning_rate": to_hex(t.learning_rate, t.scale),
        "init_values": _hexes(t.init_values, t.scale),
        "gamma": t.scale.gamma,
        "modulus": f"{t.scale.modulus:x}",
        "max_abs": t.scale.max_abs,
        "hash_rounds": config.hash_rounds,
        "capacity": config.capacity,
        "unlearn_capacity": config.unlearn_capacity,
        "backend": config.backend,
    }


def protocol_config_from_dict(obj: dict) -> ProtocolConfig:
    scale = ScaleConfig(
        gamma=obj["gamma"], modulus=int(obj["modulus"], 16), max_abs=obj["max_abs"]
    )
    train = TrainConfig(
        kind=obj["kind"],
        arity=obj["arity"],
        hidden=obj["hidden"],
        epochs=obj["epochs"],
        learning_rate=from_hex(obj["learning_rate"], scale),
        init_values=tuple(_unhexes(obj["init_values"], scale)),
        scale=scale,
    )
    return ProtocolConfig(
        train=train,
        capacity=obj["capacity"],
        unlearn_capacity=obj["unlearn_capacity"],
        backend=obj["backend"],
        hash_rounds=obj["hash_rounds"],
    )


def circuit_record(fingerprint: str, cs: ConstraintSystem) -> dict:
    """A circuit's entry in ``params.json``: its fingerprint and size."""
    return {
        "fingerprint": fingerprint,
        "constraints": cs.num_constraints,
        "wires": cs.num_wires,
        "publics": cs.num_public,
    }


def public_params_to_dict(pub: PublicParams) -> dict:
    """``params.json``: the protocol config and a record of each circuit."""
    return {
        **protocol_config_to_dict(pub.config),
        "circuits": {
            name: circuit_record(rel.fingerprint, rel.circuit)
            for name, rel in (("model", pub.model_relation), ("data", pub.data_relation))
        },
    }


# -- setup store ----------------------------------------------------------------


class SetupStore:
    """Content-addressed files under ``pub/``, keyed by circuit
    fingerprint: each circuit's canonical export (``circuits/``) and its
    setup artifacts per backend (``setups/``)."""

    def __init__(self, root: Path):
        self.root = Path(root)

    def _dir(self, backend: str, fingerprint: str) -> Path:
        return self.root / "setups" / backend / fingerprint

    def circuit_file(self, fingerprint: str) -> Path:
        return self.root / "circuits" / f"{fingerprint}.r1cs"

    def save_circuit(self, exported: bytes) -> str:
        """Store a circuit export; returns its fingerprint."""
        fingerprint = fingerprint_of(exported)
        atomic_write_bytes(self.circuit_file(fingerprint), exported)
        return fingerprint

    def load_circuit(self, fingerprint: str) -> ConstraintSystem:
        """The stored constraint system with this fingerprint.  A missing
        file, one whose SHA-256 is not the fingerprint, or one that
        ``ConstraintSystem.from_export`` refuses raises EnvelopeError."""
        path = self.circuit_file(fingerprint)
        try:
            exported = path.read_bytes()
        except FileNotFoundError:
            raise EnvelopeError(f"{path}: circuit export missing") from None
        if fingerprint_of(exported) != fingerprint:
            raise EnvelopeError(f"{path}: contents do not match the fingerprint")
        try:
            return ConstraintSystem.from_export(exported)
        except ValueError as e:
            raise EnvelopeError(f"{path}: {e}") from None

    def prune(self, backend: str, keep: set[str]) -> None:
        """Remove every circuit export, and every set of ``backend``'s
        setup artifacts, whose fingerprint is not in ``keep``: what an
        earlier setup under another config left behind."""
        for path in (self.root / "circuits").glob("*.r1cs"):
            if path.stem not in keep:
                path.unlink()
        setups = self.root / "setups" / backend
        for d in setups.iterdir() if setups.is_dir() else ():
            if d.name not in keep:
                shutil.rmtree(d)

    def load(self, backend: str, fingerprint: str) -> Optional[SetupArtifacts]:
        d = self._dir(backend, fingerprint)
        if not (d / "meta.json").exists():
            return None
        meta = read_json(d / "meta.json")
        pk = (d / "pk.bin").read_bytes() if (d / "pk.bin").exists() else b""
        vk = (d / "vk.bin").read_bytes() if (d / "vk.bin").exists() else b""
        return SetupArtifacts(
            backend=meta["backend"],
            fingerprint=meta["fingerprint"],
            proving_params=pk,
            verifying_params=vk,
        )

    def save(self, artifacts: SetupArtifacts) -> None:
        d = self._dir(artifacts.backend, artifacts.fingerprint)
        d.mkdir(parents=True, exist_ok=True)
        if artifacts.proving_params:
            atomic_write_bytes(d / "pk.bin", artifacts.proving_params)
        if artifacts.verifying_params:
            atomic_write_bytes(d / "vk.bin", artifacts.verifying_params)
        atomic_write_json(
            d / "meta.json",
            {
                "version": VERSION,
                "backend": artifacts.backend,
                "fingerprint": artifacts.fingerprint,
            },
        )


# -- state directory ----------------------------------------------------------


@dataclass
class StateDir:
    root: Path

    def __post_init__(self) -> None:
        self.root = Path(self.root)

    @property
    def params_file(self) -> Path:
        return self.root / "pub" / "params.json"

    @property
    def setup_store(self) -> SetupStore:
        return SetupStore(self.root / "pub")

    @property
    def state_file(self) -> Path:
        return self.root / "state.json"

    @property
    def lock_file(self) -> Path:
        return self.root / ".lock"

    def commitment_file(self, i: int) -> Path:
        return self.root / "commitments" / f"com_{i}.json"

    def update_proof_file(self, i: int) -> Path:
        return self.root / "proofs" / f"update_{i}.json"

    def unlearn_proof_file(self, i: int, uid: int) -> Path:
        return self.root / "proofs" / f"unlearn_{i}_{uid}.json"

    @property
    def init_marker_file(self) -> Path:
        return self.root / "proofs" / "update_0.json"

    def save_params(self, pub: PublicParams) -> None:
        atomic_write_json(self.params_file, public_params_to_dict(pub))

    def load_public_params(self) -> PublicParams:
        """The parameters in ``pub/``, read without building or reading a
        circuit.  Each relation reads its stored export (see
        ``SetupStore.load_circuit``) when a prover or a verifier first
        needs the constraints; a prover computes only the witness from
        the config and its inputs (see ``protocol.prove_update``)."""
        obj = read_json(self.params_file, PARAMS_VERSION)
        config = protocol_config_from_dict(obj)
        backend = get_backend(config.backend)
        store = self.setup_store

        def relation(name: str) -> RelationHandle:
            fingerprint = obj["circuits"][name]["fingerprint"]
            if not isinstance(fingerprint, str) or not _FINGERPRINT.fullmatch(fingerprint):
                raise EnvelopeError(f"{self.params_file}: malformed {name} fingerprint")
            return RelationHandle(fingerprint, load=lambda: store.load_circuit(fingerprint))

        def artifacts(rel: RelationHandle) -> SetupArtifacts:
            found = store.load(backend.name, rel.fingerprint)
            if found is None:
                raise EnvelopeError(
                    f"no {backend.name} setup artifacts for circuit {rel.fingerprint[:12]}"
                )
            return found

        model_rel, data_rel = relation("model"), relation("data")
        return PublicParams(
            config=config,
            model_relation=model_rel,
            data_relation=data_rel,
            model_setup=artifacts(model_rel),
            data_setup=artifacts(data_rel),
            backend=backend,
        )

    def save_state(self, state: ServerState, cfg: ScaleConfig) -> None:
        atomic_write_json(self.state_file, server_state_to_dict(state, cfg))

    def load_state(self, cfg: ScaleConfig) -> ServerState:
        return server_state_from_dict(read_json(self.state_file), cfg)
