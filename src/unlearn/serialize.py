"""Versioned file envelopes and the on-disk protocol state directory.

These files are the wire format: server and verifiers exchange exactly
these envelopes.  Digests use the canonical field-element hex encoding.
``StateDir`` is the only code that reads or writes a file under a state
directory: it picks each file's envelope kind and version, encodes and
decodes it, and orders the writes.  Every write goes through a
temp-file-plus-rename, and ``StateDir.save_iteration`` writes
``state.json`` after the iteration's commitment and proof, so the state
is the commit point and a killed command leaves the previous state
intact.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import tempfile
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import TYPE_CHECKING, BinaryIO, Callable, Optional

from .field import ScaleConfig, from_hex, to_hex
from .hashing import MAX_UID, DataPoint, MembershipPath
from .proofsys import ProofBlob, RelationHandle, SetupArtifacts, get_backend
from .protocol import (
    Commitment,
    ProtocolConfig,
    PublicParams,
    ServerState,
    UnlearnProof,
    UpdateProof,
)
from .training import Dataset, ModelParams, TrainConfig

if TYPE_CHECKING:
    from .r1cs import ConstraintSystem

# Each kind of envelope is versioned on its own: a change to one kind's
# format or meaning bumps only that kind.  params.json (circuits named by
# fingerprint alone, no fixed-point format, which is fixed, each range
# check's sum row before its boolean rows, disjointness as one product
# with one inverse its row defines, the data circuit's inputs laid out
# slot by slot, absent digests pinned to 0, and each fingerprint that of
# a stored file of records and plain rows) is at 16, update proofs
# (free wires only, range bits and the disjointness inverse derived, a
# witness-check payload that lists only the free wires, in signed hex,
# up to the last nonzero one, each run of zeros as one entry, and no
# backend name beside a proof) at 15, state.json (one (uid, digest)
# record per unlearnt point, and no unlearnt point's data) at 9, every
# other kind at 8.
VERSION = 8
UPDATE_PROOF_VERSION = 15
PARAMS_VERSION = 16
STATE_VERSION = 9
_FINGERPRINT = re.compile(r"[0-9a-f]{64}")
# The fixed-point format is ``field``'s constants, so one scale encodes
# every envelope ``StateDir`` reads or writes.
_SCALE = ScaleConfig()


class EnvelopeError(ValueError):
    pass


def _umask() -> int:
    # Setting the umask is the only portable way to read it.
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


def _write_atomically(directory: Path, prefix: str, write: Callable[[BinaryIO], Path]) -> Path:
    """Call ``write`` on a new temp file in ``directory``, then rename the
    file to the path ``write`` returns, and return that path.  The file
    gets the mode a plain ``open`` would give it (0o666 less the umask),
    not mkstemp's 0o600, so verifiers running as other users can read
    ``pub/``."""
    directory.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=prefix)
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~_umask())
            path = write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def atomic_write_bytes(path: Path, data: bytes) -> None:
    """Write ``data`` to ``path`` through a temp file and a rename."""

    def write(fh: BinaryIO) -> Path:
        fh.write(data)
        return path

    _write_atomically(path.parent, f".{path.name}.", write)


def json_bytes(obj) -> bytes:
    """The bytes ``atomic_write_json`` writes for ``obj``."""
    return json.dumps(obj, indent=1, sort_keys=True).encode()


def atomic_write_json(path: Path, obj) -> None:
    atomic_write_bytes(path, json_bytes(obj))


def read_json(path: Path, version: int = VERSION):
    """The envelope in ``path``, which must be of ``version``.  JSON
    nested too deeply to decode is an EnvelopeError."""
    with open(path, "rb") as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise EnvelopeError(f"{path}: JSON nested too deeply") from None
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
        "fingerprint": blob.fingerprint,
        "public_inputs": _hexes(blob.public_inputs, cfg),
        "proof_bytes": blob.proof_bytes.hex(),
    }


def proof_blob_from_dict(obj: dict, cfg: ScaleConfig) -> ProofBlob:
    return ProofBlob(
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
        "version": STATE_VERSION,
        "iteration": state.iteration,
        "arity": state.dataset.arity,
        "points": [data_point_to_dict(d, cfg) for d in state.dataset.points],
        "unlearnt": [{"uid": uid, "digest": to_hex(h, cfg)} for uid, h in state.unlearnt],
        "unlearnt_root": to_hex(state.unlearnt_root, cfg),
        "model": model_params_to_dict(state.model, cfg),
        "pending_add": [data_point_to_dict(d, cfg) for d in state.pending_add],
        "pending_delete": [data_point_to_dict(d, cfg) for d in state.pending_delete],
    }


def server_state_from_dict(obj: dict, cfg: ScaleConfig) -> ServerState:
    iteration, arity = obj["iteration"], obj["arity"]
    # bool is an int: type() refuses it too.
    if type(iteration) is not int or iteration < 0:
        raise EnvelopeError(f"state iteration {iteration!r} is not a non-negative integer")
    if type(arity) is not int or arity < 0:
        raise EnvelopeError(f"state arity {arity!r} is not a non-negative integer")
    unlearnt = tuple((r["uid"], from_hex(r["digest"], cfg)) for r in obj["unlearnt"])
    pending_delete = tuple(data_point_from_dict(d, cfg) for d in obj["pending_delete"])
    uids = [uid for uid, _ in unlearnt]
    if not all(type(u) is int and 0 <= u <= MAX_UID for u in uids):
        raise EnvelopeError("state unlearnt set holds a uid that is not a 64-bit integer")
    # A uid queued again would get a second record at the next update.
    uids += [d.uid for d in pending_delete]
    if len(set(uids)) != len(uids):
        raise EnvelopeError("state lists an unlearnt uid twice")
    return ServerState(
        iteration=iteration,
        dataset=Dataset(tuple(data_point_from_dict(d, cfg) for d in obj["points"]), arity),
        unlearnt=unlearnt,
        unlearnt_root=from_hex(obj["unlearnt_root"], cfg),
        model=model_params_from_dict(obj["model"], cfg),
        pending_add=tuple(data_point_from_dict(d, cfg) for d in obj["pending_add"]),
        pending_delete=pending_delete,
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
        "hash_rounds": config.hash_rounds,
        "capacity": config.capacity,
        "unlearn_capacity": config.unlearn_capacity,
        "backend": config.backend,
    }


def protocol_config_from_dict(obj: dict) -> ProtocolConfig:
    train = TrainConfig(
        kind=obj["kind"],
        arity=obj["arity"],
        hidden=obj["hidden"],
        epochs=obj["epochs"],
        learning_rate=from_hex(obj["learning_rate"], ScaleConfig()),
    )
    return ProtocolConfig(
        train=train,
        capacity=obj["capacity"],
        unlearn_capacity=obj["unlearn_capacity"],
        backend=obj["backend"],
        hash_rounds=obj["hash_rounds"],
    )


def public_params_to_dict(pub: PublicParams) -> dict:
    """``params.json``: the protocol config and each circuit's
    fingerprint, which pins its export and so its sizes."""
    return {
        **protocol_config_to_dict(pub.config),
        "circuits": {"model": pub.model_relation.fingerprint, "data": pub.data_relation.fingerprint},
    }


# -- setup store ----------------------------------------------------------------


class StoredKeys:
    """A setup's key files, each read when first asked for: a prover
    reads only ``pk.bin`` and a verifier only ``vk.bin``.  A missing or
    unreadable file raises EnvelopeError."""

    def __init__(self, directory: Path):
        self.dir = directory

    def _read(self, name: str) -> bytes:
        path = self.dir / name
        try:
            return path.read_bytes()
        except OSError as e:
            raise EnvelopeError(f"{path}: setup key unreadable: {e.strerror}") from None

    @cached_property
    def proving_params(self) -> bytes:
        return self._read("pk.bin")

    @cached_property
    def verifying_params(self) -> bytes:
        return self._read("vk.bin")


class SetupStore:
    """Content-addressed files under ``pub/``, keyed by circuit
    fingerprint: each circuit's canonical export (``circuits/``) and its
    setup keys per backend (``setups/<backend>/<fingerprint>/``, only
    for a backend that has keys)."""

    def __init__(self, root: Path):
        self.root = Path(root)

    def _dir(self, backend: str, fingerprint: str) -> Path:
        return self.root / "setups" / backend / fingerprint

    def relation(self, backend: str, fingerprint: str) -> RelationHandle:
        """The stored circuit with this fingerprint: its rows and each of
        its keys are read on first use."""
        return RelationHandle(
            fingerprint,
            load=lambda: self.load_circuit(fingerprint),
            keys=StoredKeys(self._dir(backend, fingerprint)),
        )

    def circuit_file(self, fingerprint: str) -> Path:
        return self.root / "circuits" / f"{fingerprint}.r1cs"

    def save_circuit(self, cs: ConstraintSystem) -> str:
        """Store a circuit's export, streamed to disk and hashed as it is
        written; returns its fingerprint."""

        def write(fh: BinaryIO) -> Path:
            return self.circuit_file(cs.write_export(fh))

        return _write_atomically(self.root / "circuits", ".circuit.", write).stem

    def load_circuit(self, fingerprint: str) -> ConstraintSystem:
        """The stored constraint system with this fingerprint, read
        straight from the file into its arrays.  A missing file, one whose
        SHA-256 is not the fingerprint (checked first), or one that
        ``ConstraintSystem.read_export`` refuses raises EnvelopeError."""
        from .r1cs import ConstraintSystem, DigestMismatch

        path = self.circuit_file(fingerprint)
        try:
            with open(path, "rb") as fh:
                return ConstraintSystem.read_export(fh, os.fstat(fh.fileno()).st_size, fingerprint)
        except FileNotFoundError:
            raise EnvelopeError(f"{path}: circuit export missing") from None
        except DigestMismatch:
            raise EnvelopeError(f"{path}: contents do not match the fingerprint") from None
        except ValueError as e:
            raise EnvelopeError(f"{path}: {e}") from None

    def prune(self, backend: str, keep: set[str]) -> None:
        """Remove every circuit export whose fingerprint is not in
        ``keep``, every other backend's setup keys, and every set of
        ``backend``'s keys whose fingerprint is not in ``keep``: what an
        earlier setup under another config or backend left behind."""
        for path in (self.root / "circuits").glob("*.r1cs"):
            if path.stem not in keep:
                path.unlink()
        for d in (self.root / "setups").glob("*/*"):
            if d.parent.name != backend or d.name not in keep:
                shutil.rmtree(d)

    def load(self, backend: str, fingerprint: str) -> Optional[StoredKeys]:
        """The stored keys, unread, or None unless ``vk.bin`` exists."""
        d = self._dir(backend, fingerprint)
        return StoredKeys(d) if (d / "vk.bin").exists() else None

    def save(self, backend: str, fingerprint: str, keys: SetupArtifacts) -> None:
        """Write ``pk.bin``, then ``vk.bin``: a setup counts as stored once
        ``vk.bin`` exists, so one that a killed command left half written
        is run again.  Keys without a verifying key (witness-check's)
        write nothing."""
        if keys.verifying_params:
            d = self._dir(backend, fingerprint)
            atomic_write_bytes(d / "pk.bin", keys.proving_params)
            atomic_write_bytes(d / "vk.bin", keys.verifying_params)


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
        """Iteration ``i``'s update proof; at iteration 0, the init marker."""
        return self.root / "proofs" / f"update_{i}.json"

    def unlearn_proof_file(self, i: int, uid: int) -> Path:
        return self.root / "proofs" / f"unlearn_{i}_{uid}.json"

    def save_params(self, pub: PublicParams) -> None:
        """Write ``params.json``, then remove every export and key it
        does not name (see ``SetupStore.prune``)."""
        atomic_write_json(self.params_file, public_params_to_dict(pub))
        self.setup_store.prune(
            pub.backend.name, {pub.model_relation.fingerprint, pub.data_relation.fingerprint}
        )

    def load_public_params(self) -> PublicParams:
        """The parameters in ``params.json``, read without reading any
        other file.  Each relation reads its stored export (see
        ``SetupStore.load_circuit``) when a prover or a verifier first
        needs the constraints, and each key file when the backend first
        needs that key; a prover computes only the witness from the
        config and its inputs (see ``protocol.prove_update``)."""
        obj = read_json(self.params_file, PARAMS_VERSION)
        config = protocol_config_from_dict(obj)
        backend = get_backend(config.backend)

        def relation(name: str) -> RelationHandle:
            fingerprint = obj["circuits"][name]
            if not isinstance(fingerprint, str) or not _FINGERPRINT.fullmatch(fingerprint):
                raise EnvelopeError(f"{self.params_file}: malformed {name} fingerprint")
            return self.setup_store.relation(backend.name, fingerprint)

        pub = PublicParams(
            config=config,
            model_relation=relation("model"),
            data_relation=relation("data"),
            backend=backend,
        )
        if public_params_to_dict(pub) != obj:
            # A field this version does not write, such as an earlier
            # version's modulus, would be silently ignored.
            raise EnvelopeError(f"{self.params_file}: fields other than those it writes")
        return pub

    def save_state(self, state: ServerState) -> None:
        atomic_write_json(self.state_file, server_state_to_dict(state, _SCALE))

    def load_state(self) -> ServerState:
        return server_state_from_dict(read_json(self.state_file, STATE_VERSION), _SCALE)

    def save_iteration(self, state: ServerState, com: Commitment, proof: UpdateProof | str) -> None:
        """Commit iteration ``state.iteration``: its commitment, then its
        proof (the init marker at iteration 0, else the update proof),
        then ``state.json`` last.  The state is the commit point: a
        command killed before it leaves the previous state, and running
        it again rewrites the same files."""
        i = state.iteration
        atomic_write_json(self.commitment_file(i), commitment_to_dict(com, _SCALE))
        if i == 0:
            atomic_write_json(self.update_proof_file(0), {"version": VERSION, "marker": proof})
        else:
            atomic_write_json(self.update_proof_file(i), update_proof_to_dict(proof, _SCALE))
        self.save_state(state)

    def load_commitment(self, i: int) -> Commitment:
        return commitment_from_dict(read_json(self.commitment_file(i)), _SCALE)

    def load_init_marker(self) -> str:
        return read_json(self.update_proof_file(0))["marker"]

    def load_update_proof(self, i: int) -> UpdateProof:
        path = self.update_proof_file(i)
        obj = read_json(path, UPDATE_PROOF_VERSION)
        proof = update_proof_from_dict(obj, _SCALE)
        if update_proof_to_dict(proof, _SCALE) != obj:
            # A field this version does not write, such as an earlier
            # version's backend, would be silently ignored.
            raise EnvelopeError(f"{path}: fields other than those it writes")
        return proof

    def save_unlearn_proof(self, proof: UnlearnProof) -> Path:
        """Write ``proof`` and return its path."""
        path = self.unlearn_proof_file(proof.iteration, proof.uid)
        atomic_write_json(path, unlearn_proof_to_dict(proof, _SCALE))
        return path

    def load_unlearn_proof(self, i: int, uid: int) -> UnlearnProof:
        """Iteration ``i``'s proof of ``uid``; EnvelopeError if it names others."""
        path = self.unlearn_proof_file(i, uid)
        proof = unlearn_proof_from_dict(read_json(path), _SCALE)
        if (proof.iteration, proof.uid) != (i, uid):
            raise EnvelopeError(f"{path}: holds the proof of uid {proof.uid!r} at iteration "
                                f"{proof.iteration!r}")
        return proof
