"""Proving-system interface: Setup / Prove / Verify over R1CS relations.

Two interchangeable backends:

* ``witness-check`` — development backend.  Proofs carry the free wires
  (``ConstraintSystem.project``); the verifier derives the rest in row
  order and checks every other constraint (``ConstraintSystem.complete``).
  Not succinct and not hiding, but exact and dependency-free;
  completeness and circuit-level tests run on it.  A deliberately broken
  variant (``check=False``) that accepts anything is available to the
  security harness as a negative control.

* ``snark`` — sound succinct backend: Groth16 over BN254 via the bundled
  ``unlearn-groth16`` helper binary (arkworks).  The trusted setup runs
  in-process per circuit shape and its trapdoor is never materialized
  outside the helper, which discards it on exit.

Both backends' ``prove`` first check the witness against the rows with
``ConstraintSystem.check`` and refuse, naming the first failing row, a
witness that does not satisfy them.
"""

from __future__ import annotations

import atexit
import json
import os
import shutil
import subprocess
import tempfile
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Callable, Optional, Sequence

from .r1cs import ConstraintSystem, Unsatisfied, Witness

HELPER_ENV = "UNLEARN_GROTH16_BIN"
HELPER_NAME = "unlearn-groth16"


class ProofSysError(RuntimeError):
    pass


class BackendUnavailable(ProofSysError):
    pass


class UnsatisfiedWitness(ProofSysError):
    """Honest provers refuse to prove false statements.  ``row`` is the
    first constraint the witness fails, when the statement matches."""

    def __init__(self, message: str, row: Optional[int] = None):
        super().__init__(message)
        self.row = row


class FingerprintMismatch(ProofSysError):
    """Setup artifacts belong to a different circuit."""


class RelationHandle:
    """A circuit named by its fingerprint.  ``circuit`` is its constraint
    system: either given, or produced on first use by ``load``, so a
    verifier that stops at the fingerprint or statement check never
    reads the constraints."""

    def __init__(
        self,
        fingerprint: str,
        circuit: Optional[ConstraintSystem] = None,
        load: Optional[Callable[[], ConstraintSystem]] = None,
    ):
        if (circuit is None) == (load is None):
            raise ValueError("give exactly one of circuit and load")
        self.fingerprint = fingerprint
        self._circuit = circuit
        self._load = load

    @classmethod
    def of(cls, circuit: ConstraintSystem) -> "RelationHandle":
        return cls(circuit.fingerprint(), circuit)

    @property
    def circuit(self) -> ConstraintSystem:
        if self._circuit is None:
            self._circuit = self._load()
        return self._circuit

    def release(self) -> None:
        """Drop a loaded circuit; the next use loads it again.  A given
        circuit is kept."""
        if self._load is not None:
            self._circuit = None


@dataclass(frozen=True)
class SetupArtifacts:
    """Proving/verifying parameters.  The serialization schema has no
    trapdoor field by construction."""

    backend: str
    fingerprint: str
    proving_params: bytes = b""
    verifying_params: bytes = b""


@dataclass(frozen=True)
class ProofBlob:
    backend: str
    fingerprint: str
    public_inputs: tuple[int, ...]
    proof_bytes: bytes

    def __post_init__(self) -> None:
        object.__setattr__(self, "public_inputs", tuple(self.public_inputs))


def _check_fingerprint(rel: RelationHandle, sp: SetupArtifacts) -> None:
    if sp.fingerprint != rel.fingerprint:
        raise FingerprintMismatch(
            f"artifacts for {sp.fingerprint[:12]} used with circuit {rel.fingerprint[:12]}"
        )


def _self_check(cs: ConstraintSystem, statement: Sequence[int], witness: Witness) -> None:
    """Raise UnsatisfiedWitness unless ``statement`` is the witness's
    public wires and the witness satisfies every row of ``cs``."""
    if tuple(statement) != witness.values[1 : 1 + cs.num_public]:
        raise UnsatisfiedWitness("the statement is not the witness's public wires")
    try:
        cs.check(witness)
    except Unsatisfied as e:
        raise UnsatisfiedWitness(f"witness does not satisfy the circuit: {e}", e.row) from None


def _witness_payload(values: Sequence[int]) -> bytes:
    """A witness-check proof: version 2, then the projected wires as
    lowercase hex without leading zeros.  The verifier accepts exactly
    these bytes, so each projection has one accepted payload."""
    return json.dumps(
        {"v": 2, "wires": list(map(format, values, repeat("x")))}, separators=(",", ":")
    ).encode()


class WitnessCheckBackend:
    def __init__(self, check: bool = True):
        self.check = check
        self.name = "witness-check" if check else "witness-check-unchecked"

    def setup(self, rel: RelationHandle) -> SetupArtifacts:
        return SetupArtifacts(backend=self.name, fingerprint=rel.fingerprint)

    def prove(
        self,
        rel: RelationHandle,
        sp: SetupArtifacts,
        statement: Sequence[int],
        witness: Witness,
    ) -> ProofBlob:
        _check_fingerprint(rel, sp)
        cs = rel.circuit
        _self_check(cs, statement, witness)
        payload = _witness_payload(cs.project(witness))
        return ProofBlob(self.name, rel.fingerprint, tuple(statement), payload)

    def verify(
        self,
        rel: RelationHandle,
        sp: SetupArtifacts,
        statement: Sequence[int],
        blob: ProofBlob,
    ) -> bool:
        _check_fingerprint(rel, sp)
        if blob.fingerprint != rel.fingerprint:
            return False
        if blob.public_inputs != tuple(statement):
            return False
        if not self.check:
            return True
        try:
            values = list(map(int, json.loads(blob.proof_bytes)["wires"], repeat(16)))
        except (ValueError, KeyError, TypeError):
            return False
        # int() also reads "0x1", "+1", " 1", "1_0", "A" and "01": only the
        # bytes the prover writes for these values are accepted.
        if _witness_payload(values) != blob.proof_bytes:
            return False
        cs = rel.circuit
        if values and not (min(values) >= 0 and max(values) < cs.modulus):
            return False
        if tuple(values[1 : 1 + cs.num_public]) != tuple(statement):
            return False
        try:
            cs.complete(values)
        except Unsatisfied:
            return False
        return True


def find_helper() -> Optional[str]:
    env = os.environ.get(HELPER_ENV)
    if env and Path(env).is_file():
        return env
    on_path = shutil.which(HELPER_NAME)
    if on_path:
        return on_path
    # Repo-relative fallback for editable installs.
    root = Path(__file__).resolve().parents[2]
    candidate = root / "native" / "groth16" / "target" / "release" / HELPER_NAME
    if candidate.is_file():
        return str(candidate)
    return None


def _write_values(path: Path, header: str, values: Sequence[int]) -> None:
    lines = [header, f"values {len(values)}"]
    lines += [f"{v:x}" for v in values]
    path.write_text("\n".join(lines) + "\n")


class Groth16Backend:
    name = "snark"

    def __init__(self, seed: Optional[int] = None):
        self.seed = seed
        self._r1cs_cache: dict[str, Path] = {}
        self._workdir: Optional[Path] = None

    def _helper(self) -> str:
        helper = find_helper()
        if helper is None:
            raise BackendUnavailable(
                f"{HELPER_NAME} binary not found; build native/groth16 "
                f"(cargo build --release) or set ${HELPER_ENV}"
            )
        return helper

    def _run(self, *args: str) -> subprocess.CompletedProcess:
        proc = subprocess.run(
            [self._helper(), *args], capture_output=True, text=True
        )
        if proc.returncode == 2:
            raise ProofSysError(f"groth16 helper error: {proc.stderr.strip()}")
        return proc

    def _work(self) -> Path:
        if self._workdir is None:
            work = tempfile.mkdtemp(prefix="unlearn-groth16-")
            atexit.register(shutil.rmtree, work, ignore_errors=True)
            self._workdir = Path(work)
        return self._workdir

    def _r1cs_path(self, rel: RelationHandle) -> Path:
        path = self._r1cs_cache.get(rel.fingerprint)
        if path is None or not path.exists():
            path = self._work() / f"{rel.fingerprint}.r1cs"
            path.write_bytes(rel.circuit.export())
            self._r1cs_cache[rel.fingerprint] = path
        return path

    def setup(self, rel: RelationHandle) -> SetupArtifacts:
        work = self._work()
        pk = work / f"{rel.fingerprint}.pk"
        vk = work / f"{rel.fingerprint}.vk"
        args = ["setup", "--r1cs", str(self._r1cs_path(rel)), "--pk", str(pk), "--vk", str(vk)]
        if self.seed is not None:
            args += ["--seed", str(self.seed)]
        proc = self._run(*args)
        if proc.returncode != 0:
            raise ProofSysError(f"setup failed: {proc.stderr.strip()}")
        return SetupArtifacts(
            backend=self.name,
            fingerprint=rel.fingerprint,
            proving_params=pk.read_bytes(),
            verifying_params=vk.read_bytes(),
        )

    def prove(
        self,
        rel: RelationHandle,
        sp: SetupArtifacts,
        statement: Sequence[int],
        witness: Witness,
    ) -> ProofBlob:
        _check_fingerprint(rel, sp)
        _self_check(rel.circuit, statement, witness)
        work = self._work()
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            tmp = Path(tmp)
            pk = work / f"{sp.fingerprint}.pk"
            if not pk.exists():
                pk.write_bytes(sp.proving_params)
            wit = tmp / "witness"
            _write_values(wit, "unlearn-wit v1", witness.values)
            proof = tmp / "proof"
            proc = self._run(
                "prove",
                "--r1cs", str(self._r1cs_path(rel)),
                "--pk", str(pk),
                "--witness", str(wit),
                "--proof", str(proof),
            )
            if proc.returncode != 0:
                raise ProofSysError(f"prove failed: {proc.stderr.strip()}")
            return ProofBlob(self.name, rel.fingerprint, tuple(statement), proof.read_bytes())

    def verify(
        self,
        rel: RelationHandle,
        sp: SetupArtifacts,
        statement: Sequence[int],
        blob: ProofBlob,
    ) -> bool:
        _check_fingerprint(rel, sp)
        if blob.fingerprint != rel.fingerprint or blob.public_inputs != tuple(statement):
            return False
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            vk = tmp / "vk"
            vk.write_bytes(sp.verifying_params)
            pub = tmp / "publics"
            _write_values(pub, "unlearn-pub v1", list(statement))
            proof = tmp / "proof"
            proof.write_bytes(blob.proof_bytes)
            proc = self._run(
                "verify", "--vk", str(vk), "--publics", str(pub), "--proof", str(proof)
            )
            return proc.returncode == 0


_BACKENDS = {
    "witness-check": WitnessCheckBackend,
    "snark": Groth16Backend,
}


def get_backend(name: str, **kwargs):
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise BackendUnavailable(f"unknown backend {name!r}") from None
    return factory(**kwargs)
