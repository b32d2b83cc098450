"""Proving-system interface: Setup / Prove / Verify over R1CS relations.

Two interchangeable backends:

* ``witness-check`` — development backend.  Proofs carry a witness's
  free wires (``r1cs``), for the update circuits each slot's inputs,
  each written once as the signed hex of its representative in
  (-p/2, p/2]: the constant is 1 and the statement is the blob's
  ``public_inputs``, so neither is repeated.  The list ends at the last
  nonzero free wire, so absent slots, pinned to zero and laid out after
  the present ones, are not written, and each run of two or more zeros
  before it, such as the absent training slots before an unlearnt
  digest, is one entry.  The verifier refuses runs that reach past the
  free-wire count the rows give (``ConstraintSystem.num_free``) before
  it expands any, pads the list with zeros to that count, rebuilds the
  projection, derives the rest in row order, each range check's bits as
  the binary digits of its sum row, and checks every other constraint
  (``ConstraintSystem.complete``).
  Not succinct and not hiding, but exact and dependency-free;
  completeness and circuit-level tests run on it.  A deliberately broken
  variant (``check=False``) that accepts anything is available to the
  security harness as a negative control.

* ``snark`` — sound succinct backend: Groth16 over BN254 via the bundled
  ``unlearn-groth16`` helper binary (arkworks).  The trusted setup runs
  in-process per circuit shape and its trapdoor is never materialized
  outside the helper, which discards it on exit.  ``prove`` reads only
  the relation's proving key and ``verify`` only its verifying key.

Both backends' ``prove`` take a witness's projection, computed from the
inputs (``circuits.model_projection`` and ``data_projection``), and
complete it against the rows once (``ConstraintSystem.complete``), which
raises ``r1cs.Unsatisfied``, naming the first failing row, if no witness
satisfies them.  Witness-check writes the projection's free wires;
Groth16 proves the completion.
"""

from __future__ import annotations

import atexit
import json
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Optional, Sequence

if TYPE_CHECKING:
    from subprocess import CompletedProcess

    from .r1cs import ConstraintSystem

HELPER_ENV = "UNLEARN_GROTH16_BIN"
HELPER_NAME = "unlearn-groth16"


class ProofSysError(RuntimeError):
    pass


class BackendUnavailable(ProofSysError):
    pass


class FingerprintMismatch(ProofSysError):
    """The stored circuit refuses the inputs computed from the config."""


@dataclass(frozen=True)
class SetupArtifacts:
    """A circuit's setup keys.  The serialization schema has no trapdoor
    field by construction."""

    proving_params: bytes = b""
    verifying_params: bytes = b""


class RelationHandle:
    """A circuit named by its fingerprint, with its rows and its setup
    keys.  ``circuit`` is its constraint system: either given, or
    produced on first use by ``load``, so a verifier that stops at the
    fingerprint or statement check never reads the constraints.
    ``keys`` has the ``SetupArtifacts`` fields; stored keys
    (``serialize.StoredKeys``) read each file when it is first asked
    for, so a prover reads only the proving key and a verifier only the
    verifying key."""

    def __init__(
        self,
        fingerprint: str,
        circuit: Optional[ConstraintSystem] = None,
        load: Optional[Callable[[], ConstraintSystem]] = None,
        keys: Optional[SetupArtifacts] = None,
    ):
        if (circuit is None) == (load is None):
            raise ValueError("give exactly one of circuit and load")
        self.fingerprint = fingerprint
        self.keys = keys
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

    def held(self) -> "RelationHandle":
        """This relation with its circuit given, loaded now if need be, so
        that ``release`` keeps it: for a caller that proves or verifies
        against it many times."""
        return RelationHandle(self.fingerprint, self.circuit, keys=self.keys)


@dataclass(frozen=True)
class ProofBlob:
    fingerprint: str
    public_inputs: tuple[int, ...]
    proof_bytes: bytes

    def __post_init__(self) -> None:
        object.__setattr__(self, "public_inputs", tuple(self.public_inputs))


# The witness-check payload's format version.
PAYLOAD_VERSION = 7
# A run of zeros is written as this prefix and the hex of its length, a
# spelling no value has.
_RUN = "0*"


def _witness_payload(free: Sequence[int], modulus: int) -> bytes:
    """A witness-check payload: its version, then each of ``free`` as the
    lowercase hex of its signed representative in (-p/2, p/2], so -0.5 in
    fixed point is ``-8000``, except that each maximal run of k >= 2
    zeros is the one entry ``0*`` and the hex of k, so 14 zeros are
    ``0*e``; no values is ``"wires":[]``.  A prover writes the free
    wires up to the last nonzero one."""
    wires = []
    zeros = 0
    for v in free:
        v %= modulus
        if not v:
            zeros += 1
            continue
        if zeros:
            wires.append(_zeros(zeros))
            zeros = 0
        wires.append(format(v - modulus if v > modulus >> 1 else v, "x"))
    if zeros:
        wires.append(_zeros(zeros))
    return json.dumps({"v": PAYLOAD_VERSION, "wires": wires}, separators=(",", ":")).encode()


def _zeros(k: int) -> str:
    return "0" if k == 1 else f"{_RUN}{k:x}"


def _run_length(entry) -> int:
    """The number of zeros a run entry stands for, or 0 for a value.
    Raises ValueError for a run entry the encoder does not write: a count
    below 2, or one not spelled as ``format(k, "x")``."""
    if entry[: len(_RUN)] != _RUN:
        return 0
    k = int(entry[len(_RUN):], 16)
    if k < 2 or _zeros(k) != entry:
        raise ValueError
    return k


def _witness_values(payload: bytes, modulus: int, limit: Optional[int] = None) -> list[int]:
    """The values of a witness-check payload, reduced mod ``modulus``,
    each run expanded: the inverse of ``_witness_payload``.  Raises
    ValueError for anything but the bytes ``_witness_payload`` writes for
    them, or for more than ``limit`` values, counted before any run is
    expanded."""
    try:
        entries = json.loads(payload)["wires"]
        runs = [_run_length(w) for w in entries]
        if limit is not None and sum(k or 1 for k in runs) > limit:
            raise ValueError
        values = []
        for k, w in zip(runs, entries):
            values += [0] * k if k else [int(w, 16) % modulus]
    except (ValueError, KeyError, TypeError, RecursionError):
        # RecursionError: JSON nested too deeply to decode.
        raise ValueError("not a witness-check payload") from None
    # int() also reads "0x1", "+1", "-0", " 1", "1_0", "A", "01" and the
    # positive spelling of a negative value, and runs may be split or be
    # runs of one: only the bytes the encoder writes for these values are
    # accepted.
    if _witness_payload(values, modulus) != payload:
        raise ValueError("not the canonical witness-check payload of its values")
    return values


class WitnessCheckBackend:
    def __init__(self, check: bool = True):
        self.check = check
        self.name = "witness-check" if check else "witness-check-unchecked"

    def setup(self, rel: RelationHandle) -> SetupArtifacts:
        """No keys: the verifier reads the rows themselves."""
        return SetupArtifacts()

    def prove(self, rel: RelationHandle, given: Sequence[int]) -> ProofBlob:
        """Prove the statement of the projection ``given``.  Raises
        Unsatisfied, naming the first row that fails, if no witness
        completes it."""
        cs = rel.circuit
        witness = cs.complete(given)
        placed = 1 + cs.num_public
        free = list(given[placed:])
        while free and not free[-1] % cs.modulus:
            free.pop()
        payload = _witness_payload(free, cs.modulus)
        return ProofBlob(rel.fingerprint, witness[1:placed], payload)

    def verify(self, rel: RelationHandle, statement: Sequence[int], blob: ProofBlob) -> bool:
        if blob.fingerprint != rel.fingerprint:
            return False
        if blob.public_inputs != tuple(statement):
            return False
        if not self.check:
            return True
        from .r1cs import Unsatisfied

        cs = rel.circuit
        if len(statement) != cs.num_public:
            return False
        # No run may reach past the free wires: the count is checked
        # before any run is expanded.
        n = cs.num_free
        try:
            free = _witness_values(blob.proof_bytes, cs.modulus, n)
        except ValueError:
            return False
        # The list ends at its last nonzero value, so each projection has
        # one accepted payload.
        if free[-1:] == [0]:
            return False
        try:
            cs.complete((1, *statement, *free, *[0] * (n - len(free))))
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

    def _run(self, *args: str) -> CompletedProcess:
        import subprocess  # only this backend starts a process

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
            with open(path, "wb") as fh:
                rel.circuit.write_export(fh)
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
        return SetupArtifacts(proving_params=pk.read_bytes(), verifying_params=vk.read_bytes())

    def prove(self, rel: RelationHandle, given: Sequence[int]) -> ProofBlob:
        """Prove the statement of the projection ``given``.  Raises
        Unsatisfied, naming the first row that fails, if no witness
        completes it."""
        witness = rel.circuit.complete(given)
        work = self._work()
        pk = work / f"{rel.fingerprint}.pk"
        if not pk.exists():
            pk.write_bytes(rel.keys.proving_params)
        with tempfile.TemporaryDirectory(dir=work) as tmp:
            tmp = Path(tmp)
            wit = tmp / "witness"
            _write_values(wit, "unlearn-wit v1", witness)
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
            statement = witness[1 : 1 + rel.circuit.num_public]
            return ProofBlob(rel.fingerprint, statement, proof.read_bytes())

    def verify(self, rel: RelationHandle, statement: Sequence[int], blob: ProofBlob) -> bool:
        if blob.fingerprint != rel.fingerprint or blob.public_inputs != tuple(statement):
            return False
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            vk = tmp / "vk"
            vk.write_bytes(rel.keys.verifying_params)
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


def get_backend(name: str):
    try:
        factory = _BACKENDS[name]
    except KeyError:
        raise BackendUnavailable(f"unknown backend {name!r}") from None
    return factory()
