import dataclasses
import json
import random

import pytest

from conftest import TINY_ROUNDS, failing_rows, is_satisfied, needs_snark
from unlearn import circuits
from unlearn.circuits import DataCircuit, ModelCircuit, ProtocolConfig
from unlearn.field import BN254_SCALAR_FIELD as P
from unlearn.field import fx_encode
from unlearn.hashing import DataPoint, hash_data_point
from unlearn.proofsys import (
    FingerprintMismatch,
    Groth16Backend,
    ProofBlob,
    RelationHandle,
    SetupArtifacts,
    UnsatisfiedWitness,
    WitnessCheckBackend,
    get_backend,
)
from unlearn.protocol import global_setup
from unlearn.r1cs import ConstraintSystem, Unsatisfied, Witness
from unlearn.serialize import SetupStore
from unlearn.training import Dataset, default_train_config


def squaring_relation():
    """y = x^2, built with x = 3."""
    cs = ConstraintSystem(P)
    y = cs.alloc_public(9)
    x = cs.alloc_private(3)
    cs.enforce({x: 1}, {x: 1}, {y: 1})
    cs.finalize()
    return RelationHandle.of(cs)


@pytest.fixture(scope="module")
def rel():
    return squaring_relation()


@pytest.fixture(scope="module")
def honest(rel):
    return (9,), rel.circuit.witness()


def test_witness_check_roundtrip(rel, honest):
    backend = WitnessCheckBackend()
    sp = backend.setup(rel)
    statement, witness = honest
    blob = backend.prove(rel, sp, statement, witness)
    assert backend.verify(rel, sp, statement, blob)


def test_witness_check_rejects_wrong_statement(rel, honest):
    backend = WitnessCheckBackend()
    sp = backend.setup(rel)
    statement, witness = honest
    blob = backend.prove(rel, sp, statement, witness)
    assert not backend.verify(rel, sp, (10,), blob)
    forged = dataclasses.replace(blob, public_inputs=(10,))
    assert not backend.verify(rel, sp, (10,), forged)


def test_prove_refuses_false_statement(rel, honest):
    backend = WitnessCheckBackend()
    sp = backend.setup(rel)
    _, witness = honest
    with pytest.raises(UnsatisfiedWitness):
        backend.prove(rel, sp, (10,), witness)


def test_fingerprint_mismatch_raises(rel, honest):
    backend = WitnessCheckBackend()
    sp = backend.setup(rel)
    other = dataclasses.replace(sp, fingerprint="0" * 64)
    statement, witness = honest
    with pytest.raises(FingerprintMismatch):
        backend.prove(rel, other, statement, witness)
    blob = backend.prove(rel, sp, statement, witness)
    with pytest.raises(FingerprintMismatch):
        backend.verify(rel, other, statement, blob)


def test_witness_check_blob_bitflips_never_verify(rel, honest):
    backend = WitnessCheckBackend()
    sp = backend.setup(rel)
    statement, witness = honest
    blob = backend.prove(rel, sp, statement, witness)
    rng = random.Random(5)
    rejected = 0
    for _ in range(100):
        data = bytearray(blob.proof_bytes)
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        tampered = dataclasses.replace(blob, proof_bytes=bytes(data))
        rejected += not backend.verify(rel, sp, statement, tampered)
    assert rejected == 100


def test_unchecked_variant_accepts_garbage(rel, honest):
    backend = WitnessCheckBackend(check=False)
    sp = backend.setup(rel)
    statement, _ = honest
    garbage = ProofBlob(backend.name, rel.fingerprint, statement, b"\x00")
    assert backend.verify(rel, sp, statement, garbage)
    assert backend.name != WitnessCheckBackend().name


def payload(wires, v=2) -> bytes:
    return json.dumps({"v": v, "wires": wires}, separators=(",", ":")).encode()


def test_witness_check_accepts_only_canonical_hex():
    # x = 26 is free; y = 676 is the statement.
    cs = ConstraintSystem(P)
    y = cs.alloc_public(676)
    x = cs.alloc_private(26)
    cs.enforce({x: 1}, {x: 1}, {y: 1})
    cs.finalize()
    rel = RelationHandle.of(cs)
    backend = WitnessCheckBackend()
    sp = backend.setup(rel)
    blob = backend.prove(rel, sp, (676,), cs.witness())
    assert blob.proof_bytes == payload(["1", "2a4", "1a"])
    assert backend.verify(rel, sp, (676,), blob)
    # Each form reads as 26 with int(v, 16); only "1a" is accepted.
    for form in ("0x1a", "0X1a", "+1a", " 1a", "1a ", "1_a", "1A", "01a"):
        assert int(form, 16) == 26
        forged = dataclasses.replace(blob, proof_bytes=payload(["1", "2a4", form]))
        assert not backend.verify(rel, sp, (676,), forged), form
    for other in (
        payload(["01", "2a4", "1a"]),
        payload(["1", "2A4", "1a"]),
        json.dumps({"v": 2, "wires": ["1", "2a4", "1a"]}).encode(),
        json.dumps({"v": 2.0, "wires": ["1", "2a4", "1a"]}, separators=(",", ":")).encode(),
        json.dumps({"v": 2, "wires": ["1", "2a4", "1a"], "x": 0}, separators=(",", ":")).encode(),
    ):
        assert not backend.verify(rel, sp, (676,), dataclasses.replace(blob, proof_bytes=other))


def _update_blobs(pub, xs, ghosts=(100, 101)):
    """Honest witness-check proofs of both circuits for a dataset at
    features ``xs`` and two unlearnt points, one from an earlier update;
    with each circuit and its witness."""
    scale = pub.config.train.scale
    dataset = Dataset(
        tuple(DataPoint(uid, (fx_encode(x, scale),), fx_encode(uid % 2, scale))
              for uid, x in enumerate(xs, 1)),
        1,
    )
    unlearnt = [
        hash_data_point(DataPoint(uid, (fx_encode(0.5, scale),), 0), pub.hash_cfg)
        for uid in ghosts
    ]
    model = ModelCircuit(pub.config, dataset, values_only=True)
    data = DataCircuit(pub.config, model.digests, unlearnt[:1], unlearnt[1:], values_only=True)
    out = []
    for rel, setup, circuit in (
        (pub.model_relation, pub.model_setup, model),
        (pub.data_relation, pub.data_setup, data),
    ):
        witness = circuit.cs.witness()
        blob = pub.backend.prove(rel, setup, circuit.statement, witness)
        out.append((rel, setup, circuit, witness, blob))
    return out


def test_witness_check_encoded_mutations_never_verify(fast_pub):
    # Every single-entry change of a free wire, and each malformed list,
    # is rejected by the backend.  The verifier derives every other wire,
    # so a change to an absent slot's digest or to an inactive pair's
    # inverse is a multi-wire forgery: the absent-slot pins reject it.
    backend = fast_pub.backend
    mutated = 0
    survivors = []
    for rel, setup, _, witness, blob in _update_blobs(fast_pub, [0.5, -0.25, 1.0]):
        statement = blob.public_inputs
        assert backend.verify(rel, setup, statement, blob)
        wires = json.loads(blob.proof_bytes)["wires"]
        free = rel.circuit.free_wires()
        first = 1 + len(statement)
        assert len(wires) == first + len(free)

        def rejected(entries, v=2):
            forged = dataclasses.replace(blob, proof_bytes=payload(entries, v))
            return not backend.verify(rel, setup, statement, forged)

        for k, wire in enumerate(free, first):
            entries = list(wires)
            entries[k] = f"{(int(wires[k], 16) + 1) % P:x}"
            if not rejected(entries):
                survivors.append((rel.fingerprint, wire))
            mutated += 1
        assert rejected(wires[:-1])
        assert rejected(wires + ["0"])
        assert rejected(wires[:first] + wires[first + 1:])
        assert rejected(wires[:first] + [f"{int(wires[first], 16) + P:x}"] + wires[first + 1:])
        full = [f"{v:x}" for v in witness.values]
        assert rejected(full, v=1)
        assert rejected(full)
    assert mutated > 1000
    assert survivors == []


# -- one witness per statement ------------------------------------------------------
# A second witness of an honest statement, differing only where the
# statement cannot see it, must satisfy no stored rows and give no proof
# that verifies: the extractor's witness is then the one honest witness.


def _unchecked_blob(rel, statement, given) -> ProofBlob:
    """The witness-check proof of the projection ``given``, written without
    the prover's self-check."""
    return ProofBlob(
        "witness-check", rel.fingerprint, tuple(statement), payload([f"{v:x}" for v in given])
    )


@pytest.mark.parametrize(
    "kind,arity,hidden", [("linear", 1, 0), ("logistic", 2, 0), ("nn", 1, 2)]
)
def test_model_witness_with_other_absent_slot_data_never_verifies(
    kind, arity, hidden, scale, monkeypatch
):
    pub = global_setup(
        ProtocolConfig(
            train=default_train_config(kind, arity, hidden=hidden, epochs=1, scale=scale),
            capacity=4,
            unlearn_capacity=1,
            hash_rounds=TINY_ROUNDS,
        )
    )
    dataset = Dataset(
        tuple(DataPoint(uid, (fx_encode(0.5, scale),) * arity, fx_encode(uid % 2, scale))
              for uid in (1, 2, 3)),
        arity,
    )
    honest = ModelCircuit(pub.config, dataset, values_only=True)
    # The same dataset, built with in-range data other than the padding in
    # the absent slot: training skips it, so the statement is the same.
    other = DataPoint(7, (fx_encode(-0.25, scale),) * arity, fx_encode(1, scale))
    monkeypatch.setattr(circuits, "DataPoint", lambda *_: other)
    forged = ModelCircuit(pub.config, dataset, values_only=True)
    monkeypatch.undo()
    assert forged.statement == honest.statement
    assert forged.cs.values != honest.cs.values

    rel, setup, backend = pub.model_relation, pub.model_setup, pub.backend
    assert is_satisfied(rel.circuit, honest.cs.witness())
    assert not is_satisfied(rel.circuit, forged.cs.witness())
    statement, given = forged.statement, rel.circuit.project(forged.cs.witness())
    with pytest.raises(Unsatisfied):
        rel.circuit.complete(given)
    assert not backend.verify(rel, setup, statement, _unchecked_blob(rel, statement, given))
    with pytest.raises(UnsatisfiedWitness) as refused:
        backend.prove(rel, setup, statement, forged.cs.witness())
    assert refused.value.row == failing_rows(rel.circuit, forged.cs.witness())[0]


def test_data_witness_with_other_absent_values_never_verifies(fast_pub):
    # Three training and two unlearnt digests in capacity-8 arrays.
    [_, (rel, setup, circuit, witness, blob)] = _update_blobs(fast_pub, [0.5, -0.25, 1.0])
    cs, backend = rel.circuit, fast_pub.backend
    statement = blob.public_inputs
    assert backend.verify(rel, setup, statement, blob)
    cap = fast_pub.config.capacity
    # After the statement: training presence bits and digests, then the
    # unlearnt presence bits and digests.
    d_absent = circuit.h_u_wire + 1 + cap + 3
    u_absent = circuit.h_u_wire + 1 + 2 * cap + cap + 2
    # The inverse wire of that both-absent pair: (d - u) * inverse = active.
    [inverse] = [
        w for a, b, c in cs.constraints if set(a) == {d_absent, u_absent} and len(c) == 1
        for w in b
    ]
    free = cs.free_wires()
    for wire in (d_absent, u_absent, inverse):
        given = cs.project(witness)
        k = 1 + len(statement) + free.index(wire)
        given[k] = (given[k] + 5) % P
        with pytest.raises(Unsatisfied) as refused:
            cs.complete(given)
        assert refused.value.row is not None, wire
        assert not backend.verify(rel, setup, statement, _unchecked_blob(rel, statement, given))
    # The inverse feeds no other row, so that forgery is the honest
    # witness with one wire changed.
    values = list(witness.values)
    values[inverse] = 5
    assert not is_satisfied(cs, Witness(tuple(values)))


def test_witness_check_spliced_free_wires_never_verify(fast_pub):
    # Another dataset's free wires under this dataset's statement.
    backend = fast_pub.backend
    ours = _update_blobs(fast_pub, [0.5, -0.25])
    theirs = _update_blobs(fast_pub, [0.75, 1.0], ghosts=(102, 103))
    for (rel, setup, _, _, blob), (_, _, _, _, other) in zip(ours, theirs):
        statement = blob.public_inputs
        assert other.public_inputs != statement
        first = 1 + len(statement)
        wires = json.loads(blob.proof_bytes)["wires"]
        spliced = wires[:first] + json.loads(other.proof_bytes)["wires"][first:]
        assert spliced != wires
        forged = dataclasses.replace(blob, proof_bytes=payload(spliced))
        assert not backend.verify(rel, setup, statement, forged)


def test_setup_artifacts_schema_has_no_trapdoor():
    fields = {f.name for f in dataclasses.fields(SetupArtifacts)}
    assert fields == {"backend", "fingerprint", "proving_params", "verifying_params"}


def test_backend_registry():
    assert isinstance(get_backend("witness-check"), WitnessCheckBackend)
    assert isinstance(get_backend("snark"), Groth16Backend)
    from unlearn.proofsys import BackendUnavailable

    with pytest.raises(BackendUnavailable):
        get_backend("nope")


# -- sound backend -------------------------------------------------------------


@needs_snark
def test_groth16_roundtrip_and_agreement(rel, honest):
    snark = Groth16Backend(seed=7)
    wc = WitnessCheckBackend()
    sp = snark.setup(rel)
    sp_wc = wc.setup(rel)
    statement, witness = honest
    blob = snark.prove(rel, sp, statement, witness)
    assert len(blob.proof_bytes) == 128  # compressed Groth16 proof
    assert snark.verify(rel, sp, statement, blob)
    assert not snark.verify(rel, sp, (10,), blob)
    # Backend agreement on the honest pair and on a mutated statement.
    blob_wc = wc.prove(rel, sp_wc, statement, witness)
    assert wc.verify(rel, sp_wc, statement, blob_wc)
    assert not wc.verify(rel, sp_wc, (10,), blob_wc)


@needs_snark
def test_groth16_seeded_setup_is_deterministic(rel):
    a = Groth16Backend(seed=11).setup(rel)
    b = Groth16Backend(seed=11).setup(rel)
    assert a.proving_params == b.proving_params
    assert a.verifying_params == b.verifying_params
    c = Groth16Backend(seed=12).setup(rel)
    assert c.verifying_params != a.verifying_params


@needs_snark
def test_groth16_refuses_false_statement(rel, honest):
    snark = Groth16Backend(seed=7)
    sp = snark.setup(rel)
    _, witness = honest
    with pytest.raises(UnsatisfiedWitness):
        snark.prove(rel, sp, (10,), witness)


@needs_snark
def test_groth16_proof_bitflips_never_verify(rel, honest):
    snark = Groth16Backend(seed=7)
    sp = snark.setup(rel)
    statement, witness = honest
    blob = snark.prove(rel, sp, statement, witness)
    rng = random.Random(99)
    for _ in range(1000):
        data = bytearray(blob.proof_bytes)
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        tampered = dataclasses.replace(blob, proof_bytes=bytes(data))
        assert not snark.verify(rel, sp, statement, tampered)


def test_witness_check_reads_constraints_only_after_statement_check(rel, honest):
    backend = WitnessCheckBackend()
    sp = backend.setup(rel)
    statement, witness = honest
    blob = backend.prove(rel, sp, statement, witness)
    loads = []

    def load():
        loads.append(1)
        return rel.circuit

    stored = RelationHandle(rel.fingerprint, load=load)
    assert not backend.verify(stored, sp, (10,), blob)
    assert not loads
    assert backend.verify(stored, sp, statement, blob)
    assert backend.verify(stored, sp, statement, blob)
    assert len(loads) == 1


def test_loaded_relation_releases_its_circuit(rel):
    loads = []

    def load():
        loads.append(1)
        return rel.circuit

    stored = RelationHandle(rel.fingerprint, load=load)
    stored.circuit
    stored.circuit
    stored.release()
    stored.circuit
    assert len(loads) == 2
    # A given circuit is kept.
    circuit = rel.circuit
    rel.release()
    assert rel.circuit is circuit


@pytest.mark.parametrize(
    "make_backend",
    [WitnessCheckBackend, pytest.param(lambda: Groth16Backend(seed=7), marks=needs_snark)],
    ids=["witness-check", "snark"],
)
def test_prove_against_the_stored_export(rel, honest, tmp_path, make_backend):
    # The relation a prover gets from pub/: loaded from the stored export
    # and released after each proof, as protocol.prove_update does.
    store = SetupStore(tmp_path)
    fingerprint = store.save_circuit(rel.circuit.export())
    stored = RelationHandle(fingerprint, load=lambda: store.load_circuit(fingerprint))
    backend = make_backend()
    sp = backend.setup(stored)
    stored.release()
    statement, witness = honest
    blob = backend.prove(stored, sp, statement, witness)
    stored.release()
    assert backend.verify(stored, sp, statement, blob)
    assert not backend.verify(stored, sp, (10,), blob)
    stored.release()
    with pytest.raises(UnsatisfiedWitness):
        backend.prove(stored, sp, (10,), witness)
