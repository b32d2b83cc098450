import dataclasses
import random

import pytest

from conftest import needs_snark
from unlearn.field import BN254_SCALAR_FIELD as P
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
from unlearn.r1cs import ConstraintSystem
from unlearn.serialize import SetupStore


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
    tampered = []
    for _ in range(1000):
        data = bytearray(blob.proof_bytes)
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        tampered.append(bytes(data))
    results = snark.verify_many(rel, sp, statement, tampered)
    assert len(results) == 1000
    assert not any(results)


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
