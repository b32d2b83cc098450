import dataclasses
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import TINY_ROUNDS, failing_rows, is_satisfied, needs_snark, project, rows_touching
from conftest import statement_of
from unlearn.circuits import ModelCircuit, ProtocolConfig, data_projection, model_projection
from unlearn.field import BN254_SCALAR_FIELD as P
from unlearn.field import fx_encode
from unlearn.gadgets import CircuitBuilder
from unlearn.hashing import DataPoint, hash_data_point
from unlearn.proofsys import (
    Groth16Backend,
    ProofBlob,
    RelationHandle,
    SetupArtifacts,
    WitnessCheckBackend,
    get_backend,
)
from unlearn.protocol import global_setup
from unlearn.r1cs import ConstraintSystem, Unsatisfied
from unlearn.serialize import SetupStore
from unlearn.training import Dataset, default_train_config


def squaring_relation():
    """y = x^2."""
    cs = ConstraintSystem(P)
    y = cs.alloc_public()
    x = cs.alloc_private(name="x")
    cs.enforce({x: 1}, {x: 1}, {y: 1})
    cs.finalize()
    return RelationHandle.of(cs)


@pytest.fixture(scope="module")
def rel():
    return squaring_relation()


@pytest.fixture(scope="module")
def honest(rel):
    """The statement y = 9 and the honest projection [1, y, x]."""
    return (9,), [1, 9, 3]


# The projection of y = 10 with x = 3: no witness has it.
FALSE = [1, 10, 3]


def with_keys(rel, backend):
    """``rel``'s circuit with keys from a fresh ``backend`` setup."""
    return RelationHandle(rel.fingerprint, rel.circuit, keys=backend.setup(rel))


def test_witness_check_roundtrip(rel, honest):
    backend = WitnessCheckBackend()
    assert backend.setup(rel) == SetupArtifacts()
    statement, given = honest
    blob = backend.prove(rel, given)
    assert blob.public_inputs == statement
    assert backend.verify(rel, statement, blob)


def test_witness_check_rejects_wrong_statement(rel, honest):
    backend = WitnessCheckBackend()
    statement, given = honest
    blob = backend.prove(rel, given)
    assert not backend.verify(rel, (10,), blob)
    forged = dataclasses.replace(blob, public_inputs=(10,))
    assert not backend.verify(rel, (10,), forged)


def test_prove_refuses_false_statement(rel, honest):
    backend = WitnessCheckBackend()
    with pytest.raises(Unsatisfied) as refused:
        backend.prove(rel, FALSE)
    assert refused.value.row == 0


def test_witness_check_blob_bitflips_never_verify(rel, honest):
    backend = WitnessCheckBackend()
    statement, given = honest
    blob = backend.prove(rel, given)
    rng = random.Random(5)
    rejected = 0
    for _ in range(100):
        data = bytearray(blob.proof_bytes)
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        tampered = dataclasses.replace(blob, proof_bytes=bytes(data))
        rejected += not backend.verify(rel, statement, tampered)
    assert rejected == 100


def test_unchecked_variant_accepts_garbage(rel, honest):
    backend = WitnessCheckBackend(check=False)
    statement, _ = honest
    garbage = ProofBlob(backend.name, rel.fingerprint, statement, b"\x00")
    assert backend.verify(rel, statement, garbage)
    assert backend.name != WitnessCheckBackend().name


def payload(wires, v=5) -> bytes:
    return json.dumps({"v": v, "wires": wires}, separators=(",", ":")).encode()


def signed_hex(v: int) -> str:
    """The one spelling a version-5 payload accepts for the field element
    ``v``: the hex of its representative in (-P/2, P/2]."""
    v %= P
    return format(v - P if v > P // 2 else v, "x")


def identity_relation() -> RelationHandle:
    """y = x, with x free: every field element is some proof's wire."""
    cs = ConstraintSystem(P)
    y = cs.alloc_public()
    x = cs.alloc_private(name="x")
    cs.enforce({x: 1}, {0: 1}, {y: 1})
    cs.finalize()
    return RelationHandle.of(cs)


def test_witness_check_accepts_only_canonical_hex():
    # x = 26 is free; y = 676 is the statement, which the payload does not
    # repeat, nor the constant.
    rel = squaring_relation()
    backend = WitnessCheckBackend()
    blob = backend.prove(rel, [1, 676, 26])
    assert blob.proof_bytes == payload(["1a"])
    assert backend.verify(rel, (676,), blob)
    # Each form reads as 26 with int(v, 16); only "1a" is accepted.
    for form in ("0x1a", "0X1a", "+1a", " 1a", "1a ", "1_a", "1A", "01a", f"{P + 26:x}"):
        assert int(form, 16) % P == 26
        forged = dataclasses.replace(blob, proof_bytes=payload([form]))
        assert not backend.verify(rel, (676,), forged), form
    # x = -26 squares to the same y: it is written signed, and its
    # positive spelling p - 26 is refused.
    negative = backend.prove(rel, [1, 676, P - 26])
    assert negative.proof_bytes == payload(["-1a"])
    assert backend.verify(rel, (676,), negative)
    for form in (f"{P - 26:x}", "-01a", "-0x1a", "-1A", "-1_a", f"-{P + 26:x}"):
        assert int(form, 16) % P == P - 26
        forged = dataclasses.replace(negative, proof_bytes=payload([form]))
        assert not backend.verify(rel, (676,), forged), form
    # x = 0 is the last nonzero wire's absence: the list is empty, and
    # "0" itself is refused.
    zero = backend.prove(rel, [1, 0, 0])
    assert zero.proof_bytes == payload([])
    assert backend.verify(rel, (0,), zero)
    for form in ("0", "-0", "+0", "00", "0x0", f"{P:x}"):
        assert not backend.verify(rel, (0,), dataclasses.replace(zero, proof_bytes=payload([form])))
    for other in (
        payload(["1a"], v=3),
        payload(["1a"], v=4),
        payload(["1", "2a4", "1a"], v=3),
        payload(["1", "2a4", "1a"]),
        payload(["2a4", "1a"]),
        payload([]),
        payload(["1a", "0"]),
        payload([26]),
        json.dumps({"v": 5, "wires": ["1a"]}).encode(),
        json.dumps({"v": 5.0, "wires": ["1a"]}, separators=(",", ":")).encode(),
        json.dumps({"v": 5, "wires": ["1a"], "x": 0}, separators=(",", ":")).encode(),
        json.dumps({"v": 5, "wires": "1a"}, separators=(",", ":")).encode(),
        json.dumps([5, ["1a"]]).encode(),
        b"\xff",
    ):
        assert not backend.verify(rel, (676,), dataclasses.replace(blob, proof_bytes=other)), other


HALF = (P - 1) // 2


@settings(max_examples=200, deadline=None)
@given(st.one_of(st.sampled_from([0, 1, HALF, HALF + 1, P - 1]), st.integers(0, P - 1)))
def test_witness_check_payload_round_trips_every_field_element(v):
    # The prover writes the signed representative; the verifier accepts
    # those bytes and refuses every other spelling of the same value.
    rel, backend = identity_relation(), WitnessCheckBackend()
    blob = backend.prove(rel, [1, v, v])
    canonical = signed_hex(v)
    # Zero is a trailing zero: the list ends before it.
    assert blob.proof_bytes == payload([canonical] if v else [])
    assert int(canonical, 16) % P == v and abs(int(canonical, 16)) <= HALF
    assert backend.verify(rel, (v,), blob)
    magnitude = canonical.removeprefix("-")
    sign = canonical[: len(canonical) - len(magnitude)]
    others = {
        f"{v:x}", f"{v - P:x}", f"{v + P:x}",  # the other representatives
        f"{sign}0{magnitude}", f"{sign}0x{magnitude}", f"{sign}{magnitude.upper()}",
        f"{sign or '+'}{magnitude}", f" {canonical}",
    }
    if v == 0:
        others.add("-0")
    else:
        others.discard(canonical)
    for form in others:
        assert int(form, 16) % P == v
        forged = dataclasses.replace(blob, proof_bytes=payload([form]))
        assert not backend.verify(rel, (v,), forged), form


def _update_blobs(pub, xs, ghosts=(100, 101)):
    """Honest witness-check proofs of both circuits for a dataset at
    features ``xs`` and two unlearnt points, one from an earlier update;
    with each relation and its completed witness."""
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
    model_given, _, digests = model_projection(pub.config, dataset)
    data_given = data_projection(pub.config, digests, unlearnt[:1], unlearnt[1:])
    out = []
    for rel, given in ((pub.model_relation, model_given), (pub.data_relation, data_given)):
        blob = pub.backend.prove(rel, given)
        out.append((rel, rel.circuit.complete(given), blob))
    return out


def test_witness_check_encoded_mutations_never_verify(fast_pub):
    # Every single-entry change of a free wire, and each malformed list,
    # is rejected by the backend.  The verifier derives every other wire,
    # so a change to an absent slot's digest is a multi-wire forgery: the
    # absent-slot pins reject it.
    backend = fast_pub.backend
    mutated = 0
    survivors = []
    for rel, witness, blob in _update_blobs(fast_pub, [0.5, -0.25, 1.0]):
        statement = blob.public_inputs
        assert backend.verify(rel, statement, blob)
        wires = json.loads(blob.proof_bytes)["wires"]
        free = rel.circuit.free_wires()
        # Only the free wires: the constant and the statement are not
        # repeated, and the list ends at the last nonzero one.
        untrimmed = [signed_hex(witness[w]) for w in free]
        assert wires == untrimmed[: len(wires)] and wires[-1] != "0"
        assert set(untrimmed[len(wires):]) <= {"0"}

        def rejected(entries, v=5):
            forged = dataclasses.replace(blob, proof_bytes=payload(entries, v))
            return not backend.verify(rel, statement, forged)

        for k, wire in enumerate(free):
            # A wire past the list's end is written out to it.
            entries = wires + ["0"] * (k + 1 - len(wires))
            entries[k] = signed_hex(int(entries[k], 16) + 1)
            if not rejected(entries):
                survivors.append((rel.fingerprint, wire))
            mutated += 1
        assert rejected(wires[:-1])
        assert rejected(wires + ["0"])
        assert rejected(untrimmed) or untrimmed == wires
        assert rejected(wires, v=4)
        assert rejected(wires[1:])
        assert rejected([f"{int(wires[0], 16) + P:x}"] + wires[1:])
        projection = [signed_hex(v) for v in (1, *statement)] + wires
        assert rejected(projection)
        assert rejected([f"{v:x}" for v in (1, *statement)] + [f"{witness[w]:x}" for w in free],
                        v=3)
        full = [f"{v:x}" for v in witness]
        assert rejected(full, v=1)
        assert rejected(full)
    # The model's 8 slots of presence, uid, feature and label, and the
    # data circuit's presence bits, digests and previous bits of 8 slots
    # and one inverse.
    assert mutated == 8 * 4 + 5 * 8 + 1
    assert survivors == []


def copy_relation(k: int) -> RelationHandle:
    """y_i = x_i for i < k, each x_i free: every list of k field elements
    is some proof's free wires."""
    cs = ConstraintSystem(P)
    ys = [cs.alloc_public() for _ in range(k)]
    for y in ys:
        cs.enforce({cs.alloc_private(): 1}, {0: 1}, {y: 1})
    cs.finalize()
    return RelationHandle.of(cs)


COPIES = [copy_relation(k) for k in range(6)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(st.just(0), st.sampled_from([1, HALF, HALF + 1, P - 1]),
                          st.integers(0, P - 1)), max_size=len(COPIES) - 1))
@example([])
@example([0, 0, 0])
@example([7])
@example([0, 0, P - 1])
@example([5, 0, 0, 0])
def test_witness_check_payload_ends_at_the_last_nonzero_wire(values):
    # The prover writes the free wires up to the last nonzero one, and the
    # verifier pads the rest with zeros: only those bytes verify.
    rel, backend = COPIES[len(values)], WitnessCheckBackend()
    statement = tuple(values)
    blob = backend.prove(rel, [1, *statement, *values])
    untrimmed = [signed_hex(v) for v in values]
    end = max((i + 1 for i, v in enumerate(values) if v), default=0)
    assert blob.proof_bytes == payload(untrimmed[:end])
    assert backend.verify(rel, statement, blob)

    def refused(entries):
        forged = dataclasses.replace(blob, proof_bytes=payload(entries))
        return not backend.verify(rel, statement, forged)

    assert refused(untrimmed[:end] + ["0"])
    assert refused(untrimmed + ["1"])  # past the free-wire count
    assert refused(untrimmed) == (end < len(values))


# -- one witness per statement ------------------------------------------------------
# A second witness of an honest statement, differing only where the
# statement cannot see it, must satisfy no stored rows and give no proof
# that verifies: the extractor's witness is then the one honest witness.


def _unchecked_blob(rel, statement, given) -> ProofBlob:
    """The witness-check proof of the projection ``given``, written without
    the prover completing it first."""
    free = given[1 + len(statement):]
    return ProofBlob(
        "witness-check", rel.fingerprint, tuple(statement), payload(list(map(signed_hex, free)))
    )


@pytest.mark.parametrize(
    "kind,arity,hidden", [("linear", 1, 0), ("logistic", 2, 0), ("nn", 1, 2)]
)
def test_model_witness_with_other_absent_slot_data_never_verifies(
    kind, arity, hidden, scale, monkeypatch
):
    pub = global_setup(
        ProtocolConfig(
            train=default_train_config(kind, arity, hidden=hidden, epochs=1),
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
    rel, backend = pub.model_relation, pub.backend
    honest_given = model_projection(pub.config, dataset)[0]
    honest = rel.circuit.complete(honest_given)
    # The same dataset with in-range data other than the padding in the
    # absent slot, the last: presence 0, then its uid, features and label.
    other = DataPoint(7, (fx_encode(-0.25, scale),) * arity, fx_encode(1, scale))
    given = list(honest_given)
    given[-(arity + 2):] = [v % P for v in (other.uid, *other.x, other.y)]
    # The rows without the absent-slot pins, which allocate no wires,
    # derive every other wire from it under the honest statement:
    # training skips the slot, so the statement is the same.
    monkeypatch.setattr(CircuitBuilder, "pin_absent", lambda *_: None)
    forged = ModelCircuit(pub.config).cs.complete(given)
    monkeypatch.undo()
    statement = statement_of(rel.circuit, honest)
    assert statement_of(rel.circuit, forged) == statement
    assert forged != honest

    assert is_satisfied(rel.circuit, honest)
    assert not is_satisfied(rel.circuit, forged)
    assert project(rel.circuit, forged) == given
    with pytest.raises(Unsatisfied):
        rel.circuit.complete(given)
    assert not backend.verify(rel, statement, _unchecked_blob(rel, statement, given))
    with pytest.raises(Unsatisfied) as refused:
        backend.prove(rel, given)
    assert refused.value.row == failing_rows(rel.circuit, forged)[0]


def test_data_witness_with_other_absent_values_never_verifies(fast_pub):
    # Three training and two unlearnt digests in capacity-8 arrays.
    [_, (rel, witness, blob)] = _update_blobs(fast_pub, [0.5, -0.25, 1.0])
    cs, backend = rel.circuit, fast_pub.backend
    statement = blob.public_inputs
    assert backend.verify(rel, statement, blob)
    cap = fast_pub.config.capacity
    # After the statement: training presence bits and digests, then the
    # unlearnt presence bits and digests.
    d_absent = cs.num_public + 1 + cap + 3
    u_absent = cs.num_public + 1 + 2 * cap + cap + 2
    # The product's inverse, the last wire: acc * inverse = 1.
    acc, [inverse], one = cs.constraints[-1]
    assert one == {0: 1} and inverse == cs.num_wires - 1
    free = cs.free_wires()
    for wire in (d_absent, u_absent, inverse):
        given = project(cs, witness)
        k = 1 + len(statement) + free.index(wire)
        given[k] = (given[k] + 5) % P
        with pytest.raises(Unsatisfied) as refused:
            cs.complete(given)
        assert refused.value.row is not None, wire
        assert not backend.verify(rel, statement, _unchecked_blob(rel, statement, given))
    # The inverse feeds no other row, so that forgery is the honest
    # witness with one wire changed.
    assert rows_touching(cs, inverse) == [cs.num_constraints - 1]
    values = list(witness)
    values[inverse] = 5
    assert not is_satisfied(cs, tuple(values))


def test_witness_check_spliced_free_wires_never_verify(fast_pub):
    # Another dataset's free wires under this dataset's statement.
    backend = fast_pub.backend
    ours = _update_blobs(fast_pub, [0.5, -0.25])
    theirs = _update_blobs(fast_pub, [0.75, 1.0], ghosts=(102, 103))
    for (rel, _, blob), (_, _, other) in zip(ours, theirs):
        statement = blob.public_inputs
        assert other.public_inputs != statement
        # The payload is the free wires alone: all of theirs.
        assert other.proof_bytes != blob.proof_bytes
        forged = dataclasses.replace(blob, proof_bytes=other.proof_bytes)
        assert not backend.verify(rel, statement, forged)


@pytest.mark.parametrize("backend", [WitnessCheckBackend(), Groth16Backend()], ids=["wc", "snark"])
def test_prove_refuses_an_h_m_off_by_one_at_its_bind_row(fast_pub, backend):
    # The model projection with h_m moved by one: every wire the walk
    # derives is the honest one, and the one row that reads h_m, the bind
    # (hash of the weights - h_m) * 1 = 0, fails.  Groth16 refuses it
    # before it reads a key or runs the helper.
    [(rel, witness, _), _] = _update_blobs(fast_pub, [0.5, -0.25])
    h_m = 1  # the first statement wire
    given = project(rel.circuit, witness)
    given[h_m] = (given[h_m] + 1) % P
    [bind] = rows_touching(rel.circuit, h_m)
    a, b, c = rel.circuit.constraints[bind]
    assert a[h_m] == P - 1 and b == {0: 1} and c == {}
    with pytest.raises(Unsatisfied) as refused:
        backend.prove(rel, given)
    assert refused.value.row == bind


def test_setup_artifacts_schema_has_no_trapdoor():
    fields = {f.name for f in dataclasses.fields(SetupArtifacts)}
    assert fields == {"proving_params", "verifying_params"}


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
    keyed = with_keys(rel, snark)
    statement, given = honest
    blob = snark.prove(keyed, given)
    assert blob.public_inputs == statement
    assert len(blob.proof_bytes) == 128  # compressed Groth16 proof
    assert snark.verify(keyed, statement, blob)
    assert not snark.verify(keyed, (10,), blob)
    # Backend agreement on the honest pair and on a mutated statement.
    blob_wc = wc.prove(rel, given)
    assert wc.verify(rel, statement, blob_wc)
    assert not wc.verify(rel, (10,), blob_wc)


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
    with pytest.raises(Unsatisfied):
        snark.prove(with_keys(rel, snark), FALSE)


@needs_snark
def test_groth16_proof_bitflips_never_verify(rel, honest):
    snark = Groth16Backend(seed=7)
    keyed = with_keys(rel, snark)
    statement, given = honest
    blob = snark.prove(keyed, given)
    rng = random.Random(99)
    for _ in range(1000):
        data = bytearray(blob.proof_bytes)
        data[rng.randrange(len(data))] ^= 1 << rng.randrange(8)
        tampered = dataclasses.replace(blob, proof_bytes=bytes(data))
        assert not snark.verify(keyed, statement, tampered)


def test_witness_check_reads_constraints_only_after_statement_check(rel, honest):
    backend = WitnessCheckBackend()
    statement, given = honest
    blob = backend.prove(rel, given)
    loads = []

    def load():
        loads.append(1)
        return rel.circuit

    stored = RelationHandle(rel.fingerprint, load=load)
    assert not backend.verify(stored, (10,), blob)
    assert not loads
    assert backend.verify(stored, statement, blob)
    assert backend.verify(stored, statement, blob)
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
    # and keys, and released after each proof, as protocol.prove_update
    # does.
    store = SetupStore(tmp_path)
    fingerprint = store.save_circuit(rel.circuit.export())
    backend = make_backend()
    store.save(backend.name, fingerprint, backend.setup(store.relation(backend.name, fingerprint)))
    stored = store.relation(backend.name, fingerprint)
    statement, given = honest
    blob = backend.prove(stored, given)
    stored.release()
    assert backend.verify(stored, statement, blob)
    assert not backend.verify(stored, (10,), blob)
    stored.release()
    with pytest.raises(Unsatisfied):
        backend.prove(stored, FALSE)
