import dataclasses
import functools
import itertools
import json
import random
import time
import tracemalloc

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
    PAYLOAD_VERSION,
    Groth16Backend,
    ProofBlob,
    RelationHandle,
    SetupArtifacts,
    WitnessCheckBackend,
    _witness_payload,
    _witness_values,
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
    garbage = ProofBlob(rel.fingerprint, statement, b"\x00")
    assert backend.verify(rel, statement, garbage)
    assert backend.name != WitnessCheckBackend().name


def payload(wires, v=PAYLOAD_VERSION) -> bytes:
    """A payload listing the strings ``wires`` as they are spelled, for
    the tests that pin which spellings verify; every other payload comes
    from ``_witness_payload``."""
    return json.dumps({"v": v, "wires": wires}, separators=(",", ":")).encode()


def signed_hex(v: int) -> str:
    """The one spelling a payload accepts for the field element ``v``:
    the hex of its representative in (-P/2, P/2]."""
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
    v = PAYLOAD_VERSION
    for other in (
        payload(["1a"], v=3),
        payload(["1a"], v=4),
        payload(["1a"], v=5),
        payload(["1", "2a4", "1a"], v=3),
        payload(["1", "2a4", "1a"]),
        payload(["2a4", "1a"]),
        payload([]),
        payload(["1a", "0"]),
        payload([26]),
        json.dumps({"v": v, "wires": ["1a"]}).encode(),
        json.dumps({"v": float(v), "wires": ["1a"]}, separators=(",", ":")).encode(),
        json.dumps({"v": v, "wires": ["1a"], "x": 0}, separators=(",", ":")).encode(),
        json.dumps({"v": v, "wires": "1a"}, separators=(",", ":")).encode(),
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
        out.append((rel, tuple(rel.circuit.complete(given)), blob))
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
        values = _witness_values(blob.proof_bytes, P)
        free = rel.circuit.free_wires()
        # Only the free wires: the constant and the statement are not
        # repeated, and the list ends at the last nonzero one.
        untrimmed = [witness[w] for w in free]
        assert values == untrimmed[: len(values)] and values[-1] != 0
        assert set(untrimmed[len(values):]) <= {0}

        def rejected(proof_bytes):
            forged = dataclasses.replace(blob, proof_bytes=proof_bytes)
            return not backend.verify(rel, statement, forged)

        def rejected_values(entries):
            return rejected(_witness_payload(entries, P))

        for k, wire in enumerate(free):
            # A wire past the list's end is written out to it.
            entries = values + [0] * (k + 1 - len(values))
            entries[k] += 1
            if not rejected_values(entries):
                survivors.append((rel.fingerprint, wire))
            mutated += 1
        assert rejected_values(values[:-1])
        assert rejected_values(values + [0])
        assert rejected_values(untrimmed) or untrimmed == values
        assert rejected_values(values[1:])
        assert rejected_values([1, *statement, *values])
        assert rejected_values(list(witness))
        # Other spellings and earlier versions of the same values.
        wires = [signed_hex(v) for v in values]
        assert rejected(payload(wires, v=4))
        assert rejected(payload(wires, v=5))
        assert rejected(payload([f"{values[0] + P:x}"] + wires[1:]))
        assert rejected(payload([f"{v:x}" for v in (1, *statement)]
                                + [f"{witness[w]:x}" for w in free], v=3))
        full = [f"{v:x}" for v in witness]
        assert rejected(payload(full, v=1))
        assert rejected(payload(full))
    # The model's 8 slots of presence, uid, feature and label, and the
    # data circuit's 8 training slots of presence and digest and 8
    # unlearnt slots of presence, previous bit and digest.
    assert mutated == 8 * 4 + 8 * 2 + 8 * 3
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
    end = max((i + 1 for i, v in enumerate(values) if v), default=0)
    assert blob.proof_bytes == _witness_payload(values[:end], P)
    assert _witness_values(blob.proof_bytes, P) == values[:end]
    assert backend.verify(rel, statement, blob)

    def refused(entries):
        forged = dataclasses.replace(blob, proof_bytes=_witness_payload(entries, P))
        return not backend.verify(rel, statement, forged)

    assert refused(values[:end] + [0])
    assert refused(values + [1])  # past the free-wire count
    assert refused(values) == (end < len(values))


@functools.lru_cache(maxsize=None)
def cached_copy_relation(k: int) -> RelationHandle:
    return copy_relation(k)


def expected_entries(values) -> list[str]:
    """The entries a payload lists for ``values``, spelled out here from
    the format: each nonzero value in signed hex, each maximal run of k
    zeros as "0" for k = 1 and "0*" and the hex of k otherwise."""
    entries = []
    for zero, group in itertools.groupby(values, lambda v: v % P == 0):
        group = list(group)
        if not zero:
            entries += [signed_hex(v) for v in group]
        else:
            entries.append("0" if len(group) == 1 else f"0*{len(group):x}")
    return entries


NONZERO = st.one_of(st.sampled_from([1, HALF, HALF + 1, P - 1]), st.integers(1, P - 1))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 40), NONZERO), max_size=5), st.integers(0, 40))
@example([], 0)
@example([], 40)
@example([(40, 1)], 0)
@example([(1, 5), (2, 6), (0, 7)], 1)
@example([(0, P - 1), (14, 3)], 2)
def test_witness_check_payload_writes_each_run_of_zeros_as_one_entry(pieces, tail):
    # Zero runs of every length from 0 to 40, before, between and after
    # nonzero values: the codec round-trips them, a run of two or more
    # is one entry, and the prover's payload ends at the last nonzero
    # value and verifies.
    values = [v for zeros, v in pieces for v in [0] * zeros + [v]] + [0] * tail
    written = _witness_payload(values, P)
    assert written == payload(expected_entries(values))
    assert _witness_values(written, P) == values
    assert _witness_values(written, P, len(values)) == values
    if values:
        with pytest.raises(ValueError):
            _witness_values(written, P, len(values) - 1)
    rel, backend = cached_copy_relation(len(values)), WitnessCheckBackend()
    statement = tuple(values)
    blob = backend.prove(rel, [1, *statement, *values])
    end = len(values) - tail
    assert blob.proof_bytes == _witness_payload(values[:end], P)
    assert backend.verify(rel, statement, blob)

    def refused(entries):
        forged = dataclasses.replace(blob, proof_bytes=payload(entries))
        return not backend.verify(rel, statement, forged)

    # The same values with a trailing run, or with one more zero.
    assert refused(expected_entries(values[:end] + [0, 0]))
    assert refused(expected_entries(values[:end] + [0]))
    assert refused(expected_entries(values)) == (tail > 0)


# Ten zeros, then 5, then two zeros the prover does not write: the free
# wires of a 13-wire copy relation.
RUN_VALUES = [0] * 10 + [5, 0, 0]


@pytest.mark.parametrize("entries", [
    ["0*1", "0*9", "5"],  # a run of one
    ["0*9", "0", "5"], ["0", "0*9", "5"], ["0*4", "0*6", "5"],  # runs not maximal
    ["0", "0", "0*8", "5"], ["0"] * 10 + ["5"],
    ["0*a", "5", "0*2"], ["0*a", "5", "0", "0"], ["0*a", "5", "0"],  # a run or a zero at the end
    ["0*a", "0*0", "5"], ["0*0", "0*a", "5"],  # a zero count
    ["0*0a", "5"], ["0*00a", "5"],  # a count with leading zeros
    ["0*A", "5"], ["0*+a", "5"], ["0* a", "5"], ["0*a ", "5"], ["0*0xa", "5"], ["0*a_", "5"],
    ["-0*a", "5"], ["00*a", "5"], ["0**a", "5"], ["0*", "0*a", "5"], ["0*-2", "0*c", "5"],
    ["0*a", "5", "0*2", "7"], ["0*a", "5", "0*3"], ["0*e"],  # past the free wires
    ["0*a", "5", "0*1000000000000000"],
])
def test_witness_check_refuses_every_other_spelling_of_a_run(entries):
    rel, backend = cached_copy_relation(len(RUN_VALUES)), WitnessCheckBackend()
    statement = tuple(RUN_VALUES)
    blob = backend.prove(rel, [1, *statement, *RUN_VALUES])
    assert blob.proof_bytes == payload(["0*a", "5"])
    assert backend.verify(rel, statement, blob)
    forged = dataclasses.replace(blob, proof_bytes=payload(entries))
    assert not backend.verify(rel, statement, forged)


@pytest.mark.parametrize("entries", [
    ["0*1000000000000000"],
    ["5", "0*1000000000000000", "5"],
    ["0*-fffffffffffffff", "0*1000000000000000", "5"],
    ["0*2"] * 100,
])
def test_a_forged_run_count_expands_nothing(entries):
    # A run of 2^60 zeros, alone, between values or behind a negative
    # count that would cancel it in a sum, and runs that together reach
    # past the free wires: each is refused before any run is expanded.
    rel, backend = cached_copy_relation(len(RUN_VALUES)), WitnessCheckBackend()
    statement = tuple(RUN_VALUES)
    forged = ProofBlob(rel.fingerprint, statement, payload(entries))
    rel.circuit.num_free  # the defining rows, found once and kept
    tracemalloc.start()
    try:
        start = time.perf_counter()
        assert not backend.verify(rel, statement, forged)
        elapsed = time.perf_counter() - start
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16 and elapsed < 0.5
    with pytest.raises(ValueError):
        _witness_values(forged.proof_bytes, P, rel.circuit.num_free)


# -- one witness per statement ------------------------------------------------------
# A second witness of an honest statement, differing only where the
# statement cannot see it, must satisfy no stored rows and give no proof
# that verifies: the extractor's witness is then the one honest witness.


def _unchecked_blob(rel, statement, given) -> ProofBlob:
    """The witness-check proof of the projection ``given``, written without
    the prover completing it first: its free wires up to the last nonzero
    one, as the prover writes them."""
    free = list(given[1 + len(statement):])
    while free and not free[-1] % P:
        free.pop()
    return ProofBlob(rel.fingerprint, tuple(statement), _witness_payload(free, P))


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
    honest = tuple(rel.circuit.complete(honest_given))
    # The same dataset with in-range data other than the padding in the
    # absent slot, the last: presence 0, then its uid, features and label.
    other = DataPoint(7, (fx_encode(-0.25, scale),) * arity, fx_encode(1, scale))
    given = list(honest_given)
    given[-(arity + 2):] = [v % P for v in (other.uid, *other.x, other.y)]
    # The rows without the absent-slot pins, which allocate no wires,
    # derive every other wire from it under the honest statement:
    # training skips the slot, so the statement is the same.
    monkeypatch.setattr(CircuitBuilder, "pin_absent", lambda *_: None)
    forged = tuple(ModelCircuit(pub.config).cs.complete(given))
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
    # After the statement: each training slot's presence bit and digest,
    # then each unlearnt slot's presence bit, previous bit and digest.
    d_absent = cs.num_public + 1 + 2 * 3 + 1
    u_absent = cs.num_public + 1 + 2 * cap + 3 * 2 + 2
    # The product's inverse, the last wire, which its row acc * inverse =
    # 1 defines.
    acc, [inverse], one = cs.constraints[-1]
    assert one == {0: 1} and inverse == cs.num_wires - 1
    free = cs.free_wires()
    assert inverse not in free
    assert witness[d_absent] == witness[u_absent] == 0
    for wire in (d_absent, u_absent):
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
    fingerprint = store.save_circuit(rel.circuit)
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
