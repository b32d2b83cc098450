import dataclasses

import pytest

from unlearn.circuits import ShapeOverflow
from unlearn.field import FixedPointOverflow, fx_encode
from unlearn.hashing import (
    DataPoint,
    NotMemberError,
    hash_data_point,
    hash_unlearn,
)
from unlearn.protocol import (
    Commitment,
    DuplicateAdd,
    INIT_MARKER,
    ReAddAfterDelete,
    prove_unlearn,
    prove_update,
    queue_add,
    queue_adds,
    queue_delete,
    server_init,
    verify_init,
    verify_unlearn,
    verify_update,
)


def pt(pub, uid, x, y):
    scale = pub.scale
    return DataPoint(uid=uid, x=(fx_encode(x, scale),), y=fx_encode(y, scale))


def test_init_verifies(fast_pub):
    state, com, marker = server_init(fast_pub)
    assert marker == INIT_MARKER
    assert verify_init(fast_pub, com, marker)
    assert state.iteration == 0 and not state.dataset.points


def test_init_rejects_tampering(fast_pub):
    _, com, marker = server_init(fast_pub)
    wrong = dataclasses.replace(com, h_d=(com.h_d + 1) % fast_pub.scale.modulus)
    assert not verify_init(fast_pub, wrong, marker)
    wrong = dataclasses.replace(com, h_u=(com.h_u + 1) % fast_pub.scale.modulus)
    assert not verify_init(fast_pub, wrong, marker)
    wrong = dataclasses.replace(com, h_m=(com.h_m + 1) % fast_pub.scale.modulus)
    assert not verify_init(fast_pub, wrong, marker)
    assert not verify_init(fast_pub, com, "not-empty")


def test_queue_validity(fast_pub):
    state, _, _ = server_init(fast_pub)
    d = pt(fast_pub, 1, 0.5, 1)
    state = queue_add(state, d, fast_pub)
    with pytest.raises(DuplicateAdd):
        queue_add(state, pt(fast_pub, 1, 0.25, 0), fast_pub)
    state = queue_delete(state, d)
    with pytest.raises(ReAddAfterDelete):
        queue_add(state, d, fast_pub)
    # Deleting a never-added point is allowed and bans the uid.
    ghost = pt(fast_pub, 99, 0.0, 0)
    state = queue_delete(state, ghost)
    with pytest.raises(ReAddAfterDelete):
        queue_add(state, ghost, fast_pub)
    # Double delete is idempotent.
    assert queue_delete(state, ghost) is state


def test_arity_checked_on_add(fast_pub):
    state, _, _ = server_init(fast_pub)
    bad = DataPoint(uid=1, x=(), y=0)
    with pytest.raises(ValueError):
        queue_add(state, bad, fast_pub)


def test_empty_batch_update_is_idempotent(fast_pub):
    state, com0, _ = server_init(fast_pub)
    state, model, com1, proof = prove_update(state, fast_pub)
    assert verify_update(fast_pub, com0, com1, proof)
    assert state.dataset.points == ()
    assert model.weights == fast_pub.config.train.init_values
    # A second empty update still yields fresh verifying proofs.
    state, _, com2, proof2 = prove_update(state, fast_pub)
    assert verify_update(fast_pub, com1, com2, proof2)
    assert com2.h_d == com1.h_d and com2.h_u == com1.h_u


def test_add_and_delete_same_iteration(fast_pub):
    state, com0, _ = server_init(fast_pub)
    d1, d2 = pt(fast_pub, 1, 0.5, 1), pt(fast_pub, 2, -0.5, 0)
    state = queue_add(state, d1, fast_pub)
    state = queue_add(state, d2, fast_pub)
    state = queue_delete(state, d1)
    state, _, com1, proof = prove_update(state, fast_pub)
    # Hand-recompute the set algebra: D_1 = {d2}, H_U covers h_{d1}.
    assert state.dataset.points == (d2,)
    h_d1 = hash_data_point(d1, fast_pub.hash_cfg)
    assert state.hashed_unlearnt == (h_d1,)
    assert com1.h_u == hash_unlearn([h_d1], fast_pub.hash_cfg)
    assert verify_update(fast_pub, com0, com1, proof)


def test_three_iteration_chain_and_splice_rejection(fast_pub):
    state, com, _ = server_init(fast_pub)
    commitments = [com]
    proofs = []
    for i in range(3):
        state = queue_add(state, pt(fast_pub, 10 + i, (i - 1) / 2, i % 2), fast_pub)
        state, _, com, proof = prove_update(state, fast_pub)
        commitments.append(com)
        proofs.append(proof)
    for i in range(3):
        assert verify_update(fast_pub, commitments[i], commitments[i + 1], proofs[i])
    # Proof pair from iteration i against commitment i+1: public-input binding.
    assert not verify_update(fast_pub, commitments[1], commitments[2], proofs[2])
    assert not verify_update(fast_pub, commitments[2], commitments[3], proofs[1])


def test_unlearn_proofs(fast_pub):
    state, com, _ = server_init(fast_pub)
    pts = [pt(fast_pub, i, i / 4, i % 2) for i in range(1, 5)]
    for d in pts:
        state = queue_add(state, d, fast_pub)
    state, _, com1, _ = prove_update(state, fast_pub)

    state = queue_delete(state, pts[0])
    state, _, com2, _ = prove_update(state, fast_pub)
    proof = prove_unlearn(fast_pub, state, pts[0])
    assert proof.iteration == 2
    assert verify_unlearn(fast_pub, pts[0], com2, proof)
    # Wrong point, wrong commitment, forged path all reject.
    assert not verify_unlearn(fast_pub, pts[1], com2, proof)
    assert not verify_unlearn(fast_pub, pts[0], com1, proof)
    mutated = dataclasses.replace(
        proof,
        path=dataclasses.replace(
            proof.path,
            nodes=(proof.path.nodes[0] + 1 % fast_pub.scale.modulus,)
            + proof.path.nodes[1:],
        ),
    )
    assert not verify_unlearn(fast_pub, pts[0], com2, mutated)

    # Two iterations later, the recomputed path verifies against the
    # current commitment (append-only chain).
    state = queue_delete(state, pts[1])
    state, _, com3, _ = prove_update(state, fast_pub)
    state, _, com4, _ = prove_update(state, fast_pub)
    fresh = prove_unlearn(fast_pub, state, pts[0])
    assert verify_unlearn(fast_pub, pts[0], com4, fresh)

    with pytest.raises(NotMemberError):
        prove_unlearn(fast_pub, state, pts[3])


def test_unlearnt_set_grows_monotonically(fast_pub):
    state, _, _ = server_init(fast_pub)
    prefix = ()
    for i in range(1, 4):
        d = pt(fast_pub, i, 0.25, 1)
        state = queue_add(state, d, fast_pub)
        state, _, _, _ = prove_update(state, fast_pub)
        state = queue_delete(state, d)
        state, _, _, _ = prove_update(state, fast_pub)
        assert state.hashed_unlearnt[: len(prefix)] == prefix
        prefix = state.hashed_unlearnt
        digests = {hash_data_point(p, fast_pub.hash_cfg) for p in state.dataset.points}
        assert not digests & set(state.hashed_unlearnt)


def test_shape_overflow(fast_pub):
    # The circuits refuse inputs beyond their capacities.
    state, _, _ = server_init(fast_pub)
    for i in range(fast_pub.config.capacity + 1):
        state = queue_add(state, pt(fast_pub, i, 0.0, 0), fast_pub)
    with pytest.raises(ShapeOverflow, match="9 points exceed the compiled capacity 8"):
        prove_update(state, fast_pub)

    state, _, _ = server_init(fast_pub)
    for i in range(fast_pub.config.unlearn_capacity + 1):
        state = queue_delete(state, pt(fast_pub, 100 + i, 0.0, 0))
    with pytest.raises(ShapeOverflow, match="9 unlearnt digests exceed the compiled capacity 8"):
        prove_update(state, fast_pub)

    # Previous and appended digests share one capacity: 5 then 4 more.
    state, _, _ = server_init(fast_pub)
    for i in range(5):
        state = queue_delete(state, pt(fast_pub, 100 + i, 0.0, 0))
    state, _, _, _ = prove_update(state, fast_pub)
    for i in range(5, 9):
        state = queue_delete(state, pt(fast_pub, 100 + i, 0.0, 0))
    with pytest.raises(ShapeOverflow, match="9 unlearnt digests exceed the compiled capacity 8"):
        prove_update(state, fast_pub)


def test_commitments_and_proofs_replay_identically(fast_pub):
    def run():
        state, com, _ = server_init(fast_pub)
        coms, blobs = [com], []
        for i in range(2):
            state = queue_add(state, pt(fast_pub, 50 + i, 0.75, 1), fast_pub)
            state, _, com, proof = prove_update(state, fast_pub)
            coms.append(com)
            blobs.append(
                (proof.model_proof.proof_bytes, proof.data_proof.proof_bytes)
            )
        return coms, blobs

    coms_a, blobs_a = run()
    coms_b, blobs_b = run()
    assert coms_a == coms_b
    # Witness-check proofs embed the witness, so replays are byte-identical.
    assert blobs_a == blobs_b


def test_verify_update_rejects_commitment_swap(fast_pub):
    state, com0, _ = server_init(fast_pub)
    state = queue_add(state, pt(fast_pub, 7, 0.5, 1), fast_pub)
    state, _, com1, proof = prove_update(state, fast_pub)
    swapped = Commitment(h_m=com1.h_d, h_d=com1.h_m, h_u=com1.h_u)
    assert not verify_update(fast_pub, com0, swapped, proof)


def test_global_setup_is_deterministic(fast_pub):
    from unlearn.protocol import global_setup

    again = global_setup(fast_pub.config)
    assert again.model_relation.fingerprint == fast_pub.model_relation.fingerprint
    assert again.data_relation.fingerprint == fast_pub.data_relation.fingerprint


def test_config_validation_errors():
    from unlearn.field import ConfigError
    from unlearn.hashing import HashConfig
    from unlearn.protocol import ProtocolConfig
    from unlearn.training import default_train_config

    train = default_train_config("linear", 1, epochs=1)
    with pytest.raises(ConfigError):
        ProtocolConfig(train=train, capacity=0, unlearn_capacity=4)
    with pytest.raises(ConfigError):
        ProtocolConfig(
            train=train,
            capacity=4,
            unlearn_capacity=4,
            hash_cfg=HashConfig(modulus=2**127 - 1),
        )


def test_proof_from_foreign_circuit_rejected(fast_pub):
    # A blob whose fingerprint names a different circuit is refused even
    # when its embedded public inputs line up.
    state, com0, _ = server_init(fast_pub)
    state = queue_add(state, pt(fast_pub, 1, 0.5, 1), fast_pub)
    state, _, com1, proof = prove_update(state, fast_pub)
    foreign = dataclasses.replace(proof.model_proof, fingerprint="0" * 64)
    forged = dataclasses.replace(proof, model_proof=foreign)
    assert not verify_update(fast_pub, com0, com1, forged)


def test_queue_adds_names_the_point_the_loop_refuses(fast_pub):
    # x = 5000 * i: training crosses the value bound once uid 2 joins.
    state, _, _ = server_init(fast_pub)
    state = queue_add(state, pt(fast_pub, 9, 0.5, 1), fast_pub)
    points = [pt(fast_pub, i, 5000 * i, 1) for i in (1, 2, 3)]
    with pytest.raises(FixedPointOverflow) as loop:
        looped = state
        for d in points:
            looped = queue_add(looped, d, fast_pub)
    with pytest.raises(FixedPointOverflow) as batch:
        queue_adds(state, points, fast_pub)
    assert batch.value.uid == loop.value.uid == 2
    assert str(batch.value) == str(loop.value)


def test_queue_adds_checks_each_point(fast_pub):
    state, _, _ = server_init(fast_pub)
    d = pt(fast_pub, 1, 0.5, 1)
    with pytest.raises(DuplicateAdd):
        queue_adds(state, [d, pt(fast_pub, 2, 0.25, 0), pt(fast_pub, 1, 0.25, 0)], fast_pub)
    state = queue_delete(queue_adds(state, [d], fast_pub), d)
    with pytest.raises(ReAddAfterDelete):
        queue_adds(state, [pt(fast_pub, 3, 0.25, 0), d], fast_pub)
    with pytest.raises(ValueError, match="arity"):
        queue_adds(state, [DataPoint(uid=4, x=(1, 2), y=0)], fast_pub)
    assert queue_adds(state, [], fast_pub) == state
