"""The walk over records (``unlearn.walk``) against the walk row by row
(conftest's ``walk_rows``): the same witness, the same verdict and the
same first failing row, at the reduced and the full round count."""

import pytest

from conftest import TINY_ROUNDS, is_satisfied, satisfied_at_wire, walk_outcome, walk_rows
from unlearn.circuits import DataCircuit, ModelCircuit, data_projection, model_projection
from unlearn.field import BN254_SCALAR_FIELD as P
from unlearn.field import ScaleConfig, fx_encode
from unlearn.gadgets import CircuitBuilder, lc_const, lc_wire
from unlearn.hashing import DEFAULT_ROUNDS, DataPoint, HashConfig, hash_data_point
from unlearn.hashing import mimc_permute, round_constants
from unlearn.protocol import ProtocolConfig
from unlearn.r1cs import ConstraintSystem
from unlearn.training import Dataset, default_train_config

ROUNDS = [TINY_ROUNDS, DEFAULT_ROUNDS]
complete = ConstraintSystem.complete


def record_wires(record) -> range:
    """The wires a record assigns: a run's digits or a chain's 3R wires."""
    return range(record.first, record.first + record.defined)


@pytest.mark.parametrize("rounds", ROUNDS)
def test_the_block_walk_is_the_row_walk(rounds):
    # Both circuits at capacity 2, one slot filled and one point unlearnt.
    # Honest inputs complete to the identical list.  Every wire of one
    # run record and one chain record moved by one is refused by complete,
    # from the projection, as by the rows that read it; and every
    # statement or free value moved by 1 or -1 gives the same list or the
    # same first failing row as the walk row by row.
    config = ProtocolConfig(
        train=default_train_config("linear", 1, epochs=1),
        capacity=2,
        unlearn_capacity=2,
        backend="witness-check",
        hash_rounds=rounds,
    )
    scale = config.train.scale
    points = [DataPoint(uid, (fx_encode(0.5, scale),), fx_encode(1, scale)) for uid in (1, 2)]
    digests = [hash_data_point(d, config.hash_cfg) for d in points]
    model_given = model_projection(config, Dataset(tuple(points[:1]), 1))[0]
    for circuit, given in (
        (ModelCircuit, model_given),
        (DataCircuit, data_projection(config, digests[:1], [], digests[1:])),
    ):
        cs = ConstraintSystem.from_export(circuit(config).cs.export())
        witness = cs.complete(given)
        assert witness == walk_rows(cs, given)
        records = cs.records()
        chains = [r for r in records if r.rounds]
        assert chains and {r.rounds for r in chains} == {rounds}
        picked = chains[:1] + [r for r in records if not r.rounds][:1]
        assert len(picked) == (2 if circuit is ModelCircuit else 1)
        for record in picked:
            for wire in record_wires(record):
                values = list(witness)
                values[wire] = (values[wire] + 1) % P
                assert not is_satisfied(cs, values), wire
                assert not satisfied_at_wire(cs, values, wire), wire
        for i in range(1, len(given)):
            for delta in (1, P - 1):
                moved = list(given)
                moved[i] = (moved[i] + delta) % P
                assert walk_outcome(complete, cs, moved) == walk_outcome(walk_rows, cs, moved), i


def gadget_system(rounds: int, alter: str = "") -> ConstraintSystem:
    """Free x, key, msg and out; the rows of ``bits(x, 4)`` and of
    ``mimc_permute(msg, key)``, each written as plain rows through
    ``enforce``; then out = the permutation's t + key, as
    ``hashing.mimc_permute``.  ``alter`` writes one gadget's rows
    otherwise: "boolean" bit 2's row as b * (2 - b) = 0, "constant" the
    middle round's u * u row with B = u + 1, "double-first" and
    "double-middle" round 0's or the middle round's u2 * u2 row as (2 *
    u2) * u2, and "key" the rounds from the middle on under 2 * key."""
    cs = ConstraintSystem(P)
    builder = CircuitBuilder(cs, ScaleConfig(), HashConfig(rounds))
    x, key, msg, out = (lc_wire(cs.alloc_private()) for _ in range(4))
    bits = [cs.alloc_private() for _ in range(4)]
    cs.enforce(x, lc_const(1), {b: 1 << i for i, b in enumerate(bits)})
    for i, b in enumerate(bits):
        two = 2 if alter == "boolean" and i == 2 else 1
        cs.enforce(lc_wire(b), builder.sub(lc_const(two), lc_wire(b)), {})
    t, middle = msg, rounds // 2
    doubled = {"double-first": 0, "double-middle": middle}.get(alter)
    for r, c in enumerate(round_constants(rounds)):
        k = builder.scaled(key, 2) if alter == "key" and r >= middle else key
        u = builder.add(builder.add(t, k), lc_const(c))
        shifted = alter == "constant" and r == middle
        u2 = builder.mul(u, builder.add(u, lc_const(1)) if shifted else u)
        u4 = builder.mul(builder.scaled(u2, 2) if r == doubled else u2, u2)
        t = builder.mul(u4, u)
    builder.enforce_eq(builder.add(t, key), out)
    cs.finalize()
    return cs


def record_system(rounds: int) -> ConstraintSystem:
    """``gadget_system(rounds)``'s rows as the gadgets write them: one run
    record and one chain record."""
    cs = ConstraintSystem(P)
    builder = CircuitBuilder(cs, ScaleConfig(), HashConfig(rounds))
    x, key, msg, out = (lc_wire(cs.alloc_private()) for _ in range(4))
    builder.bits(x, 4)
    builder.enforce_eq(builder.mimc_permute(msg, key), out)
    cs.finalize()
    return cs


@pytest.mark.parametrize("rounds", ROUNDS)
def test_gadget_rows_written_one_by_one_walk_as_their_records(rounds):
    # The rows bits and mimc_permute write, written row by row through
    # enforce, expand to the same rows as the two records, and complete
    # gives the same outcome on x in and out of range, walking every row
    # of the one and two rows of the other.  The plain rows' sum row
    # defines digits outside a run record, so the strict load refuses
    # them.
    plain, records = gadget_system(rounds), record_system(rounds)
    assert plain.expand() == records.expand()
    assert [(r.row, r.rows, r.rounds) for r in records.records()] == [
        (0, 5, 0), (5, 3 * rounds, rounds)
    ]
    assert (plain.walked_rows, records.walked_rows) == (plain.num_constraints, 2)
    key, msg = 5, 7
    out = mimc_permute(msg, key, HashConfig(rounds))
    for x, outcome in ((0b1011, None), (16, 0), (P - 1, 0)):
        given = [1, x, key, msg, out]
        walked = walk_outcome(complete, records, given)
        assert walked == walk_outcome(complete, plain, given) == walk_outcome(walk_rows, plain, given)
        assert walked == (walk_rows(plain, given) if outcome is None else ("unsatisfied", outcome))
    assert walk_outcome(complete, records, [1, 3, key, msg, out + 1]) == (
        "unsatisfied", 5 + 3 * rounds
    )
    ConstraintSystem.from_export(records.export())
    with pytest.raises(ValueError, match="row 0 defines the digits from wire 5 outside a run"):
        ConstraintSystem.from_export(plain.export())


@pytest.mark.parametrize("rounds", ROUNDS)
@pytest.mark.parametrize("alter", ["boolean", "constant", "double-first", "double-middle", "key"])
def test_an_altered_block_is_walked_row_by_row(rounds, alter):
    # Rows laid out otherwise than the gadgets write them are plain rows,
    # which the walk evaluates one by one, refusing what the rows refuse:
    # bit 2 set fails its boolean row b * (2 - b) = 0, and a chain that
    # computes another permutation fails the last row, which checks out
    # against the native one.
    cs = gadget_system(rounds, alter)
    assert not cs.records()
    key, msg = 5, 7
    out = mimc_permute(msg, key, HashConfig(rounds))
    last = cs.num_constraints - 1
    for x in (0b1011, 0b0100):
        given = [1, x, key, msg, out]
        walked = walk_outcome(complete, cs, given)
        assert walked == walk_outcome(walk_rows, cs, given)
        if alter == "boolean":
            assert walked == (("unsatisfied", 3) if x & 4 else walk_rows(cs, given))
        else:
            assert walked == ("unsatisfied", last)
        # The same rows written as the gadgets write them hold.
        assert isinstance(walk_outcome(complete, record_system(rounds), given), list)


def test_the_strict_load_checks_order_in_plain_rows_and_records():
    # In-row order is checked for every plain row and every combination a
    # record stores: the last row, out = t + key, written with its A
    # reversed is refused, and so is the chain record with round 0's u =
    # key + msg reversed.
    for reversed_part, reason in (("plain", "A: wires repeated"), ("chain", "records: wires repeated")):
        cs = record_system(TINY_ROUNDS)
        if reversed_part == "plain":
            m = cs._matrices[0]
            lo, hi = m.span(len(m.counts) - 1)
            arrays = (m.wires, m.coefficients)
        else:
            chain_record = cs.records()[1]
            lo, hi = chain_record.terms, chain_record.key
            arrays = (cs._record_wires, cs._record_ids)
        assert hi - lo >= 2
        for values in arrays:
            values[lo:hi] = values[lo:hi][::-1]
        with pytest.raises(ValueError, match=reason):
            ConstraintSystem.from_export(cs.export())
