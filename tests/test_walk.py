"""The walk over certified blocks (``unlearn.walk``) against the walk row
by row (conftest's ``walk_rows``): the same witness, the same verdict and
the same first failing row, at the reduced and the full round count."""

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


def block_wires(cs, block) -> range:
    """The wires a block's rows read that the walk assigns: a run's digits,
    the A terms of its rows, or a chain's 3R wires, from its first C."""
    a, _, c = cs._matrices
    if block.rounds:
        first = c.wires[block.starts[2]]
        return range(first, first + 3 * block.rounds)
    return range(a.wires[block.starts[0]], a.wires[block.ends[0] - 1] + 1)


@pytest.mark.parametrize("rounds", ROUNDS)
def test_the_block_walk_is_the_row_walk(rounds):
    # Both circuits at capacity 2, one slot filled and one point unlearnt.
    # Honest inputs complete to the identical list.  Every wire of one
    # boolean run and one round chain moved by one is refused by complete,
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
        blocks = cs._scan().blocks
        chains = [b for b in blocks if b.rounds]
        assert chains and {b.rounds for b in chains} == {rounds}
        picked = chains[:1] + [b for b in blocks if not b.rounds][:1]
        assert len(picked) == (2 if circuit is ModelCircuit else 1)
        for block in picked:
            for wire in block_wires(cs, block):
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
    ``mimc_permute(msg, key)``, each written through ``enforce``; then
    out = the permutation's t + key, as ``hashing.mimc_permute``.
    ``alter`` writes one block otherwise: "boolean" bit 2's row as
    b * (2 - b) = 0, "constant" the middle round's u * u row with B =
    u + 1, "double-first" and "double-middle" round 0's or the middle
    round's u2 * u2 row as (2 * u2) * u2, and "key" the rounds from the
    middle on under 2 * key."""
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


@pytest.mark.parametrize("rounds", ROUNDS)
def test_gadget_rows_written_one_by_one_are_certified(rounds):
    # The rows bits and mimc_permute write, row by row through enforce:
    # one run of the 4 boolean rows after the sum row, one chain of every
    # round, and the walk agrees with the rows on x in and out of range.
    cs = gadget_system(rounds)
    assert [(b.row, b.end, b.rounds) for b in cs._scan().blocks] == [
        (1, 5, 0), (5, 5 + 3 * rounds, rounds)
    ]
    assert cs.walked_rows == 2
    key, msg = 5, 7
    out = mimc_permute(msg, key, HashConfig(rounds))
    for x, outcome in ((0b1011, None), (16, 0), (P - 1, 0)):
        given = [1, x, key, msg, out]
        walked = walk_outcome(complete, cs, given)
        assert walked == walk_outcome(walk_rows, cs, given)
        assert walked == (walk_rows(cs, given) if outcome is None else ("unsatisfied", outcome))
    assert walk_outcome(complete, cs, [1, 3, key, msg, out + 1]) == ("unsatisfied", 5 + 3 * rounds)


@pytest.mark.parametrize("rounds", ROUNDS)
@pytest.mark.parametrize("alter", ["boolean", "constant", "double-first", "double-middle", "key"])
def test_an_altered_block_is_walked_row_by_row(rounds, alter):
    # One altered block is not certified, so the walk evaluates each of its
    # rows and refuses what the rows refuse: bit 2 set fails its boolean
    # row b * (2 - b) = 0, and a chain that computes another permutation
    # fails the last row, which checks out against the native one.  The
    # other block is still certified, and so are the rounds after an
    # altered round 0: round 1 starts a chain of the rest.
    cs = gadget_system(rounds, alter)
    kept = {"boolean": [rounds], "double-first": [0, rounds - 1]}.get(alter, [0])
    assert [b.rounds for b in cs._scan().blocks] == kept
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
        assert isinstance(walk_outcome(complete, gadget_system(rounds), given), list)


def test_the_strict_load_checks_order_outside_certified_blocks():
    # In-row order is checked for every row outside the certified blocks.
    # A chain's first row is outside: written with u = msg + key in the
    # wrong order in its A and in both Bs that read u, its rows are still
    # round 0's and the chain is certified, and its A is refused.  A
    # boolean row whose B reads the digit before the constant is no longer
    # certified, and refused.
    chain_head, run_row = 5, 1
    for matrix, rows, reason in (
        ("AB", {"A": [chain_head], "B": [chain_head, chain_head + 2]}, "A: wires repeated"),
        ("B", {"B": [run_row]}, "B: wires repeated"),
    ):
        cs = gadget_system(TINY_ROUNDS)
        for name, m in zip("ABC", cs._matrices):
            for row in rows.get(name, ()):
                lo, hi = m.span(row)
                m.wires[lo:hi] = m.wires[lo:hi][::-1]
                m.coefficients[lo:hi] = m.coefficients[lo:hi][::-1]
        if matrix == "AB":
            assert [b.rounds for b in cs._scan().blocks] == [0, TINY_ROUNDS]
        with pytest.raises(ValueError, match=reason):
            ConstraintSystem.from_export(cs.export())
