import random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    RowByRowBuilder,
    circuit_rows,
    data_forgery,
    data_slot_projection,
    data_witness,
    failing_rows,
    gadget_witness,
    is_satisfied,
    is_sum_row,
    lc_value,
    model_slot_projection,
    model_witness,
    open_data_rows,
    project,
    rows_touching,
    satisfied_at_wire,
    statement_of,
)
from unlearn.circuits import (
    DataCircuit,
    ModelCircuit,
    ProtocolConfig,
    ShapeMismatch,
    ShapeOverflow,
    WitnessSynthesisError,
    data_projection,
    model_projection,
)
from unlearn.field import FixedPointOverflow, ScaleConfig, fx_encode, fx_mul
from unlearn.gadgets import CircuitBuilder, bit_rows, lc_const, lc_wire
from unlearn.hashing import (
    DataPoint,
    HashConfig,
    hash2,
    hash_data,
    hash_data_point,
    hash_model_weights,
    hash_unlearn,
    point_layout,
    round_constants,
)
from unlearn.cli import build_protocol_config
from unlearn.r1cs import BuildPhaseClosed, ConstraintSystem, Unsatisfied
from unlearn.training import Dataset, default_train_config, train_model

SCALE = ScaleConfig()
TINY = HashConfig(rounds=4)
P = SCALE.modulus


def enc(r):
    return fx_encode(r, SCALE)


def _fx_mul(a, b):
    """fx_mul on two free wires holding a and b, and the witness its rows
    complete."""
    return gadget_witness(CircuitBuilder.fx_mul, [a, b])


# -- gadget-level agreement with the native implementations ---------------------


@given(
    a=st.integers(min_value=-(10**7), max_value=10**7),
    b=st.integers(min_value=-(10**7), max_value=10**7),
)
@settings(max_examples=40, deadline=None)
def test_fx_mul_gadget_matches_native(a, b):
    cs, w, out = _fx_mul(a, b)
    assert is_satisfied(cs, w)
    assert lc_value(cs, out, w) == fx_mul(a % P, b % P, SCALE)


def test_fx_mul_gadget_rejects_mutated_quotient():
    cs, w, out = _fx_mul(enc(0.5), enc(0.5))
    out_wire = next(iter(out))
    assert w[out_wire] == enc(0.25)
    mutated = list(w)
    mutated[out_wire] = (mutated[out_wire] + 1) % P
    assert not is_satisfied(cs, tuple(mutated))


def test_range_check_overflow_raises():
    # Values lie in [-2^e, 2^e), e = B - k: 2^B / gamma with gamma = 2^k.
    B = SCALE.value_bits
    e = B - SCALE.frac_bits
    lo, hi = 2 ** (e // 2), 2 ** (e - e // 2)
    _fx_mul(enc(lo), enc(hi // 2))
    _fx_mul(enc(-lo), enc(hi))  # -2^e, the bound's closed end
    with pytest.raises(FixedPointOverflow, match=f"{1 << B} lies outside the {B}-bit value bound"):
        fx_mul(enc(lo), enc(hi), SCALE)
    # The rounded product 2^e has no B+k+1 digits once offset: the walk
    # refuses the decomposition's sum row, the row after the product's.
    with pytest.raises(Unsatisfied) as refused:
        _fx_mul(enc(lo), enc(hi))
    cs, _, _ = _fx_mul(0, 0)
    assert refused.value.row == 1 and is_sum_row(cs.constraints[1])


def test_bits_overflow_raises():
    def bits8(builder, a):
        return builder.bits(a, 8)

    cs, w, bits = gadget_witness(bits8, [2**8 - 1])
    assert len(bits) == 8 and [w[b] for b in bits] == [1] * 8
    # 2^8 has no 8 digits: the walk refuses the sum row, row 0.
    with pytest.raises(Unsatisfied) as refused:
        gadget_witness(bits8, [2**8])
    assert refused.value.row == 0 and is_sum_row(cs.constraints[0])


def test_select_gadget():
    for sel, expected in ((1, 10), (0, 20)):
        cs, w, out = gadget_witness(CircuitBuilder.select, [sel, 10, 20])
        assert is_satisfied(cs, w)
        assert lc_value(cs, out, w) == expected


def test_hash_gadgets_match_native():
    def hashes(builder, v, l, r):
        return builder.hash2(l, r), builder.hash_model([v, l]), builder.hash_data_point(v, [l], r)

    cs, w, (h2, hm, hd) = gadget_witness(hashes, [5, 6, 7])
    assert is_satisfied(cs, w)
    assert lc_value(cs, h2, w) == hash2(6, 7, TINY)
    assert lc_value(cs, hm, w) == hash_model_weights([5, 6], TINY)
    assert lc_value(cs, hd, w) == hash_data_point(DataPoint(5, (6,), 7), TINY)


FULL = HashConfig()
COMPRESS = 330  # one compression at the full rounds, as test_unit_constraint_costs pins


@pytest.mark.parametrize("arity", [1, 2, 3, 4])
def test_hash_data_point_gadget_matches_native(arity):
    # Native and circuit digests agree, at the bound's edges too, and a
    # point costs one compression per limb, the 64-bit uid check and one
    # (B+1)-bit range check per value.  Arity 4 needs a second limb.
    B, limbs = SCALE.value_bits, 1 if arity <= 3 else 2
    values = [-(2**B), 2**B - 1, enc(-0.75), 0, enc(1)]
    d = DataPoint(2**64 - 1, tuple(v % P for v in values[:arity]), values[-1] % P)
    assert len(point_layout(arity)) == limbs
    cs, w, digest = gadget_witness(
        lambda builder, uid, *values: builder.hash_data_point(uid, values[:-1], values[-1]),
        [d.uid, *d.x, d.y],
        rounds=FULL.rounds,
    )
    assert is_satisfied(cs, w)
    assert lc_value(cs, digest, w) == hash_data_point(d, FULL)
    assert cs.num_constraints == limbs * COMPRESS + 65 + (arity + 1) * (B + 2)


def test_packing_forgery_fails_the_uid_range_check():
    # uid + 2^64 and (x + 2^B) - 1 pack into the same limb, so the digest
    # and every hash downstream stay the same; with x's bit wires
    # recomputed, only the uid's 64-bit range check can tell.
    cs, honest = model_witness(_config(capacity=2), _dataset(2))
    B = SCALE.value_bits
    values = list(honest)
    # Slot 0, after the statement: presence, uid, x, y, then the gadget's
    # 64 uid bits and x's B + 1 bits.
    uid_w = cs.num_public + 2
    x_w, x_bits = uid_w + 1, uid_w + 3 + 64
    offset = (values[x_w] + 2**B) % P
    assert [values[x_bits + i] for i in range(B + 1)] == [(offset >> i) & 1 for i in range(B + 1)]
    values[uid_w] += 2**64
    values[x_w] = (values[x_w] - 1) % P
    for i in range(B + 1):
        values[x_bits + i] = ((offset - 1) >> i) & 1
    forged = tuple(values)
    stored = ConstraintSystem.from_export(cs.export())
    assert not is_satisfied(stored, forged)
    first, *rest = failing_rows(stored, forged)
    uid_bits = {w: 1 << i for i, w in enumerate(range(uid_w + 3, uid_w + 3 + 64))}
    # The uid check's first row: the uid is the sum of its 64 bits.
    assert stored.constraints[first] == ({uid_w: 1}, {0: 1}, uid_bits)
    # Every hash row holds: the rest that fail are training rows reading x.
    assert set(rest) <= set(rows_touching(stored, x_w))
    # A verifier derives the bits from the uid, and refuses at that row.
    with pytest.raises(Unsatisfied) as refused:
        stored.complete(project(stored, forged))
    assert refused.value.row == first


@pytest.mark.parametrize(
    "kind,arity,hidden", [("linear", 1, 0), ("logistic", 2, 0), ("nn", 1, 2)]
)
def test_hash_model_gadget_matches_native(kind, arity, hidden):
    # Native and circuit model hashes agree on trained weight vectors,
    # at one compression per weight.
    config = _config(capacity=3, arity=arity, kind=kind, hidden=hidden)
    weights = train_model(_dataset(3, arity=arity), config.train).weights
    cs, w, h_m = gadget_witness(
        lambda builder, *ws: builder.hash_model(list(ws)), weights, rounds=FULL.rounds
    )
    assert is_satisfied(cs, w)
    assert lc_value(cs, h_m, w) == hash_model_weights(weights, FULL)
    assert cs.num_constraints == len(weights) * COMPRESS


def _padded(values, capacity):
    """``values`` padded to capacity with 0, then their presence bits."""
    return values + [0] * (capacity - len(values)) + [int(i < len(values)) for i in range(capacity)]


@pytest.mark.parametrize("occupancy", range(0, 6))
def test_padded_merkle_root_matches_native(occupancy):
    def root(builder, *wires):
        items, pres = wires[:5], wires[5:]
        builder.prefix_presence(pres)
        return builder.merkle_root(items, pres)

    values = [hash2(i + 100, 0, TINY) for i in range(occupancy)]
    cs, w, out = gadget_witness(root, _padded(values, 5))
    assert is_satisfied(cs, w)
    assert lc_value(cs, out, w) == hash_data(values, TINY)


@pytest.mark.parametrize("occupancy", range(0, 5))
def test_padded_chain_matches_native(occupancy):
    from unlearn.hashing import empty_root

    def roots(builder, *wires):
        items, pres, marks = wires[:4], wires[4:8], wires[8:]
        builder.prefix_presence(pres)
        builder.prefix_presence(marks, within=pres)
        return builder.chain_root(lc_const(empty_root(TINY)), items, pres, marks)

    values = [hash2(i + 7, 0, TINY) for i in range(occupancy)]
    for marked in range(occupancy + 1):
        marks = [int(j < marked) for j in range(4)]
        cs, w, out = gadget_witness(roots, _padded(values, 4) + marks)
        assert is_satisfied(cs, w)
        assert tuple(lc_value(cs, root, w) for root in out) == (
            hash_unlearn(values[:marked], TINY),
            hash_unlearn(values, TINY),
        )


# -- model circuit -----------------------------------------------------------------


def _config(capacity=4, epochs=1, arity=1, kind="linear", hidden=0, unlearn_capacity=1):
    return ProtocolConfig(
        train=default_train_config(kind, arity, hidden=hidden, epochs=epochs),
        capacity=capacity,
        unlearn_capacity=unlearn_capacity,
        hash_rounds=TINY.rounds,
    )


def _dataset(n, arity=1, seed=0):
    rng = random.Random(seed)
    return Dataset(
        tuple(
            DataPoint(
                uid=i + 1,
                x=tuple(enc(rng.randint(-4, 4) / 4) for _ in range(arity)),
                y=enc(rng.choice((0, 1))),
            )
            for i in range(n)
        ),
        arity,
    )


def _check_against_native(config, ds):
    """The rows complete the native projection for ``ds``: the model and
    training-set hashes they derive from its slot inputs are the native
    ones, and the statement is that of native training."""
    given, model, digests = model_projection(config, ds)
    cs, witness = model_witness(config, ds)
    assert is_satisfied(cs, witness) and project(cs, witness) == given
    assert model == train_model(ds, config.train)
    assert digests == tuple(hash_data_point(d, TINY) for d in ds.points)
    assert statement_of(cs, witness) == (
        hash_model_weights(model.weights, TINY),
        hash_data(digests, TINY),
    )


@pytest.mark.parametrize("size", range(0, 5))
def test_model_circuit_native_equivalence(size):
    _check_against_native(_config(capacity=4), _dataset(size))


@pytest.mark.parametrize("kind,arity", [("logistic", 2), ("nn", 1)])
def test_model_circuit_other_kinds(kind, arity):
    config = _config(capacity=2, arity=arity, kind=kind, hidden=2 if kind == "nn" else 0)
    _check_against_native(config, _dataset(2, arity=arity))


def test_model_circuit_wrong_model_hash_unsatisfiable():
    cs, w = model_witness(_config(), _dataset(3))
    mutated = list(w)
    mutated[1] = (mutated[1] + 1) % P  # h_m, the first statement wire
    assert not is_satisfied(cs, tuple(mutated))


def test_model_circuit_shape_errors():
    config = _config(capacity=2)
    with pytest.raises(ShapeOverflow, match="3 points exceed the compiled capacity 2"):
        model_projection(config, _dataset(3))
    with pytest.raises(ShapeMismatch):
        model_projection(config, _dataset(2, arity=2))


def test_model_circuit_deterministic_build():
    a = ModelCircuit(_config()).cs.export()
    b = ModelCircuit(_config()).cs.export()
    assert a == b


def test_constraint_count_scales_linearly():
    small = ModelCircuit(_config(capacity=4)).cs.stats().constraint_count
    large = ModelCircuit(_config(capacity=8)).cs.stats().constraint_count
    assert 1.8 <= large / small <= 2.2


def test_constraint_count_monotonicity():
    base = ModelCircuit(_config(capacity=4, epochs=1)).cs.stats().constraint_count
    more_epochs = ModelCircuit(_config(capacity=4, epochs=2)).cs.stats()
    bigger_model = ModelCircuit(_config(capacity=4, arity=2)).cs.stats()
    assert more_epochs.constraint_count > base
    assert bigger_model.constraint_count > base


# -- data circuit --------------------------------------------------------------------


def _data_circuit(hd, prev, add, dcap=4, ucap=4):
    """The data circuit's rows and the witness they complete from the
    native projection for the digest sets."""
    return data_witness(_config(capacity=dcap, unlearn_capacity=ucap), hd, prev, add)


def test_data_circuit_honest_satisfiable():
    hd = [hash2(3, 0, TINY), hash2(5, 0, TINY)]
    hu_add = [hash2(9, 0, TINY)]
    cs, w = _data_circuit(hd, [], hu_add)
    assert is_satisfied(cs, w)
    assert statement_of(cs, w) == (
        hash_data(hd, TINY),
        hash_unlearn([], TINY),
        hash_unlearn(hu_add, TINY),
    )


def test_data_circuit_chain_extension():
    hd = [hash2(1, 0, TINY)]
    prev = [hash2(2, 0, TINY), hash2(3, 0, TINY)]
    add = [hash2(4, 0, TINY)]
    cs, w = _data_circuit(hd, prev, add)
    assert is_satisfied(cs, w)
    assert statement_of(cs, w)[2] == hash_unlearn(prev + add, TINY)


def test_data_circuit_intersection_has_no_witness():
    config = _config(capacity=4, unlearn_capacity=4)
    cs = circuit_rows(DataCircuit, config)
    for sets in (([3, 5], [], [5]), ([3, 5], [3], [])):
        with pytest.raises(WitnessSynthesisError):
            data_projection(config, *sets)
        # The walk refuses the product's row, the last, which has no
        # inverse to define; read row by row, whatever the inverse, that
        # row alone fails.
        with pytest.raises(Unsatisfied) as refused:
            cs.complete(data_slot_projection(config, *sets))
        assert refused.value.row == cs.num_constraints - 1
        for inverse in (0, 1, P - 1):
            assert failing_rows(cs, data_forgery(config, sets, inverse)) == [
                cs.num_constraints - 1
            ]


def test_data_circuit_intersection_unsatisfiable_over_grid():
    # For every overlapping pair of small digest sets, the colliding pair's
    # difference zeroes the running product, whose row acc * v = 1 no field
    # element v can satisfy: the honest-witness search over a value grid
    # plus the algebraic scan both come up empty.
    grid = [1, 2, 3]
    for a in grid:
        for b in grid:
            for u in grid:
                hd, hu = [a, b], [u]
                if set(hd) & set(hu):
                    with pytest.raises(WitnessSynthesisError):
                        _data_circuit(hd, [], hu, dcap=2, ucap=2)
                else:
                    cs, w = _data_circuit(hd, [], hu, dcap=2, ucap=2)
                    assert is_satisfied(cs, w)
    # Brute-force the inverse wire on a colliding instance: no value in a
    # sampled grid (nor any other, since 0 * v == 0 != 1) satisfies it.
    config = _config(capacity=2, unlearn_capacity=2)
    cs = circuit_rows(DataCircuit, config)
    given = data_projection(config, [1, 2], [], [3])
    # Simulate the collision: overwrite the first training digest, the
    # free wire after slot 0's presence bit, so a pair matches, and h_D
    # with the root of the forged set.
    hd_0 = 1 + cs.num_public + 1
    assert given[hd_0] == 1
    given[hd_0], given[1] = 3, hash_data([3, 2], TINY)
    # The last row is the product's: acc * v = 1, with v the last wire,
    # which the row defines as acc's inverse.
    acc, [inverse], one = cs.constraints[-1]
    assert one == {0: 1} and inverse == cs.num_wires - 1 not in cs.free_wires()
    # The walk derives every select and product wire from the forged
    # digest, every row before the product's holds, and acc is 0.
    with pytest.raises(Unsatisfied) as refused:
        cs.complete(given)
    assert refused.value.row == cs.num_constraints - 1
    derived = tuple(open_data_rows(config).complete(given))
    assert lc_value(cs, acc, derived + (0,)) == 0
    for v_try in range(0, 50):
        assert failing_rows(cs, derived + (v_try,)) == [cs.num_constraints - 1]


@pytest.mark.parametrize("sets", [([3, 5], [], [5]), ([3, 5], [3], []), ([7], [2, 7], [7])])
def test_intersecting_sets_with_every_product_wire_recomputed_fail_only_the_inverse_row(sets):
    # A multi-wire forgery: the rows without the nonzero gadget's, which
    # end the circuit, derive every select, product and hash wire from
    # the intersecting sets, and v goes on the inverse wire.  Each row
    # but the product's holds, and the product is 0, which no v inverts.
    config = _config(capacity=2, unlearn_capacity=3)
    cs = circuit_rows(DataCircuit, config)
    open_rows = open_data_rows(config)
    assert (open_rows.num_constraints, open_rows.num_wires) == (
        cs.num_constraints - 1, cs.num_wires - 1
    )
    rng = random.Random(1)
    for v in (0, 1, P - 1, *(rng.randrange(P) for _ in range(5))):
        witness = data_forgery(config, sets, v)
        acc, _, _ = cs.constraints[-1]
        assert lc_value(cs, acc, witness) == 0
        assert failing_rows(cs, witness) == [cs.num_constraints - 1]
        assert not is_satisfied(cs, witness)


@given(data=st.data(), dcap=st.integers(1, 4), ucap=st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_data_projection_completes_exactly_when_disjoint(data, dcap, ucap):
    # Part-filled digest sets, drawn small enough to meet often, with 0,
    # the absent slots' pin, among them: the native projection exists and
    # completes against setup's rows exactly when the sets are disjoint.
    # Otherwise native raises, the walk refuses the product's row, which
    # has no inverse to define, and read row by row no inverse satisfies
    # it.
    digest = st.integers(0, 5)
    trained = data.draw(st.lists(digest, max_size=dcap))
    unlearnt = data.draw(st.lists(digest, max_size=ucap))
    previous = data.draw(st.integers(0, len(unlearnt)))
    inverse = data.draw(st.integers(0, P - 1))
    sets = (trained, unlearnt[:previous], unlearnt[previous:])
    config = _config(capacity=dcap, unlearn_capacity=ucap)
    rows = circuit_rows(DataCircuit, config)
    if set(trained) & set(unlearnt):
        with pytest.raises(WitnessSynthesisError, match="sets intersect"):
            data_projection(config, *sets)
        with pytest.raises(Unsatisfied) as refused:
            rows.complete(data_slot_projection(config, *sets))
        assert refused.value.row == rows.num_constraints - 1
        assert failing_rows(rows, data_forgery(config, sets, inverse)) == [
            rows.num_constraints - 1
        ]
    else:
        given = data_projection(config, *sets)
        assert given == data_slot_projection(config, *sets)
        assert project(rows, rows.complete(given)) == given


def test_data_circuit_tampered_root_unsatisfiable():
    cs, w = _data_circuit([hash2(3, 0, TINY)], [], [hash2(9, 0, TINY)])
    for wire in range(1, 1 + cs.num_public):
        mutated = list(w)
        mutated[wire] = (mutated[wire] + 1) % P
        assert not is_satisfied(cs, tuple(mutated))


def test_data_circuit_capacity_errors():
    with pytest.raises(ShapeOverflow, match="3 training digests exceed the compiled capacity 2"):
        data_projection(_config(capacity=2, unlearn_capacity=1), [1, 2, 3], [], [])
    with pytest.raises(ShapeOverflow, match="2 unlearnt digests exceed the compiled capacity 1"):
        data_projection(_config(capacity=2, unlearn_capacity=1), [1], [2, 3], [])
    # Previous and appended digests share the one unlearnt capacity: each
    # fits alone, together they do not.
    config = _config(capacity=2, unlearn_capacity=3)
    with pytest.raises(ShapeOverflow, match="4 unlearnt digests exceed the compiled capacity 3"):
        data_projection(config, [1], [2, 3], [4, 5])
    cs, full = _data_circuit([1], [2], [3, 4], dcap=2, ucap=3)
    assert is_satisfied(cs, full)


@pytest.mark.parametrize("n", range(0, 5))
def test_data_circuit_every_split_of_the_unlearnt_digests(n):
    # Any k previous digests followed by n - k appended ones give the
    # roots of the first k and of all n, in the one array of 4 slots.
    digests = [hash2(i + 20, 0, TINY) for i in range(n)]
    for k in range(n + 1):
        cs, w = _data_circuit([hash2(1, 0, TINY)], digests[:k], digests[k:], dcap=1, ucap=4)
        assert is_satisfied(cs, w)
        assert statement_of(cs, w)[1:] == (
            hash_unlearn(digests[:k], TINY),
            hash_unlearn(digests, TINY),
        )


def test_previous_bits_never_run_past_presence():
    # A forgery that claims the unlearnt set shrank: the previous-digest
    # bits run one slot past the presence bits, and h_U_prev is recomputed
    # to the chain that extends h_U by that slot.  Every row but the one
    # tying that previous bit to its presence bit holds.
    dcap, ucap, n = 1, 4, 2
    unlearnt = [hash2(20, 0, TINY), hash2(21, 0, TINY)]
    cs, honest = _data_circuit([hash2(1, 0, TINY)], unlearnt, [], dcap=dcap, ucap=ucap)
    values = list(honest)
    # Layout after the statement: each training slot's presence bit and
    # digest, then each unlearnt slot's presence bit, previous-digest bit
    # and digest.
    _, h_uprev_wire, h_u_wire = range(1, 1 + cs.num_public)
    pres_n = h_u_wire + 1 + 2 * dcap + 3 * n
    prev_n = pres_n + 1
    assert (values[pres_n], values[prev_n], values[prev_n - 3]) == (0, 0, 1)
    values[prev_n] = 1
    # Each slot's previous-digest fold is one select row, previous bit
    # times (h - psi_prev) = psi - psi_prev, whose last C wire is the new
    # psi.  The forged bit's fold now takes the hash, and every later
    # fold, whose bit is 0, carries it on to h_U_prev.
    bits = range(prev_n, prev_n + 3 * (ucap - n), 3)  # the forged bit and the later ones
    folds = [(a, b, c) for a, b, c in cs.constraints if c and len(a) == 1 and min(a) in bits]
    assert [min(a) for a, _, _ in folds] == list(bits)
    a, b, c = folds[0]
    fold = max(c)
    values[fold] = (lc_value(cs, a, values) * lc_value(cs, b, values)
                    - lc_value(cs, c, values) + values[fold]) % P
    for w in [max(c) for _, _, c in folds[1:]] + [h_uprev_wire]:
        values[w] = values[fold]
    h_u = values[h_u_wire]
    assert h_u == hash_unlearn(unlearnt, TINY)
    # The slot past the set is absent, so its digest is pinned to 0.
    assert values[h_uprev_wire] == hash_unlearn(unlearnt + [0], TINY)
    forged = tuple(values)
    failing = failing_rows(cs, forged)
    previous_within_presence = ({prev_n: 1}, {0: 1, pres_n: P - 1}, {})
    assert [cs.constraints[i] for i in failing] == [previous_within_presence]
    assert not is_satisfied(cs, forged)


# -- mutation oracle --------------------------------------------------------------


def _mutation_sweep(cs, witness):
    surviving = []
    values = list(witness)
    for wire in range(1, len(values)):
        original = values[wire]
        values[wire] = (original + 1) % P
        if satisfied_at_wire(cs, tuple(values), wire):
            surviving.append(wire)
        values[wire] = original
    return surviving


def test_every_wire_mutation_breaks_model_circuit():
    # Full and part-filled: the absent slots' pinned values count too.
    for size in (4, 2):
        assert _mutation_sweep(*model_witness(_config(capacity=4), _dataset(size))) == []


def test_mutation_fast_path_agrees_with_full_evaluation():
    cs, w = _data_circuit([1, 2], [], [3], dcap=2, ucap=2)
    rng = random.Random(0)
    for _ in range(25):
        wire = rng.randrange(1, len(w))
        mutated = list(w)
        mutated[wire] = (mutated[wire] + rng.randrange(1, 5)) % P
        mw = tuple(mutated)
        assert satisfied_at_wire(cs, mw, wire) == is_satisfied(cs, mw)


def test_fx_mul_gadget_smallest_product():
    # enc(1/gamma) squared: integer product 1, under half a step, rounds to 0.
    cs, w, out = _fx_mul(1, 1)
    assert lc_value(cs, out, w) == 0
    # gadget layout after the operands (wires 1 and 2): the product, the
    # B+k+1 bits of product + 2^(k-1) + 2^(B+k), the output.
    k, B = SCALE.frac_bits, SCALE.value_bits
    prod_wire, out_wire = 3, next(iter(out))
    assert w[prod_wire] == 1
    bits = w[prod_wire + 1 : out_wire]
    assert len(bits) == B + k + 1
    assert sum(v << i for i, v in enumerate(bits)) == 1 + (1 << (k - 1)) + (1 << (B + k))
    assert out_wire == cs.num_wires - 1


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_model_circuit_equivalence_up_to_capacity_eight(arity):
    config = _config(capacity=8, arity=arity)
    for size in (0, 1, 5, 8):
        _check_against_native(config, _dataset(size, arity=arity, seed=size))


# -- pinned constraint counts ----------------------------------------------------
# Exact and deterministic.  A higher count is a regression; a lower one is an
# intended change, pinned here anew and recorded with its figures.


@pytest.mark.parametrize(
    "gadget,expected",
    # fx_mul: the product, 54 booleans, the bits' sum and the output.
    [("fx_mul", 57), ("hash2", 330)],  # 330 = one compression
)
def test_unit_constraint_costs(gadget, expected):
    scale, hash_cfg = ScaleConfig(), HashConfig()
    cs = ConstraintSystem(scale.modulus)
    builder = CircuitBuilder(cs, scale, hash_cfg)
    x, y = (lc_wire(cs.alloc_private(name=n)) for n in ("x", "y"))
    getattr(builder, gadget)(x, y)
    assert len(cs.constraints) == expected


# -- the gadgets that write blocks, against row-by-row enforce -------------------------


def _rows_and_result(builder_class, build):
    """The export of the rows ``build(builder, x, y, z)`` writes on three
    free wires, with its result."""
    cs = ConstraintSystem(P)
    out = build(builder_class(cs, SCALE, FULL), *(cs.alloc_private() for _ in range(3)))
    return cs.export(), out


@pytest.mark.parametrize(
    "build",
    [
        lambda b, x, y, z: b.bits({x: 1}, 2),
        # A constant, an unreduced coefficient and one that vanishes mod p.
        lambda b, x, y, z: b.bits({0: 5, x: 3, y: -1, z: P}, 38),
        lambda b, x, y, z: b.bits({z: 2, y: 1}, 54),
        lambda b, x, y, z: b.bits({}, 54),
        lambda b, x, y, z: b.fx_mul({x: 1}, {y: 2, 0: 7}),
        lambda b, x, y, z: b.mimc_permute({x: 1, y: -3}, {z: 1, 0: 9}),
        lambda b, x, y, z: b.mimc_permute({x: 1}, {y: 2, z: 1}),
        # The key's constant cancels the second round constant.
        lambda b, x, y, z: b.mimc_permute({0: 4}, {z: 1, 0: -round_constants(FULL.rounds)[1]}),
        lambda b, x, y, z: b.mimc_permute({}, {0: 5}),
        lambda b, x, y, z: b.hash2({x: 1}, {y: 1, x: 2}),
    ],
    ids=[
        "bits-2", "bits-38", "bits-54", "bits-54-of-zero", "fx_mul", "mimc-key-constant",
        "mimc-key-wires", "mimc-round-without-constant", "mimc-constant-key", "hash2",
    ],
)
def test_bulk_gadgets_write_the_rows_enforce_writes(build):
    # bits and mimc_permute write their rows as one block; the reference
    # writes the same rows one by one through enforce.
    assert _rows_and_result(CircuitBuilder, build) == _rows_and_result(RowByRowBuilder, build)


def _in_a(counts, wires, coefficients):
    """A block whose rows have terms in A only."""
    empty = ([0] * len(counts), [], [])
    return (counts, wires, coefficients), empty, empty


@pytest.mark.parametrize(
    "block",
    [
        bit_rows({1: 1}, [2, 3], P),
        bit_rows({1: 1}, [0], P),
        _in_a([1], [2], [1]),
        _in_a([1, 1], [1], [1]),
        _in_a([-1, 2], [1], [1]),
        _in_a([1], [-1], [1]),
        _in_a([2], [1, 1], [1, 1]),
        _in_a([1], [1], [P]),
        _in_a([1], [1], [0]),
    ],
    ids=[
        "unallocated-bits", "constant-bit", "unallocated", "counts", "negative-count",
        "negative-wire", "repeated-wire", "unreduced", "zero",
    ],
)
def test_a_refused_block_stores_nothing(block):
    # enforce refuses a row that reads an unallocated wire with ValueError;
    # enforce_block refuses such a block, the constant as a bit and any
    # block enforce could not have written the same way, before it stores
    # a row or a coefficient.
    cs = ConstraintSystem(P)
    cs.alloc_private()
    with pytest.raises(ValueError, match="unallocated wire 2"):
        cs.enforce({2: 1}, {0: 1}, {})
    before = cs.export()
    with pytest.raises(ValueError):
        cs.enforce_block(*block)
    assert cs.export() == before


def test_a_finalized_system_refuses_blocks():
    cs = ConstraintSystem(P)
    w = cs.alloc_private()
    block = bit_rows({w: 1}, [w], P)
    cs.enforce_block(*block)
    cs.finalize()
    for write in (lambda: cs.enforce_block(*block), lambda: cs.enforce({w: 1}, {}, {})):
        with pytest.raises(BuildPhaseClosed):
            write()
    assert cs.num_constraints == 2


@pytest.mark.parametrize("builder_class", [CircuitBuilder, RowByRowBuilder])
def test_mimc_refuses_an_unallocated_input(builder_class):
    cs = ConstraintSystem(P)
    builder = builder_class(cs, SCALE, TINY)
    x = cs.alloc_private()
    with pytest.raises(ValueError, match="unallocated wire 6"):
        builder.mimc_permute({x: 1}, {x + 5: 1})


def test_fast_pub_constraint_totals(fast_pub):
    assert fast_pub.model_circuit.cs.stats().constraint_count == 3253
    assert fast_pub.data_circuit.cs.stats().constraint_count == 356
    # The free wires, whose values a witness-check proof carries: each
    # model slot's presence, uid, feature and label, and each data slot's
    # presence bit and digest, and an unlearnt slot's previous bit.
    assert len(fast_pub.model_circuit.cs.free_wires()) == 8 * 4
    assert len(fast_pub.data_circuit.cs.free_wires()) == 5 * 8


@pytest.mark.parametrize(
    "epochs,capacity,model,data,fingerprints",
    [
        # cli-walkthrough: model 25,363 = range bits 18,744 + hash 5,610 +
        # fx_mul 640 + select 328 + absent-slot pins 24 + presence 15 +
        # bindings 2; data 5,126 = hash 4,950 + disjoint products 63 +
        # presence 53 + select 40 + absent-slot pins 16 + bindings 3 +
        # nonzero 1.
        (10, 8, (25363, 25013, 120133, (39, 10, 64), 32), (5126, 5098, 25143, (3, 5, 2), 40), (
            "c3826ddae7469ecd5813274edc7b2856f55c5c6ae43be18db1f8f9acd12a8434",
            "db7a400d4cee71b687bb67febfd8db876c5e933a3863d6ba4ac1083a1697d257",
        )),
        # cli-unlearn: model 16,987 = hash 10,890 + range bits 5,808 +
        # fx_mul 128 + select 80 + absent-slot pins 48 + presence 31 +
        # bindings 2; data 10,710 = hash 10,230 + disjoint products 255 +
        # presence 109 + select 80 + absent-slot pins 32 + bindings 3 +
        # nonzero 1.
        (1, 16, (16987, 16861, 83961, (39, 10, 64), 64), (10710, 10650, 52783, (3, 5, 2), 80), (
            "6cc874e96bc21fb8286b3cb88076dbc7011572a58602f898a3aedc94df900059",
            "1ee09d74b064e994a4c279f7286ba79dba218e70eeace9a5b5e166f5430f5aca",
        )),
    ],
    ids=["cli-walkthrough", "cli-unlearn"],
)
def test_benchmark_config_sizes(epochs, capacity, model, data, fingerprints):
    # The benchmark workloads' configs, at the full hash: constraints,
    # wires, nonzero terms, the longest row of A, B and C, the free
    # wires, whose values a witness-check proof carries, and the
    # fingerprint of the export setup stores.  The terms and rows catch a
    # gadget that widens the rows reading its output, as an fx_mul
    # returning its bits' combination would, or a combination that grows
    # across the training loop.
    config = build_protocol_config(
        {"epochs": str(epochs), "capacity": str(capacity), "unlearn_capacity": str(capacity)}
    )
    for circuit, expected, fingerprint in zip((ModelCircuit, DataCircuit), (model, data), fingerprints):
        cs = circuit(config).cs
        longest = tuple(max(len(row[m]) for row in cs.constraints) for m in range(3))
        free = len(cs.free_wires())
        assert (cs.num_constraints, cs.num_wires, cs.stats().term_count, longest, free) == expected
        assert cs.fingerprint() == fingerprint


@pytest.mark.parametrize(
    "epochs,capacity,model,data",
    [
        # Each circuit's boolean runs and round chains, as (count, rows).
        (10, 8, ((344, 18400), (17, 5610)), ((0, 0), (15, 4950))),
        (1, 16, ((112, 5696), (33, 10890)), ((0, 0), (31, 10230))),
    ],
    ids=["cli-walkthrough", "cli-unlearn"],
)
def test_benchmark_config_blocks(epochs, capacity, model, data):
    # The blocks the walk certifies in the benchmark workloads' circuits:
    # every compression is one chain of the full rounds, and every sum row
    # heads a run.  A gadget change that loses the walk's fast path fails
    # here, before any timing shows it.
    config = build_protocol_config(
        {"epochs": str(epochs), "capacity": str(capacity), "unlearn_capacity": str(capacity)}
    )
    permute = CircuitBuilder.mimc_permute
    for circuit, expected in zip((ModelCircuit, DataCircuit), (model, data)):
        with mock.patch.object(
            CircuitBuilder, "mimc_permute", autospec=True, side_effect=permute
        ) as compressions:
            cs = circuit(config).cs
        blocks = cs._scan().blocks
        runs = [b for b in blocks if not b.rounds]
        chains = [b for b in blocks if b.rounds]
        rows = lambda bs: (len(bs), sum(b.end - b.row for b in bs))
        assert (rows(runs), rows(chains)) == expected
        assert cs.walked_rows == cs.num_constraints - rows(runs)[1] - rows(chains)[1]
        assert len(chains) == compressions.call_count
        assert {b.rounds for b in chains} == {config.hash_cfg.rounds}
        assert [b.row - 1 for b in runs] == [
            i for i, row in enumerate(cs.constraints) if is_sum_row(row)
        ]


@pytest.mark.parametrize(
    "kind,hidden,expected,fingerprint",
    [
        ("logistic", None, (5575, 5511, 27987, (39, 12, 64), 10),
         "4345bd382c03156bc90423d1d93f6d584537b40af44fd259360945432c0e96f4"),
        ("nn", 2, (14443, 14259, 89620, (39, 18, 64), 10),
         "5d3993e01d2aecb198e632cb903a1694281b739ea2ab7c4d57515e5abf89e716"),
        ("nn", 4, (25355, 25027, 204540, (39, 34, 64), 10),
         "7f025c9a477036031c374307303347e6a5aeefde8e0865699fd4b9807fa55f4e"),
    ],
    ids=["logistic", "nn-hidden-2", "nn-hidden-4"],
)
def test_model_circuit_sizes_beyond_linear(kind, hidden, expected, fingerprint):
    # Model circuits of the other kinds at arity 2, capacity 2, two epochs
    # and the full hash, pinned as test_benchmark_config_sizes pins the
    # linear ones: a change to one row of the sigmoid, the hidden layer or
    # a select moves the fingerprint.
    options = {"kind": kind, "arity": "2", "epochs": "2", "capacity": "2", "unlearn_capacity": "2"}
    if hidden is not None:
        options["hidden"] = str(hidden)
    cs = ModelCircuit(build_protocol_config(options)).cs
    longest = tuple(max(len(row[m]) for row in cs.constraints) for m in range(3))
    free = len(cs.free_wires())
    assert (cs.num_constraints, cs.num_wires, cs.stats().term_count, longest, free) == expected
    assert cs.fingerprint() == fingerprint


def test_data_circuit_size_at_capacity_100():
    # bench's default size, |D| = 100 and |U| = 10 at the full hash: 37,560
    # rows = hash 35,970 + disjoint products 999 + presence 247 + select
    # 230 + absent-slot pins 110 + bindings 3 + nonzero 1; 230 free wires
    # = each slot's presence bit and digest, and each unlearnt slot's
    # previous bit.  With one free inverse per pair they were 38,450 and
    # 1,230; with one free inverse, 37,560 and 231.
    config = build_protocol_config({"capacity": "100", "unlearn_capacity": "10"})
    cs = DataCircuit(config).cs
    assert (cs.num_constraints, len(cs.free_wires())) == (37560, 2 * 100 + 3 * 10)


@pytest.mark.parametrize(
    "kind,arity,hidden", [("linear", 1, 0), ("logistic", 2, 0), ("nn", 1, 2)]
)
@pytest.mark.parametrize("epochs", [1, 3])
def test_model_free_wires_are_the_slot_inputs(kind, arity, hidden, epochs):
    # Every row derives its wires from the slots' inputs: each range
    # check's bits are its sum row's digits, and every product its row's.
    # So the free wires are each slot's presence, uid, features and label,
    # the same for the built system and the one loaded from its export.
    capacity = 3
    cs = ModelCircuit(
        _config(capacity=capacity, epochs=epochs, arity=arity, kind=kind, hidden=hidden)
    ).cs
    free = cs.free_wires()
    assert len(free) == capacity * (arity + 3)
    assert ConstraintSystem.from_export(cs.export()).free_wires() == free


@pytest.mark.parametrize("wire,value", [("uid", 2**64), ("x", 2**37), ("x", -(2**37) - 1)])
def test_an_out_of_range_slot_input_fails_its_decomposition_row(wire, value):
    # A projection whose slot input leaves its range check's width: the
    # verifier's walk refuses it at that check's sum row, whose rest has
    # no digits of that width.
    config = _config(capacity=2)
    cs = ConstraintSystem.from_export(circuit_rows(ModelCircuit, config).export())
    uid_w = cs.num_public + 2  # slot 0: presence, uid, x, y
    target = uid_w if wire == "uid" else uid_w + 1
    given = model_projection(config, _dataset(2))[0]
    given[1 + cs.num_public + cs.free_wires().index(target)] = value % P
    bits = 64 if wire == "uid" else SCALE.value_bits + 1
    [row] = [
        i for i, (a, b, c) in enumerate(cs.constraints)
        if b == {0: 1} and len(c) == bits and target in a
    ]
    with pytest.raises(Unsatisfied) as refused:
        cs.complete(given)
    assert refused.value.row == row


def test_longest_rows_do_not_grow_with_capacity_or_epochs():
    # Every product gadget returns one wire that its own row defines, so
    # no row copies a weight's history or a running root: each circuit's
    # longest rows of A, B and C are the same at every capacity and epoch
    # count.  The model's longest A row is an fx_mul's high B+1 bits less
    # 2^B, and its longest C row the uid's 64 bits.
    longest = {ModelCircuit: set(), DataCircuit: set()}
    for capacity in (2, 4, 8):
        for epochs in (1, 3):
            config = build_protocol_config({
                "epochs": str(epochs),
                "capacity": str(capacity),
                "unlearn_capacity": str(capacity),
                "hash_rounds": str(TINY.rounds),
            })
            for circuit, seen in longest.items():
                rows = circuit(config).cs.constraints
                seen.add(tuple(max(len(row[m]) for row in rows) for m in range(3)))
    assert longest == {ModelCircuit: {(39, 10, 64)}, DataCircuit: {(3, 5, 2)}}


def test_fast_pub_fingerprints_do_not_depend_on_inputs(fast_pub):
    # Pinned: any change to a row or to the wire order moves them.
    model, data = fast_pub.model_circuit.cs, fast_pub.data_circuit.cs
    assert model.fingerprint() == "ffeda52f3ccae7e016b1039170068ef28d77faef5337155b6f54d6a0adb5c203"
    assert data.fingerprint() == "5829e5d9295e92a1a9e3494578ac92792cca302e5c29b0c23003a2e52c89abe8"
    # Setup builds the rows from the config alone, and they serve every
    # input that fits: full-capacity projections complete against them.
    config = fast_pub.config
    model.complete(model_projection(config, _dataset(config.capacity))[0])
    digests = [hash2(i, 0, TINY) for i in range(config.capacity + config.unlearn_capacity)]
    half = config.capacity + config.unlearn_capacity // 2
    data.complete(data_projection(
        config, digests[: config.capacity], digests[config.capacity : half], digests[half:]
    ))


# -- the provers' projections ------------------------------------------------------


def _raised(build):
    with pytest.raises((ShapeMismatch, FixedPointOverflow, WitnessSynthesisError)) as err:
        build()
    return type(err.value), str(err.value), getattr(err.value, "uid", None)


def _refused_row(cs, given):
    """The row at which ``cs`` refuses the projection ``given``, or None
    if it completes."""
    try:
        cs.complete(given)
    except Unsatisfied as e:
        return e.row
    return None


def test_projections_raise_where_no_witness_exists():
    # Each input beyond the shape, beyond the value bound or meeting the
    # unlearnt set: the native projection raises, naming the cause and
    # the uid.  Beyond the shape there is no slot for the input; beyond
    # the bound, the rows refuse its slot inputs at a range check's sum
    # row, before the h_m binding row, the last; meeting the unlearnt
    # set, they refuse the product's row, which no inverse satisfies.
    config = _config(capacity=2, unlearn_capacity=2)
    model_rows = circuit_rows(ModelCircuit, config)
    data_rows = circuit_rows(DataCircuit, config)
    model_cases = [
        (_dataset(3), ShapeOverflow, "3 points exceed the compiled capacity 2", None),
        (_dataset(2, arity=2), ShapeMismatch, "dataset arity 2 != circuit arity 1", None),
        # The product w * x of the second point crosses the bound.
        (Dataset((DataPoint(1, (enc(5000),), enc(1)), DataPoint(2, (enc(10000),), enc(1))), 1),
         FixedPointOverflow, "uid 2, epoch 1: ", 2),
        # A feature beyond the bound, before any training.
        (Dataset((DataPoint(1, (enc(0.5),), enc(1)), DataPoint(3, (2**37,), enc(1))), 1),
         FixedPointOverflow, "uid 3: ", 3),
    ]
    for ds, kind, message, uid in model_cases:
        raised = _raised(lambda: model_projection(config, ds))
        assert raised[0] is kind and message in raised[1] and raised[2] == uid, raised
        if kind is FixedPointOverflow:
            row = _refused_row(model_rows, model_slot_projection(config, ds))
            assert row < model_rows.num_constraints - 1
            assert is_sum_row(model_rows.constraints[row])
    # Inputs inside the bound are refused only at the h_m binding row when
    # h_m is wrong.
    given = model_projection(config, _dataset(2))[0]
    assert model_slot_projection(config, _dataset(2), given[1]) == given
    row = _refused_row(model_rows, model_slot_projection(config, _dataset(2), given[1] + 1))
    assert row == model_rows.num_constraints - 1
    data_cases = [
        (([3, 5, 7], [], []), ShapeOverflow, "3 training digests exceed"),
        (([3], [5], [6, 8]), ShapeOverflow, "3 unlearnt digests exceed"),
        (([3, 5], [], [5]), WitnessSynthesisError, "sets intersect"),
        (([3, 5], [3], []), WitnessSynthesisError, "sets intersect"),
    ]
    for sets, kind, message in data_cases:
        raised = _raised(lambda: data_projection(config, *sets))
        assert raised[0] is kind and message in raised[1], raised
        if kind is WitnessSynthesisError:
            row = _refused_row(data_rows, data_slot_projection(config, *sets))
            assert row == data_rows.num_constraints - 1
            for inverse in (0, 1, P - 1):
                assert failing_rows(data_rows, data_forgery(config, sets, inverse)) == [row]
