import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import failing_rows, is_satisfied, rows_touching, satisfied_at_wire
from unlearn.circuits import (
    DataCircuit,
    ModelCircuit,
    ProtocolConfig,
    ShapeMismatch,
    ShapeOverflow,
)
from unlearn.field import FixedPointOverflow, ScaleConfig, fx_encode, fx_mul
from unlearn.gadgets import CircuitBuilder, lc_const, lc_wire
from unlearn.hashing import (
    DataPoint,
    HashConfig,
    hash2,
    hash_data,
    hash_data_point,
    hash_model_weights,
    hash_unlearn,
    point_layout,
)
from unlearn.cli import build_protocol_config
from unlearn.r1cs import ConstraintSystem, Witness, WitnessSynthesisError
from unlearn.training import Dataset, default_train_config, train_model

SCALE = ScaleConfig()
TINY = HashConfig(rounds=4)
P = SCALE.modulus


def enc(r):
    return fx_encode(r, SCALE)


def _builder():
    cs = ConstraintSystem(P)
    return CircuitBuilder(cs, SCALE, TINY), cs


def _fx_mul(a, b):
    """fx_mul on two private wires holding a and b."""
    builder, cs = _builder()
    out = builder.fx_mul(lc_wire(cs.alloc_private(a)), lc_wire(cs.alloc_private(b)))
    cs.finalize()
    return builder, cs, out


# -- gadget-level agreement with the native implementations ---------------------


@given(
    a=st.integers(min_value=-(10**7), max_value=10**7),
    b=st.integers(min_value=-(10**7), max_value=10**7),
)
@settings(max_examples=40, deadline=None)
def test_fx_mul_gadget_matches_native(a, b):
    _, cs, out = _fx_mul(a, b)
    assert is_satisfied(cs, cs.witness())
    assert cs.lc_value(out) == fx_mul(a % P, b % P, SCALE)


def test_fx_mul_gadget_rejects_mutated_quotient():
    _, cs, out = _fx_mul(enc(0.5), enc(0.5))
    w = cs.witness()
    out_wire = next(iter(out))
    assert w.values[out_wire] == enc(0.25)
    mutated = list(w.values)
    mutated[out_wire] = (mutated[out_wire] + 1) % P
    assert not is_satisfied(cs, Witness(tuple(mutated)))


def test_range_check_overflow_raises():
    # Values lie in [-2^e, 2^e), e = B - k: 2^B / gamma with gamma = 2^k.
    B = SCALE.value_bits
    e = B - SCALE.frac_bits
    lo, hi = 2 ** (e // 2), 2 ** (e - e // 2)
    _fx_mul(enc(lo), enc(hi // 2))
    _fx_mul(enc(-lo), enc(hi))  # -2^e, the bound's closed end
    with pytest.raises(FixedPointOverflow, match=f"{1 << B} lies outside the {B}-bit value bound"):
        _fx_mul(enc(lo), enc(hi))


def test_bits_overflow_raises():
    builder, cs = _builder()
    assert len(builder.bits(lc_wire(cs.alloc_private(2**8 - 1)), 8)) == 8
    with pytest.raises(WitnessSynthesisError, match="exceeds 8-bit range check"):
        builder.bits(lc_wire(cs.alloc_private(2**8)), 8)


def test_builder_refuses_a_hash_config_of_another_bound():
    # The point gadget packs values under the hash config's bound and
    # range-checks them under the scale's: the two must agree.
    with pytest.raises(ValueError, match="disagree"):
        CircuitBuilder(ConstraintSystem(P), ScaleConfig(gamma=1024), TINY)


def test_select_gadget():
    for sel, expected in ((1, 10), (0, 20)):
        builder, cs = _builder()
        s, a, b = (lc_wire(cs.alloc_private(v)) for v in (sel, 10, 20))
        out = builder.select(s, a, b)
        cs.finalize()
        assert is_satisfied(cs, cs.witness())
        assert cs.lc_value(out) == expected


def test_hash_gadgets_match_native():
    builder, cs = _builder()
    v, l, r = (lc_wire(cs.alloc_private(x)) for x in (5, 6, 7))
    h2 = builder.hash2(l, r)
    hm = builder.hash_model([v, l])
    hd = builder.hash_data_point(v, [l], r)
    cs.finalize()
    assert is_satisfied(cs, cs.witness())
    assert cs.lc_value(h2) == hash2(6, 7, TINY)
    assert cs.lc_value(hm) == hash_model_weights([5, 6], TINY)
    assert cs.lc_value(hd) == hash_data_point(DataPoint(5, (6,), 7), TINY)


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
    assert len(point_layout(arity, FULL)) == limbs
    cs = ConstraintSystem(P)
    builder = CircuitBuilder(cs, SCALE, FULL)
    uid, *x, y = (lc_wire(cs.alloc_private(v)) for v in (d.uid, *d.x, d.y))
    digest = builder.hash_data_point(uid, x, y)
    cs.finalize()
    assert is_satisfied(cs, cs.witness())
    assert cs.lc_value(digest) == hash_data_point(d, FULL)
    assert cs.num_constraints == limbs * COMPRESS + 65 + (arity + 1) * (B + 2)


def test_packing_forgery_fails_the_uid_range_check():
    # uid + 2^64 and (x + 2^B) - 1 pack into the same limb, so the digest
    # and every hash downstream stay the same; with x's bit wires
    # recomputed, only the uid's 64-bit range check can tell.
    circuit = ModelCircuit(_config(capacity=2), _dataset(2))
    cs, B = circuit.cs, SCALE.value_bits
    values = list(cs.witness().values)
    # Slot 0, after the statement: presence, uid, x, y, then the gadget's
    # 64 uid bits and x's B + 1 bits.
    uid_w = circuit.h_d_wire + 2
    x_w, x_bits = uid_w + 1, uid_w + 3 + 64
    offset = (values[x_w] + 2**B) % P
    assert [values[x_bits + i] for i in range(B + 1)] == [(offset >> i) & 1 for i in range(B + 1)]
    values[uid_w] += 2**64
    values[x_w] = (values[x_w] - 1) % P
    for i in range(B + 1):
        values[x_bits + i] = ((offset - 1) >> i) & 1
    forged = Witness(tuple(values))
    stored = ConstraintSystem.from_export(cs.export())
    assert not is_satisfied(stored, forged)
    first, *rest = failing_rows(stored, forged)
    uid_bits = {w: 1 << i for i, w in enumerate(range(uid_w + 3, uid_w + 3 + 64))}
    # The uid check's last row: its 64 bits sum to the uid.
    assert stored.constraints[first] == ({**uid_bits, uid_w: P - 1}, {0: 1}, {})
    # Every hash row holds: the rest that fail are training rows reading x.
    assert set(rest) <= set(rows_touching(stored, x_w))


@pytest.mark.parametrize(
    "kind,arity,hidden", [("linear", 1, 0), ("logistic", 2, 0), ("nn", 1, 2)]
)
def test_hash_model_gadget_matches_native(kind, arity, hidden):
    # Native and circuit model hashes agree on trained weight vectors,
    # at one compression per weight.
    config = _config(capacity=3, arity=arity, kind=kind, hidden=hidden)
    weights = train_model(_dataset(3, arity=arity), config.train).weights
    cs = ConstraintSystem(P)
    builder = CircuitBuilder(cs, SCALE, FULL)
    h_m = builder.hash_model([lc_wire(cs.alloc_private(w)) for w in weights])
    cs.finalize()
    assert is_satisfied(cs, cs.witness())
    assert cs.lc_value(h_m) == hash_model_weights(weights, FULL)
    assert cs.num_constraints == len(weights) * COMPRESS


def _padded(builder, cs, values, capacity):
    """Private item and presence wires for ``values`` padded to capacity."""
    padded = values + [0] * (capacity - len(values))
    items = [lc_wire(cs.alloc_private(v)) for v in padded]
    pres = [lc_wire(cs.alloc_private(int(i < len(values)))) for i in range(capacity)]
    builder.prefix_presence(pres)
    return items, pres


@pytest.mark.parametrize("occupancy", range(0, 6))
def test_padded_merkle_root_matches_native(occupancy):
    builder, cs = _builder()
    values = [hash2(i + 100, 0, TINY) for i in range(occupancy)]
    root = builder.merkle_root(*_padded(builder, cs, values, 5))
    cs.finalize()
    assert is_satisfied(cs, cs.witness())
    assert cs.lc_value(root) == hash_data(values, TINY)


@pytest.mark.parametrize("occupancy", range(0, 5))
def test_padded_chain_matches_native(occupancy):
    from unlearn.hashing import empty_root

    values = [hash2(i + 7, 0, TINY) for i in range(occupancy)]
    for marked in range(occupancy + 1):
        builder, cs = _builder()
        items, pres = _padded(builder, cs, values, 4)
        marks = [lc_wire(cs.alloc_private(int(j < marked))) for j in range(4)]
        builder.prefix_presence(marks, within=pres)
        roots = builder.chain_root(lc_const(empty_root(TINY)), items, pres, marks)
        cs.finalize()
        assert is_satisfied(cs, cs.witness())
        assert tuple(map(cs.lc_value, roots)) == (
            hash_unlearn(values[:marked], TINY),
            hash_unlearn(values, TINY),
        )


# -- model circuit -----------------------------------------------------------------


def _config(capacity=4, epochs=1, arity=1, kind="linear", hidden=0, unlearn_capacity=1):
    return ProtocolConfig(
        train=default_train_config(kind, arity, hidden=hidden, epochs=epochs, scale=SCALE),
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


def _check_against_native(circuit, ds):
    """The circuit built from ``ds`` is satisfied and trained the model
    native training gives, bit for bit, under the statement the native
    hashes give."""
    assert is_satisfied(circuit.cs, circuit.cs.witness())
    model = train_model(ds, circuit.config.train)
    assert circuit.model == model
    digests = [hash_data_point(d, TINY) for d in ds.points]
    assert circuit.digests == tuple(digests)
    assert circuit.statement == (
        hash_model_weights(model.weights, TINY),
        hash_data(digests, TINY),
    )


@pytest.mark.parametrize("size", range(0, 5))
def test_model_circuit_native_equivalence(size):
    ds = _dataset(size)
    _check_against_native(ModelCircuit(_config(capacity=4), ds), ds)


@pytest.mark.parametrize("kind,arity", [("logistic", 2), ("nn", 1)])
def test_model_circuit_other_kinds(kind, arity):
    config = _config(capacity=2, arity=arity, kind=kind, hidden=2 if kind == "nn" else 0)
    ds = _dataset(2, arity=arity)
    _check_against_native(ModelCircuit(config, ds), ds)


def test_model_circuit_wrong_model_hash_unsatisfiable():
    circuit = ModelCircuit(_config(), _dataset(3))
    w = circuit.cs.witness()
    mutated = list(w.values)
    mutated[circuit.h_m_wire] = (mutated[circuit.h_m_wire] + 1) % P
    assert not is_satisfied(circuit.cs, Witness(tuple(mutated)))


def test_model_circuit_shape_errors():
    config = _config(capacity=2)
    with pytest.raises(ShapeOverflow, match="3 points exceed the compiled capacity 2"):
        ModelCircuit(config, _dataset(3))
    with pytest.raises(ShapeMismatch):
        ModelCircuit(config, _dataset(2, arity=2))


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
    return DataCircuit(_config(capacity=dcap, unlearn_capacity=ucap), hd, prev, add)


def test_data_circuit_honest_satisfiable():
    hd = [hash2(3, 0, TINY), hash2(5, 0, TINY)]
    hu_add = [hash2(9, 0, TINY)]
    circuit = _data_circuit(hd, [], hu_add)
    assert is_satisfied(circuit.cs, circuit.cs.witness())
    assert circuit.statement == (
        hash_data(hd, TINY),
        hash_unlearn([], TINY),
        hash_unlearn(hu_add, TINY),
    )


def test_data_circuit_chain_extension():
    hd = [hash2(1, 0, TINY)]
    prev = [hash2(2, 0, TINY), hash2(3, 0, TINY)]
    add = [hash2(4, 0, TINY)]
    circuit = _data_circuit(hd, prev, add)
    assert is_satisfied(circuit.cs, circuit.cs.witness())
    assert circuit.statement[2] == hash_unlearn(prev + add, TINY)


def test_data_circuit_intersection_has_no_witness():
    with pytest.raises(WitnessSynthesisError):
        _data_circuit([3, 5], [], [5])
    with pytest.raises(WitnessSynthesisError):
        _data_circuit([3, 5], [3], [])


def test_data_circuit_intersection_unsatisfiable_over_grid():
    # For every overlapping pair of small digest sets, the disjointness
    # row for the colliding pair reads (a - b) * v = 1 with a == b, which
    # no field element v can satisfy: the honest-witness search over a
    # value grid plus the algebraic scan both come up empty.
    grid = [1, 2, 3]
    for a in grid:
        for b in grid:
            for u in grid:
                hd, hu = [a, b], [u]
                if set(hd) & set(hu):
                    with pytest.raises(WitnessSynthesisError):
                        _data_circuit(hd, [], hu, dcap=2, ucap=2)
                else:
                    circuit = _data_circuit(hd, [], hu, dcap=2, ucap=2)
                    assert is_satisfied(circuit.cs, circuit.cs.witness())
    # Brute-force the inverse wire on a colliding instance: no value in a
    # sampled grid (nor any other, since 0 * v == 0 != 1) satisfies it.
    circuit = _data_circuit([1, 2], [], [3], dcap=2, ucap=2)
    values = list(circuit.cs.witness().values)
    # Simulate the collision: overwrite the first training digest, which
    # follows the statement and the training presence bits, so a pair
    # matches.
    hd_0 = circuit.h_u_wire + 1 + circuit.config.capacity
    # The first pair's row: (hd_0 - hu_0) * inverse = active.
    inv_wire = next(
        w for a, b, c in circuit.cs.constraints if len(a) == 2 and hd_0 in a and len(c) == 1
        for w in b
    )
    assert values[hd_0] == 1 and values[inv_wire] * (1 - 3) % P == 1
    values[hd_0] = 3
    for v_try in range(0, 50):
        values[inv_wire] = v_try
        assert not is_satisfied(circuit.cs, Witness(tuple(values)))


def test_data_circuit_tampered_root_unsatisfiable():
    circuit = _data_circuit([hash2(3, 0, TINY)], [], [hash2(9, 0, TINY)])
    w = circuit.cs.witness()
    for wire in (circuit.h_d_wire, circuit.h_uprev_wire, circuit.h_u_wire):
        mutated = list(w.values)
        mutated[wire] = (mutated[wire] + 1) % P
        assert not is_satisfied(circuit.cs, Witness(tuple(mutated)))


def test_data_circuit_capacity_errors():
    with pytest.raises(ShapeOverflow, match="3 training digests exceed the compiled capacity 2"):
        _data_circuit([1, 2, 3], [], [], dcap=2, ucap=1)
    with pytest.raises(ShapeOverflow, match="2 unlearnt digests exceed the compiled capacity 1"):
        _data_circuit([1], [2, 3], [], dcap=2, ucap=1)
    # Previous and appended digests share the one unlearnt capacity: each
    # fits alone, together they do not.
    with pytest.raises(ShapeOverflow, match="4 unlearnt digests exceed the compiled capacity 3"):
        _data_circuit([1], [2, 3], [4, 5], dcap=2, ucap=3)
    full = _data_circuit([1], [2], [3, 4], dcap=2, ucap=3)
    assert is_satisfied(full.cs, full.cs.witness())


@pytest.mark.parametrize("n", range(0, 5))
def test_data_circuit_every_split_of_the_unlearnt_digests(n):
    # Any k previous digests followed by n - k appended ones give the
    # roots of the first k and of all n, in the one array of 4 slots.
    digests = [hash2(i + 20, 0, TINY) for i in range(n)]
    for k in range(n + 1):
        circuit = _data_circuit([hash2(1, 0, TINY)], digests[:k], digests[k:], dcap=1, ucap=4)
        assert is_satisfied(circuit.cs, circuit.cs.witness())
        assert circuit.statement[1:] == (
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
    circuit = _data_circuit([hash2(1, 0, TINY)], unlearnt, [], dcap=dcap, ucap=ucap)
    cs, values = circuit.cs, list(circuit.cs.witness().values)
    # Layout after the statement: training presence bits and digests, then
    # unlearnt presence bits, unlearnt digests and previous-digest bits.
    pres_n = circuit.h_u_wire + 1 + 2 * dcap + n
    prev_n = pres_n + 2 * ucap
    assert (values[pres_n], values[prev_n], values[prev_n - 1]) == (0, 0, 1)
    values[prev_n] = 1
    # The fold's product for that slot, previous bit times (h - psi_prev),
    # and the h_U_prev it feeds.
    [(a, b, c)] = [
        (a, b, c) for a, b, c in cs.constraints if a == {prev_n: 1} and len(c) == 1
    ]
    [product] = c
    values[product] = cs.lc_value(b, values)
    values[circuit.h_uprev_wire] = (values[circuit.h_uprev_wire] + values[product]) % P
    h_u = values[circuit.h_u_wire]
    assert h_u == hash_unlearn(unlearnt, TINY)
    # The slot past the set is absent, so its digest is pinned to 1.
    assert values[circuit.h_uprev_wire] == hash_unlearn(unlearnt + [1], TINY)
    forged = Witness(tuple(values))
    failing = failing_rows(cs, forged)
    previous_within_presence = ({prev_n: 1}, {0: 1, pres_n: P - 1}, {})
    assert [cs.constraints[i] for i in failing] == [previous_within_presence]
    assert not is_satisfied(cs, forged)


# -- mutation oracle --------------------------------------------------------------


def _mutation_sweep(cs, witness):
    surviving = []
    values = list(witness.values)
    for wire in range(1, len(values)):
        original = values[wire]
        values[wire] = (original + 1) % P
        if satisfied_at_wire(cs, Witness(tuple(values)), wire):
            surviving.append(wire)
        values[wire] = original
    return surviving


def test_every_wire_mutation_breaks_model_circuit():
    # Full and part-filled: the absent slots' pinned values count too.
    for size in (4, 2):
        circuit = ModelCircuit(_config(capacity=4), _dataset(size))
        assert _mutation_sweep(circuit.cs, circuit.cs.witness()) == []


def test_mutation_fast_path_agrees_with_full_evaluation():
    circuit = _data_circuit([1, 2], [], [3], dcap=2, ucap=2)
    w = circuit.cs.witness()
    rng = random.Random(0)
    for _ in range(25):
        wire = rng.randrange(1, len(w.values))
        mutated = list(w.values)
        mutated[wire] = (mutated[wire] + rng.randrange(1, 5)) % P
        mw = Witness(tuple(mutated))
        assert satisfied_at_wire(circuit.cs, mw, wire) == is_satisfied(circuit.cs, mw)


def test_fx_mul_gadget_smallest_product():
    # enc(1/gamma) squared: integer product 1, under half a step, rounds to 0.
    _, cs, out = _fx_mul(1, 1)
    w = cs.witness()
    assert cs.lc_value(out) == 0
    # gadget layout after the operands (wires 1 and 2): the product, the
    # B+k+1 bits of product + 2^(k-1) + 2^(B+k), the output.
    k, B = SCALE.frac_bits, SCALE.value_bits
    prod_wire, out_wire = 3, next(iter(out))
    assert w.values[prod_wire] == 1
    bits = w.values[prod_wire + 1 : out_wire]
    assert len(bits) == B + k + 1
    assert sum(v << i for i, v in enumerate(bits)) == 1 + (1 << (k - 1)) + (1 << (B + k))
    assert out_wire == cs.num_wires - 1


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_model_circuit_equivalence_up_to_capacity_eight(arity):
    config = _config(capacity=8, arity=arity)
    for size in (0, 1, 5, 8):
        ds = _dataset(size, arity=arity, seed=size)
        _check_against_native(ModelCircuit(config, ds), ds)


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


def test_fast_pub_constraint_totals(fast_pub):
    assert fast_pub.model_circuit.cs.stats().constraint_count == 3253
    assert fast_pub.data_circuit.cs.stats().constraint_count == 404


@pytest.mark.parametrize(
    "epochs,capacity,model,data",
    [
        # cli-walkthrough: model 25,363 = range bits 18,744 + hash 5,610 +
        # fx_mul 640 + select 328 + absent-slot pins 24 + presence 15 +
        # bindings 2; data 5,174 = hash 4,950 + disjoint 128 + presence 53 +
        # select 24 + absent-slot pins 16 + bindings 3.
        (10, 8, (25363, 25013, 163339, (164, 162, 1)), (5174, 5146, 33592, (10, 17, 1))),
        # cli-unlearn: model 16,987 = hash 10,890 + range bits 5,808 +
        # fx_mul 128 + select 80 + absent-slot pins 48 + presence 31 +
        # bindings 2; data 10,934 = hash 10,230 + disjoint 512 + presence
        # 109 + select 48 + absent-slot pins 32 + bindings 3.
        (1, 16, (16987, 16861, 100101, (65, 34, 1)), (10934, 10874, 92046, (18, 33, 1))),
    ],
    ids=["cli-walkthrough", "cli-unlearn"],
)
def test_benchmark_config_sizes(epochs, capacity, model, data):
    # The benchmark workloads' configs, at the full hash: constraints,
    # wires, nonzero terms and the longest row of A, B and C.  The terms
    # and rows catch a gadget that widens the rows reading its output, as
    # an fx_mul returning its bits' combination would, or a combination
    # that grows across the training loop.
    config = build_protocol_config(
        {"epochs": str(epochs), "capacity": str(capacity), "unlearn_capacity": str(capacity)}
    )
    for circuit, expected in ((ModelCircuit, model), (DataCircuit, data)):
        cs = circuit(config).cs
        longest = tuple(max(len(row[m]) for row in cs.constraints) for m in range(3))
        assert (cs.num_constraints, cs.num_wires, cs.stats().term_count, longest) == expected


def test_fast_pub_fingerprints_do_not_depend_on_inputs(fast_pub):
    # Pinned: any change to a row or to the wire order moves them.
    model, data = fast_pub.model_circuit.cs, fast_pub.data_circuit.cs
    assert model.fingerprint() == "bbdbab450f92e0dfaf3cd8128c4a091ceb51ddad0dd725636ff97b6bb65c3268"
    assert data.fingerprint() == "9a214ec6f9d1ae02b458dbd63d1286f9350ae242021b2468e21a6f2e4e666f2c"
    # setup builds from the empty input; a full-capacity input gives the
    # same export, so the constraints do not depend on the values.
    config = fast_pub.config
    full = ModelCircuit(config, _dataset(config.capacity))
    assert full.cs.export() == model.export()
    digests = [hash2(i, 0, TINY) for i in range(config.capacity + config.unlearn_capacity)]
    half = config.capacity + config.unlearn_capacity // 2
    full = DataCircuit(
        config, digests[: config.capacity], digests[config.capacity : half], digests[half:]
    )
    assert full.cs.export() == data.export()


# -- values-only builds -------------------------------------------------------------


@pytest.mark.parametrize(
    "kind,arity,hidden,epochs",
    [("linear", 1, 0, 2), ("logistic", 2, 0, 1), ("nn", 1, 2, 1)],
)
def test_values_only_model_witness_matches_full_build(kind, arity, hidden, epochs):
    config = _config(capacity=3, epochs=epochs, arity=arity, kind=kind, hidden=hidden)
    ds = _dataset(2, arity=arity)
    full = ModelCircuit(config, ds)
    only = ModelCircuit(config, ds, values_only=True)
    assert only.cs.witness() == full.cs.witness()
    assert (only.statement, only.model, only.digests) == (full.statement, full.model, full.digests)
    assert is_satisfied(full.cs, only.cs.witness())


def test_values_only_data_witness_matches_full_build():
    sets = ([hash2(1, 0, TINY), hash2(2, 0, TINY)], [hash2(3, 0, TINY)], [hash2(4, 0, TINY)])
    config = _config(capacity=3, unlearn_capacity=2)
    full = DataCircuit(config, *sets)
    only = DataCircuit(config, *sets, values_only=True)
    assert only.cs.witness() == full.cs.witness()
    assert only.statement == full.statement


def _raised(build):
    with pytest.raises((FixedPointOverflow, WitnessSynthesisError)) as err:
        build()
    return type(err.value), str(err.value)


def test_values_only_builds_raise_as_full_builds():
    config = _config(capacity=2)
    ds = Dataset(
        (DataPoint(1, (enc(5000),), enc(1)), DataPoint(2, (enc(10000),), enc(1))), 1
    )
    full = _raised(lambda: ModelCircuit(config, ds))
    assert full[0] is FixedPointOverflow and "uid 2" in full[1]
    assert _raised(lambda: ModelCircuit(config, ds, values_only=True)) == full
    full = _raised(lambda: DataCircuit(config, [3, 5], [], [5]))
    assert full[0] is WitnessSynthesisError
    assert _raised(lambda: DataCircuit(config, [3, 5], [], [5], values_only=True)) == full
