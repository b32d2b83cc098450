import random

import pytest
from hypothesis import given, settings, strategies as st

from unlearn.circuits import (
    DataCircuit,
    DataShape,
    ModelCircuit,
    ModelShape,
    ShapeMismatch,
)
from unlearn.field import ScaleConfig, fx_encode, fx_mul
from unlearn.gadgets import CircuitBuilder, lc_const, lc_wire
from unlearn.hashing import (
    DataPoint,
    HashConfig,
    hash1,
    hash2,
    hash_data,
    hash_data_point,
    hash_model_weights,
    hash_unlearn,
)
from unlearn.r1cs import ConstraintSystem, WitnessSynthesisError
from unlearn.training import Dataset, default_train_config, train_model

SCALE = ScaleConfig()
TINY = HashConfig(rounds=4)
P = SCALE.modulus


def enc(r):
    return fx_encode(r, SCALE)


def _builder():
    cs = ConstraintSystem(P)
    return CircuitBuilder(cs, SCALE, TINY), cs


# -- gadget-level agreement with the native implementations ---------------------


@given(
    a=st.integers(min_value=-(10**7), max_value=10**7),
    b=st.integers(min_value=-(10**7), max_value=10**7),
)
@settings(max_examples=40, deadline=None)
def test_fx_mul_gadget_matches_native(a, b):
    builder, cs = _builder()
    wa = cs.alloc_private(name="a")
    wb = cs.alloc_private(name="b")
    out = builder.fx_mul(lc_wire(wa), lc_wire(wb))
    cs.finalize()
    w = cs.synthesize({"a": a % P, "b": b % P})
    assert cs.is_satisfied(w)
    assert cs.lc_value(out, w.values) == fx_mul(a % P, b % P, SCALE)


def test_fx_mul_gadget_rejects_mutated_quotient():
    builder, cs = _builder()
    wa = cs.alloc_private(name="a")
    wb = cs.alloc_private(name="b")
    out = builder.fx_mul(lc_wire(wa), lc_wire(wb))
    cs.finalize()
    w = cs.synthesize({"a": enc(0.5), "b": enc(0.5)})
    out_wire = next(iter(out))
    assert w.values[out_wire] == enc(0.25)
    mutated = list(w.values)
    mutated[out_wire] = (mutated[out_wire] + 1) % P
    from unlearn.r1cs import Witness

    assert not cs.is_satisfied(Witness(tuple(mutated)))


def test_range_check_overflow_raises():
    builder, cs = _builder()
    wa = cs.alloc_private(name="a")
    wb = cs.alloc_private(name="b")
    builder.fx_mul(lc_wire(wa), lc_wire(wb))
    cs.finalize()
    cs.synthesize({"a": enc(1000), "b": enc(1000)})  # 10^11 < 2^37
    with pytest.raises(WitnessSynthesisError):
        cs.synthesize({"a": enc(2000), "b": enc(1000)})  # quotient needs 38 bits


def test_select_gadget():
    builder, cs = _builder()
    s = cs.alloc_private(name="s")
    a = cs.alloc_private(name="a")
    b = cs.alloc_private(name="b")
    out = builder.select(lc_wire(s), lc_wire(a), lc_wire(b))
    cs.finalize()
    w = cs.synthesize({"s": 1, "a": 10, "b": 20})
    assert cs.lc_value(out, w.values) == 10
    w = cs.synthesize({"s": 0, "a": 10, "b": 20})
    assert cs.lc_value(out, w.values) == 20


def test_hash_gadgets_match_native():
    builder, cs = _builder()
    v = cs.alloc_private(name="v")
    l = cs.alloc_private(name="l")
    r = cs.alloc_private(name="r")
    h1 = builder.hash1(lc_wire(v))
    h2 = builder.hash2(lc_wire(l), lc_wire(r))
    hm = builder.hash_model([lc_wire(v), lc_wire(l)])
    hd = builder.hash_data_point(lc_wire(v), [lc_wire(l)], lc_wire(r))
    cs.finalize()
    w = cs.synthesize({"v": 5, "l": 6, "r": 7})
    assert cs.lc_value(h1, w.values) == hash1(5, TINY)
    assert cs.lc_value(h2, w.values) == hash2(6, 7, TINY)
    assert cs.lc_value(hm, w.values) == hash_model_weights([5, 6], TINY)
    assert cs.lc_value(hd, w.values) == hash_data_point(DataPoint(5, (6,), 7), TINY)


@pytest.mark.parametrize("occupancy", range(0, 6))
def test_padded_merkle_root_matches_native(occupancy):
    capacity = 5
    builder, cs = _builder()
    leaves = [lc_wire(cs.alloc_private(name=f"leaf_{i}")) for i in range(capacity)]
    pres = [lc_wire(cs.alloc_private(name=f"p_{i}")) for i in range(capacity)]
    builder.prefix_presence(pres)
    root = builder.merkle_root(leaves, pres)
    cs.finalize()
    values = [hash1(i + 100, TINY) for i in range(occupancy)]
    inputs = {}
    for i in range(capacity):
        inputs[f"leaf_{i}"] = values[i] if i < occupancy else 0
        inputs[f"p_{i}"] = 1 if i < occupancy else 0
    w = cs.synthesize(inputs)
    assert cs.is_satisfied(w)
    assert cs.lc_value(root, w.values) == hash_data(values, TINY)


@pytest.mark.parametrize("occupancy", range(0, 5))
def test_padded_chain_matches_native(occupancy):
    capacity = 4
    builder, cs = _builder()
    items = [lc_wire(cs.alloc_private(name=f"it_{i}")) for i in range(capacity)]
    pres = [lc_wire(cs.alloc_private(name=f"p_{i}")) for i in range(capacity)]
    builder.prefix_presence(pres)
    from unlearn.hashing import empty_root

    psi = builder.chain_root(lc_const(empty_root(TINY)), items, pres)
    cs.finalize()
    values = [hash1(i + 7, TINY) for i in range(occupancy)]
    inputs = {}
    for i in range(capacity):
        inputs[f"it_{i}"] = values[i] if i < occupancy else 0
        inputs[f"p_{i}"] = 1 if i < occupancy else 0
    w = cs.synthesize(inputs)
    assert cs.lc_value(psi, w.values) == hash_unlearn(values, TINY)


# -- model circuit -----------------------------------------------------------------


def _model_shape(capacity=4, epochs=1, arity=1, kind="linear"):
    return ModelShape(
        train=default_train_config(kind, arity, epochs=epochs, scale=SCALE),
        capacity=capacity,
        hash_cfg=TINY,
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


@pytest.mark.parametrize("size", range(0, 5))
def test_model_circuit_native_equivalence(size):
    shape = _model_shape(capacity=4)
    circuit = ModelCircuit(shape)
    ds = _dataset(size)
    w = circuit.synthesize(ds)
    assert circuit.cs.is_satisfied(w)
    model = train_model(ds, shape.train)
    digests = [hash_data_point(d, TINY) for d in ds.points]
    assert circuit.statement(w) == (
        hash_model_weights(model.weights, TINY),
        hash_data(digests, TINY),
    )


@pytest.mark.parametrize("kind,arity", [("logistic", 2), ("nn", 1)])
def test_model_circuit_other_kinds(kind, arity):
    shape = ModelShape(
        train=default_train_config(
            kind, arity, hidden=2 if kind == "nn" else 0, epochs=1, scale=SCALE
        ),
        capacity=2,
        hash_cfg=TINY,
    )
    circuit = ModelCircuit(shape)
    ds = _dataset(2, arity=arity)
    w = circuit.synthesize(ds)
    assert circuit.cs.is_satisfied(w)
    model = train_model(ds, shape.train)
    assert circuit.statement(w)[0] == hash_model_weights(model.weights, TINY)


def test_model_circuit_wrong_model_hash_unsatisfiable():
    circuit = ModelCircuit(_model_shape())
    ds = _dataset(3)
    w = circuit.synthesize(ds)
    from unlearn.r1cs import Witness

    mutated = list(w.values)
    mutated[circuit.h_m_wire] = (mutated[circuit.h_m_wire] + 1) % P
    assert not circuit.cs.is_satisfied(Witness(tuple(mutated)))


def test_model_circuit_shape_errors():
    circuit = ModelCircuit(_model_shape(capacity=2))
    with pytest.raises(ShapeMismatch):
        circuit.synthesize(_dataset(3))
    with pytest.raises(ShapeMismatch):
        circuit.synthesize(_dataset(2, arity=2))


def test_model_circuit_deterministic_build():
    a = ModelCircuit(_model_shape()).cs.export()
    b = ModelCircuit(_model_shape()).cs.export()
    assert a == b


def test_constraint_count_scales_linearly():
    small = ModelCircuit(_model_shape(capacity=4)).cs.stats().constraint_count
    large = ModelCircuit(_model_shape(capacity=8)).cs.stats().constraint_count
    assert 1.8 <= large / small <= 2.2


def test_constraint_count_monotonicity():
    base = ModelCircuit(_model_shape(capacity=4, epochs=1)).cs.stats().constraint_count
    more_epochs = ModelCircuit(_model_shape(capacity=4, epochs=2)).cs.stats()
    bigger_model = ModelCircuit(_model_shape(capacity=4, arity=2)).cs.stats()
    assert more_epochs.constraint_count > base
    assert bigger_model.constraint_count > base


# -- data circuit --------------------------------------------------------------------


def _data_circuit(dcap=4, ucap=4):
    return DataCircuit(
        DataShape(
            data_capacity=dcap,
            unlearn_capacity=ucap,
            add_capacity=ucap,
            hash_cfg=TINY,
        )
    )


def test_data_circuit_honest_satisfiable():
    circuit = _data_circuit()
    hd = [hash1(3, TINY), hash1(5, TINY)]
    hu_add = [hash1(9, TINY)]
    w = circuit.synthesize(hd, [], hu_add)
    assert circuit.cs.is_satisfied(w)
    assert circuit.statement(w) == (
        hash_data(hd, TINY),
        hash_unlearn([], TINY),
        hash_unlearn(hu_add, TINY),
    )


def test_data_circuit_chain_extension():
    circuit = _data_circuit()
    hd = [hash1(1, TINY)]
    prev = [hash1(2, TINY), hash1(3, TINY)]
    add = [hash1(4, TINY)]
    w = circuit.synthesize(hd, prev, add)
    assert circuit.cs.is_satisfied(w)
    assert circuit.statement(w)[2] == hash_unlearn(prev + add, TINY)


def test_data_circuit_intersection_has_no_witness():
    circuit = _data_circuit()
    with pytest.raises(WitnessSynthesisError):
        circuit.synthesize([3, 5], [], [5])
    with pytest.raises(WitnessSynthesisError):
        circuit.synthesize([3, 5], [3], [])


def test_data_circuit_intersection_unsatisfiable_over_grid():
    # For every overlapping pair of small digest sets, the disjointness
    # row for the colliding pair reads (a - b) * v = 1 with a == b, which
    # no field element v can satisfy: the honest-witness search over a
    # value grid plus the algebraic scan both come up empty.
    circuit = _data_circuit(dcap=2, ucap=2)
    grid = [1, 2, 3]
    from unlearn.r1cs import Witness

    for a in grid:
        for b in grid:
            for u in grid:
                hd, hu = [a, b], [u]
                if set(hd) & set(hu):
                    with pytest.raises(WitnessSynthesisError):
                        circuit.synthesize(hd, [], hu)
                else:
                    w = circuit.synthesize(hd, [], hu)
                    assert circuit.cs.is_satisfied(w)
    # Brute-force the inverse hint on a colliding instance: no value in a
    # sampled grid (nor any other, since 0 * v == 0 != 1) satisfies it.
    w = circuit.synthesize([1, 2], [], [3])
    idx = [i for i, (_, inv) in enumerate(circuit.builder.inverse_wires)]
    assert idx, "disjointness gadget wires must be registered"
    values = list(w.values)
    # Simulate the collision: overwrite the digest inputs so a pair matches.
    name_to_wire = {
        wire.name: wire.index for wire in circuit.cs.wires if wire.name
    }
    values[name_to_wire["hd_0"]] = 3
    for v_try in range(0, 50):
        _, inv_wire = circuit.builder.inverse_wires[0]
        values[inv_wire] = v_try
        assert not circuit.cs.is_satisfied(Witness(tuple(values)))


def test_data_circuit_tampered_root_unsatisfiable():
    circuit = _data_circuit()
    w = circuit.synthesize([hash1(3, TINY)], [], [hash1(9, TINY)])
    from unlearn.r1cs import Witness

    for wire in (circuit.h_d_wire, circuit.h_uprev_wire, circuit.h_u_wire):
        mutated = list(w.values)
        mutated[wire] = (mutated[wire] + 1) % P
        assert not circuit.cs.is_satisfied(Witness(tuple(mutated)))


def test_data_circuit_capacity_errors():
    circuit = _data_circuit(dcap=2, ucap=1)
    with pytest.raises(ShapeMismatch):
        circuit.synthesize([1, 2, 3], [], [])
    with pytest.raises(ShapeMismatch):
        circuit.synthesize([1], [2, 3], [])


# -- mutation oracle --------------------------------------------------------------


def _mutation_sweep(cs, witness, slack):
    from unlearn.r1cs import Witness

    surviving = []
    values = list(witness.values)
    for wire in range(1, len(values)):
        if wire in slack:
            continue
        original = values[wire]
        values[wire] = (original + 1) % P
        if cs.satisfied_at_wire(Witness(tuple(values)), wire):
            surviving.append(wire)
        values[wire] = original
    return surviving


def test_every_nonslack_wire_mutation_breaks_model_circuit():
    circuit = ModelCircuit(_model_shape(capacity=4))
    w = circuit.synthesize(_dataset(4))
    surviving = _mutation_sweep(circuit.cs, w, circuit.slack_wires(w))
    assert surviving == []


def test_mutation_fast_path_agrees_with_full_evaluation():
    from unlearn.r1cs import Witness

    circuit = _data_circuit(dcap=2, ucap=2)
    w = circuit.synthesize([1, 2], [], [3])
    rng = random.Random(0)
    for _ in range(25):
        wire = rng.randrange(1, len(w.values))
        mutated = list(w.values)
        mutated[wire] = (mutated[wire] + rng.randrange(1, 5)) % P
        mw = Witness(tuple(mutated))
        assert circuit.cs.satisfied_at_wire(mw, wire) == circuit.cs.is_satisfied(mw)


def test_fx_mul_gadget_smallest_quotient_and_remainder():
    # enc(1/gamma) squared: integer product 1, quotient 0, remainder 1.
    builder, cs = _builder()
    wa = cs.alloc_private(name="a")
    wb = cs.alloc_private(name="b")
    out = builder.fx_mul(lc_wire(wa), lc_wire(wb))
    cs.finalize()
    tiny = enc("0.00001")
    w = cs.synthesize({"a": tiny, "b": tiny})
    assert cs.lc_value(out, w.values) == 0
    prod_wire, sigma_wire = builder.sign_wires[0]
    # gadget layout: prod, sigma, abs, quotient, remainder
    assert w.values[prod_wire] == 1
    assert w.values[sigma_wire] == 0
    assert w.values[prod_wire + 2] == 1  # |product|
    assert w.values[prod_wire + 3] == 0  # quotient
    assert w.values[prod_wire + 4] == 1  # remainder


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_model_circuit_equivalence_up_to_capacity_eight(arity):
    shape = ModelShape(
        train=default_train_config("linear", arity, epochs=1, scale=SCALE),
        capacity=8,
        hash_cfg=TINY,
    )
    circuit = ModelCircuit(shape)
    for size in (0, 1, 5, 8):
        ds = _dataset(size, arity=arity, seed=size)
        w = circuit.synthesize(ds)
        assert circuit.cs.is_satisfied(w)
        model = train_model(ds, shape.train)
        digests = [hash_data_point(d, TINY) for d in ds.points]
        assert circuit.statement(w) == (
            hash_model_weights(model.weights, TINY),
            hash_data(digests, TINY),
        )


# -- pinned constraint counts ----------------------------------------------------
# Exact and deterministic.  A higher count is a regression; a lower one is an
# intended change, pinned here anew and recorded with its figures.


@pytest.mark.parametrize(
    "gadget,expected",
    [("fx_mul", 79), ("hash2", 330)],  # 330 = one compression
)
def test_unit_constraint_costs(gadget, expected):
    scale, hash_cfg = ScaleConfig(), HashConfig()
    cs = ConstraintSystem(scale.modulus)
    builder = CircuitBuilder(cs, scale, hash_cfg)
    x, y = (lc_wire(cs.alloc_private(name=n)) for n in ("x", "y"))
    getattr(builder, gadget)(x, y)
    assert len(cs.constraints) == expected


def test_fast_pub_constraint_totals(fast_pub):
    assert fast_pub.model_circuit.cs.stats().constraint_count == 3809
    assert fast_pub.data_circuit.cs.stats().constraint_count == 604
