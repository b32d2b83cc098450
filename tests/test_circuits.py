import random

import pytest
from hypothesis import given, settings, strategies as st

from unlearn.circuits import (
    DataCircuit,
    DataShape,
    ModelCircuit,
    ModelShape,
    ShapeMismatch,
    ShapeOverflow,
)
from unlearn.field import FixedPointOverflow, ScaleConfig, fx_encode, fx_mul
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
from unlearn.cli import build_protocol_config
from unlearn.protocol import build_data_circuit, build_model_circuit
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
    assert cs.is_satisfied(cs.witness())
    assert cs.lc_value(out) == fx_mul(a % P, b % P, SCALE)


def test_fx_mul_gadget_rejects_mutated_quotient():
    _, cs, out = _fx_mul(enc(0.5), enc(0.5))
    w = cs.witness()
    out_wire = next(iter(out))
    assert w.values[out_wire] == enc(0.25)
    mutated = list(w.values)
    mutated[out_wire] = (mutated[out_wire] + 1) % P
    assert not cs.is_satisfied(Witness(tuple(mutated)))


def test_range_check_overflow_raises():
    _fx_mul(enc(1000), enc(1000))  # 10^11 < 2^37
    with pytest.raises(FixedPointOverflow, match="needs 38 bits"):
        _fx_mul(enc(2000), enc(1000))


def test_bits_overflow_raises():
    builder, cs = _builder()
    assert len(builder.bits(lc_wire(cs.alloc_private(2**8 - 1)), 8)) == 8
    with pytest.raises(WitnessSynthesisError, match="exceeds 8-bit range check"):
        builder.bits(lc_wire(cs.alloc_private(2**8)), 8)


def test_select_gadget():
    for sel, expected in ((1, 10), (0, 20)):
        builder, cs = _builder()
        s, a, b = (lc_wire(cs.alloc_private(v)) for v in (sel, 10, 20))
        out = builder.select(s, a, b)
        cs.finalize()
        assert cs.is_satisfied(cs.witness())
        assert cs.lc_value(out) == expected


def test_hash_gadgets_match_native():
    builder, cs = _builder()
    v, l, r = (lc_wire(cs.alloc_private(x)) for x in (5, 6, 7))
    h1 = builder.hash1(v)
    h2 = builder.hash2(l, r)
    hm = builder.hash_model([v, l])
    hd = builder.hash_data_point(v, [l], r)
    cs.finalize()
    assert cs.is_satisfied(cs.witness())
    assert cs.lc_value(h1) == hash1(5, TINY)
    assert cs.lc_value(h2) == hash2(6, 7, TINY)
    assert cs.lc_value(hm) == hash_model_weights([5, 6], TINY)
    assert cs.lc_value(hd) == hash_data_point(DataPoint(5, (6,), 7), TINY)


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
    values = [hash1(i + 100, TINY) for i in range(occupancy)]
    root = builder.merkle_root(*_padded(builder, cs, values, 5))
    cs.finalize()
    assert cs.is_satisfied(cs.witness())
    assert cs.lc_value(root) == hash_data(values, TINY)


@pytest.mark.parametrize("occupancy", range(0, 5))
def test_padded_chain_matches_native(occupancy):
    from unlearn.hashing import empty_root

    values = [hash1(i + 7, TINY) for i in range(occupancy)]
    for marked in range(occupancy + 1):
        builder, cs = _builder()
        items, pres = _padded(builder, cs, values, 4)
        marks = [lc_wire(cs.alloc_private(int(j < marked))) for j in range(4)]
        builder.prefix_presence(marks, within=pres)
        roots = builder.chain_root(lc_const(empty_root(TINY)), items, pres, marks)
        cs.finalize()
        assert cs.is_satisfied(cs.witness())
        assert tuple(map(cs.lc_value, roots)) == (
            hash_unlearn(values[:marked], TINY),
            hash_unlearn(values, TINY),
        )


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


def _check_against_native(circuit, ds):
    """The circuit built from ``ds`` is satisfied and trained the model
    native training gives, bit for bit, under the statement the native
    hashes give."""
    assert circuit.cs.is_satisfied(circuit.cs.witness())
    model = train_model(ds, circuit.shape.train)
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
    _check_against_native(ModelCircuit(_model_shape(capacity=4), ds), ds)


@pytest.mark.parametrize("kind,arity", [("logistic", 2), ("nn", 1)])
def test_model_circuit_other_kinds(kind, arity):
    shape = ModelShape(
        train=default_train_config(
            kind, arity, hidden=2 if kind == "nn" else 0, epochs=1, scale=SCALE
        ),
        capacity=2,
        hash_cfg=TINY,
    )
    ds = _dataset(2, arity=arity)
    _check_against_native(ModelCircuit(shape, ds), ds)


def test_model_circuit_wrong_model_hash_unsatisfiable():
    circuit = ModelCircuit(_model_shape(), _dataset(3))
    w = circuit.cs.witness()
    mutated = list(w.values)
    mutated[circuit.h_m_wire] = (mutated[circuit.h_m_wire] + 1) % P
    assert not circuit.cs.is_satisfied(Witness(tuple(mutated)))


def test_model_circuit_shape_errors():
    shape = _model_shape(capacity=2)
    with pytest.raises(ShapeOverflow, match="3 points exceed the compiled capacity 2"):
        ModelCircuit(shape, _dataset(3))
    with pytest.raises(ShapeMismatch):
        ModelCircuit(shape, _dataset(2, arity=2))


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


def _data_circuit(hd, prev, add, dcap=4, ucap=4):
    shape = DataShape(data_capacity=dcap, unlearn_capacity=ucap, hash_cfg=TINY)
    return DataCircuit(shape, hd, prev, add)


def test_data_circuit_honest_satisfiable():
    hd = [hash1(3, TINY), hash1(5, TINY)]
    hu_add = [hash1(9, TINY)]
    circuit = _data_circuit(hd, [], hu_add)
    assert circuit.cs.is_satisfied(circuit.cs.witness())
    assert circuit.statement == (
        hash_data(hd, TINY),
        hash_unlearn([], TINY),
        hash_unlearn(hu_add, TINY),
    )


def test_data_circuit_chain_extension():
    hd = [hash1(1, TINY)]
    prev = [hash1(2, TINY), hash1(3, TINY)]
    add = [hash1(4, TINY)]
    circuit = _data_circuit(hd, prev, add)
    assert circuit.cs.is_satisfied(circuit.cs.witness())
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
                    assert circuit.cs.is_satisfied(circuit.cs.witness())
    # Brute-force the inverse wire on a colliding instance: no value in a
    # sampled grid (nor any other, since 0 * v == 0 != 1) satisfies it.
    circuit = _data_circuit([1, 2], [], [3], dcap=2, ucap=2)
    idx = [i for i, (_, inv) in enumerate(circuit.builder.inverse_wires)]
    assert idx, "disjointness gadget wires must be registered"
    values = list(circuit.cs.witness().values)
    # Simulate the collision: overwrite the first training digest, which
    # follows the statement and the training presence bits, so a pair
    # matches.
    hd_0 = circuit.h_u_wire + 1 + circuit.shape.data_capacity
    assert values[hd_0] == 1
    values[hd_0] = 3
    for v_try in range(0, 50):
        _, inv_wire = circuit.builder.inverse_wires[0]
        values[inv_wire] = v_try
        assert not circuit.cs.is_satisfied(Witness(tuple(values)))


def test_data_circuit_tampered_root_unsatisfiable():
    circuit = _data_circuit([hash1(3, TINY)], [], [hash1(9, TINY)])
    w = circuit.cs.witness()
    for wire in (circuit.h_d_wire, circuit.h_uprev_wire, circuit.h_u_wire):
        mutated = list(w.values)
        mutated[wire] = (mutated[wire] + 1) % P
        assert not circuit.cs.is_satisfied(Witness(tuple(mutated)))


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
    assert full.cs.is_satisfied(full.cs.witness())


@pytest.mark.parametrize("n", range(0, 5))
def test_data_circuit_every_split_of_the_unlearnt_digests(n):
    # Any k previous digests followed by n - k appended ones give the
    # roots of the first k and of all n, in the one array of 4 slots.
    digests = [hash1(i + 20, TINY) for i in range(n)]
    for k in range(n + 1):
        circuit = _data_circuit([hash1(1, TINY)], digests[:k], digests[k:], dcap=1, ucap=4)
        assert circuit.cs.is_satisfied(circuit.cs.witness())
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
    unlearnt = [hash1(20, TINY), hash1(21, TINY)]
    circuit = _data_circuit([hash1(1, TINY)], unlearnt, [], dcap=dcap, ucap=ucap)
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
    assert values[circuit.h_uprev_wire] == hash_unlearn(unlearnt + [0], TINY)
    forged = Witness(tuple(values))
    failing = cs.failing_constraints(forged)
    previous_within_presence = ({prev_n: 1}, {0: 1, pres_n: P - 1}, {})
    assert [cs.constraints[i] for i in failing] == [previous_within_presence]
    assert not cs.is_satisfied(forged)


# -- mutation oracle --------------------------------------------------------------


def _mutation_sweep(cs, witness, slack):
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
    circuit = ModelCircuit(_model_shape(capacity=4), _dataset(4))
    w = circuit.cs.witness()
    surviving = _mutation_sweep(circuit.cs, w, circuit.slack_wires(w))
    assert surviving == []


def test_mutation_fast_path_agrees_with_full_evaluation():
    circuit = _data_circuit([1, 2], [], [3], dcap=2, ucap=2)
    w = circuit.cs.witness()
    rng = random.Random(0)
    for _ in range(25):
        wire = rng.randrange(1, len(w.values))
        mutated = list(w.values)
        mutated[wire] = (mutated[wire] + rng.randrange(1, 5)) % P
        mw = Witness(tuple(mutated))
        assert circuit.cs.satisfied_at_wire(mw, wire) == circuit.cs.is_satisfied(mw)


def test_fx_mul_gadget_smallest_quotient_and_remainder():
    # enc(1/gamma) squared: integer product 1, quotient 0, remainder 1.
    tiny = enc("0.00001")
    builder, cs, out = _fx_mul(tiny, tiny)
    w = cs.witness()
    assert cs.lc_value(out) == 0
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
    for size in (0, 1, 5, 8):
        ds = _dataset(size, arity=arity, seed=size)
        _check_against_native(ModelCircuit(shape, ds), ds)


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
    assert fast_pub.data_circuit.cs.stats().constraint_count == 388


@pytest.mark.parametrize(
    "epochs,capacity,model,data",
    [
        # cli-walkthrough: data 5,158 = hash 4,950 + disjoint 128 +
        # presence 53 + select 24 + bindings 3.
        (10, 8, (42749, 42111), (5158, 5146)),
        # cli-unlearn: data 10,902 = hash 10,230 + disjoint 512 +
        # presence 109 + select 48 + bindings 3.
        (1, 16, (38757, 38631), (10902, 10874)),
    ],
    ids=["cli-walkthrough", "cli-unlearn"],
)
def test_benchmark_config_sizes(epochs, capacity, model, data):
    # The benchmark workloads' configs, at the full hash: (constraints, wires).
    config = build_protocol_config(
        {"epochs": str(epochs), "capacity": str(capacity), "unlearn_capacity": str(capacity)}
    )
    for build, expected in ((build_model_circuit, model), (build_data_circuit, data)):
        cs = build(config).cs
        assert (cs.num_constraints, cs.num_wires) == expected


def test_fast_pub_fingerprints_do_not_depend_on_inputs(fast_pub):
    # Pinned: any change to a row or to the wire order moves them.
    model, data = fast_pub.model_circuit.cs, fast_pub.data_circuit.cs
    assert model.fingerprint() == "e162c1eed7ca0416a95462e9665a7a036291155c4f53227e53d18796e4aacd21"
    assert data.fingerprint() == "dc793603789fa6592745f7018658da5e6714dae39caa6578f5adb1b1d08a68d9"
    # setup builds from the empty input; a full-capacity input gives the
    # same export, so the constraints do not depend on the values.
    config = fast_pub.config
    full = build_model_circuit(config, _dataset(config.capacity))
    assert full.cs.export() == model.export()
    digests = [hash1(i, TINY) for i in range(config.capacity + config.unlearn_capacity)]
    half = config.capacity + config.unlearn_capacity // 2
    full = build_data_circuit(
        config, digests[: config.capacity], digests[config.capacity : half], digests[half:]
    )
    assert full.cs.export() == data.export()


# -- values-only builds -------------------------------------------------------------


@pytest.mark.parametrize(
    "kind,arity,hidden,epochs",
    [("linear", 1, 0, 2), ("logistic", 2, 0, 1), ("nn", 1, 2, 1)],
)
def test_values_only_model_witness_matches_full_build(kind, arity, hidden, epochs):
    shape = ModelShape(
        train=default_train_config(kind, arity, hidden=hidden, epochs=epochs, scale=SCALE),
        capacity=3,
        hash_cfg=TINY,
    )
    ds = _dataset(2, arity=arity)
    full = ModelCircuit(shape, ds)
    only = ModelCircuit(shape, ds, values_only=True)
    assert only.cs.witness() == full.cs.witness()
    assert (only.statement, only.model, only.digests) == (full.statement, full.model, full.digests)
    assert full.cs.is_satisfied(only.cs.witness())


def test_values_only_data_witness_matches_full_build():
    sets = ([hash1(1, TINY), hash1(2, TINY)], [hash1(3, TINY)], [hash1(4, TINY)])
    shape = DataShape(data_capacity=3, unlearn_capacity=2, hash_cfg=TINY)
    full = DataCircuit(shape, *sets)
    only = DataCircuit(shape, *sets, values_only=True)
    assert only.cs.witness() == full.cs.witness()
    assert only.statement == full.statement


def _raised(build):
    with pytest.raises((FixedPointOverflow, WitnessSynthesisError)) as err:
        build()
    return type(err.value), str(err.value)


def test_values_only_builds_raise_as_full_builds():
    shape = _model_shape(capacity=2)
    ds = Dataset(
        (DataPoint(1, (enc(5000),), enc(1)), DataPoint(2, (enc(10000),), enc(1))), 1
    )
    full = _raised(lambda: ModelCircuit(shape, ds))
    assert full[0] is FixedPointOverflow and "uid 2" in full[1]
    assert _raised(lambda: ModelCircuit(shape, ds, values_only=True)) == full
    shape = DataShape(data_capacity=2, unlearn_capacity=1, hash_cfg=TINY)
    full = _raised(lambda: DataCircuit(shape, [3, 5], [], [5]))
    assert full[0] is WitnessSynthesisError
    assert _raised(lambda: DataCircuit(shape, [3, 5], [], [5], values_only=True)) == full
