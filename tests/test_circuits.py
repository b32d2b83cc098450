import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conftest import failing_rows, is_satisfied, rows_touching, satisfied_at_wire, statement_of
from unlearn.circuits import (
    DataCircuit,
    ModelCircuit,
    ProtocolConfig,
    ShapeMismatch,
    ShapeOverflow,
    data_projection,
    model_projection,
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
from unlearn.r1cs import ConstraintSystem, Unsatisfied, Witness, WitnessSynthesisError
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
    uid_w = cs.num_public + 2
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
    # The uid check's first row: the uid is the sum of its 64 bits.
    assert stored.constraints[first] == ({uid_w: 1}, {0: 1}, uid_bits)
    # Every hash row holds: the rest that fail are training rows reading x.
    assert set(rest) <= set(rows_touching(stored, x_w))
    # A verifier derives the bits from the uid, and refuses at that row.
    with pytest.raises(Unsatisfied) as refused:
        stored.complete(stored.project(forged))
    assert refused.value.row == first


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


def _check_against_native(circuit, ds):
    """The circuit built from ``ds`` is satisfied under the statement the
    native hashes of native training give, and its witness projects to
    what ``model_projection`` computes natively."""
    assert is_satisfied(circuit.cs, circuit.cs.witness())
    model = train_model(ds, circuit.config.train)
    digests = tuple(hash_data_point(d, TINY) for d in ds.points)
    assert statement_of(circuit.cs) == (
        hash_model_weights(model.weights, TINY),
        hash_data(digests, TINY),
    )
    given = circuit.cs.project(circuit.cs.witness())
    assert model_projection(circuit.config, ds) == (given, model, digests)


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
    mutated[1] = (mutated[1] + 1) % P  # h_m, the first statement wire
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
    assert statement_of(circuit.cs) == (
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
    assert statement_of(circuit.cs)[2] == hash_unlearn(prev + add, TINY)


def test_data_circuit_intersection_has_no_witness():
    with pytest.raises(WitnessSynthesisError):
        _data_circuit([3, 5], [], [5])
    with pytest.raises(WitnessSynthesisError):
        _data_circuit([3, 5], [3], [])


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
                    circuit = _data_circuit(hd, [], hu, dcap=2, ucap=2)
                    assert is_satisfied(circuit.cs, circuit.cs.witness())
    # Brute-force the inverse wire on a colliding instance: no value in a
    # sampled grid (nor any other, since 0 * v == 0 != 1) satisfies it.
    circuit = _data_circuit([1, 2], [], [3], dcap=2, ucap=2)
    cs = circuit.cs
    given = cs.project(cs.witness())
    # Simulate the collision: overwrite the first training digest, the
    # free wire after the training presence bits, so a pair matches, and
    # h_D with the root of the forged set.
    hd_0 = 1 + cs.num_public + circuit.config.capacity
    assert given[hd_0] == 1
    given[hd_0], given[1] = 3, hash_data([3, 2], TINY)
    # The last row is the product's: acc * v = 1, with v the last free wire.
    acc, [inverse], one = cs.constraints[-1]
    assert one == {0: 1} and inverse == cs.free_wires()[-1] == cs.num_wires - 1
    for v_try in range(0, 50):
        given[-1] = v_try
        # The walk derives every select and product wire from the forged
        # digest, and every row before the product's holds.
        with pytest.raises(Unsatisfied) as refused:
            cs.complete(given)
        assert refused.value.row == cs.num_constraints - 1


@pytest.mark.parametrize("sets", [([3, 5], [], [5]), ([3, 5], [3], []), ([7], [2, 7], [7])])
def test_intersecting_sets_with_every_product_wire_recomputed_fail_only_the_inverse_row(
    monkeypatch, sets
):
    # A multi-wire forgery: the build's nonzero gadget, replaced, puts v
    # on the inverse wire and never raises, so every select, product and
    # hash wire is what the gadgets compute for the intersecting sets.
    # Each row but the product's holds, and the product is 0, which no v
    # inverts.
    rng = random.Random(1)
    for v in (0, 1, P - 1, *(rng.randrange(P) for _ in range(5))):
        monkeypatch.setattr(
            CircuitBuilder, "nonzero",
            lambda b, a, why: b.cs.enforce(a, lc_wire(b.cs.alloc_private(v)), lc_const(1)),
        )
        cs = _data_circuit(*sets, dcap=2, ucap=3).cs
        monkeypatch.undo()
        witness = cs.witness()
        acc, _, _ = cs.constraints[-1]
        assert cs.lc_value(acc) == 0
        assert failing_rows(cs, witness) == [cs.num_constraints - 1]
        assert not is_satisfied(cs, witness)


@functools.cache
def _data_rows(dcap: int, ucap: int) -> ConstraintSystem:
    """The data circuit's rows, as setup builds them."""
    return _data_circuit([], [], [], dcap=dcap, ucap=ucap).cs


@given(data=st.data(), dcap=st.integers(1, 4), ucap=st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_data_projection_completes_exactly_when_disjoint(data, dcap, ucap):
    # Part-filled digest sets, drawn small enough to meet often, with 0 and
    # 1, the absent slots' pins, among them: the native projection
    # completes against setup's rows to the built witness exactly when the
    # sets are disjoint, and both raise otherwise.
    digest = st.integers(0, 5)
    trained = data.draw(st.lists(digest, max_size=dcap))
    unlearnt = data.draw(st.lists(digest, max_size=ucap))
    previous = data.draw(st.integers(0, len(unlearnt)))
    sets = (trained, unlearnt[:previous], unlearnt[previous:])
    config = _config(capacity=dcap, unlearn_capacity=ucap)
    if set(trained) & set(unlearnt):
        with pytest.raises(WitnessSynthesisError, match="sets intersect"):
            data_projection(config, *sets)
        with pytest.raises(WitnessSynthesisError, match="sets intersect"):
            DataCircuit(config, *sets)
    else:
        witness = DataCircuit(config, *sets).cs.witness()
        assert _data_rows(dcap, ucap).complete(data_projection(config, *sets)) == witness


def test_data_circuit_tampered_root_unsatisfiable():
    circuit = _data_circuit([hash2(3, 0, TINY)], [], [hash2(9, 0, TINY)])
    w = circuit.cs.witness()
    for wire in range(1, 1 + circuit.cs.num_public):
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
        assert statement_of(circuit.cs)[1:] == (
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
    _, h_uprev_wire, h_u_wire = range(1, 1 + cs.num_public)
    pres_n = h_u_wire + 1 + 2 * dcap + n
    prev_n = pres_n + 2 * ucap
    assert (values[pres_n], values[prev_n], values[prev_n - 1]) == (0, 0, 1)
    values[prev_n] = 1
    # Each slot's previous-digest fold is one select row, previous bit
    # times (h - psi_prev) = psi - psi_prev, whose last C wire is the new
    # psi.  The forged bit's fold now takes the hash, and every later
    # fold, whose bit is 0, carries it on to h_U_prev.
    bits = range(prev_n, prev_n + ucap - n)  # the forged bit and the later ones
    folds = [(a, b, c) for a, b, c in cs.constraints if c and len(a) == 1 and min(a) in bits]
    assert [min(a) for a, _, _ in folds] == list(bits)
    a, b, c = folds[0]
    fold = max(c)
    values[fold] = (cs.lc_value(a, values) * cs.lc_value(b, values)
                    - cs.lc_value(c, values) + values[fold]) % P
    for w in [max(c) for _, _, c in folds[1:]] + [h_uprev_wire]:
        values[w] = values[fold]
    h_u = values[h_u_wire]
    assert h_u == hash_unlearn(unlearnt, TINY)
    # The slot past the set is absent, so its digest is pinned to 1.
    assert values[h_uprev_wire] == hash_unlearn(unlearnt + [1], TINY)
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
    assert fast_pub.data_circuit.cs.stats().constraint_count == 356
    # The free wires, whose values a witness-check proof carries: each
    # model slot's presence, uid, feature and label, and in the data
    # circuit the presence bits, digests, previous bits and one inverse.
    assert len(fast_pub.model_circuit.cs.free_wires()) == 8 * 4
    assert len(fast_pub.data_circuit.cs.free_wires()) == 5 * 8 + 1


@pytest.mark.parametrize(
    "epochs,capacity,model,data",
    [
        # cli-walkthrough: model 25,363 = range bits 18,744 + hash 5,610 +
        # fx_mul 640 + select 328 + absent-slot pins 24 + presence 15 +
        # bindings 2; data 5,126 = hash 4,950 + disjoint products 63 +
        # presence 53 + select 40 + absent-slot pins 16 + bindings 3 +
        # nonzero 1.
        (10, 8, (25363, 25013, 120133, (39, 10, 64), 32), (5126, 5098, 25151, (3, 5, 2), 41)),
        # cli-unlearn: model 16,987 = hash 10,890 + range bits 5,808 +
        # fx_mul 128 + select 80 + absent-slot pins 48 + presence 31 +
        # bindings 2; data 10,710 = hash 10,230 + disjoint products 255 +
        # presence 109 + select 80 + absent-slot pins 32 + bindings 3 +
        # nonzero 1.
        (1, 16, (16987, 16861, 83961, (39, 10, 64), 64), (10710, 10650, 52799, (3, 5, 2), 81)),
    ],
    ids=["cli-walkthrough", "cli-unlearn"],
)
def test_benchmark_config_sizes(epochs, capacity, model, data):
    # The benchmark workloads' configs, at the full hash: constraints,
    # wires, nonzero terms, the longest row of A, B and C, and the free
    # wires, whose values a witness-check proof carries.  The terms and
    # rows catch a gadget that widens the rows reading its output, as an
    # fx_mul returning its bits' combination would, or a combination that
    # grows across the training loop.
    config = build_protocol_config(
        {"epochs": str(epochs), "capacity": str(capacity), "unlearn_capacity": str(capacity)}
    )
    for circuit, expected in ((ModelCircuit, model), (DataCircuit, data)):
        cs = circuit(config).cs
        longest = tuple(max(len(row[m]) for row in cs.constraints) for m in range(3))
        free = len(cs.free_wires())
        assert (cs.num_constraints, cs.num_wires, cs.stats().term_count, longest, free) == expected


def test_data_circuit_size_at_capacity_100():
    # bench's default size, |D| = 100 and |U| = 10 at the full hash: 37,560
    # rows = hash 35,970 + disjoint products 999 + presence 247 + select
    # 230 + absent-slot pins 110 + bindings 3 + nonzero 1; 231 free wires
    # = each array's presence bits and digests, the previous bits, and the
    # one inverse.  With one inverse per pair they were 38,450 and 1,230.
    config = build_protocol_config({"capacity": "100", "unlearn_capacity": "10"})
    cs = DataCircuit(config).cs
    assert (cs.num_constraints, len(cs.free_wires())) == (37560, 2 * 100 + 3 * 10 + 1)


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
    circuit = ModelCircuit(_config(capacity=2), _dataset(2))
    cs = ConstraintSystem.from_export(circuit.cs.export())
    uid_w = cs.num_public + 2  # slot 0: presence, uid, x, y
    target = uid_w if wire == "uid" else uid_w + 1
    given = cs.project(circuit.cs.witness())
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
    assert data.fingerprint() == "2f29ad08afe4322ad5f8292aa15aadfeb03e87506798426a0b89f683176a9f00"
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


# -- the provers' projections ------------------------------------------------------


def _raised(build):
    with pytest.raises((ShapeMismatch, FixedPointOverflow, WitnessSynthesisError)) as err:
        build()
    return type(err.value), str(err.value), getattr(err.value, "uid", None)


def test_projections_raise_as_full_builds():
    # Each input beyond the shape, beyond the value bound or meeting the
    # unlearnt set: the native projection raises the build's error, with
    # its message and the uid it names.
    config = _config(capacity=2, unlearn_capacity=2)
    model_cases = [
        (_dataset(3), ShapeOverflow, "3 points exceed the compiled capacity 2"),
        (_dataset(2, arity=2), ShapeMismatch, "dataset arity 2 != circuit arity 1"),
        # The product w * x of the second point crosses the bound.
        (Dataset((DataPoint(1, (enc(5000),), enc(1)), DataPoint(2, (enc(10000),), enc(1))), 1),
         FixedPointOverflow, "uid 2, epoch 1: "),
        # A feature beyond the bound, before any training.
        (Dataset((DataPoint(1, (enc(0.5),), enc(1)), DataPoint(3, (2**37,), enc(1))), 1),
         FixedPointOverflow, "uid 3: "),
    ]
    for ds, kind, message in model_cases:
        full = _raised(lambda: ModelCircuit(config, ds))
        assert full[0] is kind and message in full[1], full
        assert _raised(lambda: model_projection(config, ds)) == full
    data_cases = [
        (([3, 5, 7], [], []), ShapeOverflow, "3 training digests exceed"),
        (([3], [5], [6, 8]), ShapeOverflow, "3 unlearnt digests exceed"),
        (([3, 5], [], [5]), WitnessSynthesisError, "sets intersect"),
        (([3, 5], [3], []), WitnessSynthesisError, "sets intersect"),
    ]
    for sets, kind, message in data_cases:
        full = _raised(lambda: DataCircuit(config, *sets))
        assert full[0] is kind and message in full[1], full
        assert _raised(lambda: data_projection(config, *sets)) == full
