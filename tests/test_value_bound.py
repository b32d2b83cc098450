"""The one fixed-point value bound shared by native training and the
circuits: forged rescale witnesses, native-versus-circuit agreement, and
admission of points that training could not prove."""

import functools

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import (
    circuit_rows,
    failing_rows,
    gadget_witness,
    is_satisfied,
    is_sum_row,
    model_slot_projection,
    model_witness,
    project,
    statement_of,
)
from unlearn.circuits import ModelCircuit, model_projection
from unlearn.field import MAX_ABS, FixedPointOverflow, ScaleConfig, fx_encode, fx_mul
from unlearn.gadgets import CircuitBuilder
from unlearn.hashing import (
    DataPoint,
    HashConfig,
    hash_data,
    hash_data_point,
    hash_model_weights,
)
from unlearn.protocol import (
    ProtocolConfig,
    global_setup,
    prove_update,
    queue_add,
    server_init,
    verify_update,
)
from unlearn.r1cs import Unsatisfied
from unlearn.training import Dataset, default_train_config, train_model

SCALE = ScaleConfig()
TINY = HashConfig(rounds=4)
P = SCALE.modulus
GAMMA = SCALE.gamma
B = SCALE.value_bits
K = SCALE.frac_bits
WIDTH = B + K + 1  # bits of the offset product
OFFSET = (1 << (K - 1)) + (1 << (B + K))


def enc(r):
    return fx_encode(r, SCALE)


def test_value_bits_at_defaults():
    assert B == (GAMMA * MAX_ABS).bit_length() == 37
    assert GAMMA == 1 << K == 2**16


def test_native_fx_mul_bound():
    # Rescaled products lie in [-2^B, 2^B), as features and labels do.
    one = enc(1)
    top, bottom = (1 << B) - 1, -(1 << B)
    assert fx_mul(top, one, SCALE) == top
    assert fx_mul(bottom % P, one, SCALE) == bottom % P
    with pytest.raises(FixedPointOverflow):
        fx_mul(1 << B, one, SCALE)
    with pytest.raises(FixedPointOverflow):
        fx_mul((bottom - 1) % P, one, SCALE)
    assert issubclass(FixedPointOverflow, OverflowError)


@pytest.mark.parametrize("field", ["x", "y"])
def test_train_model_checks_data_interval(field):
    cfg = default_train_config("linear", 1, epochs=1)

    def point(v):
        x, y = (v, 0) if field == "x" else (0, v)
        return Dataset((DataPoint(7, (x % P,), y % P),), 1)

    train_model(point(-(1 << B)), cfg)
    with pytest.raises(FixedPointOverflow) as err:
        train_model(point(1 << B), cfg)
    assert err.value.uid == 7
    with pytest.raises(FixedPointOverflow):
        train_model(point(-(1 << B) - 1), cfg)


# -- forged rescale witnesses ------------------------------------------------------


def _fx_mul_gadget(a, b):
    """fx_mul on free wires holding a and b, and the honest witness its
    rows complete."""
    cs, witness, out = gadget_witness(CircuitBuilder.fx_mul, [a, b])
    return cs, next(iter(out)), witness


def _forge(honest, out_wire, t, prod=None):
    """Overwrite the gadget's witness with the bits of the integer t and
    the output they give, and its product wire with prod if given.  Every
    boolean row and the output row then hold.  Gadget layout: the
    product, the WIDTH bits of product + OFFSET, the output."""
    values = list(honest)
    first_bit = out_wire - WIDTH
    for i in range(WIDTH):
        values[first_bit + i] = (t >> i) & 1
    values[out_wire] = ((t >> K) - (1 << B)) % P
    if prod is not None:
        values[first_bit - 1] = prod % P
    return tuple(values)


# Operands whose product stays inside the bound after rescaling.
HALF = (B + K) // 2
BOUNDED = st.integers(min_value=-(1 << HALF), max_value=1 << HALF)


@given(a=BOUNDED, b=BOUNDED, j=st.integers(min_value=-4, max_value=4).filter(bool))
@example(a=enc("1.5"), b=enc(2) + 1, j=-1)  # 3 + 1.5/gamma rounds up to 3 + 2/gamma
@example(a=1, b=GAMMA // 2, j=-1)  # a tie: 1/2 step rounds up to 1
@example(a=0, b=0, j=1)
@settings(max_examples=60, deadline=None)
def test_forged_fx_mul_witnesses_rejected(a, b, j):
    cs, out_wire, honest = _fx_mul_gadget(a, b)
    assert is_satisfied(cs, honest)
    assert honest[out_wire] == fx_mul(a % P, b % P, SCALE)
    t = a * b + OFFSET
    assert _forge(honest, out_wire, t, prod=a * b) == honest
    # The output moved by j steps with all its bits recomputed: only the
    # row tying the bits to the product fails.
    shifted = _forge(honest, out_wire, t + (j << K))
    assert shifted[out_wire] == (honest[out_wire] + j) % P
    [bits_row] = failing_rows(cs, shifted)
    # Moving the product wire along with them fails the product row.
    moved = _forge(honest, out_wire, t + (j << K), prod=a * b + (j << K))
    assert failing_rows(cs, moved) not in ([], [bits_row])
    # So does the negated product with its bits.
    if a * b:
        negated = _forge(honest, out_wire, -a * b + OFFSET, prod=-a * b)
        assert not is_satisfied(cs, negated)


@pytest.mark.parametrize(
    "a,b,expected",
    [
        # Ties, prod = 2^(k-1) mod 2^k, round up.
        (1, GAMMA // 2, 1),
        (-1, GAMMA // 2, 0),
        (3, GAMMA // 2, 2),
        (-3, GAMMA // 2, -1),
        # The lowest and highest products that round into [-2^B, 2^B) ...
        (-(1 << (B + K)) - (1 << (K - 1)), 1, -(1 << B)),
        ((1 << (B + K)) - (1 << (K - 1)) - 1, 1, (1 << B) - 1),
        # ... and the next ones out.
        (-(1 << (B + K)) - (1 << (K - 1)) - 1, 1, None),
        ((1 << (B + K)) - (1 << (K - 1)), 1, None),
    ],
    ids=["tie", "negative-tie", "tie-3", "negative-tie-3", "lowest", "highest",
         "below-lowest", "above-highest"],
)
def test_native_and_circuit_round_alike_at_ties_and_bounds(a, b, expected):
    a, b = a % P, b % P
    if expected is None:
        with pytest.raises(FixedPointOverflow, match=f"outside the {B}-bit value bound"):
            fx_mul(a, b, SCALE)
        # The offset product has no WIDTH digits: the rows refuse the
        # decomposition's sum row, the row after the product's.
        with pytest.raises(Unsatisfied) as refused:
            _fx_mul_gadget(a, b)
        cs, _, _ = _fx_mul_gadget(0, 0)
        assert refused.value.row == 1 and is_sum_row(cs.constraints[1])
        return
    assert fx_mul(a, b, SCALE) == expected % P
    cs, out_wire, honest = _fx_mul_gadget(a, b)
    assert is_satisfied(cs, honest)
    assert honest[out_wire] == expected % P


# -- native training and the model circuit agree ---------------------------------------


@functools.cache
def _model_config(kind, epochs):
    return ProtocolConfig(
        train=default_train_config(kind, 1, epochs=epochs),
        capacity=3,
        unlearn_capacity=1,
        hash_rounds=TINY.rounds,
    )


LIMIT = 1 << B
# Quarter-grid values, or signed values of a bit length from 21 (about
# 10 after scaling) up to B + 1, which crosses the bound.
VALUES = st.one_of(
    st.sampled_from([enc(i / 4) for i in range(-4, 5)]),
    st.builds(
        lambda bits, low, sign: sign * ((1 << (bits - 1)) + low % (1 << (bits - 1))),
        st.sampled_from(range(21, B + 2)),
        st.integers(min_value=0, max_value=LIMIT),
        st.sampled_from([1, -1]),
    ),
)


@given(
    kind=st.sampled_from(["linear", "logistic"]),
    epochs=st.integers(min_value=1, max_value=2),
    rows=st.lists(st.tuples(VALUES, VALUES), max_size=3),
)
@example(kind="linear", epochs=1, rows=[(enc(5000), enc(1)), (enc(10000), enc(1))])
@example(kind="linear", epochs=1, rows=[(0, LIMIT)])
@example(kind="logistic", epochs=1, rows=[(enc(1), enc(60000))])
@example(kind="logistic", epochs=2, rows=[(enc(0.5), enc(1)), (enc(-0.25), 0)])
@settings(max_examples=150, deadline=None)
def test_native_overflow_iff_synthesis_fails(kind, epochs, rows):
    config = _model_config(kind, epochs)
    ds = Dataset(
        tuple(DataPoint(i + 1, (x % P,), y % P) for i, (x, y) in enumerate(rows)), 1
    )
    # The rows refuse a projection with these slot inputs, the native h_D
    # where it exists and h_m = 0 before the h_m binding row, the last,
    # exactly when native training raises.
    rows = circuit_rows(ModelCircuit, config)
    with pytest.raises(Unsatisfied) as refused:
        rows.complete(model_slot_projection(config, ds))
    refused_row = refused.value.row
    try:
        model = train_model(ds, config.train)
    except FixedPointOverflow as e:
        model, native_error = None, e
    assert (model is None) == (refused_row < rows.num_constraints - 1)
    if model is None:
        # A range check refuses: a value or a rescaled product leaves the
        # bound.  The projection raises training's error, naming the
        # point, the epoch and the cause.
        assert is_sum_row(rows.constraints[refused_row])
        assert native_error.uid is not None
        with pytest.raises(FixedPointOverflow) as refused:
            model_projection(config, ds)
        assert str(refused.value) == str(native_error)
        assert refused.value.uid == native_error.uid
        return
    cs, witness = model_witness(config, ds)
    assert is_satisfied(cs, witness)
    digests = tuple(hash_data_point(d, TINY) for d in ds.points)
    assert statement_of(cs, witness) == (
        hash_model_weights(model.weights, TINY),
        hash_data(digests, TINY),
    )
    assert model_projection(config, ds) == (project(cs, witness), model, digests)


# -- admission ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def pub():
    return global_setup(
        ProtocolConfig(
            train=default_train_config("linear", 1, epochs=1),
            capacity=8,
            unlearn_capacity=8,
            hash_rounds=TINY.rounds,
        )
    )


def test_queue_add_refuses_unprovable_point(pub):
    # x = 5000 * i: the second point's product w * x crosses the bound.
    state, com0, _ = server_init(pub)
    admitted, refused = [], []
    for i in (1, 2, 3):
        d = DataPoint(i, (enc(5000 * i),), enc(1))
        try:
            nxt = queue_add(state, d, pub)
        except FixedPointOverflow as e:
            assert e.uid == i and f"uid {i}" in str(e)
            refused.append(i)
            continue
        state = nxt
        admitted.append(d)
    assert [d.uid for d in admitted] == [1] and refused == [2, 3]
    assert state.pending_add == tuple(admitted)
    state, model, com1, proof = prove_update(state, pub)
    assert verify_update(pub, com0, com1, proof)
    assert model == train_model(Dataset(tuple(admitted), 1), pub.config.train)
