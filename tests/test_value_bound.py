"""The one fixed-point value bound shared by native training and the
circuits: forged rescale witnesses, native-versus-circuit agreement, and
admission of points that training could not prove."""

import functools

import pytest
from hypothesis import example, given, settings, strategies as st

from unlearn.circuits import ModelCircuit
from unlearn.field import FixedPointOverflow, ScaleConfig, fx_encode, fx_mul
from unlearn.gadgets import CircuitBuilder, lc_wire
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
from unlearn.r1cs import ConstraintSystem, Witness
from unlearn.training import Dataset, default_train_config, train_model

SCALE = ScaleConfig()
TINY = HashConfig(rounds=4)
P = SCALE.modulus
GAMMA = SCALE.gamma
B = SCALE.value_bits
R = SCALE.remainder_bits


def enc(r):
    return fx_encode(r, SCALE)


def test_value_bits_at_defaults():
    assert B == (GAMMA * SCALE.max_abs).bit_length() == 37


def test_native_fx_mul_bound():
    one = enc(1)
    top = (1 << B) - 1
    assert fx_mul(top, one, SCALE) == top
    assert fx_mul(-top % P, one, SCALE) == -top % P
    with pytest.raises(FixedPointOverflow):
        fx_mul(1 << B, one, SCALE)
    with pytest.raises(FixedPointOverflow):
        fx_mul(-(1 << B) % P, one, SCALE)
    assert issubclass(FixedPointOverflow, OverflowError)


@pytest.mark.parametrize("field", ["x", "y"])
def test_train_model_checks_data_interval(field):
    cfg = default_train_config("linear", 1, epochs=1, scale=SCALE)

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
    """fx_mul on private wires holding a and b, and its honest witness."""
    cs = ConstraintSystem(P)
    builder = CircuitBuilder(cs, SCALE, TINY)
    out = builder.fx_mul(lc_wire(cs.alloc_private(a)), lc_wire(cs.alloc_private(b)))
    cs.finalize()
    return cs, builder, next(iter(out)), cs.witness()


def _forge(cs, builder, out_wire, honest, sigma, absval, q, r):
    """Overwrite the gadget's witness with (sigma, |prod|, q, r) and
    re-derive every bit wire and the output from them, so only the range
    checks can tell the forgery apart."""
    prod_w, sigma_w = builder.sign_wires[0]
    values = list(honest.values)
    # gadget layout: prod, sigma, abs, quotient, remainder, then the bits
    # of r, of gamma-1-r and of q, then the signed output.
    values[sigma_w], values[prod_w + 2] = sigma, absval % P
    values[prod_w + 3], values[prod_w + 4] = q % P, r % P
    nxt = prod_w + 5
    for v, width in ((r, R), (GAMMA - 1 - r, R), (q, B)):
        v %= P
        for i in range(width):
            values[nxt + i] = (v >> i) & 1
        nxt += width
    assert nxt == out_wire
    values[out_wire] = (-q if sigma else q) % P
    return Witness(tuple(values))


def test_forged_remainder_witness_rejected():
    # 1.5 * 2.00002 = 3.00003; (q-1, r+gamma) would prove 3.00002.
    cs, builder, out_wire, honest = _fx_mul_gadget(enc("1.5"), enc("2.00002"))
    assert cs.is_satisfied(honest)
    assert honest.values[out_wire] == enc("3.00003")
    prod_w, _ = builder.sign_wires[0]
    absval, q, r = honest.values[prod_w + 2 : prod_w + 5]
    assert r + GAMMA < 1 << R  # the old 2^17 remainder check admitted it
    forged = _forge(cs, builder, out_wire, honest, 0, absval, q - 1, r + GAMMA)
    assert forged.values[out_wire] == enc("3.00002")
    assert not cs.is_satisfied(forged)


BOUNDED = st.integers(min_value=-(10**8), max_value=10**8)


@given(a=BOUNDED, b=BOUNDED, k=st.integers(min_value=-4, max_value=4).filter(bool))
@settings(max_examples=60, deadline=None)
def test_forged_fx_mul_witnesses_rejected(a, b, k):
    cs, builder, out_wire, honest = _fx_mul_gadget(a, b)
    assert cs.is_satisfied(honest)
    assert honest.values[out_wire] == fx_mul(a % P, b % P, SCALE)
    prod_w, sigma_w = builder.sign_wires[0]
    sigma, absval = honest.values[sigma_w], honest.values[prod_w + 2]
    q, r = divmod(absval, GAMMA)
    shifted = _forge(cs, builder, out_wire, honest, sigma, absval, q - k, r + k * GAMMA)
    assert not cs.is_satisfied(shifted)
    if a * b:
        flipped_abs = P - absval
        fq, fr = divmod(flipped_abs, GAMMA)
        flipped = _forge(cs, builder, out_wire, honest, 1 - sigma, flipped_abs, fq, fr)
        assert not cs.is_satisfied(flipped)


# -- native training and the model circuit agree ---------------------------------------


@functools.cache
def _model_config(kind, epochs):
    return ProtocolConfig(
        train=default_train_config(kind, 1, epochs=epochs, scale=SCALE),
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
    try:
        model = train_model(ds, config.train)
    except FixedPointOverflow as e:
        model, native_error = None, e
    try:
        circuit = ModelCircuit(config, ds)
    except FixedPointOverflow as e:
        circuit, circuit_error = None, e
    assert (model is None) == (circuit is None)
    if circuit is None:
        # Both name the same point, epoch and cause.
        assert circuit_error.uid == native_error.uid is not None
        assert str(circuit_error) == str(native_error)
        return
    assert circuit.cs.is_satisfied(circuit.cs.witness())
    assert circuit.model == model
    digests = [hash_data_point(d, TINY) for d in ds.points]
    assert circuit.statement == (
        hash_model_weights(model.weights, TINY),
        hash_data(digests, TINY),
    )


# -- admission ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def pub():
    return global_setup(
        ProtocolConfig(
            train=default_train_config("linear", 1, epochs=1, scale=SCALE),
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
