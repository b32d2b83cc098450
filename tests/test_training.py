import math
import random
from fractions import Fraction

import pytest

from conftest import fx_decode, sigmoid_approx
from unlearn import circuits
from unlearn.field import (
    SIGMOID_C0,
    SIGMOID_C1,
    SIGMOID_C3,
    ScaleConfig,
    fx_encode,
)
from unlearn.hashing import DataPoint, HashConfig, hash_model_weights
from unlearn.training import (
    Dataset,
    EmptyDataset,
    ModelParams,
    ShapeMismatch,
    accuracy,
    default_train_config,
    param_count,
    predict,
    train_model,
)

CFG = ScaleConfig()


def enc(r):
    return fx_encode(r, CFG)


def dec(v):
    return float(fx_decode(v, CFG))


def test_empty_dataset_returns_init_values():
    tc = default_train_config("linear", 2, epochs=3)
    m = train_model(Dataset((), 2), tc)
    assert m.weights == tc.init_values


def test_single_point_linear_hand_computed():
    # yhat = 0, residual = -1, w <- 0 - 0.1*(-1)*1, b likewise.
    tc = default_train_config("linear", 1, epochs=1)
    ds = Dataset((DataPoint(1, (enc(1),), enc(1)),), 1)
    m = train_model(ds, tc)
    assert m.weights == (enc(0.1), enc(0.1))


def _random_dataset(rng, n, arity=1):
    pts = tuple(
        DataPoint(
            uid=i,
            x=tuple(enc(rng.randint(-4, 4) / 4) for _ in range(arity)),
            y=enc(rng.choice((0, 1))),
        )
        for i in range(n)
    )
    return Dataset(pts, arity)


def test_training_is_deterministic():
    tc = default_train_config("linear", 1, epochs=2)
    ds = _random_dataset(random.Random(3), 16)
    h = HashConfig(rounds=4)
    d1 = hash_model_weights(train_model(ds, tc).weights, h)
    d2 = hash_model_weights(train_model(ds, tc).weights, h)
    assert d1 == d2


def test_retraining_equals_fresh_dataset():
    # No hidden state leaks from the removed point: training on D \ {d}
    # is bit-identical to training on a fresh dataset with the same rows.
    tc = default_train_config("logistic", 1, epochs=2)
    ds = _random_dataset(random.Random(4), 8)
    removed = Dataset(tuple(d for d in ds.points if d.uid != 3), 1)
    assert len(removed) == len(ds) - 1
    fresh = Dataset(tuple(removed.points), 1)
    assert train_model(removed, tc).weights == train_model(fresh, tc).weights


def test_order_determines_output():
    tc = default_train_config("linear", 1, epochs=1)
    ds = _random_dataset(random.Random(5), 6)
    shuffled = Dataset(tuple(reversed(ds.points)), 1)
    # SGD is order dependent; the contract is that the dataset ordering
    # fully determines the result, not that orderings agree.
    assert train_model(ds, tc).weights == train_model(ds, tc).weights
    assert train_model(shuffled, tc).weights == train_model(shuffled, tc).weights


@pytest.mark.parametrize("arity", range(1, 12))
@pytest.mark.parametrize("hidden", [2, 4])
def test_param_count_formula(arity, hidden):
    assert param_count("linear", arity) == arity + 1
    assert param_count("logistic", arity) == arity + 1
    assert param_count("nn", arity, hidden) == hidden * arity + 2 * hidden + 1
    tc = default_train_config("nn", arity, hidden=hidden, epochs=1)
    assert len(tc.init_values) == param_count("nn", arity, hidden)


def test_arity_mismatch():
    tc = default_train_config("linear", 2, epochs=1)
    with pytest.raises(ShapeMismatch):
        train_model(_random_dataset(random.Random(0), 3, arity=1), tc)
    m = ModelParams("linear", 2, (0, 0, 0))
    with pytest.raises(ShapeMismatch):
        predict(m, (enc(1),), CFG)
    # One class for every shape error, training's and the circuits'.
    assert circuits.ShapeMismatch is ShapeMismatch
    assert issubclass(circuits.ShapeOverflow, ShapeMismatch)


# -- predict ---------------------------------------------------------------------


def test_predict_linear():
    # w * 1 is exact, so yhat is w + b on the 1/gamma grid: 0.1 twice
    # rounded, which need not be 0.2 rounded.
    m = ModelParams("linear", 1, (enc(0.1), enc(0.1)))
    assert predict(m, (enc(1),), CFG) == 2 * enc(0.1)
    m = ModelParams("linear", 1, (enc(0.75), enc(-0.5)))
    assert predict(m, (enc(2),), CFG) == enc(1)


def test_predict_logistic_zero_weights():
    m = ModelParams("logistic", 2, (0, 0, 0))
    assert predict(m, (enc(1), enc(-1)), CFG) == enc(SIGMOID_C0)


def _sigma_frac(z: Fraction) -> Fraction:
    """Rational oracle for the cubic surrogate: coefficients on the
    1/gamma grid, and each product rounded half up to it."""
    g = CFG.gamma

    def grid(r):
        return Fraction(math.floor(r * g + Fraction(1, 2)), g)

    def mul(a, b):
        return grid(a * b)

    c0, c1, c3 = map(grid, (SIGMOID_C0, SIGMOID_C1, SIGMOID_C3))
    z2 = mul(z, z)
    z3 = mul(z2, z)
    return c0 + mul(c1, z) + mul(c3, z3)


def test_predict_nn_all_zero_weights_matches_rational_oracle():
    hidden = 2
    m = ModelParams("nn", 1, (0,) * param_count("nn", 1, hidden), hidden=hidden)
    got = fx_decode(predict(m, (enc(0.5),), CFG), CFG)
    # Hidden activations are sigma(0) = 1/2; output is sigma(sum of
    # v_j * h_j + c) = sigma(0) since all weights are zero.
    h = _sigma_frac(Fraction(0))
    assert h == Fraction(1, 2)
    assert got == _sigma_frac(Fraction(0))


@pytest.mark.parametrize("z", [Fraction(3, 7), Fraction(-5, 2), Fraction(9, 4)])
def test_sigmoid_matches_rational_oracle(z):
    on_grid = fx_decode(enc(z), CFG)
    assert fx_decode(sigmoid_approx(enc(z), CFG), CFG) == _sigma_frac(on_grid)


# -- accuracy ---------------------------------------------------------------------


def test_accuracy_separable():
    m = ModelParams("linear", 1, (enc(1), 0))  # yhat = x
    ds = Dataset(
        (DataPoint(1, (enc(1),), enc(1)), DataPoint(2, (enc(-1),), enc(0))), 1
    )
    assert accuracy(m, ds, enc(0.5), CFG) == 1


def test_accuracy_tie_counts_as_class_one():
    m = ModelParams("linear", 1, (0, enc(0.5)))  # constant 0.5 predictor
    ds = Dataset(
        (DataPoint(1, (enc(1),), enc(1)), DataPoint(2, (enc(2),), enc(0))), 1
    )
    assert accuracy(m, ds, enc(0.5), CFG) == Fraction(1, 2)


def test_accuracy_range_and_empty():
    rng = random.Random(9)
    ds = _random_dataset(rng, 12)
    tc = default_train_config("logistic", 1, epochs=2)
    m = train_model(ds, tc)
    acc = accuracy(m, ds, enc(0.5), CFG)
    assert 0 <= acc <= 1
    with pytest.raises(EmptyDataset):
        accuracy(m, Dataset((), 1), enc(0.5), CFG)


# -- float reference oracle --------------------------------------------------------


def _sigma_f(z):
    c0, c1, c3 = float(SIGMOID_C0), float(SIGMOID_C1), float(SIGMOID_C3)
    return c0 + c1 * z + c3 * z**3


def _dsigma_f(z):
    c1, c3 = float(SIGMOID_C1), float(SIGMOID_C3)
    return c1 + 3 * c3 * z**2


def float_train(kind, points, epochs, lr, arity):
    """Float SGD implementing the identical update rules (squared loss,
    cubic sigmoid surrogate, batch size 1, dataset order)."""
    w = [0.0] * (arity + 1)
    for _ in range(epochs):
        for x, y in points:
            z = sum(wi * xi for wi, xi in zip(w[:arity], x)) + w[arity]
            yhat = z if kind == "linear" else _sigma_f(z)
            resid = yhat - y
            g = resid if kind == "linear" else resid * _dsigma_f(z)
            for k in range(arity):
                w[k] -= lr * g * x[k]
            w[arity] -= lr * g
    return w


@pytest.mark.parametrize("kind", ["linear", "logistic"])
def test_fixed_point_matches_float_reference(kind):
    rng = random.Random(16)
    n = 16
    pts = [
        (
            (rng.randint(-4, 4) / 4,),
            float(rng.choice((0, 1))),
        )
        for _ in range(n)
    ]
    ds = Dataset(
        tuple(
            DataPoint(i, (enc(x[0]),), enc(y)) for i, (x, y) in enumerate(pts)
        ),
        1,
    )
    tc = default_train_config(kind, 1, epochs=1)
    fixed = train_model(ds, tc)
    ref = float_train(kind, pts, epochs=1, lr=0.1, arity=1)
    for wf, wr in zip(fixed.weights, ref):
        assert abs(dec(wf) - wr) < 1e-3


@pytest.mark.parametrize("kind", ["logistic", "nn"])
def test_training_encodes_no_sigmoid_coefficient(kind, monkeypatch):
    # The surrogate's coefficients are encoded once, in field, not at
    # every step.
    from unlearn import field

    calls = []
    monkeypatch.setattr(field, "fx_encode", lambda *a: calls.append(a) or fx_encode(*a))
    cfg = default_train_config(kind, 1, hidden=2 if kind == "nn" else 0, epochs=2)
    points = tuple(DataPoint(i, (enc(i / 4),), enc(i % 2)) for i in range(3))
    train_model(Dataset(points, 1), cfg)
    assert calls == []


def test_nn_init_values_are_frozen_constants():
    # Derived from kind, arity, hidden and scale alone.
    a = default_train_config("nn", 3, hidden=2, epochs=1).init_values
    b = default_train_config("nn", 3, hidden=2, epochs=5, learning_rate=0.5).init_values
    assert a == b
    assert len(a) == param_count("nn", 3, 2)
    assert all(abs(float(fx_decode(v, CFG))) <= 0.5 for v in a)
    assert default_train_config("linear", 3).init_values == (0, 0, 0, 0)


def test_nn_training_runs_and_is_deterministic():
    tc = default_train_config("nn", 2, hidden=2, epochs=1)
    ds = _random_dataset(random.Random(11), 6, arity=2)
    m1 = train_model(ds, tc)
    m2 = train_model(ds, tc)
    assert m1.weights == m2.weights
    assert len(m1.weights) == param_count("nn", 2, 2)
    yhat = predict(m1, ds.points[0].x, CFG)
    assert -1 < dec(yhat) < 2


def test_nn_step_matches_float_gradients():
    # One step on one point: compare against hand-coded float backprop.
    hidden, arity, lr = 2, 1, 0.1
    tc = default_train_config("nn", arity, hidden=hidden, epochs=1)
    x, y = 0.5, 1.0
    ds = Dataset((DataPoint(0, (enc(x),), enc(y)),), arity)
    fixed = train_model(ds, tc)

    w = [float(fx_decode(v, CFG)) for v in tc.init_values]
    w_h = w[: hidden * arity]
    b_h = w[hidden * arity : hidden * arity + hidden]
    v = w[hidden * arity + hidden : hidden * arity + 2 * hidden]
    c = w[-1]
    z_h = [w_h[j] * x + b_h[j] for j in range(hidden)]
    h = [_sigma_f(z) for z in z_h]
    z_o = sum(v[j] * h[j] for j in range(hidden)) + c
    resid = _sigma_f(z_o) - y
    dout = resid * _dsigma_f(z_o)
    exp_w, exp_b, exp_v = [], [], []
    for j in range(hidden):
        g_j = dout * v[j] * _dsigma_f(z_h[j])
        exp_w.append(w_h[j] - lr * g_j * x)
        exp_b.append(b_h[j] - lr * g_j)
        exp_v.append(v[j] - lr * dout * h[j])
    expected = exp_w + exp_b + exp_v + [c - lr * dout]
    for wf, wr in zip(fixed.weights, expected):
        assert abs(dec(wf) - wr) < 1e-3
