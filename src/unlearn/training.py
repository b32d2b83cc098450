"""Deterministic fixed-point SGD for the four supported model classes.

Every arithmetic step goes through the ops interface from ``field``, so the
exact computation — including the half-up rounding of each rescaled
product — can be replayed wire-for-wire inside the model circuit.
Training visits points in dataset order with batch size 1 and no
shuffling; all randomness (the NN weight initialization) is a frozen
constant vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .field import (
    FixedPointOverflow,
    NativeOps,
    ScaleConfig,
    check_value_range,
    fx_encode,
    sigmoid_deriv_poly,
    sigmoid_poly,
    signed_repr,
)
from .hashing import DataPoint, sha256

KINDS = ("linear", "logistic", "nn")


class ShapeMismatch(ValueError):
    """Inputs do not fit the shape of a model or a circuit: a point or a
    dataset of another arity."""


class ShapeOverflow(ShapeMismatch):
    """Inputs exceed the circuit's compiled capacity; re-run setup with a
    larger shape."""


class EmptyDataset(ValueError):
    pass


@dataclass(frozen=True)
class Dataset:
    points: tuple[DataPoint, ...]
    arity: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "points", tuple(self.points))
        for d in self.points:
            if len(d.x) != self.arity:
                raise ShapeMismatch(f"point {d.uid} has arity {len(d.x)}")
        uids = [d.uid for d in self.points]
        if len(set(uids)) != len(uids):
            raise ValueError("duplicate uid in dataset")

    def __len__(self) -> int:
        return len(self.points)


def param_count(kind: str, arity: int, hidden: int = 0) -> int:
    """linear/logistic: n+1 weights; NN(N): N*n + N + N + 1."""
    if kind in ("linear", "logistic"):
        return arity + 1
    if kind == "nn":
        return hidden * arity + hidden + hidden + 1
    raise ValueError(f"unknown model kind {kind!r}")


@dataclass(frozen=True)
class ModelParams:
    """Canonical weight order: linear/logistic [w_1..w_n, b]; NN hidden
    weights row-major, hidden biases, output weights, output bias."""

    kind: str
    arity: int
    weights: tuple[int, ...]
    hidden: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(self.weights))
        if self.kind == "empty":
            if len(self.weights) != 1:
                raise ValueError("the empty-model sentinel has one weight")
            return
        if len(self.weights) != param_count(self.kind, self.arity, self.hidden):
            raise ValueError("weight count does not match kind and arity")


@dataclass(frozen=True)
class TrainConfig:
    kind: str
    arity: int
    hidden: int = 0
    epochs: int = 10
    learning_rate: int = 0  # fixed-point encoded; see default_train_config

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if self.arity < 0:
            raise ValueError("arity must not be negative")
        if self.kind == "nn" and self.hidden not in (2, 4):
            raise ValueError("NN models support 2 or 4 hidden neurons")
        if self.epochs < 1:
            raise ValueError("epochs must be positive")

    @property
    def scale(self) -> ScaleConfig:
        return ScaleConfig()

    @property
    def init_values(self) -> tuple[int, ...]:
        """All zeros for linear/logistic; a frozen pseudo-random vector in
        [-0.5, 0.5] for NNs (hashed from a fixed label, so every build of
        the same shape hard-codes the same constants)."""
        n = param_count(self.kind, self.arity, self.hidden)
        if self.kind in ("linear", "logistic"):
            return (0,) * n
        gamma = self.scale.gamma
        vals = []
        for i in range(n):
            digest = sha256(b"unlearn.nn-init.v1.%d" % i).digest()
            k = int.from_bytes(digest, "big") % (gamma + 1) - gamma // 2
            vals.append(fx_encode(Fraction(k, gamma), self.scale))
        return tuple(vals)


def default_train_config(
    kind: str,
    arity: int,
    hidden: int = 0,
    epochs: int = 10,
    learning_rate: Fraction | float | str = Fraction(1, 10),
) -> TrainConfig:
    return TrainConfig(
        kind=kind,
        arity=arity,
        hidden=hidden,
        epochs=epochs,
        learning_rate=fx_encode(learning_rate, ScaleConfig()),
    )


def _dot_bias(ops, weights, bias, x):
    acc = bias
    for w, xk in zip(weights, x):
        acc = ops.add(acc, ops.mul(w, xk))
    return acc


def forward_ops(ops, kind: str, hidden: int, weights, x):
    """Shared forward pass.  Returns (prediction, trace) where the trace
    carries the intermediate values the gradient step reuses."""
    n = len(x)
    if kind == "linear":
        z = _dot_bias(ops, weights[:n], weights[n], x)
        return z, (z,)
    if kind == "logistic":
        z = _dot_bias(ops, weights[:n], weights[n], x)
        return sigmoid_poly(ops, z), (z,)
    if kind == "nn":
        w_h = weights[: hidden * n]
        b_h = weights[hidden * n : hidden * n + hidden]
        v = weights[hidden * n + hidden : hidden * n + 2 * hidden]
        c = weights[-1]
        z_h = [_dot_bias(ops, w_h[j * n : (j + 1) * n], b_h[j], x) for j in range(hidden)]
        h = [sigmoid_poly(ops, z) for z in z_h]
        z_o = _dot_bias(ops, v, c, h)
        return sigmoid_poly(ops, z_o), (z_h, h, z_o)
    raise ValueError(f"unknown model kind {kind!r}")


def sgd_step_ops(ops, kind: str, hidden: int, weights, x, y, lr):
    """One batch-size-1 SGD step on squared loss 1/2 (yhat - y)^2.

    Gradients read the pre-update weights throughout; the returned list is
    the full post-update weight vector.
    """
    n = len(x)
    yhat, trace = forward_ops(ops, kind, hidden, weights, x)
    resid = ops.sub(yhat, y)

    if kind in ("linear", "logistic"):
        g = resid if kind == "linear" else ops.mul(resid, sigmoid_deriv_poly(ops, trace[0]))
        new = [ops.sub(weights[k], ops.mul(lr, ops.mul(g, x[k]))) for k in range(n)]
        new.append(ops.sub(weights[n], ops.mul(lr, g)))
        return new

    z_h, h, z_o = trace
    w_h = weights[: hidden * n]
    b_h = weights[hidden * n : hidden * n + hidden]
    v = weights[hidden * n + hidden : hidden * n + 2 * hidden]
    c = weights[-1]
    dout = ops.mul(resid, sigmoid_deriv_poly(ops, z_o))
    new_w, new_b, new_v = [], [], []
    for j in range(hidden):
        g_j = ops.mul(ops.mul(dout, v[j]), sigmoid_deriv_poly(ops, z_h[j]))
        for k in range(n):
            new_w.append(ops.sub(w_h[j * n + k], ops.mul(lr, ops.mul(g_j, x[k]))))
        new_b.append(ops.sub(b_h[j], ops.mul(lr, g_j)))
        new_v.append(ops.sub(v[j], ops.mul(lr, ops.mul(dout, h[j]))))
    new_c = ops.sub(c, ops.mul(lr, dout))
    return new_w + new_b + new_v + [new_c]


def overflow_at(
    e: FixedPointOverflow, uid: int, epoch: int | None = None
) -> FixedPointOverflow:
    """``e`` restated to name the data point (and the epoch) it arose on."""
    where = f"uid {uid}" if epoch is None else f"uid {uid}, epoch {epoch}"
    return FixedPointOverflow(f"{where}: {e}", uid=uid)


def train_model(dataset: Dataset, cfg: TrainConfig) -> ModelParams:
    """SGD over the dataset in order; empty dataset returns the init values.

    Raises FixedPointOverflow, naming the point, when a feature or label
    lies outside [-2^B, 2^B) or a rescaled product reaches 2^B, with
    B = cfg.scale.value_bits: exactly where the model circuit's rows have
    no witness for the dataset.
    """
    if dataset.arity != cfg.arity:
        raise ShapeMismatch(
            f"dataset arity {dataset.arity} != config arity {cfg.arity}"
        )
    scale = cfg.scale
    for d in dataset.points:
        try:
            for v in (*d.x, d.y):
                check_value_range(v, scale)
        except FixedPointOverflow as e:
            raise overflow_at(e, d.uid) from None
    ops = NativeOps(scale)
    weights = [ops.const(w) for w in cfg.init_values]
    lr = ops.const(cfg.learning_rate)
    for epoch in range(1, cfg.epochs + 1):
        for d in dataset.points:
            try:
                weights = sgd_step_ops(ops, cfg.kind, cfg.hidden, weights, d.x, d.y, lr)
            except FixedPointOverflow as e:
                raise overflow_at(e, d.uid, epoch) from None
    return ModelParams(cfg.kind, cfg.arity, tuple(weights), cfg.hidden)


def predict(m: ModelParams, x: Sequence[int], scale: ScaleConfig) -> int:
    if len(x) != m.arity:
        raise ShapeMismatch(f"expected {m.arity} features, got {len(x)}")
    yhat, _ = forward_ops(NativeOps(scale), m.kind, m.hidden, list(m.weights), list(x))
    return yhat


def accuracy(
    m: ModelParams, dataset: Dataset, threshold: int, scale: ScaleConfig
) -> Fraction:
    """Fraction of points where the thresholded prediction matches the 0/1
    label; yhat >= threshold counts as class 1."""
    if not dataset.points:
        raise EmptyDataset("accuracy needs a nonempty dataset")
    one = fx_encode(1, scale)
    hits = 0
    for d in dataset.points:
        yhat = predict(m, d.x, scale)
        predicted = signed_repr(yhat, scale) >= signed_repr(threshold, scale)
        hits += predicted == (d.y == one)
    return Fraction(hits, len(dataset.points))
