"""The two statement circuits behind the proof of update.

* Model circuit: public (h_m, h_D), private dataset slots.  Proves the
  committed training-set root matches the private dataset and that
  running the fixed-point SGD on it yields a model hashing to h_m.

* Data circuit: public (h_D, h_U_prev, h_U), private digest sets.  Proves
  the committed roots match the private sets, that the new unlearnt root
  extends the previous chain (so the unlearnt set only ever grows), and
  that the training and unlearnt sets are disjoint: the product of every
  pairwise difference has an inverse.  One array of ``unlearn_capacity``
  slots holds the previous and the appended digests.

Each circuit is built from a ``ProtocolConfig`` and its inputs in one
pass that yields both the constraints and the witness.  The config fixes
the shape: datasets are padded to its capacities with absent slots
masked by per-slot presence bits, so the constraints do not depend on
the inputs and one trusted setup, built from the empty input, serves
every update that fits; inputs that do not fit raise ShapeOverflow.
Every value in an absent slot is pinned to a constant, so each statement
has exactly one witness.  Each circuit's statement is its public wires,
allocated first.

Setup and ``audit-setup`` build the circuits for their rows.  A prover
needs only a witness's projection (``r1cs``): the statement and the free
wires, which are the circuit's inputs.  ``model_projection`` and
``data_projection`` compute it natively, each next to the class whose
allocation order it mirrors, and the stored rows complete it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .field import ConfigError, FixedPointOverflow
from .gadgets import CircuitBuilder, CircuitOps, lc_const, lc_wire
from .hashing import DEFAULT_ROUNDS, DataPoint, HashConfig, _tag, empty_root, hash_data
from .hashing import hash_data_point, hash_model_weights, hash_unlearn
from .r1cs import ConstraintSystem, WitnessSynthesisError, gc_paused
from .training import Dataset, ModelParams, ShapeMismatch, TrainConfig, overflow_at
from .training import sgd_step_ops, train_model


class ShapeOverflow(ShapeMismatch):
    """Inputs exceed the circuit's compiled capacity; re-run setup with a
    larger shape."""


@dataclass(frozen=True)
class ProtocolConfig:
    """The statement shape setup compiles: the training config, the
    training-set and unlearnt-set capacities, the hash rounds, and the
    proof backend.  The hash works over the fixed-point format's field."""

    train: TrainConfig
    capacity: int
    unlearn_capacity: int
    backend: str = "witness-check"
    hash_rounds: int = DEFAULT_ROUNDS

    def __post_init__(self) -> None:
        if self.capacity < 1 or self.unlearn_capacity < 1:
            raise ConfigError("capacities must be positive")
        self.hash_cfg  # HashConfig refuses rounds below 1: fail here, not at first use

    @property
    def hash_cfg(self) -> HashConfig:
        return HashConfig(self.hash_rounds)


def _model_slots(config: ProtocolConfig, dataset: Optional[Dataset]) -> list[tuple[int, DataPoint]]:
    """Each of the ``capacity`` slots' presence bit and point: the
    dataset's points, then the absent point, uid 0 with zero data.
    Raises ShapeMismatch for another arity and ShapeOverflow beyond the
    capacity."""
    arity = config.train.arity
    points = dataset.points if dataset is not None else ()
    if dataset is not None and dataset.arity != arity:
        raise ShapeMismatch(f"dataset arity {dataset.arity} != circuit arity {arity}")
    if len(points) > config.capacity:
        raise ShapeOverflow(f"{len(points)} points exceed the compiled capacity {config.capacity}")
    absent = (0, DataPoint(0, (0,) * arity, 0))
    return [(1, d) for d in points] + [absent] * (config.capacity - len(points))


class ModelCircuit:
    """R1CS form of the model-update statement (h_m, h_D), built with the
    witness for ``dataset`` (by default the empty one).
    Raises ShapeOverflow when the dataset exceeds the capacity,
    ShapeMismatch when its arity differs, and FixedPointOverflow, naming
    the point and the epoch as ``train_model`` does, when training it
    crosses the value bound."""

    @gc_paused()
    def __init__(self, config: ProtocolConfig, dataset: Optional[Dataset] = None):
        self.config = config
        train = config.train
        slots = _model_slots(config, dataset)
        scale = train.scale
        cs = ConstraintSystem(scale.modulus)
        b = CircuitBuilder(cs, scale, config.hash_cfg)
        ops = CircuitOps(b)

        # Statement wires first; b.bind gives them their values below.
        h_m_wire, h_d_wire = cs.alloc_public(), cs.alloc_public()

        inputs, leaves = [], []
        for present, d in slots:
            pres, uid, *xs, y = (lc_wire(cs.alloc_private(v)) for v in (present, d.uid, *d.x, d.y))
            for v in (uid, *xs, y):
                b.pin_absent(v, pres, 0)
            try:
                leaves.append(b.hash_data_point(uid, xs, y))
            except FixedPointOverflow as e:
                raise overflow_at(e, d.uid) from None
            inputs.append((pres, xs, y))
        presence = [pres for pres, _, _ in inputs]
        b.prefix_presence(presence)

        b.bind(h_d_wire, b.merkle_root(leaves, presence))

        weights = [ops.const(w) for w in train.init_values]
        lr = ops.const(train.learning_rate)
        for epoch in range(1, train.epochs + 1):
            for (_, d), (pres, xs, y) in zip(slots, inputs):
                # An absent slot steps from zero weights on its zero data,
                # so its discarded products stay inside the value bound
                # whatever the weights are: the circuit then raises exactly
                # where native training, which skips absent slots, raises.
                live = [b.select(pres, w, lc_const(0)) for w in weights]
                try:
                    stepped = sgd_step_ops(ops, train.kind, train.hidden, live, xs, y, lr)
                except FixedPointOverflow as e:
                    raise overflow_at(e, d.uid, epoch) from None
                weights = [b.select(pres, new, old) for new, old in zip(stepped, weights)]

        b.bind(h_m_wire, b.hash_model(weights))

        cs.finalize()
        self.cs = cs


def model_projection(
    config: ProtocolConfig, dataset: Dataset
) -> tuple[list[int], ModelParams, tuple[int, ...]]:
    """What ``ModelCircuit(config, dataset)``'s witness projects to, from
    native training and hashing: [1, h_m, h_D], then each slot's presence
    bit, uid, features and label; with the trained model and the points'
    digests.  Raises as the build raises."""
    slots = _model_slots(config, dataset)
    model = train_model(dataset, config.train)
    cfg = config.hash_cfg
    digests = tuple(hash_data_point(d, cfg) for d in dataset.points)
    statement = (hash_model_weights(model.weights, cfg), hash_data(digests, cfg))
    free = (v % cfg.modulus for present, d in slots for v in (present, d.uid, *d.x, d.y))
    return [1, *statement, *free], model, digests


# What an absent digest slot is pinned to: 0 in the training array, 1 in
# the unlearnt one.
ABSENT_DIGESTS = (0, 1)
# What the disjointness product reads for an absent slot instead, per
# array: distinct tagged constants, so a pair with an absent slot differs
# unless its present digest is the other array's tag, which admission
# refuses (``protocol``).
ABSENT_TAGS = (_tag("absent-training-digest"), _tag("absent-unlearnt-digest"))
INTERSECT = "training and unlearnt sets intersect"


def _digest_slots(config: ProtocolConfig, data=(), unlearnt_prev=(), unlearnt_add=()) -> tuple:
    """Per array, training then unlearnt (previous, then appended), its
    presence bits and its digests padded to its capacity with its
    ``ABSENT_DIGESTS`` constant; then the unlearnt array's previous bits.
    Raises ShapeOverflow when either set exceeds its capacity."""
    sets = (tuple(data), (*unlearnt_prev, *unlearnt_add))
    arrays = []
    for items, cap, absent, label in zip(
        sets, (config.capacity, config.unlearn_capacity), ABSENT_DIGESTS, ("training", "unlearnt")
    ):
        if len(items) > cap:
            raise ShapeOverflow(f"{len(items)} {label} digests exceed the compiled capacity {cap}")
        pad = cap - len(items)
        arrays.append(([1] * len(items) + [0] * pad, [*items, *[absent] * pad]))
    marks = [int(j < len(unlearnt_prev)) for j in range(config.unlearn_capacity)]
    return arrays, marks


class DataCircuit:
    """R1CS form of the dataset-update statement (h_D, h_U_prev, h_U),
    built with the witness for ``digests``: the training-set digests, the
    previous unlearnt digests and the appended ones, each by default
    empty.  The training digests fill ``capacity`` slots.  The unlearnt
    digests, previous then appended, fill one array of
    ``unlearn_capacity`` slots under two prefixes of bits: presence marks
    every digest, and the previous bits, which never run past it, mark the
    previous ones.  One chain fold gives both roots.  Absent digests are
    ``ABSENT_DIGESTS``.  One ``select`` per slot maps an absent digest to
    its array's ``ABSENT_TAGS`` constant, one row per pair multiplies the
    pair's difference into a running product, and one inverse proves the
    product nonzero: the field has no zero divisors, so every pair
    differs.  Raises ShapeOverflow when either set exceeds its capacity,
    and WitnessSynthesisError when the training set meets the unlearnt
    one."""

    @gc_paused()
    def __init__(self, config: ProtocolConfig, *digests: Sequence[int]):
        self.config = config
        arrays, marks = _digest_slots(config, *digests)
        hash_cfg = config.hash_cfg
        cs = ConstraintSystem(hash_cfg.modulus)
        b = CircuitBuilder(cs, config.train.scale, hash_cfg)

        h_d_wire, h_uprev_wire, h_u_wire = (cs.alloc_public() for _ in range(3))

        def alloc(values) -> list:
            return [lc_wire(cs.alloc_private(v)) for v in values]

        wires = []
        for (bits, items), absent in zip(arrays, ABSENT_DIGESTS):
            pres, vals = alloc(bits), alloc(items)
            b.prefix_presence(pres)
            for v, p in zip(vals, pres):
                b.pin_absent(v, p, absent)
            wires.append((pres, vals))
        (d_pres, d_vals), (u_pres, u_vals) = wires
        u_prev = alloc(marks)
        b.prefix_presence(u_prev, within=u_pres)

        b.bind(h_d_wire, b.merkle_root(d_vals, d_pres))
        psi_prev, psi = b.chain_root(lc_const(empty_root(hash_cfg)), u_vals, u_pres, u_prev)
        b.bind(h_uprev_wire, psi_prev)
        b.bind(h_u_wire, psi)

        # Pairwise disjointness of the training and unlearnt digests.
        d_tagged, u_tagged = (
            [b.select(p, v, lc_const(tag)) for p, v in zip(pres, vals)]
            for (pres, vals), tag in zip(wires, ABSENT_TAGS)
        )
        diffs = (b.sub(d, u) for d in d_tagged for u in u_tagged)
        product = next(diffs)
        for diff in diffs:
            product = b.mul(product, diff)
        b.nonzero(product, INTERSECT)

        cs.finalize()
        self.cs = cs


def data_projection(config: ProtocolConfig, *digests: Sequence[int]) -> list[int]:
    """What ``DataCircuit(config, *digests)``'s witness projects to, from
    native hashing: [1, h_D, h_U_prev, h_U], each array's presence bits
    and digests, the previous bits, then the inverse of the product of
    every pair's difference, an absent slot reading its ``ABSENT_TAGS``
    constant.  Raises as the build raises."""
    arrays, marks = _digest_slots(config, *digests)
    (d_pres, d_vals), (u_pres, u_vals) = arrays
    cfg = config.hash_cfg
    p = cfg.modulus
    d_tagged, u_tagged = (
        [v if present else tag for present, v in zip(pres, vals)]
        for (pres, vals), tag in zip(arrays, ABSENT_TAGS)
    )
    product = 1
    for d in d_tagged:
        for u in u_tagged:
            product = product * (d - u) % p
    if not product:
        raise WitnessSynthesisError(INTERSECT)
    unlearnt = u_vals[:sum(u_pres)]
    statement = (
        hash_data(d_vals[:sum(d_pres)], cfg),
        hash_unlearn(unlearnt[:sum(marks)], cfg),
        hash_unlearn(unlearnt, cfg),
    )
    free = (v % p for v in (*d_pres, *d_vals, *u_pres, *u_vals, *marks))
    return [1, *statement, *free, pow(product, -1, p)]
