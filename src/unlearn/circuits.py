"""The two statement circuits behind the proof of update.

* Model circuit: public (h_m, h_D), private dataset slots.  Proves the
  committed training-set root matches the private dataset and that
  running the fixed-point SGD on it yields a model hashing to h_m.

* Data circuit: public (h_D, h_U_prev, h_U), private digest sets.  Proves
  the committed roots match the private sets, that the new unlearnt root
  extends the previous chain (so the unlearnt set only ever grows), and
  that the training and unlearnt sets are disjoint.  One array of
  ``unlearn_capacity`` slots holds the previous and the appended digests.

Each circuit is built from a ``ProtocolConfig`` and its inputs in one
pass that yields both the constraints and the witness; the prover reads
the trained model and the statement from it.  The config fixes the
shape: datasets are padded to its capacities with absent slots masked by
per-slot presence bits, so the constraints do not depend on the inputs
and one trusted setup, built from the empty input, serves every update
that fits; inputs that do not fit raise ShapeOverflow.  Every value in an
absent slot is pinned to a constant, so each statement has exactly one
witness.  A prover that proves against the stored constraints builds
with ``values_only=True``: the same pass computes the witness and records
no rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .field import ConfigError, FixedPointOverflow
from .gadgets import CircuitBuilder, CircuitOps, lc_const, lc_wire
from .hashing import DEFAULT_ROUNDS, DataPoint, HashConfig, empty_root
from .r1cs import ConstraintSystem, gc_paused
from .training import Dataset, ModelParams, ShapeMismatch, TrainConfig, overflow_at, sgd_step_ops


class ShapeOverflow(ShapeMismatch):
    """Inputs exceed the circuit's compiled capacity; re-run setup with a
    larger shape."""


@dataclass(frozen=True)
class ProtocolConfig:
    """The statement shape setup compiles: the training config, the
    training-set and unlearnt-set capacities, the hash rounds, and the
    proof backend.  The hash works over the training field."""

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
        scale = self.train.scale
        return HashConfig(scale.modulus, self.hash_rounds, scale.value_bits)


class ModelCircuit:
    """R1CS form of the model-update statement, built with the witness for
    ``dataset`` (by default the empty one).  ``model`` is the trained
    model, ``digests`` the points' digests (the leaves under h_D) and
    ``statement`` is (h_m, h_D).  Raises ShapeOverflow when the dataset
    exceeds the capacity, ShapeMismatch when its arity differs, and
    FixedPointOverflow, naming the point and the epoch as ``train_model``
    does, when training it crosses the value bound.
    With ``values_only`` its constraint system records no rows."""

    @gc_paused()
    def __init__(
        self,
        config: ProtocolConfig,
        dataset: Optional[Dataset] = None,
        values_only: bool = False,
    ):
        self.config = config
        train = config.train
        points = dataset.points if dataset is not None else ()
        if dataset is not None and dataset.arity != train.arity:
            raise ShapeMismatch(
                f"dataset arity {dataset.arity} != circuit arity {train.arity}"
            )
        if len(points) > config.capacity:
            raise ShapeOverflow(
                f"{len(points)} points exceed the compiled capacity {config.capacity}"
            )
        absent = DataPoint(0, (0,) * train.arity, 0)
        slots = points + (absent,) * (config.capacity - len(points))
        scale = train.scale
        cs = ConstraintSystem(scale.modulus, values_only)
        b = CircuitBuilder(cs, scale, config.hash_cfg)
        ops = CircuitOps(b)

        # Statement wires first; b.bind gives them their values below.
        self.h_m_wire = cs.alloc_public()
        self.h_d_wire = cs.alloc_public()

        presence, leaves, data = [], [], []
        for s, d in enumerate(slots):
            pres = lc_wire(cs.alloc_private(int(s < len(points))))
            uid = lc_wire(cs.alloc_private(d.uid))
            xs = [lc_wire(cs.alloc_private(x)) for x in d.x]
            y = lc_wire(cs.alloc_private(d.y))
            for v in (uid, *xs, y):
                b.pin_absent(v, pres, 0)
            try:
                leaves.append(b.hash_data_point(uid, xs, y))
            except FixedPointOverflow as e:
                raise overflow_at(e, d.uid) from None
            presence.append(pres)
            data.append((xs, y))
        b.prefix_presence(presence)
        self.digests = tuple(cs.lc_value(leaf) for leaf in leaves[: len(points)])

        b.bind(self.h_d_wire, b.merkle_root(leaves, presence))

        weights = [ops.const(w) for w in train.init_values]
        lr = ops.const(train.learning_rate)
        for epoch in range(1, train.epochs + 1):
            for d, pres, (xs, y) in zip(slots, presence, data):
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
        self.model = ModelParams(
            train.kind, train.arity, tuple(map(cs.lc_value, weights)), train.hidden
        )

        b.bind(self.h_m_wire, b.hash_model(weights))

        cs.finalize()
        self.cs = cs

    @property
    def statement(self) -> tuple[int, int]:
        """(h_m, h_D) as computed from the inputs."""
        return self.cs.values[self.h_m_wire], self.cs.values[self.h_d_wire]


class DataCircuit:
    """R1CS form of the dataset-update statement, built with the witness
    for the training-set digests, the previous unlearnt digests and the
    appended ones (by default all empty).  ``statement`` is (h_D,
    h_U_prev, h_U).  The training digests fill ``capacity`` slots.  The
    unlearnt digests, previous then appended, fill one array of
    ``unlearn_capacity`` slots under two prefixes of bits: presence marks
    every digest, and the previous bits, which never run past it, mark
    the previous ones.  One chain fold gives both roots.  Absent training
    digests are 0 and absent unlearnt ones 1: an inactive disjointness
    pair then differs, and its inverse is 0, unless its present digest is
    the other array's constant.
    Raises ShapeOverflow when either set exceeds its capacity, and
    WitnessSynthesisError when the training set meets the unlearnt one.
    With ``values_only`` its constraint system records no rows."""

    @gc_paused()
    def __init__(
        self,
        config: ProtocolConfig,
        hashed_data: Sequence[int] = (),
        hashed_unlearnt_prev: Sequence[int] = (),
        hashed_unlearnt_add: Sequence[int] = (),
        values_only: bool = False,
    ):
        self.config = config
        prev = tuple(hashed_unlearnt_prev)
        sets = (tuple(hashed_data), prev + tuple(hashed_unlearnt_add))
        caps = (config.capacity, config.unlearn_capacity)
        for items, cap, label in zip(sets, caps, ("training", "unlearnt")):
            if len(items) > cap:
                raise ShapeOverflow(
                    f"{len(items)} {label} digests exceed the compiled capacity {cap}"
                )
        hash_cfg = config.hash_cfg
        cs = ConstraintSystem(hash_cfg.modulus, values_only)
        b = CircuitBuilder(cs, config.train.scale, hash_cfg)

        self.h_d_wire = cs.alloc_public()
        self.h_uprev_wire = cs.alloc_public()
        self.h_u_wire = cs.alloc_public()

        def alloc_set(items, capacity: int, absent: int):
            padded = items + (absent,) * (capacity - len(items))
            pres = [lc_wire(cs.alloc_private(int(i < len(items)))) for i in range(capacity)]
            vals = [lc_wire(cs.alloc_private(v)) for v in padded]
            b.prefix_presence(pres)
            for v, p in zip(vals, pres):
                b.pin_absent(v, p, absent)
            return pres, vals

        (d_pres, d_vals), (u_pres, u_vals) = map(alloc_set, sets, caps, (0, 1))
        u_prev = [lc_wire(cs.alloc_private(int(j < len(prev)))) for j in range(len(u_pres))]
        b.prefix_presence(u_prev, within=u_pres)

        b.bind(self.h_d_wire, b.merkle_root(d_vals, d_pres))
        psi_prev, psi = b.chain_root(lc_const(empty_root(hash_cfg)), u_vals, u_pres, u_prev)
        b.bind(self.h_uprev_wire, psi_prev)
        b.bind(self.h_u_wire, psi)

        # Pairwise disjointness of the training and unlearnt digests.
        for i in range(config.capacity):
            for j in range(config.unlearn_capacity):
                active = b.mul(d_pres[i], u_pres[j])
                b.inverse_pair(b.sub(d_vals[i], u_vals[j]), active)

        cs.finalize()
        self.cs = cs

    @property
    def statement(self) -> tuple[int, int, int]:
        """(h_D, h_U_prev, h_U) as computed from the inputs."""
        v = self.cs.values
        return v[self.h_d_wire], v[self.h_uprev_wire], v[self.h_u_wire]
